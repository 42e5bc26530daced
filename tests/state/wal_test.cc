// The write-ahead feed log: append/replay round trips, sequence-number
// recovery across reopen, and strict DataLoss on truncated or bit-flipped
// files — the crash model of the durability subsystem.

#include "state/wal.h"

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "state/frame.h"
#include "tests/state/temp_dir.h"

namespace onesql {
namespace state {
namespace {

Timestamp T(int h, int m) { return Timestamp::FromHMS(h, m); }

WalRecord Insert(uint64_t seq, const std::string& source, Timestamp ptime,
                 Row row) {
  WalRecord rec;
  rec.seq = seq;
  rec.event.kind = FeedEvent::Kind::kInsert;
  rec.event.source = source;
  rec.event.ptime = ptime;
  rec.event.row = std::move(row);
  return rec;
}

WalRecord Watermark(uint64_t seq, const std::string& source, Timestamp ptime,
                    Timestamp mark) {
  WalRecord rec;
  rec.seq = seq;
  rec.event.kind = FeedEvent::Kind::kWatermark;
  rec.event.source = source;
  rec.event.ptime = ptime;
  rec.event.watermark = mark;
  return rec;
}

/// Appends three records to a fresh log at `path` and closes it.
void WriteSampleLog(const std::string& path) {
  auto log = FeedLog::Open(path);
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  ASSERT_TRUE(
      log->Append(Insert(0, "Bid", T(8, 1),
                         {Value::Time(T(8, 0)), Value::Int64(13),
                          Value::String("A")}))
          .ok());
  ASSERT_TRUE(
      log->Append(Insert(1, "bid", T(8, 2),
                         {Value::Time(T(8, 1)), Value::Null(),
                          Value::String("B")}))
          .ok());
  ASSERT_TRUE(log->Append(Watermark(2, "Bid", T(8, 3), T(8, 0))).ok());
  ASSERT_TRUE(log->Close().ok());
}

TEST(WalTest, FreshLogIsEmpty) {
  const std::string path = NewTempDir("wal") + "/feed.wal";
  auto log = FeedLog::Open(path);
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  EXPECT_EQ(log->next_seq(), 0u);
  ASSERT_TRUE(log->Close().ok());
  auto records = FeedLog::ReadAll(path);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  EXPECT_TRUE(records->empty());
}

TEST(WalTest, AppendThenReadAllRoundTrips) {
  const std::string path = NewTempDir("wal") + "/feed.wal";
  WriteSampleLog(path);

  auto records = FeedLog::ReadAll(path);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  ASSERT_EQ(records->size(), 3u);
  EXPECT_EQ((*records)[0].seq, 0u);
  EXPECT_EQ((*records)[0].event.kind, FeedEvent::Kind::kInsert);
  EXPECT_EQ((*records)[0].event.source, "Bid");
  EXPECT_EQ((*records)[0].event.ptime, T(8, 1));
  ASSERT_EQ((*records)[0].event.row.size(), 3u);
  EXPECT_EQ((*records)[0].event.row[1], Value::Int64(13));
  EXPECT_EQ((*records)[1].event.row[1], Value::Null());
  EXPECT_EQ((*records)[2].event.kind, FeedEvent::Kind::kWatermark);
  EXPECT_EQ((*records)[2].event.watermark, T(8, 0));
}

TEST(WalTest, RecordBytesArePinned) {
  // One insert, one delete and one watermark record. The expected bytes are
  // the file format as first released: header frame, then one CRC-framed
  // record per event (varint seq, u8 kind, source, ptime, then the row or
  // the watermark). A change here breaks every existing log on disk.
  const std::string path = NewTempDir("wal") + "/feed.wal";
  {
    auto log = FeedLog::Open(path);
    ASSERT_TRUE(log.ok()) << log.status().ToString();
    ASSERT_TRUE(log->Append(Insert(0, "Bid", T(8, 1),
                                   {Value::Time(T(8, 0)), Value::Int64(13),
                                    Value::String("A")}))
                    .ok());
    WalRecord del = Insert(1, "Bid", T(8, 2),
                           {Value::Time(T(8, 1)), Value::Null(),
                            Value::String("B")});
    del.event.kind = FeedEvent::Kind::kDelete;
    ASSERT_TRUE(log->Append(del).ok());
    ASSERT_TRUE(log->Append(Watermark(2, "Bid", T(8, 3), T(8, 0))).ok());
    ASSERT_TRUE(log->Close().ok());
  }
  const std::string want(
      "\x09\x00\x00\x00\x31\x53\x51\x4c\x57\x41\x4c\x31\x01\xc9\x2b\x7b"
      "\xf6\x15\x00\x00\x00\x00\x00\x03\x42\x69\x64\xc0\xf9\xc2\x1b\x03"
      "\x05\x80\xd0\xbb\x1b\x02\x1a\x04\x01\x41\xbd\x22\x88\x41\x14\x00"
      "\x00\x00\x01\x01\x03\x42\x69\x64\x80\xa3\xca\x1b\x03\x05\xc0\xf9"
      "\xc2\x1b\x00\x04\x01\x42\x98\xe3\x74\xb5\x0e\x00\x00\x00\x02\x02"
      "\x03\x42\x69\x64\xc0\xcc\xd1\x1b\x80\xd0\xbb\x1b\xab\xc7\x0e\x78",
      96);
  auto got = ReadFileToString(path);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, want);

  // The same records decode back, delete included.
  auto records = FeedLog::ReadAll(path);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  ASSERT_EQ(records->size(), 3u);
  EXPECT_EQ((*records)[1].event.kind, FeedEvent::Kind::kDelete);
  EXPECT_EQ((*records)[1].event.row[1], Value::Null());
}

TEST(WalTest, ReopenRecoversSequenceAndKeepsAppending) {
  const std::string path = NewTempDir("wal") + "/feed.wal";
  WriteSampleLog(path);

  auto log = FeedLog::Open(path);
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  EXPECT_EQ(log->next_seq(), 3u);
  ASSERT_TRUE(log->Append(Watermark(3, "Bid", T(8, 4), T(8, 2))).ok());
  ASSERT_TRUE(log->Sync().ok());
  ASSERT_TRUE(log->Close().ok());

  auto records = FeedLog::ReadAll(path);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 4u);
  EXPECT_EQ((*records)[3].event.watermark, T(8, 2));
}

TEST(WalTest, OutOfOrderAppendIsRejected) {
  const std::string path = NewTempDir("wal") + "/feed.wal";
  auto log = FeedLog::Open(path);
  ASSERT_TRUE(log.ok());
  EXPECT_FALSE(log->Append(Insert(5, "Bid", T(8, 1), {})).ok());
  ASSERT_TRUE(log->Append(Insert(0, "Bid", T(8, 1), {})).ok());
  EXPECT_FALSE(log->Append(Insert(0, "Bid", T(8, 1), {})).ok());
}

TEST(WalTest, TruncatedLogIsDataLossAtEveryCut) {
  const std::string dir = NewTempDir("wal");
  const std::string path = dir + "/feed.wal";
  WriteSampleLog(path);
  auto bytes = ReadFileToString(path);
  ASSERT_TRUE(bytes.ok());

  const std::string damaged_path = dir + "/damaged.wal";
  // Cut after the header (a header-only log is legitimately empty), inside
  // every later frame.
  for (size_t cut = 1; cut < bytes->size(); ++cut) {
    ASSERT_TRUE(WriteFileAtomic(damaged_path, bytes->substr(0, cut)).ok());
    auto records = FeedLog::ReadAll(damaged_path);
    if (records.ok()) {
      // Only acceptable when the cut lands exactly on a frame boundary —
      // then the log just holds fewer records.
      EXPECT_LT(records->size(), 3u) << "cut at " << cut;
      continue;
    }
    EXPECT_EQ(records.status().code(), StatusCode::kDataLoss)
        << "cut at " << cut << ": " << records.status().ToString();
  }
}

TEST(WalTest, BitFlippedLogIsDataLoss) {
  const std::string dir = NewTempDir("wal");
  const std::string path = dir + "/feed.wal";
  WriteSampleLog(path);
  auto bytes = ReadFileToString(path);
  ASSERT_TRUE(bytes.ok());

  const std::string damaged_path = dir + "/damaged.wal";
  for (size_t byte = 0; byte < bytes->size(); ++byte) {
    std::string damaged = *bytes;
    damaged[byte] = static_cast<char>(damaged[byte] ^ 0x10);
    ASSERT_TRUE(WriteFileAtomic(damaged_path, damaged).ok());
    auto records = FeedLog::ReadAll(damaged_path);
    ASSERT_FALSE(records.ok()) << "flip at byte " << byte;
    EXPECT_EQ(records.status().code(), StatusCode::kDataLoss);
    // Opening for append must refuse just the same — never append past
    // damage.
    auto log = FeedLog::Open(damaged_path);
    ASSERT_FALSE(log.ok()) << "flip at byte " << byte;
    EXPECT_EQ(log.status().code(), StatusCode::kDataLoss);
  }
}

TEST(WalTest, GarbageFileIsDataLoss) {
  const std::string path = NewTempDir("wal") + "/feed.wal";
  ASSERT_TRUE(WriteFileAtomic(path, "this is not a feed log at all").ok());
  auto records = FeedLog::ReadAll(path);
  ASSERT_FALSE(records.ok());
  EXPECT_EQ(records.status().code(), StatusCode::kDataLoss);
}

TEST(WalTest, MissingFileIsNotFoundForReadAll) {
  auto records = FeedLog::ReadAll(NewTempDir("wal") + "/absent.wal");
  ASSERT_FALSE(records.ok());
  EXPECT_EQ(records.status().code(), StatusCode::kNotFound);
}

TEST(WalTest, ManyRecordsSurviveSyncBoundaries) {
  const std::string path = NewTempDir("wal") + "/feed.wal";
  {
    auto log = FeedLog::Open(path);
    ASSERT_TRUE(log.ok());
    for (uint64_t i = 0; i < 500; ++i) {
      ASSERT_TRUE(log->Append(Insert(i, "Bid", T(8, 0) + Interval::Seconds(i),
                                     {Value::Int64(static_cast<int64_t>(i))}))
                      .ok());
      if (i % 37 == 0) {
        ASSERT_TRUE(log->Sync().ok());
      }
    }
    ASSERT_TRUE(log->Close().ok());
  }
  auto records = FeedLog::ReadAll(path);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 500u);
  for (uint64_t i = 0; i < 500; ++i) {
    EXPECT_EQ((*records)[i].seq, i);
    EXPECT_EQ((*records)[i].event.row[0], Value::Int64(static_cast<int64_t>(i)));
  }
}

// ---------------------------------------------------------------------------
// GroupCommitLog: the async group-commit front end must write the identical
// file format, keep WaitDurable's guarantee, and make errors sticky.
// ---------------------------------------------------------------------------

TEST(GroupCommitTest, WritesFeedLogFormat) {
  const std::string path = NewTempDir("gcwal") + "/feed.wal";
  auto log = GroupCommitLog::Open(path);
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  for (uint64_t i = 0; i < 5; ++i) {
    ASSERT_TRUE((*log)
                    ->Append(Insert(i, "Bid", T(8, static_cast<int>(i)),
                                    {Value::Int64(static_cast<int64_t>(i))}))
                    .ok());
  }
  ASSERT_TRUE((*log)->WaitDurable(5).ok());
  ASSERT_TRUE((*log)->Close().ok());

  // The plain reader replays it: byte format is FeedLog's, unchanged.
  auto records = FeedLog::ReadAll(path);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  ASSERT_EQ(records->size(), 5u);
  for (uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ((*records)[i].seq, i);
    EXPECT_EQ((*records)[i].event.row[0].AsInt64(), static_cast<int64_t>(i));
  }

  // And the synchronous FeedLog can take over the same file.
  auto plain = FeedLog::Open(path);
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain->next_seq(), 5u);
}

TEST(GroupCommitTest, ReopenRecoversSequence) {
  const std::string path = NewTempDir("gcwal") + "/feed.wal";
  {
    auto log = GroupCommitLog::Open(path);
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE((*log)->Append(Insert(0, "Bid", T(8, 1), {Value::Int64(7)}))
                    .ok());
    ASSERT_TRUE((*log)->Sync().ok());
    ASSERT_TRUE((*log)->Close().ok());
  }
  auto log = GroupCommitLog::Open(path);
  ASSERT_TRUE(log.ok());
  EXPECT_EQ((*log)->next_seq(), 1u);
  EXPECT_TRUE((*log)->Append(Insert(1, "Bid", T(8, 2), {Value::Int64(8)}))
                  .ok());
  EXPECT_TRUE((*log)->Close().ok());
  EXPECT_EQ(FeedLog::ReadAll(path)->size(), 2u);
}

TEST(GroupCommitTest, OutOfOrderAppendIsRejected) {
  const std::string path = NewTempDir("gcwal") + "/feed.wal";
  auto log = GroupCommitLog::Open(path);
  ASSERT_TRUE(log.ok());
  EXPECT_FALSE((*log)->Append(Insert(3, "Bid", T(8, 1), {Value::Int64(1)}))
                   .ok());
  EXPECT_TRUE((*log)->Close().ok());
}

TEST(GroupCommitTest, CloseDrainsPendingRecords) {
  // Records enqueued but never explicitly waited on must still hit the disk
  // before Close returns — Close is a full barrier.
  const std::string path = NewTempDir("gcwal") + "/feed.wal";
  auto log = GroupCommitLog::Open(path);
  ASSERT_TRUE(log.ok());
  for (uint64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE((*log)
                    ->Append(Insert(i, "Bid", T(8, 1),
                                    {Value::Int64(static_cast<int64_t>(i))}))
                    .ok());
  }
  ASSERT_TRUE((*log)->Close().ok());
  EXPECT_EQ(FeedLog::ReadAll(path)->size(), 100u);
}

TEST(GroupCommitTest, AppendAfterCloseFails) {
  const std::string path = NewTempDir("gcwal") + "/feed.wal";
  auto log = GroupCommitLog::Open(path);
  ASSERT_TRUE(log.ok());
  ASSERT_TRUE((*log)->Close().ok());
  EXPECT_FALSE((*log)->Append(Insert(0, "Bid", T(8, 1), {Value::Int64(1)}))
                   .ok());
  // Close is idempotent.
  EXPECT_TRUE((*log)->Close().ok());
}

TEST(GroupCommitTest, ManyProducersShareGroups) {
  const std::string path = NewTempDir("gcwal") + "/feed.wal";
  auto log_or = GroupCommitLog::Open(path);
  ASSERT_TRUE(log_or.ok());
  GroupCommitLog* log = log_or->get();

  // Producers must enqueue in seq order (the engine's feed lock provides
  // this); here a mutex stands in for it. The *waits* run fully in
  // parallel, which is where group sharing happens.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50;
  std::mutex seq_mu;
  uint64_t next = 0;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        uint64_t seq;
        {
          std::lock_guard<std::mutex> lk(seq_mu);
          seq = next++;
          if (!log->Append(Insert(seq, "Bid", T(8, 1),
                                  {Value::Int64(static_cast<int64_t>(seq))}))
                   .ok()) {
            failures.fetch_add(1);
            continue;
          }
        }
        if (!log->WaitDurable(seq + 1).ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  ASSERT_TRUE(log->Close().ok());

  auto records = FeedLog::ReadAll(path);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  ASSERT_EQ(records->size(),
            static_cast<size_t>(kThreads) * kPerThread);
  for (size_t i = 0; i < records->size(); ++i) {
    EXPECT_EQ((*records)[i].seq, i);  // strictly contiguous on disk
  }
}

}  // namespace
}  // namespace state
}  // namespace onesql
