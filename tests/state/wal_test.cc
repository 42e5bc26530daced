// The write-ahead feed log: append/replay round trips, sequence-number
// recovery across reopen, strict DataLoss on truncated or bit-flipped
// files — the crash model of the durability subsystem — sticky write
// failures, and the segment files a roll starts and a checkpoint drops.

#include "state/wal.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "state/frame.h"
#include "tests/state/file_size_limit.h"
#include "tests/state/temp_dir.h"

namespace onesql {
namespace state {
namespace {

Timestamp T(int h, int m) { return Timestamp::FromHMS(h, m); }

FeedEvent Insert(const std::string& source, Timestamp ptime, Row row) {
  FeedEvent event;
  event.kind = FeedEvent::Kind::kInsert;
  event.source = source;
  event.ptime = ptime;
  event.row = std::move(row);
  return event;
}

FeedEvent Watermark(const std::string& source, Timestamp ptime,
                    Timestamp mark) {
  FeedEvent event;
  event.kind = FeedEvent::Kind::kWatermark;
  event.source = source;
  event.ptime = ptime;
  event.watermark = mark;
  return event;
}

/// The seq-0 segment of a log in `dir`.
WalSegment FirstSegment(const std::string& dir) {
  return WalSegment{0, FeedLog::SegmentPath(dir, 0)};
}

/// Every record of the seq-0 segment file at `path`, decoded.
Result<std::vector<FeedEvent>> ReadAll(const std::string& path) {
  std::vector<FeedEvent> events;
  ONESQL_RETURN_NOT_OK(
      FeedLog::ReadSegment(WalSegment{0, path}, 0, &events).status());
  return events;
}

/// Appends three records to a fresh log in `dir` and closes it.
void WriteSampleLog(const std::string& dir) {
  auto log = FeedLog::Create(dir, 0);
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  ASSERT_TRUE(log->Append(0, Insert("Bid", T(8, 1),
                                    {Value::Time(T(8, 0)), Value::Int64(13),
                                     Value::String("A")}))
                  .ok());
  ASSERT_TRUE(log->Append(1, Insert("bid", T(8, 2),
                                    {Value::Time(T(8, 1)), Value::Null(),
                                     Value::String("B")}))
                  .ok());
  ASSERT_TRUE(log->Append(2, Watermark("Bid", T(8, 3), T(8, 0))).ok());
  ASSERT_TRUE(log->Close().ok());
}

TEST(WalTest, FreshLogIsEmpty) {
  const std::string dir = NewTempDir("wal");
  auto log = FeedLog::Create(dir, 0);
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  EXPECT_EQ(log->next_seq(), 0u);
  EXPECT_EQ(log->path(), dir + "/feed.wal");
  ASSERT_TRUE(log->Close().ok());
  auto records = ReadAll(dir + "/feed.wal");
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  EXPECT_TRUE(records->empty());
  // Creating never truncates a segment that is already there.
  EXPECT_FALSE(FeedLog::Create(dir, 0).ok());
}

TEST(WalTest, AppendThenReadAllRoundTrips) {
  const std::string dir = NewTempDir("wal");
  WriteSampleLog(dir);

  auto records = ReadAll(dir + "/feed.wal");
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  ASSERT_EQ(records->size(), 3u);
  EXPECT_EQ((*records)[0].kind, FeedEvent::Kind::kInsert);
  EXPECT_EQ((*records)[0].source, "Bid");
  EXPECT_EQ((*records)[0].ptime, T(8, 1));
  ASSERT_EQ((*records)[0].row.size(), 3u);
  EXPECT_EQ((*records)[0].row[1], Value::Int64(13));
  EXPECT_EQ((*records)[1].row[1], Value::Null());
  EXPECT_EQ((*records)[2].kind, FeedEvent::Kind::kWatermark);
  EXPECT_EQ((*records)[2].watermark, T(8, 0));
}

TEST(WalTest, RecordBytesArePinned) {
  // One insert, one delete and one watermark record. The expected bytes are
  // the file format as first released: header frame, then one CRC-framed
  // record per event (varint seq, u8 kind, source, ptime, then the row or
  // the watermark). A change here breaks every existing log on disk.
  const std::string dir = NewTempDir("wal");
  const std::string path = dir + "/feed.wal";
  {
    auto log = FeedLog::Create(dir, 0);
    ASSERT_TRUE(log.ok()) << log.status().ToString();
    ASSERT_TRUE(log->Append(0, Insert("Bid", T(8, 1),
                                      {Value::Time(T(8, 0)), Value::Int64(13),
                                       Value::String("A")}))
                    .ok());
    FeedEvent del = Insert("Bid", T(8, 2),
                           {Value::Time(T(8, 1)), Value::Null(),
                            Value::String("B")});
    del.kind = FeedEvent::Kind::kDelete;
    ASSERT_TRUE(log->Append(1, del).ok());
    ASSERT_TRUE(log->Append(2, Watermark("Bid", T(8, 3), T(8, 0))).ok());
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
  auto records = ReadAll(path);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  ASSERT_EQ(records->size(), 3u);
  EXPECT_EQ((*records)[1].kind, FeedEvent::Kind::kDelete);
  EXPECT_EQ((*records)[1].row[1], Value::Null());
}

TEST(WalTest, ReopenRecoversSequenceAndKeepsAppending) {
  const std::string dir = NewTempDir("wal");
  WriteSampleLog(dir);

  auto log = FeedLog::Open(FirstSegment(dir));
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  EXPECT_EQ(log->next_seq(), 3u);
  ASSERT_TRUE(log->Append(3, Watermark("Bid", T(8, 4), T(8, 2))).ok());
  ASSERT_TRUE(log->Sync().ok());
  ASSERT_TRUE(log->Close().ok());

  auto records = ReadAll(dir + "/feed.wal");
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 4u);
  EXPECT_EQ((*records)[3].watermark, T(8, 2));
}

TEST(WalTest, OutOfOrderAppendIsRejected) {
  auto log = FeedLog::Create(NewTempDir("wal"), 0);
  ASSERT_TRUE(log.ok());
  EXPECT_FALSE(log->Append(5, Insert("Bid", T(8, 1), {})).ok());
  ASSERT_TRUE(log->Append(0, Insert("Bid", T(8, 1), {})).ok());
  EXPECT_FALSE(log->Append(0, Insert("Bid", T(8, 1), {})).ok());
}

TEST(WalTest, AppendAfterCloseFails) {
  auto log = FeedLog::Create(NewTempDir("wal"), 0);
  ASSERT_TRUE(log.ok());
  ASSERT_TRUE(log->Close().ok());
  EXPECT_FALSE(log->Append(0, Insert("Bid", T(8, 1), {})).ok());
  EXPECT_FALSE(log->Sync().ok());
  // Close is idempotent.
  EXPECT_TRUE(log->Close().ok());
}

/// Runs in a death-test child: appends one record to a header-only log in
/// `dir` while writes past the header fail, then lifts the limit. Returns
/// what went wrong, or "" when every later call repeated the first error.
std::string CheckWriteFailureIsSticky(const std::string& dir) {
  auto log = FeedLog::Create(dir, 0);
  if (!log.ok()) return "open: " + log.status().ToString();
  auto size = ReadFileToString(log->path());
  if (!size.ok()) return "read: " + size.status().ToString();
  FileSizeLimit limit(size->size());
  if (!limit.ok()) return "cannot lower RLIMIT_FSIZE";
  // The append only fills the stdio buffer; the sync's flush fails.
  const Status appended = log->Append(0, Insert("Bid", T(8, 1), {}));
  const Status failed = appended.ok() ? log->Sync() : appended;
  if (failed.code() != StatusCode::kDataLoss) {
    return "first failure: " + failed.ToString();
  }
  // With the limit lifted a retried flush would succeed, so only the sticky
  // error keeps the log from claiming durability again.
  limit.Lift();
  for (const Status& later :
       {log->Append(1, Insert("Bid", T(8, 2), {})), log->Sync(),
        log->Roll(), log->Close()}) {
    if (later.code() != failed.code() || later.message() != failed.message()) {
      return "later call returned " + later.ToString() + ", not " +
             failed.ToString();
    }
  }
  return "";
}

TEST(WalTest, WriteFailureIsSticky) {
  const std::string dir = NewTempDir("wal");
  ExpectPassesInChild([&] { return CheckWriteFailureIsSticky(dir); });
}

TEST(WalTest, TruncatedLogIsDataLossAtEveryCut) {
  const std::string dir = NewTempDir("wal");
  const std::string path = dir + "/feed.wal";
  WriteSampleLog(dir);
  auto bytes = ReadFileToString(path);
  ASSERT_TRUE(bytes.ok());

  const std::string damaged_path = dir + "/damaged.wal";
  // Cut after the header (a header-only log is legitimately empty), inside
  // every later frame.
  for (size_t cut = 1; cut < bytes->size(); ++cut) {
    ASSERT_TRUE(WriteFileAtomic(damaged_path, bytes->substr(0, cut)).ok());
    auto records = ReadAll(damaged_path);
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
  WriteSampleLog(dir);
  auto bytes = ReadFileToString(path);
  ASSERT_TRUE(bytes.ok());

  const std::string damaged_path = dir + "/damaged.wal";
  for (size_t byte = 0; byte < bytes->size(); ++byte) {
    std::string damaged = *bytes;
    damaged[byte] = static_cast<char>(damaged[byte] ^ 0x10);
    ASSERT_TRUE(WriteFileAtomic(damaged_path, damaged).ok());
    auto records = ReadAll(damaged_path);
    ASSERT_FALSE(records.ok()) << "flip at byte " << byte;
    EXPECT_EQ(records.status().code(), StatusCode::kDataLoss);
    // Opening for append must refuse just the same — never append past
    // damage.
    auto log = FeedLog::Open(WalSegment{0, damaged_path});
    ASSERT_FALSE(log.ok()) << "flip at byte " << byte;
    EXPECT_EQ(log.status().code(), StatusCode::kDataLoss);
  }
}

TEST(WalTest, GarbageFileIsDataLoss) {
  const std::string path = NewTempDir("wal") + "/feed.wal";
  ASSERT_TRUE(WriteFileAtomic(path, "this is not a feed log at all").ok());
  auto records = ReadAll(path);
  ASSERT_FALSE(records.ok());
  EXPECT_EQ(records.status().code(), StatusCode::kDataLoss);
}

TEST(WalTest, MissingFileIsNotFoundForReadAll) {
  auto records = ReadAll(NewTempDir("wal") + "/absent.wal");
  ASSERT_FALSE(records.ok());
  EXPECT_EQ(records.status().code(), StatusCode::kNotFound);
}

TEST(WalTest, ManyRecordsSurviveSyncBoundaries) {
  const std::string dir = NewTempDir("wal");
  {
    auto log = FeedLog::Create(dir, 0);
    ASSERT_TRUE(log.ok());
    for (uint64_t i = 0; i < 500; ++i) {
      ASSERT_TRUE(log->Append(i, Insert("Bid", T(8, 0) + Interval::Seconds(i),
                                        {Value::Int64(static_cast<int64_t>(i))}))
                      .ok());
      if (i % 37 == 0) {
        ASSERT_TRUE(log->Sync().ok());
      }
    }
    ASSERT_TRUE(log->Close().ok());
  }
  auto records = ReadAll(dir + "/feed.wal");
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 500u);
  for (uint64_t i = 0; i < 500; ++i) {
    EXPECT_EQ((*records)[i].row[0], Value::Int64(static_cast<int64_t>(i)));
  }
}

TEST(WalTest, SegmentNamesSortInSeqOrder) {
  EXPECT_EQ(FeedLog::SegmentPath("d", 0), "d/feed.wal");
  EXPECT_EQ(FeedLog::SegmentPath("d", 99003),
            "d/feed.00000000000000099003.wal");
  EXPECT_EQ(FeedLog::SegmentPath("d", UINT64_MAX),
            "d/feed.18446744073709551615.wal");
  const std::string dir = NewTempDir("wal");
  // Segments are listed in seq order; every other name is ignored,
  // including a zero-padded seq 0 and a 20-digit number past UINT64_MAX.
  for (const char* name :
       {"feed.00000000000000000010.wal", "feed.wal",
        "feed.00000000000000000002.wal", "feed.00000000000000000000.wal",
        "feed.99999999999999999999.wal", "feed.0000000000000000001.wal",
        "feed.00000000000000000003.wal.tmp", "checkpoint.osql", "feed.x.wal"}) {
    ASSERT_TRUE(WriteFileAtomic(dir + "/" + name, "").ok()) << name;
  }
  auto segments = FeedLog::ListSegments(dir);
  ASSERT_TRUE(segments.ok()) << segments.status().ToString();
  ASSERT_EQ(segments->size(), 3u);
  EXPECT_EQ((*segments)[0].first_seq, 0u);
  EXPECT_EQ((*segments)[0].path, dir + "/feed.wal");
  EXPECT_EQ((*segments)[1].first_seq, 2u);
  EXPECT_EQ((*segments)[2].first_seq, 10u);
  EXPECT_EQ((*segments)[2].path, FeedLog::SegmentPath(dir, 10));
  // A missing directory holds no segment.
  auto none = FeedLog::ListSegments(dir + "/absent");
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());
}

TEST(WalTest, RollContinuesTheSeqInANewSegment) {
  const std::string dir = NewTempDir("wal");
  auto log = FeedLog::Create(dir, 0);
  ASSERT_TRUE(log.ok());
  // A tail holding no record is not rolled.
  ASSERT_TRUE(log->Roll().ok());
  EXPECT_EQ(log->path(), dir + "/feed.wal");
  for (uint64_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(log->Append(i, Insert("Bid", T(8, 0), {Value::Int64(1)})).ok());
  }
  ASSERT_TRUE(log->Roll().ok());
  EXPECT_EQ(log->path(), FeedLog::SegmentPath(dir, 3));
  ASSERT_TRUE(log->Append(3, Insert("Bid", T(8, 1), {Value::Int64(2)})).ok());
  ASSERT_TRUE(log->Close().ok());

  // The old segment holds seqs 0-2, whole; the new one seq 3 on.
  std::vector<FeedEvent> events;
  auto first = FeedLog::ReadSegment(FirstSegment(dir), 0, &events);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->next_seq, 3u);
  auto second = FeedLog::ReadSegment(
      WalSegment{3, FeedLog::SegmentPath(dir, 3)}, 0, &events);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->next_seq, 4u);
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[3].row[0], Value::Int64(2));
  // Read under the wrong first seq, the records are a gap.
  EXPECT_EQ(FeedLog::ReadSegment(WalSegment{2, FeedLog::SegmentPath(dir, 3)},
                                 0, nullptr)
                .status()
                .code(),
            StatusCode::kDataLoss);
}

TEST(WalTest, ReadSegmentDecodesOnlyFromItsStartSeq) {
  const std::string dir = NewTempDir("wal");
  WriteSampleLog(dir);
  for (uint64_t from = 0; from <= 4; ++from) {
    std::vector<FeedEvent> events;
    auto end = FeedLog::ReadSegment(FirstSegment(dir), from, &events);
    ASSERT_TRUE(end.ok()) << end.status().ToString();
    EXPECT_EQ(end->next_seq, 3u);
    EXPECT_EQ(events.size(), from < 3 ? 3 - from : 0) << "from " << from;
    if (from == 2) {
      EXPECT_EQ(events[0].kind, FeedEvent::Kind::kWatermark);
    }
  }
  // Records below the start seq are still checksummed: a flipped byte in
  // the first record fails even a read that decodes from seq 2.
  auto bytes = ReadFileToString(dir + "/feed.wal");
  ASSERT_TRUE(bytes.ok());
  std::string damaged = *bytes;
  damaged[25] = static_cast<char>(damaged[25] ^ 0x01);
  ASSERT_TRUE(WriteFileAtomic(dir + "/feed.wal", damaged).ok());
  std::vector<FeedEvent> events;
  EXPECT_EQ(FeedLog::ReadSegment(FirstSegment(dir), 2, &events).status().code(),
            StatusCode::kDataLoss);
}

TEST(WalTest, AttachAppendsWhereTheReadEnded) {
  const std::string dir = NewTempDir("wal");
  WriteSampleLog(dir);
  auto end = FeedLog::ReadSegment(FirstSegment(dir), 0, nullptr);
  ASSERT_TRUE(end.ok());
  {
    auto log = FeedLog::Attach(FirstSegment(dir), *end);
    ASSERT_TRUE(log.ok()) << log.status().ToString();
    EXPECT_EQ(log->next_seq(), 3u);
    ASSERT_TRUE(log->Append(3, Watermark("Bid", T(8, 4), T(8, 2))).ok());
    ASSERT_TRUE(log->Close().ok());
  }
  auto records = ReadAll(dir + "/feed.wal");
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  EXPECT_EQ(records->size(), 4u);
  // A file that changed since its read is not attached.
  EXPECT_EQ(FeedLog::Attach(FirstSegment(dir), *end).status().code(),
            StatusCode::kDataLoss);
}

TEST(WalTest, DropSegmentsBelowKeepsTheTailAndWhatIsNotCovered) {
  const std::string dir = NewTempDir("wal");
  auto log = FeedLog::Create(dir, 0);
  ASSERT_TRUE(log.ok());
  // Segments at 0, 2 and 4, the tail at 4.
  for (uint64_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(log->Append(i, Insert("Bid", T(8, 0), {})).ok());
    if (i % 2 == 1) {
      ASSERT_TRUE(log->Roll().ok());
    }
  }
  auto count = [&] { return FeedLog::ListSegments(dir)->size(); };
  ASSERT_EQ(count(), 3u);
  // Seq 3 covers segment 0 ([0, 2)) but not segment 2 ([2, 4)).
  ASSERT_TRUE(log->DropSegmentsBelow(3).ok());
  auto left = FeedLog::ListSegments(dir);
  ASSERT_EQ(left->size(), 2u);
  EXPECT_EQ((*left)[0].first_seq, 2u);
  // Past the tail's end, only segments before the tail go.
  ASSERT_TRUE(log->DropSegmentsBelow(UINT64_MAX).ok());
  left = FeedLog::ListSegments(dir);
  ASSERT_EQ(left->size(), 1u);
  EXPECT_EQ((*left)[0].path, log->path());
  ASSERT_TRUE(log->Close().ok());
}

}  // namespace
}  // namespace state
}  // namespace onesql
