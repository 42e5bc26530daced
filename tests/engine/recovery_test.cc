// Durability end to end: the recovery-equivalence property (checkpoint at
// every prefix of the paper's Section 4 dataset, crash, restore, replay the
// WAL suffix — every rendering must be bit-identical to the uninterrupted
// run), the one checkpoint format version (an older file is refused, and its
// cold-start route recovers), WAL-only cold starts (from a log cut at every
// commit), the segmented log a checkpoint truncates (a crash at every step of
// Checkpoint, and a log that stays flat over repeated checkpoints), and fault
// injection on both files, including a feed log that cannot be written.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "engine/engine.h"
#include "exec/dataflow.h"
#include "nexmark/nexmark.h"
#include "state/checkpoint.h"
#include "state/frame.h"
#include "state/wal.h"
#include "tests/state/file_size_limit.h"
#include "tests/state/temp_dir.h"

#ifndef ONESQL_ENGINE_TEST_DATA_DIR
#define ONESQL_ENGINE_TEST_DATA_DIR "tests/engine/data"
#endif

namespace onesql {
namespace {

using state::NewTempDir;

Timestamp T(int h, int m) { return Timestamp::FromHMS(h, m); }

Schema BidSchema() {
  return Schema({{"bidtime", DataType::kTimestamp, true},
                 {"price", DataType::kBigint},
                 {"item", DataType::kVarchar}});
}

FeedEvent BidInsert(Timestamp ptime, Timestamp bidtime, int64_t price,
                    const std::string& item) {
  FeedEvent e;
  e.kind = FeedEvent::Kind::kInsert;
  e.source = "Bid";
  e.ptime = ptime;
  e.row = {Value::Time(bidtime), Value::Int64(price), Value::String(item)};
  return e;
}

FeedEvent BidWatermark(Timestamp ptime, Timestamp mark) {
  FeedEvent e;
  e.kind = FeedEvent::Kind::kWatermark;
  e.source = "Bid";
  e.ptime = ptime;
  e.watermark = mark;
  return e;
}

/// The paper's Section 4 example dataset: out-of-order bids interleaved with
/// watermark advances, ptimes 8:07 through 8:21.
std::vector<FeedEvent> PaperFeed() {
  return {
      BidWatermark(T(8, 7), T(8, 5)),
      BidInsert(T(8, 8), T(8, 7), 2, "A"),
      BidInsert(T(8, 12), T(8, 11), 3, "B"),
      BidInsert(T(8, 13), T(8, 5), 4, "C"),
      BidWatermark(T(8, 14), T(8, 8)),
      BidInsert(T(8, 15), T(8, 9), 5, "D"),
      BidWatermark(T(8, 16), T(8, 12)),
      BidInsert(T(8, 17), T(8, 13), 1, "E"),
      BidInsert(T(8, 18), T(8, 17), 6, "F"),
      BidWatermark(T(8, 21), T(8, 20)),
  };
}

/// A larger deterministic feed: many distinct items (so hash routing spreads
/// work), out-of-order event times, retractions, periodic watermarks.
std::vector<FeedEvent> BigFeed(int n) {
  std::vector<FeedEvent> events;
  uint64_t state = 7;
  auto next = [&state] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  };
  std::vector<Row> inserted;
  for (int i = 0; i < n; ++i) {
    const Timestamp ptime = T(9, 0) + Interval::Seconds(i);
    const uint64_t r = next();
    if (i % 61 == 17 && !inserted.empty()) {
      FeedEvent e;
      e.kind = FeedEvent::Kind::kDelete;
      e.source = "Bid";
      e.ptime = ptime;
      const size_t pick = next() % inserted.size();
      e.row = inserted[pick];
      inserted[pick] = inserted.back();
      inserted.pop_back();
      events.push_back(std::move(e));
    } else {
      const Timestamp bidtime =
          T(9, 0) + Interval::Seconds(i) - Interval::Seconds(r % 150);
      FeedEvent e = BidInsert(ptime, bidtime,
                              static_cast<int64_t>(r % 100),
                              "item" + std::to_string(r % 17));
      inserted.push_back(e.row);
      events.push_back(std::move(e));
    }
    if (i % 35 == 34) {
      events.push_back(BidWatermark(ptime, ptime - Interval::Minutes(2)));
    }
  }
  return events;
}

constexpr const char* kKeyedAgg =
    "SELECT item, wstart, wend, SUM(price) AS total, COUNT(*) AS cnt "
    "FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime), "
    "dur => INTERVAL '10' MINUTES) t GROUP BY item, wend";

constexpr const char* kKeyedAggAfterWatermark =
    "SELECT item, wstart, wend, SUM(price) AS total "
    "FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime), "
    "dur => INTERVAL '10' MINUTES) t GROUP BY item, wend "
    "EMIT STREAM AFTER WATERMARK";

constexpr const char* kWindowedMax =
    "SELECT wstart, wend, MAX(price) AS maxPrice "
    "FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime), "
    "dur => INTERVAL '10' MINUTES) t GROUP BY wend";

/// Every rendering of one query, captured for bit-exact comparison.
struct Rendering {
  std::vector<Row> stream;
  std::vector<Change> upserts;
  std::vector<Row> snapshot;
};

Rendering Render(ContinuousQuery* query, Timestamp at) {
  Rendering r;
  r.stream = query->StreamRows();
  auto upserts = query->UpsertStream();
  if (upserts.ok()) r.upserts = *upserts;
  auto snapshot = query->SnapshotAt(at);
  EXPECT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  if (snapshot.ok()) r.snapshot = *snapshot;
  return r;
}

void ExpectSameRows(const std::vector<Row>& got, const std::vector<Row>& want,
                    const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what << ": row count mismatch";
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_TRUE(RowsEqual(got[i], want[i]))
        << what << " row " << i << ": got " << RowToString(got[i])
        << ", want " << RowToString(want[i]);
  }
}

void ExpectSameRendering(const Rendering& got, const Rendering& want) {
  ExpectSameRows(got.stream, want.stream, "stream rendering");
  ASSERT_EQ(got.upserts.size(), want.upserts.size()) << "upsert stream";
  for (size_t i = 0; i < want.upserts.size(); ++i) {
    EXPECT_EQ(got.upserts[i], want.upserts[i]) << "upsert " << i;
  }
  ExpectSameRows(got.snapshot, want.snapshot, "snapshot");
}

/// Uninterrupted baseline: register, execute, feed everything.
Rendering Baseline(const std::string& sql, const std::vector<FeedEvent>& feed,
                   Timestamp at) {
  Engine engine;
  EXPECT_TRUE(engine.RegisterStream("Bid", BidSchema()).ok());
  auto q = engine.Execute(sql);
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_TRUE(engine.Feed(feed).ok());
  return Render(*q, at);
}

// ---------------------------------------------------------------------------
// The acceptance property: checkpoint at every prefix, restore, feed the
// suffix from the WAL — bit-identical to the uninterrupted run.
// ---------------------------------------------------------------------------

void CheckRecoveryEquivalence(const std::string& sql,
                              const std::vector<FeedEvent>& feed,
                              size_t prefix, Timestamp at,
                              const Rendering& want) {
  SCOPED_TRACE("prefix=" + std::to_string(prefix));
  const std::string dir = NewTempDir("recovery");

  {
    // The run that crashes: durable from the start, checkpointed mid-feed.
    Engine engine;
    ASSERT_TRUE(engine.RegisterStream("Bid", BidSchema()).ok());
    ASSERT_TRUE(engine.EnableDurability(dir).ok());
    auto q = engine.Execute(sql);
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    ASSERT_TRUE(
        engine
            .Feed(std::vector<FeedEvent>(feed.begin(), feed.begin() + prefix))
            .ok());
    ASSERT_TRUE(engine.Checkpoint(dir).ok());
    ASSERT_TRUE(
        engine.Feed(std::vector<FeedEvent>(feed.begin() + prefix, feed.end()))
            .ok());
    // Engine destroyed without any shutdown handshake — the "crash". The
    // WAL was fsync'd at every Feed boundary, so it holds the full feed.
  }

  Engine restored;
  ASSERT_TRUE(restored.Restore(dir).ok());
  EXPECT_EQ(restored.feed_seq(), feed.size());
  EXPECT_TRUE(restored.durable());
  ASSERT_EQ(restored.num_queries(), 1u);
  ExpectSameRendering(Render(restored.query(0), at), want);
}

TEST(RecoveryEquivalenceTest, PaperDatasetEveryPrefix) {
  const std::vector<FeedEvent> feed = PaperFeed();
  const Rendering want = Baseline(kKeyedAgg, feed, T(8, 21));
  for (size_t prefix = 0; prefix <= feed.size(); ++prefix) {
    CheckRecoveryEquivalence(kKeyedAgg, feed, prefix, T(8, 21), want);
  }
}

TEST(RecoveryEquivalenceTest, PaperDatasetAfterWatermarkEmission) {
  const std::vector<FeedEvent> feed = PaperFeed();
  const Rendering want = Baseline(kKeyedAggAfterWatermark, feed, T(8, 21));
  for (size_t prefix = 0; prefix <= feed.size(); ++prefix) {
    CheckRecoveryEquivalence(kKeyedAggAfterWatermark, feed, prefix, T(8, 21),
                             want);
  }
}

TEST(RecoveryEquivalenceTest, NonPartitionableQueryRecovers) {
  // GROUP BY wend only: one group per window.
  const std::vector<FeedEvent> feed = PaperFeed();
  const Rendering want = Baseline(kWindowedMax, feed, T(8, 21));
  for (size_t prefix : {size_t{0}, size_t{4}, size_t{10}}) {
    CheckRecoveryEquivalence(kWindowedMax, feed, prefix, T(8, 21), want);
  }
}

TEST(RecoveryEquivalenceTest, LargeFeedSampledPrefixes) {
  const std::vector<FeedEvent> feed = BigFeed(400);
  const Timestamp at = feed.back().ptime;
  const Rendering want = Baseline(kKeyedAgg, feed, at);
  for (size_t prefix : {size_t{0}, size_t{1}, size_t{137}, size_t{256},
                        feed.size() - 1, feed.size()}) {
    CheckRecoveryEquivalence(kKeyedAgg, feed, prefix, at, want);
  }
}

// ---------------------------------------------------------------------------
// One checkpoint format version. A query section is the query's SQL, its
// allowed lateness and its runtime blob; the runtime blob is the chain
// section (an operator count, then one blob per distinct operator) and the
// sink section. A file of an older version is refused whole. The committed
// `two_shards` fixture is one: version 1, written by the N-chain runtime at
// shards=2 after RegisterStream Bid and Ask, EnableDurability, Execute
// kKeyedAgg and kTwoSourceJoin, Feed() of the first kTwoShardFixtureCut
// events of TwoSourceFeed(), Checkpoint(), then Feed() of the rest — so its
// feed.wal holds the whole feed.
// ---------------------------------------------------------------------------

constexpr const char* kTwoSourceJoin =
    "SELECT Bid.bidtime, Bid.item, Bid.price, Ask.price "
    "FROM Bid, Ask WHERE Bid.item = Ask.item";

constexpr size_t kTwoShardFixtureCut = 200;

/// Bids and asks on 11 items: out-of-order event times, retractions and
/// per-source watermarks. The feed of the two-shard fixture.
std::vector<FeedEvent> TwoSourceFeed() {
  std::vector<FeedEvent> events;
  uint64_t state = 11;
  auto next = [&state] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  };
  std::vector<Row> inserted[2];
  for (int i = 0; i < 320; ++i) {
    const Timestamp ptime = T(9, 0) + Interval::Seconds(i);
    const int side = i % 3 == 2 ? 1 : 0;
    const char* source = side == 0 ? "Bid" : "Ask";
    const uint64_t r = next();
    FeedEvent e;
    e.source = source;
    e.ptime = ptime;
    if (i % 29 == 13 && !inserted[side].empty()) {
      e.kind = FeedEvent::Kind::kDelete;
      const size_t pick = next() % inserted[side].size();
      e.row = inserted[side][pick];
      inserted[side][pick] = inserted[side].back();
      inserted[side].pop_back();
    } else {
      e.kind = FeedEvent::Kind::kInsert;
      const Timestamp bidtime = ptime - Interval::Seconds(r % 150);
      e.row = {Value::Time(bidtime), Value::Int64(static_cast<int64_t>(r % 90)),
               Value::String("item" + std::to_string(r % 11))};
      inserted[side].push_back(e.row);
    }
    events.push_back(std::move(e));
    if (i % 40 == 39) {
      for (const char* s : {"Bid", "Ask"}) {
        FeedEvent mark;
        mark.kind = FeedEvent::Kind::kWatermark;
        mark.source = s;
        mark.ptime = ptime;
        mark.watermark = ptime - Interval::Minutes(3);
        events.push_back(std::move(mark));
      }
    }
  }
  return events;
}

/// One query section of a checkpoint, split into its parts.
struct QuerySection {
  std::string sql;
  Interval lateness;
  std::string runtime;           ///< the runtime blob
  std::vector<std::string> ops;  ///< its chain section's operator blobs
  std::string sink;              ///< its sink section
};

/// The query sections of the checkpoint at `path`, each parsed to its end.
std::vector<QuerySection> ParseQuerySections(const std::string& path) {
  std::vector<QuerySection> out;
  auto ckpt = state::CheckpointReader::Open(path);
  EXPECT_TRUE(ckpt.ok()) << ckpt.status().ToString();
  if (!ckpt.ok()) return out;
  for (size_t i = 1; i < ckpt->num_sections(); ++i) {
    QuerySection section;
    state::Reader query(ckpt->section(i));
    section.sql = *query.ReadString();
    section.lateness = *query.ReadInterval();
    section.runtime = std::string(*query.ReadBlobBytes());
    EXPECT_TRUE(query.ExpectEnd().ok());
    state::Reader runtime(section.runtime);
    state::Reader chain(*runtime.ReadBlobBytes());
    const uint64_t n = *chain.ReadVarint();
    for (uint64_t op = 0; op < n; ++op) {
      section.ops.emplace_back(*chain.ReadBlobBytes());
    }
    EXPECT_TRUE(chain.ExpectEnd().ok());
    section.sink = std::string(*runtime.ReadBlobBytes());
    EXPECT_TRUE(runtime.ExpectEnd().ok());
    out.push_back(std::move(section));
  }
  return out;
}

/// The fixture's files, copied into a fresh directory.
std::string CopyTwoShardFixture() {
  const std::string dir = NewTempDir("two_shards");
  for (const char* file : {"/checkpoint.osql", "/feed.wal"}) {
    auto bytes = state::ReadFileToString(
        std::string(ONESQL_ENGINE_TEST_DATA_DIR) + "/two_shards" + file);
    EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
    if (bytes.ok()) {
      EXPECT_TRUE(state::WriteFileAtomic(dir + file, *bytes).ok());
    }
  }
  return dir;
}

/// An uninterrupted run of kKeyedAgg and kTwoSourceJoin over `feed`.
std::vector<ContinuousQuery*> RunTwoSourceQueries(
    Engine* engine, const std::vector<FeedEvent>& feed) {
  std::vector<ContinuousQuery*> queries;
  EXPECT_TRUE(engine->RegisterStream("Bid", BidSchema()).ok());
  EXPECT_TRUE(engine->RegisterStream("Ask", BidSchema()).ok());
  for (const char* sql : {kKeyedAgg, kTwoSourceJoin}) {
    auto q = engine->Execute(sql);
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    if (q.ok()) queries.push_back(*q);
  }
  EXPECT_TRUE(engine->Feed(feed).ok());
  return queries;
}

TEST(CheckpointVersionTest, QuerySectionIsSqlLatenessAndRuntime) {
  ExecutionOptions options;
  options.allowed_lateness = Interval::Minutes(3);
  Engine engine;
  ASSERT_TRUE(engine.RegisterStream("Bid", BidSchema()).ok());
  auto q = engine.Execute(kKeyedAgg, options);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_TRUE(engine.Feed(PaperFeed()).ok());
  const std::string dir = NewTempDir("layout");
  ASSERT_TRUE(engine.Checkpoint(dir).ok());

  // Every field parses, with nothing left over: no shard count, no chain
  // count and no routing sequence.
  const auto sections = ParseQuerySections(dir + "/checkpoint.osql");
  ASSERT_EQ(sections.size(), 1u);
  EXPECT_EQ(sections[0].sql, kKeyedAgg);
  EXPECT_EQ(sections[0].lateness, Interval::Minutes(3));
  EXPECT_EQ(sections[0].ops.size(),
            (*q)->dataflow().chain().operators.size());
  state::Writer sink;
  ASSERT_TRUE((*q)->dataflow().sink().SaveState(&sink).ok());
  EXPECT_EQ(sections[0].sink, sink.buffer());
}

TEST(CheckpointVersionTest, TwoShardsFixtureIsRefused) {
  const std::string dir = CopyTwoShardFixture();
  auto ckpt = state::CheckpointReader::Open(dir + "/checkpoint.osql");
  ASSERT_FALSE(ckpt.ok());
  EXPECT_EQ(ckpt.status().code(), StatusCode::kNotImplemented)
      << ckpt.status().ToString();

  Engine engine;
  const Status s = engine.Restore(dir);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotImplemented) << s.ToString();
  // The message names the version and the route back.
  for (const char* part : {"version 1", "checkpoint.osql", "move it aside",
                           "Restore() from the feed log", "Execute()"}) {
    EXPECT_NE(s.message().find(part), std::string::npos)
        << part << ": " << s.ToString();
  }
  // Nothing was loaded and no log was attached.
  EXPECT_EQ(engine.num_queries(), 0u);
  EXPECT_EQ(engine.feed_seq(), 0u);
  EXPECT_EQ(engine.history_size(), 0u);
  EXPECT_FALSE(engine.durable());
  EXPECT_TRUE(engine.catalog().tables().empty());
}

TEST(CheckpointVersionTest, TwoShardsFixtureColdStartsFromItsFeedLog) {
  const std::vector<FeedEvent> feed = TwoSourceFeed();
  ASSERT_GT(feed.size(), kTwoShardFixtureCut);
  const Timestamp end = feed.back().ptime;
  Engine baseline;
  const std::vector<ContinuousQuery*> want = RunTwoSourceQueries(&baseline, feed);
  ASSERT_EQ(want.size(), 2u);

  const std::string dir = CopyTwoShardFixture();
  Engine engine;
  ASSERT_EQ(engine.Restore(dir).code(), StatusCode::kNotImplemented);
  // The route the refusal names, on the engine that refused: set the
  // checkpoint aside, register the streams, restore from the feed log
  // alone, then execute the queries again.
  ASSERT_EQ(std::rename((dir + "/checkpoint.osql").c_str(),
                        (dir + "/checkpoint.osql.v1").c_str()),
            0);
  ASSERT_TRUE(engine.RegisterStream("Bid", BidSchema()).ok());
  ASSERT_TRUE(engine.RegisterStream("Ask", BidSchema()).ok());
  const Status s = engine.Restore(dir);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(engine.feed_seq(), feed.size());
  EXPECT_TRUE(engine.durable());
  std::set<Timestamp> ptimes;
  for (const FeedEvent& event : feed) ptimes.insert(event.ptime);
  for (size_t i = 0; i < want.size(); ++i) {
    SCOPED_TRACE("query " + std::to_string(i));
    auto q = engine.Execute(i == 0 ? kKeyedAgg : kTwoSourceJoin);
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    EXPECT_EQ((*q)->StateBytes(), want[i]->StateBytes());
    ASSERT_FALSE(want[i]->StreamRows().empty());
    ExpectSameRendering(Render(*q, end), Render(want[i], end));
    for (Timestamp ptime : ptimes) {
      auto got = (*q)->SnapshotAt(ptime);
      auto expected = want[i]->SnapshotAt(ptime);
      ASSERT_TRUE(got.ok() && expected.ok());
      ExpectSameRows(*got, *expected, "SnapshotAt(" + ptime.ToString() + ")");
    }
  }

  // Checkpointed now, each query's runtime blob is the uninterrupted run's.
  const std::string resaved = NewTempDir("two_shards_resaved");
  ASSERT_TRUE(engine.Checkpoint(resaved).ok());
  const std::string uninterrupted = NewTempDir("two_shards_baseline");
  ASSERT_TRUE(baseline.Checkpoint(uninterrupted).ok());
  const auto got = ParseQuerySections(resaved + "/checkpoint.osql");
  const auto base = ParseQuerySections(uninterrupted + "/checkpoint.osql");
  ASSERT_EQ(got.size(), 2u);
  ASSERT_EQ(base.size(), 2u);
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].runtime, base[i].runtime) << "query " << i;
  }
}

TEST(CheckpointVersionTest, DamagedRuntimeBlobIsDataLoss) {
  // The keyed aggregate's runtime blob, cut short anywhere.
  const std::vector<FeedEvent> feed = TwoSourceFeed();
  Engine engine;
  RunTwoSourceQueries(
      &engine, std::vector<FeedEvent>(feed.begin(),
                                      feed.begin() + kTwoShardFixtureCut));
  const std::string dir = NewTempDir("damaged_runtime");
  ASSERT_TRUE(engine.Checkpoint(dir).ok());
  const auto saved = ParseQuerySections(dir + "/checkpoint.osql");
  ASSERT_EQ(saved.size(), 2u);
  const std::string& bytes = saved[0].runtime;
  for (size_t cut = 0; cut < bytes.size(); cut += 3) {
    auto plan = engine.Plan(kKeyedAgg);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    auto loader = exec::Dataflow::Build(std::move(*plan));
    ASSERT_TRUE(loader.ok()) << loader.status().ToString();
    state::Reader r(std::string_view(bytes).substr(0, cut));
    const Status s = (*loader)->LoadState(&r);
    ASSERT_FALSE(s.ok()) << "cut at " << cut;
    EXPECT_EQ(s.code(), StatusCode::kDataLoss) << s.ToString();
  }
}

// ---------------------------------------------------------------------------
// WAL-only and checkpoint-only recovery paths.
// ---------------------------------------------------------------------------

TEST(RecoveryTest, WalOnlyColdStart) {
  const std::vector<FeedEvent> feed = PaperFeed();
  const std::string dir = NewTempDir("walonly");
  // Each durable Feed call is one commit: the events fed so far and the
  // log's length when the call returned.
  std::vector<std::pair<size_t, size_t>> commits;
  std::string wal_bytes;
  {
    Engine engine;
    ASSERT_TRUE(engine.RegisterStream("Bid", BidSchema()).ok());
    ASSERT_TRUE(engine.EnableDurability(dir).ok());
    // Feed calls of 1, 2, 3 and 4 events.
    for (size_t fed = 0, n = 1; fed < feed.size(); ++n) {
      const size_t end = std::min(feed.size(), fed + n);
      ASSERT_TRUE(engine
                      .Feed(std::vector<FeedEvent>(feed.begin() + fed,
                                                   feed.begin() + end))
                      .ok());
      fed = end;
      auto bytes = state::ReadFileToString(dir + "/feed.wal");
      ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
      wal_bytes = std::move(bytes).value();
      commits.emplace_back(fed, wal_bytes.size());
    }
    // Crash with no checkpoint ever taken.
  }

  // The catalog is not in the WAL: re-register, then restore.
  Engine restored;
  ASSERT_TRUE(restored.RegisterStream("Bid", BidSchema()).ok());
  ASSERT_TRUE(restored.Restore(dir).ok());
  EXPECT_EQ(restored.feed_seq(), feed.size());
  EXPECT_EQ(restored.history_size(), feed.size());
  EXPECT_TRUE(restored.durable());

  // A query executed on the restored engine replays the recovered history
  // and matches the uninterrupted run exactly.
  const Rendering want = Baseline(kKeyedAgg, feed, T(8, 21));
  auto q = restored.Execute(kKeyedAgg);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ExpectSameRendering(Render(*q, T(8, 21)), want);

  // A crash right after any commit leaves the log cut there; a cold start
  // from it renders like a fresh engine fed exactly that prefix.
  for (const auto& [fed, length] : commits) {
    SCOPED_TRACE("crash after " + std::to_string(fed) + " events");
    const std::string cut_dir = NewTempDir("walonly_cut");
    ASSERT_TRUE(state::WriteFileAtomic(cut_dir + "/feed.wal",
                                       wal_bytes.substr(0, length))
                    .ok());
    Engine cut;
    ASSERT_TRUE(cut.RegisterStream("Bid", BidSchema()).ok());
    ASSERT_TRUE(cut.Restore(cut_dir).ok());
    EXPECT_EQ(cut.feed_seq(), fed);
    auto cq = cut.Execute(kKeyedAgg);
    ASSERT_TRUE(cq.ok()) << cq.status().ToString();
    const std::vector<FeedEvent> prefix(feed.begin(), feed.begin() + fed);
    ExpectSameRendering(Render(*cq, T(8, 21)),
                        Baseline(kKeyedAgg, prefix, T(8, 21)));
  }
}

TEST(RecoveryTest, CheckpointWithoutWalRestores) {
  const std::vector<FeedEvent> feed = PaperFeed();
  const std::string dir = NewTempDir("ckptonly");
  {
    Engine engine;
    ASSERT_TRUE(engine.RegisterStream("Bid", BidSchema()).ok());
    auto q = engine.Execute(kKeyedAgg);
    ASSERT_TRUE(q.ok());
    ASSERT_TRUE(engine.Feed(feed).ok());
    ASSERT_TRUE(engine.Checkpoint(dir).ok());
  }

  Engine restored;
  ASSERT_TRUE(restored.Restore(dir).ok());
  EXPECT_FALSE(restored.durable());  // no log existed, none was attached
  ASSERT_EQ(restored.num_queries(), 1u);
  const Rendering want = Baseline(kKeyedAgg, feed, T(8, 21));
  ExpectSameRendering(Render(restored.query(0), T(8, 21)), want);

  // The restored engine keeps accepting feeds.
  ASSERT_TRUE(restored
                  .Feed({BidInsert(T(8, 22), T(8, 21), 9, "G"),
                         BidWatermark(T(8, 25), T(8, 30))})
                  .ok());
}

TEST(RecoveryTest, RestoredEngineContinuesDurablyAcrossSecondCrash) {
  const std::vector<FeedEvent> feed = PaperFeed();
  const size_t third = 3;
  const std::string dir = NewTempDir("twocrash");
  {
    Engine engine;
    ASSERT_TRUE(engine.RegisterStream("Bid", BidSchema()).ok());
    ASSERT_TRUE(engine.EnableDurability(dir).ok());
    auto q = engine.Execute(kKeyedAgg);
    ASSERT_TRUE(q.ok());
    ASSERT_TRUE(engine
                    .Feed(std::vector<FeedEvent>(feed.begin(),
                                                 feed.begin() + third))
                    .ok());
    ASSERT_TRUE(engine.Checkpoint(dir).ok());
  }
  {
    // First recovery: feed a bit more, crash again without a new checkpoint.
    Engine engine;
    ASSERT_TRUE(engine.Restore(dir).ok());
    ASSERT_TRUE(engine.durable());
    ASSERT_TRUE(engine
                    .Feed(std::vector<FeedEvent>(feed.begin() + third,
                                                 feed.begin() + 2 * third))
                    .ok());
  }
  // Second recovery: the old checkpoint plus the WAL appended across both
  // incarnations.
  Engine engine;
  ASSERT_TRUE(engine.Restore(dir).ok());
  EXPECT_EQ(engine.feed_seq(), 2 * third);
  ASSERT_TRUE(engine
                  .Feed(std::vector<FeedEvent>(feed.begin() + 2 * third,
                                               feed.end()))
                  .ok());
  ASSERT_EQ(engine.num_queries(), 1u);
  const Rendering want = Baseline(kKeyedAgg, feed, T(8, 21));
  ExpectSameRendering(Render(engine.query(0), T(8, 21)), want);
}

TEST(RecoveryTest, StaticTablesAndMultipleQueriesRoundTrip) {
  const std::string dir = NewTempDir("multi");
  const std::vector<FeedEvent> feed = PaperFeed();
  const std::string join_sql =
      "SELECT b.bidtime, b.price, c.name FROM Bid b JOIN Category c "
      "ON b.item = c.item";

  Rendering want_join, want_agg;
  {
    Engine engine;
    ASSERT_TRUE(engine.RegisterStream("Bid", BidSchema()).ok());
    ASSERT_TRUE(engine
                    .RegisterTable("Category",
                                   Schema({{"item", DataType::kVarchar},
                                           {"name", DataType::kVarchar}}),
                                   {{Value::String("A"), Value::String("art")},
                                    {Value::String("B"),
                                     Value::String("books")}})
                    .ok());
    ASSERT_TRUE(engine.EnableDurability(dir).ok());
    auto qj = engine.Execute(join_sql);
    ASSERT_TRUE(qj.ok()) << qj.status().ToString();
    auto qa = engine.Execute(kKeyedAgg);
    ASSERT_TRUE(qa.ok());
    ASSERT_TRUE(engine.Feed(
        std::vector<FeedEvent>(feed.begin(), feed.begin() + 6)).ok());
    ASSERT_TRUE(engine.Checkpoint(dir).ok());
    ASSERT_TRUE(engine.Feed(
        std::vector<FeedEvent>(feed.begin() + 6, feed.end())).ok());
    want_join = Render(*qj, T(8, 21));
    want_agg = Render(*qa, T(8, 21));
  }

  Engine restored;
  ASSERT_TRUE(restored.Restore(dir).ok());
  ASSERT_EQ(restored.num_queries(), 2u);
  // Query order (and thus the checkpoint section order) is Execute() order.
  ExpectSameRendering(Render(restored.query(0), T(8, 21)), want_join);
  ExpectSameRendering(Render(restored.query(1), T(8, 21)), want_agg);
  // The restored catalog knows both relations.
  EXPECT_TRUE(restored.catalog().Contains("Bid"));
  EXPECT_TRUE(restored.catalog().Contains("Category"));
  // Registering them again collides, as on the original engine.
  EXPECT_EQ(restored.RegisterStream("Bid", BidSchema()).code(),
            StatusCode::kAlreadyExists);
}

// ---------------------------------------------------------------------------
// Preconditions and misuse.
// ---------------------------------------------------------------------------

TEST(RecoveryTest, RestoreRequiresPristineEngine) {
  const std::string dir = NewTempDir("pristine");
  {
    Engine engine;
    ASSERT_TRUE(engine.RegisterStream("Bid", BidSchema()).ok());
    ASSERT_TRUE(engine.Feed(PaperFeed()).ok());
    ASSERT_TRUE(engine.Checkpoint(dir).ok());
  }
  // An engine that already fed events refuses to restore.
  Engine fed;
  ASSERT_TRUE(fed.RegisterStream("Bid", BidSchema()).ok());
  ASSERT_TRUE(fed.Feed(PaperFeed()).ok());
  EXPECT_EQ(fed.Restore(dir).code(), StatusCode::kInvalidArgument);

  // A checkpoint carries the catalog: restoring over registrations is an
  // error, not a merge.
  Engine registered;
  ASSERT_TRUE(registered.RegisterStream("Bid", BidSchema()).ok());
  EXPECT_EQ(registered.Restore(dir).code(), StatusCode::kInvalidArgument);
}

TEST(RecoveryTest, EnableDurabilityRejectsForeignLog) {
  const std::string dir = NewTempDir("foreign");
  {
    Engine engine;
    ASSERT_TRUE(engine.RegisterStream("Bid", BidSchema()).ok());
    ASSERT_TRUE(engine.EnableDurability(dir).ok());
    ASSERT_TRUE(engine.Feed(PaperFeed()).ok());
  }
  // A fresh engine must not silently append seq 0 after a log holding 10
  // events — it must be told to Restore first.
  Engine engine;
  ASSERT_TRUE(engine.RegisterStream("Bid", BidSchema()).ok());
  EXPECT_EQ(engine.EnableDurability(dir).code(),
            StatusCode::kInvalidArgument);

  // Nor after a checkpoint deleted `feed.wal`: the log's tail is the
  // segment the checkpoint started.
  const std::string rolled = NewTempDir("foreign_rolled");
  {
    Engine a;
    ASSERT_TRUE(a.RegisterStream("Bid", BidSchema()).ok());
    ASSERT_TRUE(a.EnableDurability(rolled).ok());
    ASSERT_TRUE(a.Feed(PaperFeed()).ok());
    ASSERT_TRUE(a.Checkpoint(rolled).ok());
  }
  Engine b;
  ASSERT_TRUE(b.RegisterStream("Bid", BidSchema()).ok());
  EXPECT_EQ(b.EnableDurability(rolled).code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(b.durable());
  // An engine at the log's position attaches to that tail.
  Engine c;
  ASSERT_TRUE(c.Restore(rolled).ok());
  EXPECT_TRUE(c.durable());
}

TEST(RecoveryTest, RestoredEngineEnforcesPtimeOrder) {
  const std::string dir = NewTempDir("order");
  {
    Engine engine;
    ASSERT_TRUE(engine.RegisterStream("Bid", BidSchema()).ok());
    ASSERT_TRUE(engine.Feed(PaperFeed()).ok());  // up to ptime 8:21
    ASSERT_TRUE(engine.Checkpoint(dir).ok());
  }
  Engine restored;
  ASSERT_TRUE(restored.Restore(dir).ok());
  EXPECT_EQ(restored
                .Insert("Bid", T(8, 1),
                        {Value::Time(T(8, 0)), Value::Int64(1),
                         Value::String("X")})
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(restored
                  .Insert("Bid", T(8, 30),
                          {Value::Time(T(8, 29)), Value::Int64(1),
                           Value::String("X")})
                  .ok());
}

// ---------------------------------------------------------------------------
// Clock moves are feed events: a query executed later and an engine
// restored from a checkpoint see each move where the running query saw it.
// ---------------------------------------------------------------------------

constexpr const char* kDelayedSum =
    "SELECT item, wend, SUM(price) AS total "
    "FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime), "
    "dur => INTERVAL '10' SECONDS) t GROUP BY item, wend "
    "EMIT STREAM AFTER DELAY INTERVAL '5' SECONDS";

TEST(ClockReplayTest, LiveLateAndRestoredStreamsAgreeAcrossAdvanceTo) {
  const std::string dir = NewTempDir("clock_replay");
  auto at = [](int64_t seconds) { return T(0, 0) + Interval::Seconds(seconds); };
  std::vector<Row> live;
  {
    Engine engine;
    ASSERT_TRUE(engine.RegisterStream("Bid", BidSchema()).ok());
    ASSERT_TRUE(engine.EnableDurability(dir).ok());
    auto q = engine.Execute(kDelayedSum);
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    ASSERT_TRUE(engine.Feed({BidInsert(at(0), at(0), 3, "a")}).ok());
    ASSERT_TRUE(engine.Checkpoint(dir).ok());
    ASSERT_TRUE(engine.AdvanceTo(at(5)).ok());
    ASSERT_TRUE(engine.Feed({BidInsert(at(5), at(5), 4, "a")}).ok());
    ASSERT_TRUE(engine.AdvanceTo(at(20)).ok());
    live = (*q)->StreamRows();
    // The move to 5 s fired the first pane before the second bid arrived;
    // the pane due at 10 s revises it.
    ASSERT_EQ(live.size(), 3u);
    EXPECT_EQ(live[0][2], Value::Int64(3));
    EXPECT_EQ(live[0][4], Value::Time(at(5)));
    EXPECT_EQ(live[2][2], Value::Int64(7));
    EXPECT_EQ(live[2][4], Value::Time(at(10)));

    auto late = engine.Execute(kDelayedSum);
    ASSERT_TRUE(late.ok()) << late.status().ToString();
    ExpectSameRows((*late)->StreamRows(), live, "late-executed stream");
  }
  Engine restored;
  ASSERT_TRUE(restored.Restore(dir).ok());
  ASSERT_EQ(restored.num_queries(), 1u);  // the late query was never saved
  ExpectSameRows(restored.query(0)->StreamRows(), live, "restored stream");
}

// ---------------------------------------------------------------------------
// Fault injection: damaged files must fail Restore with DataLoss — never
// crash, never partially restore.
// ---------------------------------------------------------------------------

/// After a failed Restore the engine is as Restore found it: `registered`
/// relations, and no query, history, feed position or log.
void ExpectUntouched(const Engine& engine, size_t registered = 0) {
  EXPECT_EQ(engine.catalog().tables().size(), registered);
  EXPECT_EQ(engine.num_queries(), 0u);
  EXPECT_EQ(engine.history_size(), 0u);
  EXPECT_EQ(engine.feed_seq(), 0u);
  EXPECT_FALSE(engine.durable());
}

/// Writes a checkpoint (one running query, mid-feed) into `dir` and returns
/// the checkpoint file's bytes.
std::string MakeCheckpointedDir(const std::string& dir) {
  Engine engine;
  EXPECT_TRUE(engine.RegisterStream("Bid", BidSchema()).ok());
  auto q = engine.Execute(kKeyedAgg);
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_TRUE(engine.Feed(PaperFeed()).ok());
  EXPECT_TRUE(engine.Checkpoint(dir).ok());
  auto bytes = state::ReadFileToString(dir + "/checkpoint.osql");
  EXPECT_TRUE(bytes.ok());
  return bytes.ok() ? *bytes : std::string();
}

TEST(FaultInjectionTest, TruncatedCheckpointFailsRestoreCleanly) {
  const std::string dir = NewTempDir("trunc_ckpt");
  const std::string bytes = MakeCheckpointedDir(dir);
  ASSERT_FALSE(bytes.empty());
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    ASSERT_TRUE(state::WriteFileAtomic(dir + "/checkpoint.osql",
                                       bytes.substr(0, cut))
                    .ok());
    Engine engine;
    const Status s = engine.Restore(dir);
    ExpectUntouched(engine);
    ASSERT_FALSE(s.ok()) << "cut at " << cut;
    EXPECT_EQ(s.code(), StatusCode::kDataLoss)
        << "cut at " << cut << ": " << s.ToString();
    EXPECT_EQ(engine.num_queries(), 0u) << "no partially restored queries";
  }
}

TEST(FaultInjectionTest, BitFlippedCheckpointFailsRestoreCleanly) {
  const std::string dir = NewTempDir("flip_ckpt");
  const std::string bytes = MakeCheckpointedDir(dir);
  ASSERT_FALSE(bytes.empty());
  for (size_t byte = 0; byte < bytes.size(); ++byte) {
    std::string damaged = bytes;
    damaged[byte] = static_cast<char>(damaged[byte] ^ 0x40);
    ASSERT_TRUE(
        state::WriteFileAtomic(dir + "/checkpoint.osql", damaged).ok());
    Engine engine;
    const Status s = engine.Restore(dir);
    ExpectUntouched(engine);
    ASSERT_FALSE(s.ok()) << "flip at byte " << byte;
    EXPECT_EQ(s.code(), StatusCode::kDataLoss) << s.ToString();
  }
}

/// Rewrites the checkpoint at `path` with its sections unchanged under a
/// hand-written container header at format `version`.
void RewriteAtVersion(const std::string& path, uint64_t version) {
  auto ckpt = state::CheckpointReader::Open(path);
  ASSERT_TRUE(ckpt.ok()) << ckpt.status().ToString();
  state::Writer header;
  header.PutBytes("1SQLCKP1");
  header.PutVarint(version);
  std::string data;
  state::AppendFrame(&data, header.buffer());
  for (size_t i = 0; i < ckpt->num_sections(); ++i) {
    state::AppendFrame(&data, ckpt->section(i));
  }
  ASSERT_TRUE(state::WriteFileAtomic(path, data).ok());
}

TEST(FaultInjectionTest, OlderVersionHeaderIsRefusedNotDataLoss) {
  // An intact file of format version 1 is old, not damaged.
  const std::string dir = NewTempDir("v1_header");
  ASSERT_FALSE(MakeCheckpointedDir(dir).empty());
  RewriteAtVersion(dir + "/checkpoint.osql", 1);
  Engine engine;
  const Status s = engine.Restore(dir);
  ExpectUntouched(engine);
  EXPECT_EQ(s.code(), StatusCode::kNotImplemented) << s.ToString();
  EXPECT_NE(s.message().find("move it aside"), std::string::npos)
      << s.ToString();
  EXPECT_EQ(engine.num_queries(), 0u);
}

TEST(FaultInjectionTest, UnknownVersionIsDataLoss) {
  const std::string dir = NewTempDir("future_header");
  for (uint64_t version : {uint64_t{0}, uint64_t{3}, uint64_t{1} << 40}) {
    ASSERT_FALSE(MakeCheckpointedDir(dir).empty());
    RewriteAtVersion(dir + "/checkpoint.osql", version);
    Engine engine;
    const Status s = engine.Restore(dir);
    ExpectUntouched(engine);
    EXPECT_EQ(s.code(), StatusCode::kDataLoss) << s.ToString();
    EXPECT_NE(s.message().find("unsupported checkpoint format version"),
              std::string::npos)
        << s.ToString();
    EXPECT_EQ(engine.num_queries(), 0u);
  }
}

TEST(FaultInjectionTest, FailedRestoreLeavesTheEngineAsItFoundIt) {
  // The checkpoint phase restores the catalog and the query; then the log
  // phase meets a flipped byte.
  const std::string dir = NewTempDir("failed_restore");
  const Timestamp end = T(8, 30);
  Rendering want;
  {
    Engine engine;
    ASSERT_TRUE(engine.RegisterStream("Bid", BidSchema()).ok());
    ASSERT_TRUE(engine.EnableDurability(dir).ok());
    auto q = engine.Execute(kKeyedAgg);
    ASSERT_TRUE(q.ok());
    ASSERT_TRUE(engine.Feed(PaperFeed()).ok());
    ASSERT_TRUE(engine.Checkpoint(dir).ok());
    ASSERT_TRUE(engine.Feed({BidInsert(T(8, 22), T(8, 21), 7, "G")}).ok());
    want = Render(*q, end);
  }
  auto segments = state::FeedLog::ListSegments(dir);
  ASSERT_TRUE(segments.ok() && segments->size() == 1u);
  const std::string path = segments->front().path;
  auto bytes = state::ReadFileToString(path);
  ASSERT_TRUE(bytes.ok());
  std::string damaged = *bytes;
  damaged.back() = static_cast<char>(damaged.back() ^ 0x08);
  ASSERT_TRUE(state::WriteFileAtomic(path, damaged).ok());

  Engine engine;
  obs::ObsOptions obs_options;
  obs_options.metrics = true;
  ASSERT_TRUE(engine.EnableObservability(obs_options).ok());
  EXPECT_EQ(engine.Restore(dir).code(), StatusCode::kDataLoss);
  ExpectUntouched(engine);
  // The half-restored query's gauges went with it.
  EXPECT_EQ(engine.MetricsSnapshot().GaugeValue("onesql_engine_operators"),
            0);
  // Repaired, the same engine restores like an uninterrupted run.
  ASSERT_TRUE(state::WriteFileAtomic(path, *bytes).ok());
  ASSERT_TRUE(engine.Restore(dir).ok());
  ASSERT_EQ(engine.num_queries(), 1u);
  ExpectSameRendering(Render(engine.query(0), end), want);
}

TEST(FaultInjectionTest, FailedColdStartKeepsTheRegistrations) {
  const std::string dir = NewTempDir("failed_cold_start");
  const Schema category({{"id", DataType::kBigint},
                         {"name", DataType::kVarchar}});
  const std::vector<Row> rows = {{Value::Int64(1), Value::String("x")}};
  auto registered = [&](Engine* engine) {
    ASSERT_TRUE(engine->RegisterStream("Bid", BidSchema()).ok());
    ASSERT_TRUE(engine->RegisterTable("Category", category, rows).ok());
  };
  {
    Engine engine;
    registered(&engine);
    ASSERT_TRUE(engine.EnableDurability(dir).ok());
    ASSERT_TRUE(engine.Feed(PaperFeed()).ok());
  }
  const std::string path = dir + "/feed.wal";
  auto bytes = state::ReadFileToString(path);
  ASSERT_TRUE(bytes.ok());
  std::string damaged = *bytes;
  damaged[damaged.size() / 2] = static_cast<char>(damaged[damaged.size() / 2] ^ 0x08);
  ASSERT_TRUE(state::WriteFileAtomic(path, damaged).ok());

  Engine engine;
  registered(&engine);
  EXPECT_EQ(engine.Restore(dir).code(), StatusCode::kDataLoss);
  ExpectUntouched(engine, /*registered=*/2);
  ASSERT_TRUE(state::WriteFileAtomic(path, *bytes).ok());
  ASSERT_TRUE(engine.Restore(dir).ok());
  EXPECT_EQ(engine.feed_seq(), PaperFeed().size());
  auto q = engine.Execute(kKeyedAgg);
  ASSERT_TRUE(q.ok());
  const Timestamp end = PaperFeed().back().ptime;
  ExpectSameRendering(Render(*q, end), Baseline(kKeyedAgg, PaperFeed(), end));
  auto names = engine.Execute("SELECT name FROM Category");
  ASSERT_TRUE(names.ok());
  auto table = (*names)->CurrentSnapshot();
  ASSERT_TRUE(table.ok());
  ASSERT_EQ(table->size(), 1u);
}

/// The feed log segments in `dir`, in seq order.
std::vector<state::WalSegment> Segments(const std::string& dir) {
  auto segments = state::FeedLog::ListSegments(dir);
  EXPECT_TRUE(segments.ok()) << segments.status().ToString();
  return segments.ok() ? *segments : std::vector<state::WalSegment>{};
}

TEST(FaultInjectionTest, DamagedWalFailsRestoreCleanly) {
  const std::string dir = NewTempDir("flip_wal");
  {
    Engine engine;
    ASSERT_TRUE(engine.RegisterStream("Bid", BidSchema()).ok());
    ASSERT_TRUE(engine.EnableDurability(dir).ok());
    auto q = engine.Execute(kKeyedAgg);
    ASSERT_TRUE(q.ok());
    ASSERT_TRUE(engine.Feed(PaperFeed()).ok());
    ASSERT_TRUE(engine.Checkpoint(dir).ok());
    // Feed past the checkpoint so the suffix matters.
    ASSERT_TRUE(engine.Feed({BidInsert(T(8, 22), T(8, 21), 7, "G")}).ok());
  }
  // The checkpoint deleted `feed.wal`; damage every segment left on disk.
  const std::vector<state::WalSegment> segments = Segments(dir);
  ASSERT_EQ(segments.size(), 1u);
  EXPECT_EQ(segments[0].first_seq, PaperFeed().size());
  for (const state::WalSegment& segment : segments) {
    auto wal_bytes = state::ReadFileToString(segment.path);
    ASSERT_TRUE(wal_bytes.ok());
    for (size_t byte = 0; byte < wal_bytes->size(); byte += 7) {
      std::string damaged = *wal_bytes;
      damaged[byte] = static_cast<char>(damaged[byte] ^ 0x08);
      ASSERT_TRUE(state::WriteFileAtomic(segment.path, damaged).ok());
      Engine engine;
      const Status s = engine.Restore(dir);
      ExpectUntouched(engine);
      ASSERT_FALSE(s.ok()) << segment.path << " flip at byte " << byte;
      EXPECT_EQ(s.code(), StatusCode::kDataLoss) << s.ToString();
    }
    ASSERT_TRUE(state::WriteFileAtomic(segment.path, *wal_bytes).ok());
  }
  Engine engine;
  EXPECT_TRUE(engine.Restore(dir).ok());
}

TEST(FaultInjectionTest, WalShorterThanCheckpointIsDataLoss) {
  // Checkpoint taken at the full feed, then the log truncated at every
  // byte: a log that does not cover the checkpoint's feed position is
  // corruption (checkpoints never run ahead of the log by construction).
  const std::string dir = NewTempDir("short_wal");
  std::string whole_log;  // `feed.wal` as the checkpoint found it
  {
    Engine engine;
    ASSERT_TRUE(engine.RegisterStream("Bid", BidSchema()).ok());
    ASSERT_TRUE(engine.EnableDurability(dir).ok());
    auto q = engine.Execute(kKeyedAgg);
    ASSERT_TRUE(q.ok());
    ASSERT_TRUE(engine.Feed(PaperFeed()).ok());
    auto bytes = state::ReadFileToString(dir + "/feed.wal");
    ASSERT_TRUE(bytes.ok());
    whole_log = *bytes;
    ASSERT_TRUE(engine.Checkpoint(dir).ok());
  }
  // Every segment still on disk (the header-only one the checkpoint
  // started), cut short.
  const std::vector<state::WalSegment> segments = Segments(dir);
  ASSERT_EQ(segments.size(), 1u);
  for (const state::WalSegment& segment : segments) {
    auto wal_bytes = state::ReadFileToString(segment.path);
    ASSERT_TRUE(wal_bytes.ok());
    for (size_t cut = 0; cut < wal_bytes->size(); cut += 9) {
      ASSERT_TRUE(
          state::WriteFileAtomic(segment.path, wal_bytes->substr(0, cut)).ok());
      Engine engine;
      const Status s = engine.Restore(dir);
      ExpectUntouched(engine);
      ASSERT_FALSE(s.ok()) << segment.path << " cut at " << cut;
      EXPECT_EQ(s.code(), StatusCode::kDataLoss) << s.ToString();
    }
  }
  // The deleted `feed.wal` back in the segments' place, cut at every byte:
  // a log that ends below the checkpoint's feed position.
  for (const state::WalSegment& segment : segments) {
    ASSERT_EQ(std::remove(segment.path.c_str()), 0);
  }
  for (size_t cut = 0; cut < whole_log.size(); cut += 9) {
    ASSERT_TRUE(state::WriteFileAtomic(dir + "/feed.wal",
                                       whole_log.substr(0, cut))
                    .ok());
    Engine engine;
    const Status s = engine.Restore(dir);
    ExpectUntouched(engine);
    ASSERT_FALSE(s.ok()) << "feed.wal cut at " << cut;
    EXPECT_EQ(s.code(), StatusCode::kDataLoss) << s.ToString();
  }
  // A missing log with a checkpointed feed position is equally DataLoss.
  ASSERT_EQ(std::remove((dir + "/feed.wal").c_str()), 0);
  Engine engine;
  const Status s = engine.Restore(dir);
  ExpectUntouched(engine);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kDataLoss) << s.ToString();
}

// ---------------------------------------------------------------------------
// The segmented log: a checkpoint in the log's directory writes itself into
// place, starts a segment at its feed position, syncs the directory, then
// deletes the segments it covers. A crash after any of those steps restores
// bit-identically.
// ---------------------------------------------------------------------------

/// Every file in `dir`, by name.
std::map<std::string, std::string> DirFiles(const std::string& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    auto bytes = state::ReadFileToString(entry.path().string());
    EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
    files[entry.path().filename().string()] = bytes.ok() ? *bytes : "";
  }
  return files;
}

/// A fresh directory holding exactly `files`.
std::string DirOf(const std::map<std::string, std::string>& files) {
  const std::string dir = NewTempDir("crash_state");
  for (const auto& [name, bytes] : files) {
    EXPECT_TRUE(state::WriteFileAtomic(dir + "/" + name, bytes).ok()) << name;
  }
  return dir;
}

/// The directory states a crash during one Checkpoint can leave, given the
/// directory before and after it, each named by the last step that
/// reached the disk. The checkpoint rename and the new segment are durable
/// (file and directory fsynced) before any deletion starts; the deletions
/// are synced together at the end, so any subset of them may survive.
std::vector<std::pair<std::string, std::map<std::string, std::string>>>
CrashStates(const std::map<std::string, std::string>& before,
            const std::map<std::string, std::string>& after) {
  std::vector<std::pair<std::string, std::map<std::string, std::string>>> out;
  std::map<std::string, std::string> state = before;
  state["checkpoint.osql"] = after.at("checkpoint.osql");
  out.emplace_back("checkpoint renamed into place", state);
  for (const auto& [name, bytes] : after) {
    if (before.count(name) == 0 && name != "checkpoint.osql") {
      state[name] = bytes;
    }
  }
  out.emplace_back("new segment created and directory synced", state);
  std::vector<std::string> deleted;
  for (const auto& [name, bytes] : before) {
    if (after.count(name) == 0) deleted.push_back(name);
  }
  const std::map<std::string, std::string> synced = state;
  for (const std::string& name : deleted) {
    state.erase(name);
    out.emplace_back("deleted up to " + name, state);
    std::map<std::string, std::string> alone = synced;
    alone.erase(name);
    out.emplace_back("deleted only " + name, alone);
  }
  EXPECT_EQ(state, after) << "Checkpoint did more than the model's steps";
  return out;
}

/// Overwrites every segment in `dir` that lies wholly below `position` with
/// bytes no log holds: a restore from a checkpoint at `position` must never
/// read them.
void GarbleSegmentsBelow(const std::string& dir, uint64_t position) {
  const std::vector<state::WalSegment> segments = Segments(dir);
  for (size_t i = 0;
       i + 1 < segments.size() && segments[i + 1].first_seq <= position; ++i) {
    ASSERT_TRUE(
        state::WriteFileAtomic(segments[i].path, "not a feed log").ok());
  }
}

/// Restores `dir` (taken at feed position `at`), checks it renders like an
/// uninterrupted run of `feed[0, at)`, feeds the rest, checkpoints and
/// restores once more.
void ExpectRestoresAndContinues(const std::string& dir,
                                const std::vector<FeedEvent>& feed, size_t at) {
  const Timestamp end = feed.back().ptime;
  const std::vector<FeedEvent> prefix(feed.begin(), feed.begin() + at);
  Engine engine;
  const Status s = engine.Restore(dir);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(engine.feed_seq(), at);
  ASSERT_EQ(engine.num_queries(), 1u);
  ExpectSameRendering(Render(engine.query(0), end),
                      Baseline(kKeyedAgg, prefix, end));
  ASSERT_TRUE(
      engine.Feed(std::vector<FeedEvent>(feed.begin() + at, feed.end())).ok());
  const Rendering want = Baseline(kKeyedAgg, feed, end);
  ExpectSameRendering(Render(engine.query(0), end), want);
  ASSERT_TRUE(engine.Checkpoint(dir).ok());
  const std::vector<state::WalSegment> left = Segments(dir);
  ASSERT_EQ(left.size(), 1u);
  EXPECT_EQ(left[0].first_seq, feed.size());
  Engine again;
  ASSERT_TRUE(again.Restore(dir).ok());
  ASSERT_EQ(again.num_queries(), 1u);
  ExpectSameRendering(Render(again.query(0), end), want);
}

TEST(FaultInjectionTest, CrashAtEveryCheckpointStepRestoresBitIdentically) {
  const std::vector<FeedEvent> feed = BigFeed(150);
  const size_t first = 50;
  const size_t second = 110;
  // The first checkpoint of a durable run.
  const std::string dir = NewTempDir("crash_ckpt");
  std::map<std::string, std::string> before, after;
  {
    Engine engine;
    ASSERT_TRUE(engine.RegisterStream("Bid", BidSchema()).ok());
    ASSERT_TRUE(engine.EnableDurability(dir).ok());
    ASSERT_TRUE(engine.Execute(kKeyedAgg).ok());
    ASSERT_TRUE(engine
                    .Feed(std::vector<FeedEvent>(feed.begin(),
                                                 feed.begin() + first))
                    .ok());
    before = DirFiles(dir);
    ASSERT_TRUE(engine.Checkpoint(dir).ok());
    after = DirFiles(dir);
  }
  EXPECT_EQ(after.size(), 2u);
  EXPECT_EQ(after.count("feed.wal"), 0u);
  const std::string first_segment =
      "feed.000000000000000000" + std::to_string(first) + ".wal";
  ASSERT_EQ(after.count(first_segment), 1u);
  const auto first_states = CrashStates(before, after);
  for (const auto& [step, files] : first_states) {
    SCOPED_TRACE("first checkpoint, crash after: " + step);
    ExpectRestoresAndContinues(DirOf(files), feed, first);
    // Whatever the crash left below the checkpoint is never read.
    const std::string garbled = DirOf(files);
    GarbleSegmentsBelow(garbled, first);
    ExpectRestoresAndContinues(garbled, feed, first);
  }

  // A crash that left `feed.wal` behind, a restore from it, more feed, and
  // the next checkpoint, which deletes both segments below it.
  const std::string dir2 = DirOf(first_states[1].second);
  {
    Engine engine;
    ASSERT_TRUE(engine.Restore(dir2).ok());
    ASSERT_TRUE(engine
                    .Feed(std::vector<FeedEvent>(feed.begin() + first,
                                                 feed.begin() + second))
                    .ok());
    before = DirFiles(dir2);
    ASSERT_TRUE(engine.Checkpoint(dir2).ok());
    after = DirFiles(dir2);
  }
  ASSERT_EQ(before.size(), 3u);
  ASSERT_EQ(after.size(), 2u);
  const auto second_states = CrashStates(before, after);
  EXPECT_EQ(second_states.size(), 6u);
  for (const auto& [step, files] : second_states) {
    SCOPED_TRACE("second checkpoint, crash after: " + step);
    ExpectRestoresAndContinues(DirOf(files), feed, second);
    const std::string garbled = DirOf(files);
    GarbleSegmentsBelow(garbled, second);
    ExpectRestoresAndContinues(garbled, feed, second);
  }
}

TEST(FaultInjectionTest, DamagedOrMissingMiddleSegmentIsDataLoss) {
  // An older checkpoint with the two segments its suffix spans: the first
  // is a middle segment, read whole and checked for continuity into the
  // next.
  const std::vector<FeedEvent> feed = BigFeed(120);
  const size_t a = 40;
  const size_t b = 80;
  const std::string dir = NewTempDir("middle");
  std::string ckpt_a, middle;
  std::string middle_name;
  {
    Engine engine;
    ASSERT_TRUE(engine.RegisterStream("Bid", BidSchema()).ok());
    ASSERT_TRUE(engine.EnableDurability(dir).ok());
    ASSERT_TRUE(engine.Execute(kKeyedAgg).ok());
    ASSERT_TRUE(
        engine.Feed(std::vector<FeedEvent>(feed.begin(), feed.begin() + a))
            .ok());
    ASSERT_TRUE(engine.Checkpoint(dir).ok());
    ckpt_a = *state::ReadFileToString(dir + "/checkpoint.osql");
    ASSERT_TRUE(engine
                    .Feed(std::vector<FeedEvent>(feed.begin() + a,
                                                 feed.begin() + b))
                    .ok());
    const std::vector<state::WalSegment> segments = Segments(dir);
    ASSERT_EQ(segments.size(), 1u);
    middle_name = segments[0].path;
    middle = *state::ReadFileToString(middle_name);
    ASSERT_TRUE(engine.Checkpoint(dir).ok());
    ASSERT_TRUE(
        engine.Feed(std::vector<FeedEvent>(feed.begin() + b, feed.end())).ok());
  }
  ASSERT_TRUE(state::WriteFileAtomic(dir + "/checkpoint.osql", ckpt_a).ok());
  ASSERT_TRUE(state::WriteFileAtomic(middle_name, middle).ok());
  ASSERT_EQ(Segments(dir).size(), 2u);
  {
    // Intact, the two segments restore the whole feed.
    Engine engine;
    ASSERT_TRUE(engine.Restore(dir).ok());
    EXPECT_EQ(engine.feed_seq(), feed.size());
    const Timestamp end = feed.back().ptime;
    ExpectSameRendering(Render(engine.query(0), end),
                        Baseline(kKeyedAgg, feed, end));
  }
  auto expect_data_loss = [&](const std::string& what) {
    Engine engine;
    const Status s = engine.Restore(dir);
    ExpectUntouched(engine);
    ASSERT_FALSE(s.ok()) << what;
    EXPECT_EQ(s.code(), StatusCode::kDataLoss) << what << ": " << s.ToString();
  };
  for (size_t cut = 0; cut < middle.size(); cut += 9) {
    ASSERT_TRUE(
        state::WriteFileAtomic(middle_name, middle.substr(0, cut)).ok());
    expect_data_loss("middle segment cut at " + std::to_string(cut));
  }
  for (size_t byte = 0; byte < middle.size(); byte += 7) {
    std::string damaged = middle;
    damaged[byte] = static_cast<char>(damaged[byte] ^ 0x08);
    ASSERT_TRUE(state::WriteFileAtomic(middle_name, damaged).ok());
    expect_data_loss("middle segment flip at byte " + std::to_string(byte));
  }
  ASSERT_EQ(std::remove(middle_name.c_str()), 0);
  expect_data_loss("middle segment deleted");
}

TEST(FlatWalTest, LogHoldsOnlyTheSuffixPastEachCheckpoint) {
  // Feed, checkpoint and feed again, five times: after each checkpoint the
  // directory holds only segments at or past it, their bytes are one header
  // plus what was fed since, and a restore right then decodes nothing.
  const std::vector<FeedEvent> feed = BigFeed(250);
  constexpr int kRounds = 5;
  const size_t step = feed.size() / kRounds;
  const std::string dir = NewTempDir("flat_wal");
  obs::ObsOptions metrics;
  metrics.metrics = true;
  Engine engine;
  ASSERT_TRUE(engine.RegisterStream("Bid", BidSchema()).ok());
  ASSERT_TRUE(engine.EnableObservability(metrics).ok());
  ASSERT_TRUE(engine.EnableDurability(dir).ok());
  ASSERT_TRUE(engine.Execute(kKeyedAgg).ok());
  auto header_bytes = state::ReadFileToString(dir + "/feed.wal");
  ASSERT_TRUE(header_bytes.ok());
  const uint64_t header = header_bytes->size();
  auto log_bytes = [&] {
    uint64_t total = 0;
    for (const state::WalSegment& segment : Segments(dir)) {
      total += std::filesystem::file_size(segment.path);
    }
    return total;
  };
  auto written = [&] {
    return engine.MetricsSnapshot().CounterValue(
        "onesql_wal_bytes_written_total");
  };
  size_t pos = 0;
  for (int round = 0; round < kRounds; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const size_t cut = step * (round + 1);
    ASSERT_TRUE(engine
                    .Feed(std::vector<FeedEvent>(feed.begin() + pos,
                                                 feed.begin() + cut))
                    .ok());
    pos = cut;
    ASSERT_TRUE(engine.Checkpoint(dir).ok());
    const uint64_t at_checkpoint = written();
    for (const state::WalSegment& segment : Segments(dir)) {
      EXPECT_GE(segment.first_seq, engine.feed_seq()) << segment.path;
    }
    EXPECT_EQ(log_bytes(), header);

    // Restored right after the checkpoint (from a copy: one engine appends
    // to a log at a time), nothing is decoded or replayed.
    {
      obs::ObsOptions tracing;
      tracing.tracing = true;
      Engine restored;
      ASSERT_TRUE(restored.EnableObservability(tracing).ok());
      ASSERT_TRUE(restored.Restore(DirOf(DirFiles(dir))).ok());
      EXPECT_EQ(restored.feed_seq(), engine.feed_seq());
      bool saw_read = false;
      for (const obs::TraceEvent& event : restored.obs()->trace()->Drain()) {
        if (std::string(event.name) == "restore_log_read") {
          saw_read = true;
          EXPECT_EQ(event.aux, 0u) << "records decoded";
        }
      }
      EXPECT_TRUE(saw_read);
    }

    // Fed again, the log is the header plus exactly the records since.
    const size_t more = std::min<size_t>(7, feed.size() - pos);
    ASSERT_TRUE(engine
                    .Feed(std::vector<FeedEvent>(feed.begin() + pos,
                                                 feed.begin() + pos + more))
                    .ok());
    pos += more;
    EXPECT_EQ(log_bytes(), header + (written() - at_checkpoint));
    EXPECT_EQ(written() > at_checkpoint, more > 0);
  }
}

/// Runs in a death-test child: a durable engine whose feed log cannot grow
/// past what its first Feed wrote. Returns what went wrong, or "" when the
/// failing Feed dispatched nothing and every later Feed, Checkpoint and
/// Execute returned its error: no checkpoint was written, and no query
/// replayed the events the log never made durable.
std::string CheckFeedLogFailureIsSticky(const std::string& dir) {
  const std::vector<FeedEvent> feed = PaperFeed();
  Engine engine;
  if (!engine.RegisterStream("Bid", BidSchema()).ok() ||
      !engine.EnableDurability(dir).ok()) {
    return "set-up failed";
  }
  auto q = engine.Execute(kKeyedAgg);
  if (!q.ok()) return "execute: " + q.status().ToString();
  if (!engine.Feed(std::vector<FeedEvent>(feed.begin(), feed.begin() + 4))
           .ok()) {
    return "the first Feed failed";
  }
  const size_t emitted = (*q)->Emissions().size();
  auto wal = state::ReadFileToString(dir + "/feed.wal");
  if (!wal.ok()) return "read: " + wal.status().ToString();
  state::FileSizeLimit limit(wal->size());
  if (!limit.ok()) return "cannot lower RLIMIT_FSIZE";
  const Status failed = engine.Feed(
      std::vector<FeedEvent>(feed.begin() + 4, feed.begin() + 8));
  if (failed.code() != StatusCode::kDataLoss) {
    return "the failing Feed returned " + failed.ToString();
  }
  // Writes would succeed again now; only the sticky error refuses them.
  limit.Lift();
  for (const Status& later :
       {engine.Feed(std::vector<FeedEvent>(feed.begin() + 8, feed.end())),
        engine.Insert("Bid", T(8, 30),
                      {Value::Time(T(8, 29)), Value::Int64(1),
                       Value::String("X")}),
        engine.Checkpoint(dir), engine.Execute(kKeyedAgg).status()}) {
    if (later.code() != failed.code() || later.message() != failed.message()) {
      return "a later call returned " + later.ToString() + ", not " +
             failed.ToString();
    }
  }
  if ((*q)->Emissions().size() != emitted) return "events were dispatched";
  if (engine.num_queries() != 1) return "a query started on the history";
  if (std::FILE* f = std::fopen((dir + "/checkpoint.osql").c_str(), "rb")) {
    std::fclose(f);
    return "a checkpoint was written";
  }
  return "";
}

TEST(FaultInjectionTest, FeedLogWriteFailureIsSticky) {
  const std::string dir = NewTempDir("sticky_wal");
  state::ExpectPassesInChild(
      [&] { return CheckFeedLogFailureIsSticky(dir); });
}

/// Checkpoints `engine` (one query) into a fresh directory and returns the
/// sink section it wrote.
std::string ResavedSinkBlob(Engine* engine) {
  const std::string dir = NewTempDir("resaved_sink");
  EXPECT_TRUE(engine->Checkpoint(dir).ok());
  const auto sections = ParseQuerySections(dir + "/checkpoint.osql");
  EXPECT_EQ(sections.size(), 1u);
  return sections.empty() ? std::string() : sections[0].sink;
}

TEST(SinkCheckpointSizeTest, SinkBlobIsAboutItsEmissionsAlone) {
  // The sink stores its log once, and in instant modes nothing the log
  // already gives: its blob is the emissions plus small gated key states
  // and timer queues, never a second copy of the changes. The feed is the
  // 40,000-event one the checkpoint-size figures are quoted at; with fewer,
  // Q3 emits too few rows for the blob's fixed header to be noise.
  nexmark::GeneratorConfig config;
  config.seed = 7;
  config.num_events = 40000;
  const std::vector<FeedEvent> feed = nexmark::Generator(config).Generate();
  const std::vector<std::pair<const char*, std::string>> queries = {
      {"Q1", nexmark::Q1()}, {"Q3", nexmark::Q3()}, {"Q4", nexmark::Q4()},
      {"Q5", nexmark::Q5()}, {"Q7", nexmark::Q7()}};
  for (const auto& [name, sql] : queries) {
    Engine engine;
    ASSERT_TRUE(nexmark::RegisterNexmark(&engine).ok());
    auto q = engine.Execute(sql);
    ASSERT_TRUE(q.ok()) << name << ": " << q.status().ToString();
    ASSERT_TRUE(engine.Feed(feed).ok()) << name;
    const std::vector<exec::Emission>& emissions = (*q)->Emissions();
    ASSERT_GT(emissions.size(), 40u) << name;

    state::Writer alone;
    alone.PutVarint(emissions.size());
    for (const exec::Emission& e : emissions) {
      alone.PutRow(e.row);
      alone.PutBool(e.undo);
      alone.PutTimestamp(e.ptime);
      alone.PutSigned(e.ver);
    }
    const std::string sink = ResavedSinkBlob(&engine);
    EXPECT_LE(static_cast<double>(sink.size()),
              1.1 * static_cast<double>(alone.buffer().size()))
        << name << ": sink blob " << sink.size() << " B, emissions alone "
        << alone.buffer().size() << " B";
  }
}

}  // namespace
}  // namespace onesql
