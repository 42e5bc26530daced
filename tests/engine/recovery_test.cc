// Durability end to end: the recovery-equivalence property (checkpoint at
// every prefix of the paper's Section 4 dataset, crash, restore, replay the
// WAL suffix — every rendering must be bit-identical to the uninterrupted
// run, at every shard count), shard-count-changing restores at the runtime
// level, WAL-only cold starts, and fault injection on both files.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "exec/dataflow.h"
#include "state/frame.h"
#include "state/wal.h"
#include "tests/state/temp_dir.h"

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
                   int shards, Timestamp at) {
  Engine engine;
  EXPECT_TRUE(engine.RegisterStream("Bid", BidSchema()).ok());
  ExecutionOptions options;
  options.shards = shards;
  auto q = engine.Execute(sql, options);
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_TRUE(engine.Feed(feed).ok());
  return Render(*q, at);
}

// ---------------------------------------------------------------------------
// The acceptance property: checkpoint at every prefix, restore, feed the
// suffix from the WAL — bit-identical to the uninterrupted run.
// ---------------------------------------------------------------------------

void CheckRecoveryEquivalence(const std::string& sql,
                              const std::vector<FeedEvent>& feed, int shards,
                              size_t prefix, Timestamp at,
                              const Rendering& want) {
  SCOPED_TRACE("shards=" + std::to_string(shards) +
               " prefix=" + std::to_string(prefix));
  const std::string dir = NewTempDir("recovery");

  {
    // The run that crashes: durable from the start, checkpointed mid-feed.
    Engine engine;
    ASSERT_TRUE(engine.RegisterStream("Bid", BidSchema()).ok());
    ASSERT_TRUE(engine.EnableDurability(dir).ok());
    ExecutionOptions options;
    options.shards = shards;
    auto q = engine.Execute(sql, options);
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
  ContinuousQuery* q = restored.query(0);
  EXPECT_EQ(q->dataflow().shard_count(),
            shards);  // rebuilt at the saved shard count
  ExpectSameRendering(Render(q, at), want);
}

TEST(RecoveryEquivalenceTest, PaperDatasetEveryPrefixEveryShardCount) {
  const std::vector<FeedEvent> feed = PaperFeed();
  for (int shards : {1, 2, 8}) {
    const Rendering want = Baseline(kKeyedAgg, feed, shards, T(8, 21));
    for (size_t prefix = 0; prefix <= feed.size(); ++prefix) {
      CheckRecoveryEquivalence(kKeyedAgg, feed, shards, prefix, T(8, 21),
                               want);
    }
  }
}

TEST(RecoveryEquivalenceTest, PaperDatasetAfterWatermarkEmission) {
  const std::vector<FeedEvent> feed = PaperFeed();
  for (int shards : {1, 2, 8}) {
    const Rendering want =
        Baseline(kKeyedAggAfterWatermark, feed, shards, T(8, 21));
    for (size_t prefix = 0; prefix <= feed.size(); ++prefix) {
      CheckRecoveryEquivalence(kKeyedAggAfterWatermark, feed, shards, prefix,
                               T(8, 21), want);
    }
  }
}

TEST(RecoveryEquivalenceTest, NonPartitionableQueryRecovers) {
  // GROUP BY wend only: runs sequentially regardless of the shard request;
  // the checkpoint must record and restore that resolution.
  const std::vector<FeedEvent> feed = PaperFeed();
  const Rendering want = Baseline(kWindowedMax, feed, 1, T(8, 21));
  for (size_t prefix : {size_t{0}, size_t{4}, size_t{10}}) {
    CheckRecoveryEquivalence(kWindowedMax, feed, 1, prefix, T(8, 21), want);
  }
}

TEST(RecoveryEquivalenceTest, LargeFeedSampledPrefixes) {
  const std::vector<FeedEvent> feed = BigFeed(400);
  const Timestamp at = feed.back().ptime;
  for (int shards : {1, 2, 8}) {
    const Rendering want = Baseline(kKeyedAgg, feed, shards, at);
    for (size_t prefix : {size_t{0}, size_t{1}, size_t{137}, size_t{256},
                          feed.size() - 1, feed.size()}) {
      CheckRecoveryEquivalence(kKeyedAgg, feed, shards, prefix, at, want);
    }
  }
}

// ---------------------------------------------------------------------------
// Shard-count-changing restore (runtime level): state saved at K shards
// loads into a runtime at N shards, for every K x N pair.
// ---------------------------------------------------------------------------

/// Chunks `feed[begin, end)` into `out` the way the engine's feed path does,
/// numbering the events from `begin`.
void ChunkFeed(const std::vector<FeedEvent>& feed, size_t begin, size_t end,
               std::vector<exec::InputChunk>* out) {
  exec::ChunkBuilder builder(out, begin);
  for (size_t i = begin; i < end; ++i) {
    const FeedEvent& e = feed[i];
    switch (e.kind) {
      case FeedEvent::Kind::kInsert:
        builder.AddElement(e.source, e.row, +1, e.ptime);
        break;
      case FeedEvent::Kind::kDelete:
        builder.AddElement(e.source, e.row, -1, e.ptime);
        break;
      case FeedEvent::Kind::kWatermark:
        builder.AddWatermark(e.source, e.watermark, e.ptime);
        break;
    }
  }
  builder.CloseAll();
}

/// Pushes `feed[begin, end)` into `flow` as one PushChunks call.
Status PushFeed(exec::Dataflow* flow, const std::vector<FeedEvent>& feed,
                size_t begin, size_t end) {
  std::vector<exec::InputChunk> chunks;
  ChunkFeed(feed, begin, end, &chunks);
  std::vector<const exec::InputChunk*> refs;
  for (const exec::InputChunk& chunk : chunks) refs.push_back(&chunk);
  return flow->PushChunks(refs);
}

std::unique_ptr<exec::Dataflow> BuildRuntime(const std::string& sql,
                                             int shards) {
  Engine engine;
  EXPECT_TRUE(engine.RegisterStream("Bid", BidSchema()).ok());
  auto plan = engine.Plan(sql);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  auto flow = exec::Dataflow::Build(std::move(*plan), shards);
  EXPECT_TRUE(flow.ok()) << flow.status().ToString();
  return std::move(*flow);
}

void ExpectSameEmissions(const exec::Dataflow& got,
                         const exec::Dataflow& want) {
  const auto& g = got.sink().emissions();
  const auto& w = want.sink().emissions();
  ASSERT_EQ(g.size(), w.size()) << "emission count";
  for (size_t i = 0; i < w.size(); ++i) {
    EXPECT_TRUE(RowsEqual(g[i].row, w[i].row)) << "emission " << i;
    EXPECT_EQ(g[i].undo, w[i].undo) << "emission " << i;
    EXPECT_EQ(g[i].ptime, w[i].ptime) << "emission " << i;
    EXPECT_EQ(g[i].ver, w[i].ver) << "emission " << i;
  }
}

TEST(ShardCountChangingRestoreTest, EveryPairOfShardCounts) {
  const std::vector<FeedEvent> feed = BigFeed(300);
  const size_t half = feed.size() / 2;

  // Reference: sequential, uninterrupted.
  auto reference = BuildRuntime(kKeyedAgg, 1);
  ASSERT_TRUE(PushFeed(reference.get(), feed, 0, feed.size()).ok());

  for (int save_shards : {1, 2, 8}) {
    for (int load_shards : {1, 2, 8}) {
      SCOPED_TRACE("save=" + std::to_string(save_shards) +
                   " load=" + std::to_string(load_shards));
      auto saver = BuildRuntime(kKeyedAgg, save_shards);
      ASSERT_TRUE(PushFeed(saver.get(), feed, 0, half).ok());
      state::Writer w;
      ASSERT_TRUE(saver->SaveState(&w).ok());

      auto loader = BuildRuntime(kKeyedAgg, load_shards);
      state::Reader r(w.buffer());
      auto loaded = loader->LoadState(&r);
      ASSERT_TRUE(loaded.ok()) << loaded.ToString();
      EXPECT_EQ(loader->StateBytes(), saver->StateBytes())
          << "restored state size must not depend on the shard count";

      ASSERT_TRUE(PushFeed(loader.get(), feed, half, feed.size()).ok());
      ExpectSameEmissions(*loader, *reference);
    }
  }
}

TEST(ShardCountChangingRestoreTest, DamagedRuntimeBlobIsDataLoss) {
  auto saver = BuildRuntime(kKeyedAgg, 2);
  const std::vector<FeedEvent> feed = PaperFeed();
  ASSERT_TRUE(PushFeed(saver.get(), feed, 0, feed.size()).ok());
  state::Writer w;
  ASSERT_TRUE(saver->SaveState(&w).ok());
  const std::string& bytes = w.buffer();

  for (size_t cut = 0; cut < bytes.size(); cut += 3) {
    auto loader = BuildRuntime(kKeyedAgg, 2);
    state::Reader r(std::string_view(bytes).substr(0, cut));
    const Status s = loader->LoadState(&r);
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
  {
    Engine engine;
    ASSERT_TRUE(engine.RegisterStream("Bid", BidSchema()).ok());
    ASSERT_TRUE(engine.EnableDurability(dir).ok());
    ASSERT_TRUE(engine.Feed(feed).ok());
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
  const Rendering want = Baseline(kKeyedAgg, feed, 1, T(8, 21));
  auto q = restored.Execute(kKeyedAgg);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ExpectSameRendering(Render(*q, T(8, 21)), want);
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
  const Rendering want = Baseline(kKeyedAgg, feed, 1, T(8, 21));
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
  const Rendering want = Baseline(kKeyedAgg, feed, 1, T(8, 21));
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
// Fault injection: damaged files must fail Restore with DataLoss — never
// crash, never partially restore.
// ---------------------------------------------------------------------------

/// Writes a checkpoint (one running query, mid-feed) into `dir` and returns
/// the checkpoint file's bytes.
std::string MakeCheckpointedDir(const std::string& dir) {
  Engine engine;
  EXPECT_TRUE(engine.RegisterStream("Bid", BidSchema()).ok());
  ExecutionOptions options;
  options.shards = 2;
  auto q = engine.Execute(kKeyedAgg, options);
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
  for (size_t cut = 0; cut < bytes.size(); cut += 3) {
    ASSERT_TRUE(state::WriteFileAtomic(dir + "/checkpoint.osql",
                                       bytes.substr(0, cut))
                    .ok());
    Engine engine;
    const Status s = engine.Restore(dir);
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
  for (size_t byte = 0; byte < bytes.size(); byte += 5) {
    std::string damaged = bytes;
    damaged[byte] = static_cast<char>(damaged[byte] ^ 0x40);
    ASSERT_TRUE(
        state::WriteFileAtomic(dir + "/checkpoint.osql", damaged).ok());
    Engine engine;
    const Status s = engine.Restore(dir);
    ASSERT_FALSE(s.ok()) << "flip at byte " << byte;
    EXPECT_EQ(s.code(), StatusCode::kDataLoss) << s.ToString();
  }
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
  auto wal_bytes = state::ReadFileToString(dir + "/feed.wal");
  ASSERT_TRUE(wal_bytes.ok());

  for (size_t byte = 0; byte < wal_bytes->size(); byte += 7) {
    std::string damaged = *wal_bytes;
    damaged[byte] = static_cast<char>(damaged[byte] ^ 0x08);
    ASSERT_TRUE(state::WriteFileAtomic(dir + "/feed.wal", damaged).ok());
    Engine engine;
    const Status s = engine.Restore(dir);
    ASSERT_FALSE(s.ok()) << "flip at byte " << byte;
    EXPECT_EQ(s.code(), StatusCode::kDataLoss) << s.ToString();
  }
}

TEST(FaultInjectionTest, WalShorterThanCheckpointIsDataLoss) {
  // Checkpoint taken at the full feed, then the log truncated at every
  // byte: a log that does not cover the checkpoint's feed position is
  // corruption (checkpoints never run ahead of the log by construction).
  const std::string dir = NewTempDir("short_wal");
  {
    Engine engine;
    ASSERT_TRUE(engine.RegisterStream("Bid", BidSchema()).ok());
    ASSERT_TRUE(engine.EnableDurability(dir).ok());
    auto q = engine.Execute(kKeyedAgg);
    ASSERT_TRUE(q.ok());
    ASSERT_TRUE(engine.Feed(PaperFeed()).ok());
    ASSERT_TRUE(engine.Checkpoint(dir).ok());
  }
  auto wal_bytes = state::ReadFileToString(dir + "/feed.wal");
  ASSERT_TRUE(wal_bytes.ok());
  for (size_t cut = 0; cut < wal_bytes->size(); cut += 9) {
    ASSERT_TRUE(
        state::WriteFileAtomic(dir + "/feed.wal", wal_bytes->substr(0, cut))
            .ok());
    Engine engine;
    const Status s = engine.Restore(dir);
    ASSERT_FALSE(s.ok()) << "cut at " << cut;
    EXPECT_EQ(s.code(), StatusCode::kDataLoss) << s.ToString();
  }
  // A missing log with a checkpointed feed position is equally DataLoss.
  ASSERT_EQ(std::remove((dir + "/feed.wal").c_str()), 0);
  Engine engine;
  const Status s = engine.Restore(dir);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kDataLoss) << s.ToString();
}

}  // namespace
}  // namespace onesql
