// Every query runs on one chain; ExecutionOptions::shards is accepted but
// has no effect. These tests run the same scenarios with the setting at
// N ∈ {1, 2, 8} and compare bit-for-bit — identical stream rendering
// (StreamRows, including undo/ptime/ver metadata) and identical snapshots,
// live and replayed into queries executed late (over plain, compacted and
// restored histories, and with a static table) — and check that every
// query reports one chain.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "tests/state/temp_dir.h"

namespace onesql {
namespace {

Timestamp T(int h, int m) { return Timestamp::FromHMS(h, m); }

constexpr const char* kKeyedAgg =
    "SELECT item, wstart, wend, SUM(price) AS total, COUNT(*) AS cnt "
    "FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime), "
    "dur => INTERVAL '10' MINUTES) t GROUP BY item, wend";

constexpr const char* kStateless =
    "SELECT bidtime, price, item FROM Bid WHERE price > 20";

constexpr const char* kWindowedMaxByWend =
    "SELECT wstart, wend, MAX(price) AS maxPrice "
    "FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime), "
    "dur => INTERVAL '10' MINUTES) t GROUP BY wend";

Schema BidSchema() {
  return Schema({{"bidtime", DataType::kTimestamp, true},
                 {"price", DataType::kBigint},
                 {"item", DataType::kVarchar}});
}

/// Deterministic pseudo-random feed: many distinct items, out-of-order event
/// times, interleaved watermarks, and occasional retractions of earlier
/// rows.
std::vector<FeedEvent> MakeBidFeed(int n) {
  std::vector<FeedEvent> events;
  events.reserve(static_cast<size_t>(n) + static_cast<size_t>(n) / 40 + 1);
  uint64_t state = 42;
  auto next = [&state] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  };
  std::vector<Row> inserted;
  for (int i = 0; i < n; ++i) {
    const Timestamp ptime = T(9, 0) + Interval::Seconds(i);
    const uint64_t r = next();
    FeedEvent event;
    event.source = "Bid";
    event.ptime = ptime;
    if (i % 97 == 13 && !inserted.empty()) {
      // Retract a previously inserted row (each at most once).
      const size_t pick = next() % inserted.size();
      event.kind = FeedEvent::Kind::kDelete;
      event.row = inserted[pick];
      inserted[pick] = inserted.back();
      inserted.pop_back();
    } else {
      event.kind = FeedEvent::Kind::kInsert;
      const Timestamp bidtime =
          T(9, 0) + Interval::Seconds(i) - Interval::Seconds(r % 120);
      event.row = {Value::Time(bidtime),
                   Value::Int64(static_cast<int64_t>(r % 100)),
                   Value::String("item" + std::to_string(r % 13))};
      inserted.push_back(event.row);
    }
    events.push_back(std::move(event));
    if (i % 40 == 39) {
      FeedEvent mark;
      mark.kind = FeedEvent::Kind::kWatermark;
      mark.source = "Bid";
      mark.ptime = ptime;
      mark.watermark = ptime - Interval::Minutes(3);
      events.push_back(std::move(mark));
    }
  }
  return events;
}

/// A static table the Bid stream joins against (item -> category).
Schema ItemSchema() {
  return Schema({{"item", DataType::kVarchar}, {"category", DataType::kBigint}});
}

std::vector<Row> ItemRows() {
  std::vector<Row> rows;
  for (int i = 0; i < 13; i += 2) {
    rows.push_back({Value::String("item" + std::to_string(i)),
                    Value::Int64(i % 3)});
  }
  return rows;
}

void RegisterSources(Engine* engine) {
  EXPECT_TRUE(engine->RegisterStream("Bid", BidSchema()).ok());
  EXPECT_TRUE(engine->RegisterTable("Item", ItemSchema(), ItemRows()).ok());
}

/// How the query under test meets the feed.
enum class Input {
  kLive,  ///< Execute, then Feed: the live path.
  kLate,  ///< Feed, then Execute: replay of the retained history.
  /// Feed with another query running, so the history is compacted (its seqs
  /// get gaps), then Execute.
  kLateAfterCompaction,
  /// Feed, Checkpoint, Restore into a fresh engine (the history comes back
  /// with synthetic seqs), then Execute.
  kLateAfterRestore,
};

std::string InputName(Input input) {
  switch (input) {
    case Input::kLive:
      return "live";
    case Input::kLate:
      return "late";
    case Input::kLateAfterCompaction:
      return "late-after-compaction";
    case Input::kLateAfterRestore:
      return "late-after-restore";
  }
  return "?";
}

/// Compacts the history when running: stateless, and it sees every Bid
/// watermark, so the compaction floor is the feed's last watermark.
constexpr const char* kCompactor = "SELECT item FROM Bid WHERE price < 0";

struct RunResult {
  int shard_count = 0;
  size_t state_bytes = 0;
  size_t history_size = 0;
  /// The compaction floor (the compactor's watermark); kLateAfterCompaction.
  Timestamp floor;
  std::vector<Row> stream;
  std::vector<Row> snapshot;
};

/// Runs `sql` at the given shard count over `feed`, meeting it as `input`
/// says.
RunResult RunBidScenario(const std::string& sql, int shards,
                         const std::vector<FeedEvent>& feed, Input input) {
  RunResult result;
  auto engine = std::make_unique<Engine>();
  RegisterSources(engine.get());
  ExecutionOptions options;
  options.shards = shards;
  ContinuousQuery* query = nullptr;
  auto run = [&] {
    auto q = engine->Execute(sql, options);
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    query = *q;
  };
  ContinuousQuery* compactor = nullptr;
  if (input == Input::kLive) run();
  if (input == Input::kLateAfterCompaction) {
    auto q = engine->Execute(kCompactor);
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    if (q.ok()) compactor = *q;
  }
  EXPECT_TRUE(engine->Feed(feed).ok());
  if (compactor != nullptr) result.floor = compactor->watermark();
  if (input == Input::kLateAfterRestore) {
    const std::string dir = state::NewTempDir("parallel_restore");
    EXPECT_TRUE(engine->Checkpoint(dir).ok());
    engine = std::make_unique<Engine>();
    EXPECT_TRUE(engine->Restore(dir).ok());
  }
  if (input != Input::kLive) run();
  if (query == nullptr) return result;
  result.shard_count = query->dataflow().shard_count();
  result.state_bytes = query->StateBytes();
  result.history_size = engine->history_size();
  result.stream = query->StreamRows();
  auto snapshot = query->CurrentSnapshot();
  EXPECT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  if (snapshot.ok()) result.snapshot = *snapshot;
  return result;
}

/// The events history compaction keeps at `floor` (Engine::CompactHistory's
/// rule): elements after the floor in processing time, watermarks past the
/// floor, and the last watermark at or below it per source — minus the
/// retractions after the floor whose inserts were dropped below it.
std::vector<FeedEvent> RetainedAfterCompaction(
    const std::vector<FeedEvent>& feed, Timestamp floor) {
  std::map<std::string, size_t> last_dominated;
  for (size_t i = 0; i < feed.size(); ++i) {
    if (feed[i].kind == FeedEvent::Kind::kWatermark &&
        feed[i].watermark <= floor) {
      last_dominated[ToLower(feed[i].source)] = i;
    }
  }
  std::map<std::string, int> dropped;  // source + row -> unmatched inserts
  std::vector<FeedEvent> kept;
  for (size_t i = 0; i < feed.size(); ++i) {
    const FeedEvent& event = feed[i];
    if (event.kind == FeedEvent::Kind::kWatermark) {
      auto it = last_dominated.find(ToLower(event.source));
      if (event.watermark > floor ||
          (it != last_dominated.end() && it->second == i)) {
        kept.push_back(event);
      }
      continue;
    }
    int& unmatched = dropped[ToLower(event.source) + RowToString(event.row)];
    const bool retraction = event.kind == FeedEvent::Kind::kDelete;
    if (event.ptime <= floor) {
      unmatched += retraction ? (unmatched > 0 ? -1 : 0) : 1;
    } else if (retraction && unmatched > 0) {
      --unmatched;
    } else {
      kept.push_back(event);
    }
  }
  return kept;
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

void ExpectDeterministicAcrossShardCounts(const std::string& sql,
                                          const std::vector<FeedEvent>& feed) {
  const RunResult baseline = RunBidScenario(sql, /*shards=*/1, feed,
                                           Input::kLive);
  EXPECT_EQ(baseline.shard_count, 1);
  for (int shards : {2, 8}) {
    for (Input input : {Input::kLive, Input::kLate}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) + " " +
                   InputName(input));
      const RunResult run = RunBidScenario(sql, shards, feed, input);
      EXPECT_EQ(run.shard_count, 1);
      EXPECT_EQ(run.state_bytes, baseline.state_bytes)
          << "StateBytes() must not depend on the shard setting";
      ExpectSameRows(run.stream, baseline.stream, "stream rendering");
      ExpectSameRows(run.snapshot, baseline.snapshot, "snapshot");
    }
  }
}

TEST(ParallelRuntimeTest, KeyedAggregationIsDeterministicAcrossShardCounts) {
  ExpectDeterministicAcrossShardCounts(kKeyedAgg, MakeBidFeed(600));
}

TEST(ParallelRuntimeTest, KeyedAggregationAfterWatermarkIsDeterministic) {
  ExpectDeterministicAcrossShardCounts(
      std::string(kKeyedAgg) + " EMIT STREAM AFTER WATERMARK",
      MakeBidFeed(600));
}

TEST(ParallelRuntimeTest, KeyedAggregationAfterDelayIsDeterministic) {
  ExpectDeterministicAcrossShardCounts(
      std::string(kKeyedAgg) + " EMIT STREAM AFTER DELAY INTERVAL '5' SECONDS",
      MakeBidFeed(600));
}

TEST(ParallelRuntimeTest, StatelessPipelineIsDeterministicAcrossShardCounts) {
  ExpectDeterministicAcrossShardCounts(kStateless, MakeBidFeed(400));
}

TEST(ParallelRuntimeTest, NonPartitionableShapesFallBackToSequential) {
  // GROUP BY wend only: a plan the N-chain runtime could not key-partition
  // runs on one chain, like every plan.
  const RunResult run = RunBidScenario(kWindowedMaxByWend, /*shards=*/8,
                                       MakeBidFeed(200), Input::kLive);
  EXPECT_EQ(run.shard_count, 1);
}

TEST(ParallelRuntimeTest, SelfJoinFallsBackToSequential) {
  // The paper's Q7 feeds Bid to both join sides under different keys; it
  // runs on one chain, like every plan.
  const std::string q7 =
      "SELECT MaxBid.wstart, MaxBid.wend, Bid.bidtime, Bid.price, Bid.item "
      "FROM Bid, "
      "  (SELECT MAX(TumbleBid.price) maxPrice, TumbleBid.wstart wstart, "
      "          TumbleBid.wend wend "
      "   FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime), "
      "        dur => INTERVAL '10' MINUTE) TumbleBid "
      "   GROUP BY TumbleBid.wend) MaxBid "
      "WHERE Bid.price = MaxBid.maxPrice AND "
      "      Bid.bidtime >= MaxBid.wend - INTERVAL '10' MINUTE AND "
      "      Bid.bidtime < MaxBid.wend";
  const RunResult run = RunBidScenario(q7, /*shards=*/4, MakeBidFeed(150),
                                       Input::kLive);
  EXPECT_EQ(run.shard_count, 1);
}

TEST(ParallelRuntimeTest, LateExecuteAfterRestoreMatchesLiveRun) {
  // After Restore the history carries synthetic seqs 0..H-1; a query
  // executed then must replay it into exactly the live run's output.
  const std::vector<FeedEvent> feed = MakeBidFeed(600);
  for (const char* sql : {kKeyedAgg, kStateless}) {
    const RunResult live = RunBidScenario(sql, /*shards=*/1, feed,
                                          Input::kLive);
    for (int shards : {1, 2}) {
      SCOPED_TRACE(std::string(sql) + " shards=" + std::to_string(shards));
      const RunResult run =
          RunBidScenario(sql, shards, feed, Input::kLateAfterRestore);
      EXPECT_EQ(run.shard_count, 1);
      EXPECT_EQ(run.history_size, feed.size());
      EXPECT_EQ(run.state_bytes, live.state_bytes);
      ExpectSameRows(run.stream, live.stream, "stream rendering");
      ExpectSameRows(run.snapshot, live.snapshot, "snapshot");
    }
  }
}

TEST(ParallelRuntimeTest, LateExecuteAfterCompactionMatchesLiveRunOfRetained) {
  // Compaction drops events below the running queries' watermark floor but
  // keeps the survivors' original seqs, so the history has gaps. A query
  // executed afterwards must produce exactly what a live run over the
  // retained events produces.
  const std::vector<FeedEvent> feed = MakeBidFeed(4200);
  for (const char* sql : {kKeyedAgg, kStateless}) {
    RunResult reference;
    for (int shards : {1, 2}) {
      SCOPED_TRACE(std::string(sql) + " shards=" + std::to_string(shards));
      const RunResult run =
          RunBidScenario(sql, shards, feed, Input::kLateAfterCompaction);
      ASSERT_LT(run.history_size, feed.size()) << "no compaction happened";
      EXPECT_EQ(run.shard_count, 1);
      if (shards == 1) {
        const std::vector<FeedEvent> retained =
            RetainedAfterCompaction(feed, run.floor);
        ASSERT_EQ(retained.size(), run.history_size);
        reference = RunBidScenario(sql, 1, retained, Input::kLive);
      }
      EXPECT_EQ(run.state_bytes, reference.state_bytes);
      ExpectSameRows(run.stream, reference.stream, "stream rendering");
      ExpectSameRows(run.snapshot, reference.snapshot, "snapshot");
    }
  }
}

TEST(ParallelRuntimeTest, StaticTableJoinMatchesLiveRun) {
  // A stream joined with a static table: the table's rows and its +inf
  // watermark are pushed before the history, at any shard count and however
  // the query meets the feed.
  const std::string sql =
      "SELECT Bid.bidtime, Bid.price, Item.category "
      "FROM Bid, Item WHERE Bid.item = Item.item";
  const std::vector<FeedEvent> feed = MakeBidFeed(400);
  const RunResult live = RunBidScenario(sql, /*shards=*/1, feed, Input::kLive);
  ASSERT_FALSE(live.stream.empty());
  for (int shards : {1, 2}) {
    for (Input input :
         {Input::kLive, Input::kLate, Input::kLateAfterRestore}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) + " " +
                   InputName(input));
      const RunResult run = RunBidScenario(sql, shards, feed, input);
      EXPECT_EQ(run.shard_count, 1);
      EXPECT_EQ(run.state_bytes, live.state_bytes);
      ExpectSameRows(run.stream, live.stream, "stream rendering");
      ExpectSameRows(run.snapshot, live.snapshot, "snapshot");
    }
  }
}

TEST(ParallelRuntimeTest, TwoSourceEquiJoinIsDeterministicAcrossShardCounts) {
  const std::string sql =
      "SELECT Bid.bidtime, Bid.item, Bid.price, Ask.price "
      "FROM Bid, Ask WHERE Bid.item = Ask.item";
  std::vector<FeedEvent> feed;
  uint64_t state = 7;
  auto next = [&state] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  };
  for (int i = 0; i < 300; ++i) {
    const Timestamp ptime = T(9, 0) + Interval::Seconds(i);
    const uint64_t r = next();
    FeedEvent event;
    event.kind = FeedEvent::Kind::kInsert;
    event.source = (i % 2 == 0) ? "Bid" : "Ask";
    event.ptime = ptime;
    event.row = {Value::Time(ptime),
                 Value::Int64(static_cast<int64_t>(r % 50)),
                 Value::String("item" + std::to_string(r % 9))};
    feed.push_back(std::move(event));
    if (i % 30 == 29) {
      for (const char* source : {"Bid", "Ask"}) {
        FeedEvent mark;
        mark.kind = FeedEvent::Kind::kWatermark;
        mark.source = source;
        mark.ptime = ptime;
        mark.watermark = ptime - Interval::Minutes(2);
        feed.push_back(std::move(mark));
      }
    }
  }

  RunResult baseline;
  for (int shards : {1, 2, 8}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    Engine engine;
    ASSERT_TRUE(engine.RegisterStream("Bid", BidSchema()).ok());
    ASSERT_TRUE(engine.RegisterStream("Ask", BidSchema()).ok());
    ExecutionOptions options;
    options.shards = shards;
    auto q = engine.Execute(sql, options);
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    ASSERT_TRUE(engine.Feed(feed).ok());
    EXPECT_EQ((*q)->dataflow().shard_count(), 1);
    auto snapshot = (*q)->CurrentSnapshot();
    ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
    if (shards == 1) {
      baseline.stream = (*q)->StreamRows();
      baseline.snapshot = *snapshot;
    } else {
      ExpectSameRows((*q)->StreamRows(), baseline.stream, "stream rendering");
      ExpectSameRows(*snapshot, baseline.snapshot, "snapshot");
    }
  }
}

TEST(ParallelRuntimeTest, SingleEventPushesMatchBatchedFeed) {
  // The per-event Insert/AdvanceWatermark path and the batched Feed path
  // must produce the same output.
  const std::vector<FeedEvent> feed = MakeBidFeed(300);
  ExecutionOptions options;
  options.shards = 4;  // no effect

  Engine batched;
  ASSERT_TRUE(batched.RegisterStream("Bid", BidSchema()).ok());
  auto qb = batched.Execute(kKeyedAgg, options);
  ASSERT_TRUE(qb.ok()) << qb.status().ToString();
  ASSERT_TRUE(batched.Feed(feed).ok());

  Engine single;
  ASSERT_TRUE(single.RegisterStream("Bid", BidSchema()).ok());
  auto qs = single.Execute(kKeyedAgg, options);
  ASSERT_TRUE(qs.ok()) << qs.status().ToString();
  for (const FeedEvent& event : feed) {
    switch (event.kind) {
      case FeedEvent::Kind::kInsert:
        ASSERT_TRUE(single.Insert(event.source, event.ptime, event.row).ok());
        break;
      case FeedEvent::Kind::kDelete:
        ASSERT_TRUE(single.Delete(event.source, event.ptime, event.row).ok());
        break;
      case FeedEvent::Kind::kWatermark:
        ASSERT_TRUE(
            single.AdvanceWatermark(event.source, event.ptime, event.watermark)
                .ok());
        break;
    }
  }

  ExpectSameRows((*qb)->StreamRows(), (*qs)->StreamRows(),
                 "stream rendering");
  auto sb = (*qb)->CurrentSnapshot();
  auto ss = (*qs)->CurrentSnapshot();
  ASSERT_TRUE(sb.ok());
  ASSERT_TRUE(ss.ok());
  ExpectSameRows(*sb, *ss, "snapshot");
}

}  // namespace
}  // namespace onesql
