// Every query runs on one chain. These tests run each scenario once live
// and once replayed into a query executed late (over plain, compacted,
// restored and cold-started histories, and with a static table), and
// compare bit-for-bit — identical stream rendering (StreamRows, including
// undo/ptime/ver metadata) and identical snapshots — and check that every
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
  /// Feed with another query running, so the history is compacted (events
  /// below the floor go), then Execute.
  kLateAfterCompaction,
  /// Feed, Checkpoint, Restore into a fresh engine (the history comes back
  /// re-chunked from its serialized events), then Execute.
  kLateAfterRestore,
  /// Durable Feed, then the cold-start route Restore names for an older
  /// checkpoint: a fresh engine registers the stream and the table with its
  /// rows, Restores from the feed log alone, then Executes. The log is whole
  /// there because nothing of this build's version has checkpointed it; a
  /// checkpoint of this build deletes the segments it covers.
  kLateAfterColdStart,
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
    case Input::kLateAfterColdStart:
      return "late-after-cold-start";
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

/// Runs `sql` over `feed`, meeting it as `input` says.
RunResult RunBidScenario(const std::string& sql,
                         const std::vector<FeedEvent>& feed, Input input) {
  RunResult result;
  auto engine = std::make_unique<Engine>();
  RegisterSources(engine.get());
  ContinuousQuery* query = nullptr;
  auto run = [&] {
    auto q = engine->Execute(sql);
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
  const bool cold_start = input == Input::kLateAfterColdStart;
  std::string dir;
  if (input == Input::kLateAfterRestore || cold_start) {
    dir = state::NewTempDir("parallel_restore");
  }
  if (cold_start) {
    EXPECT_TRUE(engine->EnableDurability(dir).ok());
  }
  EXPECT_TRUE(engine->Feed(feed).ok());
  if (compactor != nullptr) result.floor = compactor->watermark();
  if (!dir.empty()) {
    if (!cold_start) {
      EXPECT_TRUE(engine->Checkpoint(dir).ok());
    }
    engine = std::make_unique<Engine>();
    if (cold_start) RegisterSources(engine.get());
    const Status restored = engine->Restore(dir);
    EXPECT_TRUE(restored.ok()) << restored.ToString();
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

/// A late run of `sql` (executed after the feed) must render exactly what
/// the live run does.
void ExpectDeterministic(const std::string& sql,
                         const std::vector<FeedEvent>& feed) {
  const RunResult live = RunBidScenario(sql, feed, Input::kLive);
  const RunResult late = RunBidScenario(sql, feed, Input::kLate);
  EXPECT_EQ(live.shard_count, 1);
  EXPECT_EQ(late.shard_count, 1);
  EXPECT_EQ(late.state_bytes, live.state_bytes);
  ExpectSameRows(late.stream, live.stream, "stream rendering");
  ExpectSameRows(late.snapshot, live.snapshot, "snapshot");
}

TEST(ParallelRuntimeTest, KeyedAggregationIsDeterministic) {
  ExpectDeterministic(kKeyedAgg, MakeBidFeed(600));
}

TEST(ParallelRuntimeTest, KeyedAggregationAfterWatermarkIsDeterministic) {
  ExpectDeterministic(std::string(kKeyedAgg) + " EMIT STREAM AFTER WATERMARK",
                      MakeBidFeed(600));
}

TEST(ParallelRuntimeTest, KeyedAggregationAfterDelayIsDeterministic) {
  ExpectDeterministic(
      std::string(kKeyedAgg) + " EMIT STREAM AFTER DELAY INTERVAL '5' SECONDS",
      MakeBidFeed(600));
}

TEST(ParallelRuntimeTest, StatelessPipelineIsDeterministic) {
  ExpectDeterministic(kStateless, MakeBidFeed(400));
}

TEST(ParallelRuntimeTest, NonPartitionableShapesFallBackToSequential) {
  // GROUP BY wend only: a plan the N-chain runtime could not key-partition
  // runs on one chain, like every plan.
  ExpectDeterministic(kWindowedMaxByWend, MakeBidFeed(200));
}

TEST(ParallelRuntimeTest, SelfJoinFallsBackToSequential) {
  // The paper's Q7 feeds Bid to both join sides under different keys, so
  // Bid has two steps. Fed in one call, each Bid event must still pass both
  // steps before the next one enters: the output is byte-identical to
  // feeding the events one call each, where every run holds one event.
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
  const std::vector<FeedEvent> feed = MakeBidFeed(400);
  auto render = [&](bool one_call) {
    RunResult result;
    Engine engine;
    RegisterSources(&engine);
    auto q = engine.Execute(q7);
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    if (!q.ok()) return result;
    if (one_call) {
      EXPECT_TRUE(engine.Feed(feed).ok());
    } else {
      for (const FeedEvent& event : feed) {
        EXPECT_TRUE(engine.Feed({event}).ok());
      }
    }
    result.stream = (*q)->StreamRows();
    auto snapshot = (*q)->CurrentSnapshot();
    EXPECT_TRUE(snapshot.ok()) << snapshot.status().ToString();
    if (snapshot.ok()) result.snapshot = *snapshot;
    return result;
  };
  const RunResult whole = render(true);
  const RunResult single = render(false);
  EXPECT_GT(whole.stream.size(), 20u);
  ExpectSameRows(whole.stream, single.stream, "stream rendering");
  ExpectSameRows(whole.snapshot, single.snapshot, "snapshot");
}

TEST(ParallelRuntimeTest, LateExecuteAfterRestoreMatchesLiveRun) {
  // After Restore the history is re-chunked from its serialized events; a
  // query executed then must replay it into exactly the live run's output.
  const std::vector<FeedEvent> feed = MakeBidFeed(600);
  for (const char* sql : {kKeyedAgg, kStateless}) {
    SCOPED_TRACE(sql);
    const RunResult live = RunBidScenario(sql, feed, Input::kLive);
    const RunResult run = RunBidScenario(sql, feed, Input::kLateAfterRestore);
    EXPECT_EQ(run.shard_count, 1);
    EXPECT_EQ(run.history_size, feed.size());
    EXPECT_EQ(run.state_bytes, live.state_bytes);
    ExpectSameRows(run.stream, live.stream, "stream rendering");
    ExpectSameRows(run.snapshot, live.snapshot, "snapshot");
  }
}

TEST(ParallelRuntimeTest, LateExecuteAfterCompactionMatchesLiveRunOfRetained) {
  // Compaction drops events below the running queries' watermark floor and
  // re-chunks the survivors in feed order. A query executed afterwards must
  // produce exactly what a live run over the retained events produces.
  const std::vector<FeedEvent> feed = MakeBidFeed(4200);
  for (const char* sql : {kKeyedAgg, kStateless}) {
    SCOPED_TRACE(sql);
    const RunResult run =
        RunBidScenario(sql, feed, Input::kLateAfterCompaction);
    ASSERT_LT(run.history_size, feed.size()) << "no compaction happened";
    EXPECT_EQ(run.shard_count, 1);
    const std::vector<FeedEvent> retained =
        RetainedAfterCompaction(feed, run.floor);
    ASSERT_EQ(retained.size(), run.history_size);
    const RunResult reference = RunBidScenario(sql, retained, Input::kLive);
    EXPECT_EQ(run.state_bytes, reference.state_bytes);
    ExpectSameRows(run.stream, reference.stream, "stream rendering");
    ExpectSameRows(run.snapshot, reference.snapshot, "snapshot");
  }
}

TEST(ParallelRuntimeTest, StaticTableJoinMatchesLiveRun) {
  // A stream joined with a static table: the table's rows and its +inf
  // watermark are pushed before the history, however the query meets the
  // feed. The rows are persisted in the checkpoint alone, never in the feed
  // log, so the cold start brings the join back only because the table is
  // registered again with its rows.
  const std::string sql =
      "SELECT Bid.bidtime, Bid.price, Item.category "
      "FROM Bid, Item WHERE Bid.item = Item.item";
  const std::vector<FeedEvent> feed = MakeBidFeed(400);
  const RunResult live = RunBidScenario(sql, feed, Input::kLive);
  ASSERT_FALSE(live.stream.empty());
  for (Input input :
       {Input::kLate, Input::kLateAfterRestore, Input::kLateAfterColdStart}) {
    SCOPED_TRACE(InputName(input));
    const RunResult run = RunBidScenario(sql, feed, input);
    EXPECT_EQ(run.shard_count, 1);
    EXPECT_EQ(run.state_bytes, live.state_bytes);
    ExpectSameRows(run.stream, live.stream, "stream rendering");
    ExpectSameRows(run.snapshot, live.snapshot, "snapshot");
  }
}

TEST(ParallelRuntimeTest, TwoSourceEquiJoinIsDeterministic) {
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

  // Executed before the feed (live) and after it (a replay of the history).
  Engine engine;
  ASSERT_TRUE(engine.RegisterStream("Bid", BidSchema()).ok());
  ASSERT_TRUE(engine.RegisterStream("Ask", BidSchema()).ok());
  auto live = engine.Execute(sql);
  ASSERT_TRUE(live.ok()) << live.status().ToString();
  ASSERT_TRUE(engine.Feed(feed).ok());
  auto late = engine.Execute(sql);
  ASSERT_TRUE(late.ok()) << late.status().ToString();
  EXPECT_EQ((*live)->dataflow().shard_count(), 1);
  ASSERT_FALSE((*live)->StreamRows().empty());
  ExpectSameRows((*late)->StreamRows(), (*live)->StreamRows(),
                 "stream rendering");
  auto want = (*live)->CurrentSnapshot();
  auto got = (*late)->CurrentSnapshot();
  ASSERT_TRUE(want.ok() && got.ok());
  ExpectSameRows(*got, *want, "snapshot");
}

TEST(ParallelRuntimeTest, SingleEventPushesMatchBatchedFeed) {
  // The per-event Insert/AdvanceWatermark path and the batched Feed path
  // must produce the same output.
  const std::vector<FeedEvent> feed = MakeBidFeed(300);

  Engine batched;
  ASSERT_TRUE(batched.RegisterStream("Bid", BidSchema()).ok());
  auto qb = batched.Execute(kKeyedAgg);
  ASSERT_TRUE(qb.ok()) << qb.status().ToString();
  ASSERT_TRUE(batched.Feed(feed).ok());

  Engine single;
  ASSERT_TRUE(single.RegisterStream("Bid", BidSchema()).ok());
  auto qs = single.Execute(kKeyedAgg);
  ASSERT_TRUE(qs.ok()) << qs.status().ToString();
  for (const FeedEvent& event : feed) {
    ASSERT_TRUE(single.Feed({event}).ok());
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
