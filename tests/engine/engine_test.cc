#include "engine/engine.h"

#include <gtest/gtest.h>

namespace onesql {
namespace {

Timestamp T(int h, int m) { return Timestamp::FromHMS(h, m); }

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(engine_
                    .RegisterStream(
                        "Bid", Schema({{"bidtime", DataType::kTimestamp, true},
                                       {"price", DataType::kBigint},
                                       {"item", DataType::kVarchar}}))
                    .ok());
    ASSERT_TRUE(engine_
                    .RegisterTable(
                        "Category",
                        Schema({{"item", DataType::kVarchar},
                                {"name", DataType::kVarchar}}),
                        {{Value::String("A"), Value::String("art")},
                         {Value::String("B"), Value::String("books")}})
                    .ok());
  }

  Status InsertBid(int ph, int pm, int eh, int em, int64_t price,
                   const std::string& item) {
    return engine_.Insert("Bid", T(ph, pm),
                          {Value::Time(T(eh, em)), Value::Int64(price),
                           Value::String(item)});
  }

  Engine engine_;
};

TEST_F(EngineTest, DuplicateRegistrationFails) {
  EXPECT_EQ(engine_.RegisterStream("Bid", Schema()).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(engine_.RegisterTable("bid", Schema(), {}).code(),
            StatusCode::kAlreadyExists);
}

TEST_F(EngineTest, InsertValidatesShape) {
  // Wrong arity.
  EXPECT_EQ(engine_.Insert("Bid", T(8, 0), {Value::Int64(1)}).code(),
            StatusCode::kInvalidArgument);
  // Wrong type.
  EXPECT_EQ(engine_
                .Insert("Bid", T(8, 0),
                        {Value::Int64(1), Value::Int64(2), Value::String("x")})
                .code(),
            StatusCode::kInvalidArgument);
  // Unknown stream.
  EXPECT_EQ(engine_.Insert("NoSuch", T(8, 0), {}).code(),
            StatusCode::kNotFound);
  // Static table refuses feeds.
  EXPECT_EQ(engine_
                .Insert("Category", T(8, 0),
                        {Value::String("C"), Value::String("cars")})
                .code(),
            StatusCode::kInvalidArgument);
}

TEST_F(EngineTest, ProcessingTimeMustBeMonotonic) {
  ASSERT_TRUE(InsertBid(8, 10, 8, 0, 1, "A").ok());
  EXPECT_EQ(InsertBid(8, 9, 8, 1, 1, "B").code(),
            StatusCode::kInvalidArgument);
  // Equal ptime is fine.
  EXPECT_TRUE(InsertBid(8, 10, 8, 1, 1, "B").ok());
}

TEST_F(EngineTest, WatermarkMustBeMonotonic) {
  ASSERT_TRUE(engine_.AdvanceWatermark("Bid", T(8, 0), T(7, 50)).ok());
  EXPECT_EQ(engine_.AdvanceWatermark("Bid", T(8, 1), T(7, 40)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine_.AdvanceWatermark("Category", T(8, 2), T(8, 0)).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(EngineTest, SimpleFilterQuery) {
  auto q = engine_.Execute(
      "SELECT bidtime, item FROM Bid WHERE price >= 3");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_TRUE(InsertBid(8, 1, 8, 0, 2, "A").ok());
  ASSERT_TRUE(InsertBid(8, 2, 8, 1, 5, "B").ok());
  auto rows = (*q)->CurrentSnapshot();
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0][1], Value::String("B"));
}

TEST_F(EngineTest, JoinStreamWithStaticTable) {
  auto q = engine_.Execute(
      "SELECT b.bidtime, c.name FROM Bid b JOIN Category c "
      "ON b.item = c.item");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_TRUE(InsertBid(8, 1, 8, 0, 2, "A").ok());
  ASSERT_TRUE(InsertBid(8, 2, 8, 1, 5, "Z").ok());  // no category
  auto rows = (*q)->CurrentSnapshot();
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0][1], Value::String("art"));
}

TEST_F(EngineTest, MultipleQueriesShareTheFeed) {
  auto q1 = engine_.Execute("SELECT bidtime, price FROM Bid");
  auto q2 = engine_.Execute("SELECT bidtime, item FROM Bid EMIT STREAM");
  ASSERT_TRUE(q1.ok() && q2.ok());
  ASSERT_TRUE(InsertBid(8, 1, 8, 0, 2, "A").ok());
  EXPECT_EQ((*q1)->CurrentSnapshot()->size(), 1u);
  EXPECT_EQ((*q2)->Emissions().size(), 1u);
}

TEST_F(EngineTest, RetractionsFlowThrough) {
  auto q = engine_.Execute("SELECT bidtime, price, item FROM Bid");
  ASSERT_TRUE(q.ok());
  ASSERT_TRUE(InsertBid(8, 1, 8, 0, 2, "A").ok());
  ASSERT_TRUE(engine_
                  .Delete("Bid", T(8, 2),
                          {Value::Time(T(8, 0)), Value::Int64(2),
                           Value::String("A")})
                  .ok());
  auto rows = (*q)->CurrentSnapshot();
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(rows->empty());
  // But the 8:01 snapshot still shows the row.
  auto earlier = (*q)->SnapshotAt(T(8, 1));
  ASSERT_TRUE(earlier.ok());
  EXPECT_EQ(earlier->size(), 1u);
}

TEST_F(EngineTest, OrderByAndLimitApplyToSnapshots) {
  auto q = engine_.Execute(
      "SELECT bidtime, price, item FROM Bid ORDER BY price DESC LIMIT 2");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_TRUE(InsertBid(8, 1, 8, 0, 2, "A").ok());
  ASSERT_TRUE(InsertBid(8, 2, 8, 1, 9, "B").ok());
  ASSERT_TRUE(InsertBid(8, 3, 8, 2, 5, "C").ok());
  auto rows = (*q)->CurrentSnapshot();
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ((*rows)[0][2], Value::String("B"));
  EXPECT_EQ((*rows)[1][2], Value::String("C"));
}

TEST_F(EngineTest, StreamSchemaAddsMetadataColumns) {
  auto q = engine_.Execute("SELECT bidtime, price FROM Bid EMIT STREAM");
  ASSERT_TRUE(q.ok());
  const Schema schema = (*q)->StreamSchema();
  ASSERT_EQ(schema.num_fields(), 5u);
  EXPECT_EQ(schema.field(2).name, "undo");
  EXPECT_EQ(schema.field(3).name, "ptime");
  EXPECT_EQ(schema.field(4).name, "ver");
  ASSERT_TRUE(InsertBid(8, 1, 8, 0, 2, "A").ok());
  auto rows = (*q)->StreamRows();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].size(), 5u);
  EXPECT_EQ(rows[0][3], Value::Time(T(8, 1)));
}

TEST_F(EngineTest, PlanExposesExplainableTree) {
  auto plan = engine_.Plan("SELECT bidtime, price FROM Bid WHERE price > 1");
  ASSERT_TRUE(plan.ok());
  const std::string text = plan->ToString();
  EXPECT_NE(text.find("Project"), std::string::npos);
  EXPECT_NE(text.find("Filter"), std::string::npos);
  EXPECT_NE(text.find("Scan(Bid, stream)"), std::string::npos);
}

TEST_F(EngineTest, ParseAndBindErrorsSurface) {
  EXPECT_EQ(engine_.Execute("SELECT FROM WHERE").status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(engine_.Execute("SELECT nosuch FROM Bid").status().code(),
            StatusCode::kBindError);
}

TEST_F(EngineTest, FeedBatchApi) {
  std::vector<FeedEvent> events;
  FeedEvent insert;
  insert.kind = FeedEvent::Kind::kInsert;
  insert.source = "Bid";
  insert.ptime = T(8, 1);
  insert.row = {Value::Time(T(8, 0)), Value::Int64(2), Value::String("A")};
  events.push_back(insert);
  FeedEvent wm;
  wm.kind = FeedEvent::Kind::kWatermark;
  wm.source = "Bid";
  wm.ptime = T(8, 2);
  wm.watermark = T(8, 1);
  events.push_back(wm);

  auto q = engine_.Execute("SELECT bidtime, price FROM Bid");
  ASSERT_TRUE(q.ok());
  ASSERT_TRUE(engine_.Feed(events).ok());
  EXPECT_EQ((*q)->CurrentSnapshot()->size(), 1u);
  EXPECT_EQ((*q)->watermark(), T(8, 1));
}

TEST_F(EngineTest, FeedDispatchesValidPrefixOnError) {
  // Engine::Feed's contract: the batch is validated event by event, and on
  // the first invalid event the valid prefix has already been recorded and
  // dispatched — exactly matching the event-by-event path — with the error
  // returned afterwards.
  auto q = engine_.Execute("SELECT bidtime, price FROM Bid");
  ASSERT_TRUE(q.ok()) << q.status().ToString();

  auto insert = [](int pm, int64_t price) {
    FeedEvent e;
    e.kind = FeedEvent::Kind::kInsert;
    e.source = "Bid";
    e.ptime = T(8, pm);
    e.row = {Value::Time(T(8, pm - 1)), Value::Int64(price),
             Value::String("A")};
    return e;
  };
  std::vector<FeedEvent> events = {insert(1, 10), insert(2, 20)};
  FeedEvent bad = insert(3, 30);
  bad.row.pop_back();  // arity mismatch
  events.push_back(bad);
  events.push_back(insert(4, 40));  // never reached

  const Status s = engine_.Feed(events);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);

  // Exactly the two valid leading events were recorded and dispatched.
  EXPECT_EQ(engine_.history_size(), 2u);
  EXPECT_EQ(engine_.feed_seq(), 2u);
  auto rows = (*q)->CurrentSnapshot();
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 2u);

  // The engine is not poisoned: the tail (sans the bad event) still feeds.
  EXPECT_TRUE(engine_.Feed({insert(4, 40)}).ok());
  EXPECT_EQ(engine_.history_size(), 3u);

  // A mid-batch ordering violation behaves the same: prefix dispatched,
  // error deferred.
  std::vector<FeedEvent> regress = {insert(5, 50), insert(2, 60)};
  const Status s2 = engine_.Feed(regress);
  EXPECT_EQ(s2.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(engine_.history_size(), 4u);
  EXPECT_EQ((*q)->CurrentSnapshot()->size(), 4u);
}

TEST_F(EngineTest, CompactionRetainsWatermarkPositionPerSource) {
  // The CompactHistory invariant: after compaction, a query executed later
  // re-establishes each source's watermark position from the retained
  // last-dominated watermark event — even for a source whose watermark
  // stopped advancing long before the compaction floor.
  ASSERT_TRUE(engine_
                  .RegisterStream(
                      "Ask", Schema({{"asktime", DataType::kTimestamp, true},
                                     {"price", DataType::kBigint}}))
                  .ok());
  auto q = engine_.Execute(
      "SELECT wstart, wend, MAX(price) AS maxPrice "
      "FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime), "
      "dur => INTERVAL '10' MINUTES) t GROUP BY wend");
  ASSERT_TRUE(q.ok()) << q.status().ToString();

  // Ask's watermark advances once, early, then never again.
  const Timestamp ask_mark = Timestamp(30 * 1000);
  ASSERT_TRUE(
      engine_.AdvanceWatermark("Ask", Timestamp(31 * 1000), ask_mark).ok());

  // Phase 1: Bid watermarks rise with the feed. Phase 2: Bid's watermark
  // freezes while events keep arriving, pushing the history over the
  // compaction threshold with every watermark event dominated by the floor.
  Timestamp bid_mark = Timestamp::Min();
  constexpr int kEvents = 10000;
  for (int i = 0; i < kEvents; ++i) {
    const Timestamp ptime = Timestamp(static_cast<int64_t>(i + 60) * 1000);
    ASSERT_TRUE(engine_
                    .Insert("Bid", ptime,
                            {Value::Time(ptime), Value::Int64(i % 50),
                             Value::String("item")})
                    .ok());
    if (i < 3000 && i % 50 == 49) {
      bid_mark = ptime - Interval::Minutes(1);
      ASSERT_TRUE(engine_.AdvanceWatermark("Bid", ptime, bid_mark).ok());
    }
  }
  // Compaction ran: far fewer events retained than fed.
  ASSERT_LT(engine_.history_size(), 8000u);
  ASSERT_EQ((*q)->watermark(), bid_mark);

  // A late-executed Bid query recovers the frozen watermark position from
  // the single retained dominated watermark event (every Bid watermark
  // event is at or below the compaction floor, so only the last survives).
  auto late_bid = engine_.Execute(
      "SELECT wstart, wend, MAX(price) AS maxPrice "
      "FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime), "
      "dur => INTERVAL '10' MINUTES) t GROUP BY wend");
  ASSERT_TRUE(late_bid.ok()) << late_bid.status().ToString();
  EXPECT_EQ((*late_bid)->watermark(), bid_mark);

  // Same for the idle source: its long-dominated watermark event survived
  // compaction, so a late Ask query sees Ask's position, not Min().
  auto late_ask = engine_.Execute(
      "SELECT wstart, wend, MAX(price) AS maxPrice "
      "FROM Tumble(data => TABLE(Ask), timecol => DESCRIPTOR(asktime), "
      "dur => INTERVAL '10' MINUTES) t GROUP BY wend");
  ASSERT_TRUE(late_ask.ok()) << late_ask.status().ToString();
  EXPECT_EQ((*late_ask)->watermark(), ask_mark);
}

TEST_F(EngineTest, HistoryIsCompactedOnceWatermarksAdvance) {
  // Regression guard: Execute used to replay an unbounded history_, so the
  // engine's memory grew linearly with the feed forever. With a running
  // query whose watermark advances, the history must stop growing
  // monotonically: events below every query's watermark floor are compacted
  // away (only the tail plus the watermark position survive).
  auto q = engine_.Execute(
      "SELECT wstart, wend, MAX(price) AS maxPrice "
      "FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime), "
      "dur => INTERVAL '10' MINUTES) t GROUP BY wend");
  ASSERT_TRUE(q.ok()) << q.status().ToString();

  constexpr int kEvents = 12000;
  size_t peak = 0;
  for (int i = 0; i < kEvents; ++i) {
    const Timestamp ptime = Timestamp(static_cast<int64_t>(i) * 1000);
    ASSERT_TRUE(engine_
                    .Insert("Bid", ptime,
                            {Value::Time(ptime), Value::Int64(i % 50),
                             Value::String("item")})
                    .ok());
    if (i % 100 == 99) {
      ASSERT_TRUE(
          engine_
              .AdvanceWatermark("Bid", ptime, ptime - Interval::Minutes(1))
              .ok());
    }
    peak = std::max(peak, engine_.history_size());
  }
  // Far fewer than the events fed are retained: the history is bounded by
  // the compaction schedule (threshold ~4096) rather than growing with the
  // feed length (12k+ events were fed).
  EXPECT_LT(engine_.history_size(), 4500u);
  EXPECT_LT(peak, 4500u);

  // A query executed after compaction still sees the retained (recent)
  // history: its watermark matches the feed's frontier.
  auto late = engine_.Execute(
      "SELECT wstart, wend, MAX(price) AS maxPrice "
      "FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime), "
      "dur => INTERVAL '10' MINUTES) t GROUP BY wend");
  ASSERT_TRUE(late.ok()) << late.status().ToString();
  EXPECT_EQ((*late)->watermark(), (*q)->watermark());
  // Recent (post-floor) windows are replayed identically.
  EXPECT_FALSE((*late)->CurrentSnapshot()->empty());
}

TEST_F(EngineTest, HistoryIsKeptWhenNoQueriesRun) {
  // The paper's late-executed point-in-time SELECTs (Listing 3's "8:21>")
  // require the full feed when no query was running: nothing may be
  // compacted then.
  constexpr int kEvents = 5000;
  for (int i = 0; i < kEvents; ++i) {
    const Timestamp ptime = Timestamp(static_cast<int64_t>(i) * 1000);
    ASSERT_TRUE(engine_
                    .Insert("Bid", ptime,
                            {Value::Time(ptime), Value::Int64(i),
                             Value::String("item")})
                    .ok());
  }
  EXPECT_EQ(engine_.history_size(), static_cast<size_t>(kEvents));
  auto q = engine_.Execute("SELECT bidtime, price FROM Bid");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ((*q)->CurrentSnapshot()->size(), static_cast<size_t>(kEvents));
}

TEST_F(EngineTest, ShardCountIsBoundedByMaxShards) {
  // The setting has no effect, but values outside [1, kMaxShards] are
  // rejected.
  const std::string sql =
      "SELECT wend, MAX(price) AS maxPrice "
      "FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime), "
      "dur => INTERVAL '10' MINUTES) t GROUP BY wend";
  ExecutionOptions options;
  options.shards = exec::kMaxShards;
  auto at_bound = engine_.Execute(sql, options);
  ASSERT_TRUE(at_bound.ok()) << at_bound.status().ToString();
  EXPECT_EQ((*at_bound)->dataflow().shard_count(), 1);

  for (int shards : {exec::kMaxShards + 1, INT32_MAX, 0}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    options.shards = shards;
    auto rejected = engine_.Execute(sql, options);
    ASSERT_FALSE(rejected.ok());
    EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(engine_.num_queries(), 1u);
}

/// The stream of a keyed Tumble SUM under AFTER DELAY over bids at 0 s, 5 s
/// and 5 s, the clock then moved to 20 s. With `read`, both table reads run
/// between the two 5 s bids; `read_table` receives what CurrentSnapshot saw.
std::vector<Row> DelayedStream(bool read, std::vector<Row>* read_table) {
  Engine engine;
  EXPECT_TRUE(engine
                  .RegisterStream(
                      "Bid", Schema({{"bidtime", DataType::kTimestamp, true},
                                     {"price", DataType::kBigint},
                                     {"item", DataType::kVarchar}}))
                  .ok());
  auto q = engine.Execute(
      "SELECT item, wend, SUM(price) AS total "
      "FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime), "
      "dur => INTERVAL '10' SECONDS) t GROUP BY item, wend "
      "EMIT STREAM AFTER DELAY INTERVAL '5' SECONDS");
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  if (!q.ok()) return {};
  const Timestamp zero = T(0, 0);
  auto bid = [&](int64_t seconds, int64_t price) {
    const Timestamp at = zero + Interval::Seconds(seconds);
    EXPECT_TRUE(engine
                    .Insert("Bid", at,
                            {Value::Time(at), Value::Int64(price),
                             Value::String("a")})
                    .ok());
  };
  bid(0, 1);
  bid(5, 2);
  if (read) {
    auto table = (*q)->CurrentSnapshot();
    EXPECT_TRUE(table.ok());
    if (table.ok()) *read_table = *table;
    auto at = (*q)->SnapshotAt(zero + Interval::Seconds(5));
    EXPECT_TRUE(at.ok());
    if (at.ok()) {
      EXPECT_EQ(*at, *read_table);
    }
  }
  bid(5, 4);
  EXPECT_TRUE(engine.AdvanceTo(zero + Interval::Seconds(20)).ok());
  return (*q)->StreamRows();
}

TEST(EngineReadTest, ReadingTheTableDoesNotChangeTheStream) {
  // The pane due at 5 s takes every bid at 5 s, read or not.
  std::vector<Row> unused;
  const std::vector<Row> unread = DelayedStream(false, &unused);
  std::vector<Row> table;
  const std::vector<Row> read = DelayedStream(true, &table);
  ASSERT_EQ(unread.size(), 1u);
  EXPECT_EQ(unread[0][2], Value::Int64(7));
  EXPECT_EQ(unread[0][4], Value::Time(T(0, 0) + Interval::Seconds(5)));
  ASSERT_EQ(read.size(), unread.size());
  for (size_t i = 0; i < read.size(); ++i) {
    EXPECT_TRUE(RowsEqual(read[i], unread[i]))
        << RowToString(read[i]) << " vs " << RowToString(unread[i]);
  }
  // The read saw the pane due at 5 s as it stood then: the first two bids.
  ASSERT_EQ(table.size(), 1u);
  EXPECT_EQ(table[0][2], Value::Int64(3));
}

}  // namespace
}  // namespace onesql
