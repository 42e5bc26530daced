// Standing-query lifecycle (Engine::Execute / DropQuery): a dropped query
// releases its operator state and observability gauges at once, and the
// queries beside it keep materializing. Sharing one query among many
// subscribers is counted by the standing-query server (server_core_test).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "engine/engine.h"
#include "obs/instruments.h"

namespace onesql {
namespace {

Schema BidSchema() {
  return Schema({{"bidtime", DataType::kTimestamp, true},
                 {"price", DataType::kBigint},
                 {"item", DataType::kVarchar}});
}

constexpr const char* kTumbleMax =
    "SELECT wstart, wend, MAX(price) AS maxPrice "
    "FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime), "
    "dur => INTERVAL '10' MINUTES) t GROUP BY wend "
    "EMIT STREAM";

constexpr const char* kPassThrough =
    "SELECT bidtime, price, item FROM Bid EMIT STREAM";

FeedEvent Insert(int64_t ptime_ms, int64_t bidtime_ms, int64_t price) {
  FeedEvent e;
  e.kind = FeedEvent::Kind::kInsert;
  e.source = "Bid";
  e.ptime = Timestamp(ptime_ms);
  e.row = {Value::Time(Timestamp(bidtime_ms)), Value::Int64(price),
           Value::String("A")};
  return e;
}

TEST(QueryLifecycleTest, DropReleasesTheQuery) {
  Engine engine;
  ASSERT_TRUE(engine.RegisterStream("Bid", BidSchema()).ok());
  auto agg = engine.Execute(kTumbleMax);
  auto pass = engine.Execute(kPassThrough);
  ASSERT_TRUE(agg.ok() && pass.ok());
  EXPECT_EQ(engine.num_queries(), 2u);

  ASSERT_TRUE(engine.DropQuery(*agg).ok());
  EXPECT_EQ(engine.num_queries(), 1u);

  // The survivor keeps materializing.
  ASSERT_TRUE(engine.Feed({Insert(10, 5, 7)}).ok());
  EXPECT_EQ((*pass)->Emissions().size(), 1u);
}

TEST(QueryLifecycleTest, DropOfAForeignQueryIsNotFound) {
  Engine a;
  Engine b;
  ASSERT_TRUE(a.RegisterStream("Bid", BidSchema()).ok());
  ASSERT_TRUE(b.RegisterStream("Bid", BidSchema()).ok());
  auto qa = a.Execute(kPassThrough);
  ASSERT_TRUE(qa.ok());
  EXPECT_EQ(b.DropQuery(*qa).code(), StatusCode::kNotFound);
}

TEST(QueryLifecycleTest, DropZeroesObsGaugesAndOperatorCount) {
  Engine engine;
  ASSERT_TRUE(engine.RegisterStream("Bid", BidSchema()).ok());
  obs::ObsOptions obs_options;
  obs_options.metrics = true;
  ASSERT_TRUE(engine.EnableObservability(obs_options).ok());
  auto q = engine.Execute(kTumbleMax);
  ASSERT_TRUE(q.ok());
  ASSERT_TRUE(engine.Feed({Insert(10, 5, 7)}).ok());

  const int64_t live_ops =
      engine.MetricsSnapshot().GaugeValue("onesql_engine_operators");
  EXPECT_GT(live_ops, 0);

  ASSERT_TRUE(engine.DropQuery(*q).ok());
  const obs::MetricsSnapshot after = engine.MetricsSnapshot();
  EXPECT_EQ(after.GaugeValue("onesql_engine_operators"), 0);
  EXPECT_EQ(after.GaugeValue("onesql_engine_queries"), 0);
}

}  // namespace
}  // namespace onesql
