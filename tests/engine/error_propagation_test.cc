// Satellite of the differential harness: every Status::ExecutionError the
// expression evaluator can raise (the division-by-zero paths in
// exec/expr_eval.cc) must propagate through both delivery paths (whole
// batches and per event) and the sink with identical observable effects.
// Concretely, whatever the (inert) shard setting:
//  - the feed call returns the error of the *first failing input event*,
//    with the same message;
//  - every emission from events before the failure — and the failing
//    element's own pre-error emissions — has reached the sink, bit-identical
//    to the sequential run (no discarded prefix, no partial panes beyond
//    what sequential itself leaves);
//  - the table rendering after the error matches the accumulated changelog
//    (duality holds on the error prefix too).

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "engine/engine.h"

namespace onesql {
namespace {

Timestamp T(int h, int m) { return Timestamp::FromHMS(h, m); }

Schema FeedSchema() {
  return Schema({{"ts", DataType::kTimestamp, true},
                 {"k", DataType::kBigint},
                 {"v", DataType::kBigint}});
}

// Stateless shape: the divisor hits zero on the
// poisoned row k == 7.
constexpr const char* kProjectionQuery =
    "SELECT ts, k, v, v / (k - 7) AS q FROM S";

// Keyed-aggregate shape: MIN(v) reaches 0 when the poisoned
// row v == 0 lands in its group, and the group's re-emission divides by it.
constexpr const char* kAggregateQuery =
    "SELECT k, wend, SUM(v) / MIN(v) AS q "
    "FROM Tumble(data => TABLE(S), timecol => DESCRIPTOR(ts), "
    "dur => INTERVAL '10' MINUTES) t GROUP BY k, wend";

// Shared-subtree (fan-out) shape: one keyed aggregate feeds a join directly
// and, through a projection dividing by MIN(v), the join's other side. The
// runtime compiles the aggregate once; its second consumer fails when the
// poisoned row v == 0 lands in a group. `second_copy_offset` spells the
// second copy's windows with an offset of one whole window — the same
// windows, but a different canonical text, so nothing is shared.
std::string SharedConsumerQuery(bool second_copy_offset) {
  auto agg = [](bool offset) {
    return std::string(
               "SELECT k, wend, COUNT(*) AS n, MIN(v) AS mn "
               "FROM Tumble(data => TABLE(S), timecol => DESCRIPTOR(ts), "
               "dur => INTERVAL '10' MINUTES") +
           (offset ? ", offset => INTERVAL '10' MINUTES" : "") +
           ") t GROUP BY k, wend";
  };
  return "SELECT c.k, c.wend, c.n, m.q FROM (" + agg(false) +
         ") c, (SELECT k, wend, n / mn AS q FROM (" +
         agg(second_copy_offset) +
         ") x) m WHERE c.k = m.k AND c.wend = m.wend";
}

struct Rendering {
  Status feed_status = Status::OK();
  std::vector<Row> stream_rows;
  std::vector<Row> snapshot;
};

/// Runs `sql` over `events` at the given shard count. `batched` pushes the
/// whole feed through one Engine::Feed call (one PushBatch); otherwise each
/// event is dispatched individually.
Rendering RunFeed(const std::string& sql, const std::vector<FeedEvent>& events,
              int shards, bool batched) {
  Engine engine;
  EXPECT_TRUE(engine.RegisterStream("S", FeedSchema()).ok());
  auto query = engine.Execute(sql, ExecutionOptions{.shards = shards});
  EXPECT_TRUE(query.ok()) << query.status().message();

  Rendering out;
  if (batched) {
    out.feed_status = engine.Feed(events);
  } else {
    for (const FeedEvent& event : events) {
      out.feed_status = engine.Feed({event});
      if (!out.feed_status.ok()) break;
    }
  }
  out.stream_rows = (*query)->StreamRows();
  auto snapshot = (*query)->CurrentSnapshot();
  EXPECT_TRUE(snapshot.ok()) << snapshot.status().message();
  if (snapshot.ok()) out.snapshot = *std::move(snapshot);
  return out;
}

void ExpectSameRendering(const Rendering& a, const Rendering& b,
                         const std::string& label) {
  EXPECT_EQ(a.feed_status.ok(), b.feed_status.ok()) << label;
  EXPECT_EQ(a.feed_status.message(), b.feed_status.message()) << label;
  ASSERT_EQ(a.stream_rows.size(), b.stream_rows.size()) << label;
  for (size_t i = 0; i < a.stream_rows.size(); ++i) {
    EXPECT_EQ(a.stream_rows[i], b.stream_rows[i])
        << label << " stream row " << i;
  }
  ASSERT_EQ(a.snapshot.size(), b.snapshot.size()) << label;
  for (size_t i = 0; i < a.snapshot.size(); ++i) {
    EXPECT_EQ(a.snapshot[i], b.snapshot[i]) << label << " snapshot row " << i;
  }
}

/// Random feed of `n` inserts over a handful of keys; exactly one poisoned
/// row (chosen by `poison_at`) triggers the divisor-zero path.
std::vector<FeedEvent> MakeFeed(uint32_t seed, int n, size_t poison_at,
                                bool poison_key) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int64_t> key(0, 5);
  std::uniform_int_distribution<int64_t> value(1, 50);
  std::uniform_int_distribution<int> jitter(-90, 90);
  std::vector<FeedEvent> events;
  events.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    FeedEvent event;
    event.kind = FeedEvent::Kind::kInsert;
    event.source = "S";
    event.ptime = T(8, 0) + Interval::Seconds(i);
    const bool poisoned = static_cast<size_t>(i) == poison_at;
    // Poison either the divisor key (projection shape: k == 7) or the
    // value (aggregate shape: MIN(v) == 0). Healthy rows avoid both.
    const int64_t k = poisoned && poison_key ? 7 : key(rng);
    const int64_t v = poisoned && !poison_key ? 0 : value(rng);
    event.row = {Value::Time(T(8, 0) + Interval::Seconds(jitter(rng) + 100)),
                 Value::Int64(k), Value::Int64(v)};
    events.push_back(std::move(event));
  }
  return events;
}

class ErrorPropagationTest : public ::testing::TestWithParam<bool> {};

TEST_P(ErrorPropagationTest, ProjectionDivByZeroIsShardInvariant) {
  const bool batched = GetParam();
  for (uint32_t seed = 0; seed < 12; ++seed) {
    const int n = 24;
    const size_t poison_at = seed % static_cast<size_t>(n);
    const std::vector<FeedEvent> events =
        MakeFeed(seed, n, poison_at, /*poison_key=*/true);
    const Rendering seq = RunFeed(kProjectionQuery, events, 1, batched);
    ASSERT_FALSE(seq.feed_status.ok());
    EXPECT_EQ(seq.feed_status.code(), StatusCode::kExecutionError);
    EXPECT_NE(seq.feed_status.message().find("division by zero"),
              std::string::npos)
        << seq.feed_status.message();
    // One projected row per healthy event before the poisoned one.
    EXPECT_EQ(seq.stream_rows.size(), poison_at);
    for (int shards : {2, 8}) {
      const Rendering par = RunFeed(kProjectionQuery, events, shards, batched);
      ExpectSameRendering(seq, par,
                          "seed " + std::to_string(seed) + " shards " +
                              std::to_string(shards));
    }
  }
}

TEST_P(ErrorPropagationTest, AggregateDivByZeroIsShardInvariant) {
  const bool batched = GetParam();
  for (uint32_t seed = 100; seed < 112; ++seed) {
    const int n = 24;
    const size_t poison_at = seed % static_cast<size_t>(n);
    const std::vector<FeedEvent> events =
        MakeFeed(seed, n, poison_at, /*poison_key=*/false);
    const Rendering seq = RunFeed(kAggregateQuery, events, 1, batched);
    ASSERT_FALSE(seq.feed_status.ok());
    EXPECT_EQ(seq.feed_status.code(), StatusCode::kExecutionError);
    EXPECT_NE(seq.feed_status.message().find("division by zero"),
              std::string::npos)
        << seq.feed_status.message();
    for (int shards : {2, 8}) {
      const Rendering par = RunFeed(kAggregateQuery, events, shards, batched);
      ExpectSameRendering(seq, par,
                          "seed " + std::to_string(seed) + " shards " +
                              std::to_string(shards));
    }
  }
}

TEST_P(ErrorPropagationTest, SharedSubtreeKeepsTheUnsharedErrorPrefix) {
  // The twin compiles both copies of the aggregate. The shared run must
  // leave the same valid prefix: the join side fed first got the
  // aggregate's whole run, the failing projection its run up to the
  // failing change.
  const bool batched = GetParam();
  const std::string shared = SharedConsumerQuery(false);
  const std::string twin = SharedConsumerQuery(true);
  {
    Engine engine;
    ASSERT_TRUE(engine.RegisterStream("S", FeedSchema()).ok());
    auto a = engine.Execute(shared);
    auto b = engine.Execute(twin);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ((*a)->dataflow().chain().fanouts.size(), 1u);
    EXPECT_TRUE((*b)->dataflow().chain().fanouts.empty());
  }
  size_t prefix_rows = 0;
  for (uint32_t seed = 300; seed < 312; ++seed) {
    const int n = 24;
    const size_t poison_at = seed % static_cast<size_t>(n);
    const std::vector<FeedEvent> events =
        MakeFeed(seed, n, poison_at, /*poison_key=*/false);
    for (int shards : {1, 2}) {
      const std::string label =
          "seed " + std::to_string(seed) + " shards " + std::to_string(shards);
      const Rendering want = RunFeed(twin, events, shards, batched);
      ASSERT_FALSE(want.feed_status.ok()) << label;
      EXPECT_EQ(want.feed_status.code(), StatusCode::kExecutionError) << label;
      const Rendering got = RunFeed(shared, events, shards, batched);
      ExpectSameRendering(got, want, label);
      prefix_rows += got.stream_rows.size();
    }
  }
  EXPECT_GT(prefix_rows, 0u) << "every error struck before any output";
}

TEST(ErrorPropagationTest, BatchedAndEventwiseFeedsAgreeOnError) {
  for (uint32_t seed = 200; seed < 208; ++seed) {
    const std::vector<FeedEvent> events =
        MakeFeed(seed, 24, /*poison_at=*/seed % 24, /*poison_key=*/true);
    for (int shards : {1, 8}) {
      const Rendering eventwise =
          RunFeed(kProjectionQuery, events, shards, /*batched=*/false);
      const Rendering batched =
          RunFeed(kProjectionQuery, events, shards, /*batched=*/true);
      ExpectSameRendering(eventwise, batched,
                          "seed " + std::to_string(seed) + " shards " +
                              std::to_string(shards));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(FeedModes, ErrorPropagationTest, ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "batched" : "eventwise";
                         });

}  // namespace
}  // namespace onesql
