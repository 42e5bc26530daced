// Query-level profiling (DESIGN.md §15): kernel-path counters must be exact
// and row-denominated — a function of the expression shape and the data,
// never of batching — across the batch-boundary templates the fuzzer leans
// on (singleton chunks, NULL-heavy columns, retraction-dense feeds), with
// every scalar fallback attributed to a reason. EXPLAIN ANALYZE renders the
// plan tree annotated with those live counters in both text and JSON.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "engine/engine.h"
#include "engine/explain.h"
#include "obs/instruments.h"
#include "server/json.h"

namespace onesql {
namespace {

Timestamp T(int h, int m) { return Timestamp::FromHMS(h, m); }

Schema BidSchema() {
  return Schema({{"bidtime", DataType::kTimestamp, true},
                 {"price", DataType::kBigint},
                 {"qty", DataType::kBigint},
                 {"item", DataType::kVarchar},
                 {"buyer", DataType::kVarchar}});
}

FeedEvent Bid(Timestamp ptime, int64_t price, int64_t qty,
              const std::string& item, FeedEvent::Kind kind,
              bool null_price = false) {
  FeedEvent e;
  e.kind = kind;
  e.source = "Bid";
  e.ptime = ptime;
  e.row = {Value::Time(ptime),
           null_price ? Value::Null() : Value::Int64(price),
           Value::Int64(qty), Value::String(item), Value::String(item)};
  return e;
}

/// `count` inserts one minute apart starting at 8:00, prices 1..count.
std::vector<FeedEvent> Inserts(int count) {
  std::vector<FeedEvent> feed;
  for (int i = 0; i < count; ++i) {
    feed.push_back(Bid(T(8, i), i + 1, 2, "A", FeedEvent::Kind::kInsert));
  }
  return feed;
}

obs::ObsOptions Profiling() {
  obs::ObsOptions options;
  options.metrics = true;
  options.profiling = true;
  return options;
}

/// Engine with one profiled query over Bid; feeds `feed` and returns the
/// snapshot. The engine outlives the call via the out-param when a test
/// needs ExplainAnalyze afterwards.
obs::MetricsSnapshot RunProfiled(const std::string& sql,
                                 const std::vector<FeedEvent>& feed,
                                 bool one_event_per_feed = false) {
  Engine engine;
  EXPECT_TRUE(engine.RegisterStream("Bid", BidSchema()).ok());
  EXPECT_TRUE(engine.EnableObservability(Profiling()).ok());
  auto q = engine.Execute(sql);
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  if (one_event_per_feed) {
    for (const FeedEvent& e : feed) {
      EXPECT_TRUE(engine.Feed({e}).ok());
    }
  } else {
    EXPECT_TRUE(engine.Feed(feed).ok());
  }
  return engine.MetricsSnapshot();
}

uint64_t KernelRows(const obs::MetricsSnapshot& snap, const std::string& op,
                    const std::string& path) {
  return snap.CounterValue(
      "onesql_kernel_rows_total",
      {{"query", "q0"}, {"op", op}, {"path", path}});
}

uint64_t FallbackRows(const obs::MetricsSnapshot& snap, const std::string& op,
                      const std::string& reason) {
  return snap.CounterValue(
      "onesql_kernel_fallback_rows_total",
      {{"query", "q0"}, {"op", op}, {"reason", reason}});
}

TEST(KernelPathTest, ProfilingRequiresMetrics) {
  Engine engine;
  ASSERT_TRUE(engine.RegisterStream("Bid", BidSchema()).ok());
  obs::ObsOptions options;
  options.profiling = true;
  const Status status = engine.EnableObservability(options);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(KernelPathTest, SingletonChunksCountExactVectorizedRows) {
  // One event per Feed call: every chunk is a singleton batch, and the
  // vectorized row count still equals the row count exactly — per-row
  // attribution is invariant to how the feed is chopped.
  const obs::MetricsSnapshot snap = RunProfiled(
      "SELECT bidtime, price * 2 AS p2 FROM Bid WHERE price >= 3", Inserts(9),
      /*one_event_per_feed=*/true);
  EXPECT_EQ(KernelRows(snap, "filter", "vectorized"), 9u);
  EXPECT_EQ(KernelRows(snap, "filter", "scalar"), 0u);
  // 9 singleton chunks -> 9 vectorized filter batches.
  EXPECT_EQ(snap.CounterValue("onesql_kernel_batches_total",
                              {{"query", "q0"},
                               {"op", "filter"},
                               {"path", "vectorized"}}),
            9u);
  // The project sees the 7 passing rows (prices 3..9), two expressions each.
  EXPECT_EQ(KernelRows(snap, "project", "vectorized"), 14u);
  EXPECT_EQ(KernelRows(snap, "project", "scalar"), 0u);
}

TEST(KernelPathTest, ElementDispatchesArePublishedAtEverySnapshot) {
  // Operators tally scalar element dispatches in a plain member and the
  // snapshot publishes them, so every snapshot — mid-feed, and after the
  // query is dropped — reads each operator's counts as if recorded inline:
  // batch_size count = batches + elements, batch_size sum = rows_in.
  Engine engine;
  ASSERT_TRUE(engine.RegisterStream("Bid", BidSchema()).ok());
  ASSERT_TRUE(engine.EnableObservability(Profiling()).ok());
  auto q = engine.Execute(
      "SELECT wend, total * 2 AS doubled FROM (SELECT wend, SUM(price) AS "
      "total FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime), "
      "dur => INTERVAL '10' MINUTES) GROUP BY wend) t WHERE total > 2");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  uint64_t elements = 0;
  auto check = [&](const obs::MetricsSnapshot& snap) {
    elements = 0;
    for (const obs::CounterSample& c : snap.counters) {
      if (c.name != "onesql_profile_elements_total") continue;
      const obs::HistogramData* sizes =
          snap.HistogramOf("onesql_profile_batch_size", c.labels);
      ASSERT_NE(sizes, nullptr);
      EXPECT_EQ(sizes->TotalCount(),
                snap.CounterValue("onesql_profile_batches_total", c.labels) +
                    c.value);
      EXPECT_EQ(sizes->sum, snap.CounterValue("onesql_operator_rows_in_total",
                                              c.labels));
      elements += c.value;
    }
  };
  std::vector<FeedEvent> feed = Inserts(6);
  FeedEvent retract = feed[2];  // the 8:02 bid, retracted at 8:06
  retract.kind = FeedEvent::Kind::kDelete;
  retract.ptime = T(8, 6);
  feed.push_back(retract);
  for (const FeedEvent& e : feed) {
    ASSERT_TRUE(engine.Feed({e}).ok());
    check(engine.MetricsSnapshot());
  }
  EXPECT_GT(elements, 0u) << "the query must dispatch scalar elements";
  const uint64_t before_drop = elements;
  ASSERT_TRUE(engine.DropQuery(*q).ok());
  check(engine.MetricsSnapshot());
  EXPECT_EQ(elements, before_drop);
}

TEST(KernelPathTest, NullHeavyChunksStayVectorized) {
  // NULLs ride the validity lanes, not a fallback: a 50% NULL price column
  // filters vectorized, and the NULL rows simply fail the predicate.
  std::vector<FeedEvent> feed;
  for (int i = 0; i < 12; ++i) {
    feed.push_back(Bid(T(8, i), i + 1, 2, "A", FeedEvent::Kind::kInsert,
                       /*null_price=*/i % 2 == 0));
  }
  const obs::MetricsSnapshot snap = RunProfiled(
      "SELECT bidtime, price FROM Bid WHERE price > 3", feed);
  EXPECT_EQ(KernelRows(snap, "filter", "vectorized"), 12u);
  EXPECT_EQ(KernelRows(snap, "filter", "scalar"), 0u);
  // Prices 4, 6, 8, 10, 12 survive (odd indices above 3).
  EXPECT_EQ(snap.CounterValue("onesql_operator_rows_out_total",
                              {{"query", "q0"}, {"op", "filter"}}),
            5u);
}

TEST(KernelPathTest, RetractionDenseChunksStayVectorized) {
  // Kernel dispatch is change-kind-agnostic: a feed that retracts every
  // other row still evaluates fully vectorized, retractions included.
  std::vector<FeedEvent> feed;
  for (int i = 0; i < 8; ++i) {
    feed.push_back(Bid(T(8, i), 5, 2, "A", FeedEvent::Kind::kInsert));
    feed.push_back(Bid(T(8, i), 5, 2, "A", FeedEvent::Kind::kDelete));
  }
  const obs::MetricsSnapshot snap = RunProfiled(
      "SELECT bidtime, price FROM Bid WHERE price >= 0", feed);
  EXPECT_EQ(KernelRows(snap, "filter", "vectorized"), 16u);
  EXPECT_EQ(KernelRows(snap, "filter", "scalar"), 0u);
}

TEST(KernelPathTest, NonLiteralDivisorFallsBackWithDivisionReason) {
  // `price / qty` cannot prove the divisor non-zero at plan time, so the
  // whole expression falls back per batch, attributed to `division`; the
  // sibling column stays vectorized (attribution is per (row, expression)).
  const obs::MetricsSnapshot snap = RunProfiled(
      "SELECT price * 2 AS p2, price / qty AS unit FROM Bid", Inserts(10));
  EXPECT_EQ(KernelRows(snap, "project", "vectorized"), 10u);
  EXPECT_EQ(KernelRows(snap, "project", "scalar"), 10u);
  EXPECT_EQ(FallbackRows(snap, "project", "division"), 10u);
  EXPECT_EQ(FallbackRows(snap, "project", "demoted_lane"), 0u);
  EXPECT_EQ(FallbackRows(snap, "project", "generic_lane"), 0u);
  EXPECT_EQ(FallbackRows(snap, "project", "unsupported"), 0u);
}

TEST(KernelPathTest, VarcharComparisonFallsBackWithGenericLaneReason) {
  // Comparing two VARCHAR columns reaches the compare kernel with generic
  // lanes on both sides — a data-shape fallback, not an unsupported shape.
  const obs::MetricsSnapshot snap = RunProfiled(
      "SELECT bidtime FROM Bid WHERE item = buyer", Inserts(6));
  EXPECT_EQ(KernelRows(snap, "filter", "vectorized"), 0u);
  EXPECT_EQ(KernelRows(snap, "filter", "scalar"), 6u);
  EXPECT_EQ(FallbackRows(snap, "filter", "generic_lane"), 6u);
  EXPECT_EQ(FallbackRows(snap, "filter", "division"), 0u);
}

TEST(KernelPathTest, ScalarFunctionFallsBackAsUnsupported) {
  // Scalar functions are outside the kernel subset: `ABS(price)` is an
  // expression-shape fallback, distinct from the generic-lane case above.
  const obs::MetricsSnapshot snap = RunProfiled(
      "SELECT bidtime FROM Bid WHERE ABS(price) < 0", Inserts(6));
  EXPECT_EQ(KernelRows(snap, "filter", "vectorized"), 0u);
  EXPECT_EQ(KernelRows(snap, "filter", "scalar"), 6u);
  EXPECT_EQ(FallbackRows(snap, "filter", "unsupported"), 6u);
  EXPECT_EQ(FallbackRows(snap, "filter", "generic_lane"), 0u);
}

TEST(ExplainAnalyzeTest, RendersAnnotatedTextAndValidJson) {
  Engine engine;
  ASSERT_TRUE(engine.RegisterStream("Bid", BidSchema()).ok());
  ASSERT_TRUE(engine.EnableObservability(Profiling()).ok());
  auto q = engine.Execute(
      "SELECT bidtime, price * 2 AS p2 FROM Bid WHERE price >= 3");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_TRUE(engine.Feed(Inserts(9)).ok());

  auto analysis = engine.ExplainAnalyze(*q);
  ASSERT_TRUE(analysis.ok()) << analysis.status().ToString();
  const std::string& text = analysis->text;
  EXPECT_NE(text.find("EXPLAIN ANALYZE q0"), std::string::npos);
  EXPECT_NE(text.find("profiling=on"), std::string::npos);
  EXPECT_NE(text.find("[op=filter rows in=9 out=7"), std::string::npos);
  EXPECT_NE(text.find("batches="), std::string::npos);
  EXPECT_NE(text.find("[kernel vectorized=9 rows"), std::string::npos);
  EXPECT_NE(text.find("sink: emissions=7"), std::string::npos);

  // The JSON side must parse and carry the same counters.
  auto parsed = server::Json::Parse(analysis->json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n"
                           << analysis->json;
  const server::Json* plan = parsed->Find("plan");
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->Find("op")->AsString(), "project");
  // plan.inputs[0] is the filter.
  const server::Json* filter = &plan->Find("inputs")->items().front();
  EXPECT_EQ(filter->Find("op")->AsString(), "filter");
  EXPECT_EQ(filter->Find("rows_in")->AsInt(), 9);
  EXPECT_EQ(filter->Find("rows_out")->AsInt(), 7);
  const server::Json* kernel = filter->Find("profile")->Find("kernel");
  ASSERT_NE(kernel, nullptr);
  EXPECT_EQ(kernel->Find("vectorized_rows")->AsInt(), 9);
  EXPECT_EQ(kernel->Find("scalar_rows")->AsInt(), 0);
}

TEST(ExplainAnalyzeTest, MetricsOnlyOmitsProfileAnnotations) {
  Engine engine;
  ASSERT_TRUE(engine.RegisterStream("Bid", BidSchema()).ok());
  obs::ObsOptions options;
  options.metrics = true;
  ASSERT_TRUE(engine.EnableObservability(options).ok());
  auto q = engine.Execute("SELECT bidtime, price FROM Bid");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_TRUE(engine.Feed(Inserts(4)).ok());

  auto analysis = engine.ExplainAnalyze(*q);
  ASSERT_TRUE(analysis.ok()) << analysis.status().ToString();
  EXPECT_NE(analysis->text.find("profiling=off"), std::string::npos);
  EXPECT_NE(analysis->text.find("[op="), std::string::npos);
  EXPECT_EQ(analysis->text.find("batches="), std::string::npos);
  EXPECT_EQ(analysis->json.find("\"profile\":"), std::string::npos);
}

TEST(ExplainAnalyzeTest, ReconstructsJoinBranchLabels) {
  // The second source/filter in chain-build order publishes under `_2`
  // suffixes; the renderer must re-derive the same suffixes from the plan
  // walk so each branch reads its own counters, not its sibling's.
  Engine engine;
  ASSERT_TRUE(engine.RegisterStream("Bid", BidSchema()).ok());
  ASSERT_TRUE(
      engine
          .RegisterStream("Ask", Schema({{"asktime", DataType::kTimestamp,
                                          true},
                                         {"price", DataType::kBigint},
                                         {"item", DataType::kVarchar}}))
          .ok());
  ASSERT_TRUE(engine.EnableObservability(Profiling()).ok());
  auto q = engine.Execute(
      "SELECT b.bidtime, b.price FROM Bid b JOIN Ask a ON b.price = a.price");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  auto analysis = engine.ExplainAnalyze(*q);
  ASSERT_TRUE(analysis.ok()) << analysis.status().ToString();
  EXPECT_NE(analysis->text.find("[op=join"), std::string::npos);
  EXPECT_NE(analysis->text.find("[op=source_2"), std::string::npos);
  EXPECT_NE(analysis->json.find("\"op\":\"source_2\""), std::string::npos);
}

size_t Occurrences(const std::string& text, const std::string& needle) {
  size_t n = 0;
  for (size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + 1)) {
    ++n;
  }
  return n;
}

TEST(ExplainAnalyzeTest, SharedSubtreeRendersOnce) {
  // Two alias-different copies of one Tumble -> COUNT subquery compile to
  // one scan, window, aggregate and projection. The second copy names the
  // projection it shares instead of reading (and counting) it again.
  Engine engine;
  ASSERT_TRUE(engine.RegisterStream("Bid", BidSchema()).ok());
  ASSERT_TRUE(engine.EnableObservability(Profiling()).ok());
  const std::string count =
      "SELECT wend, item, COUNT(*) AS c FROM Tumble(data => TABLE(Bid), "
      "timecol => DESCRIPTOR(bidtime), dur => INTERVAL '10' MINUTES) ";
  auto q = engine.Execute("SELECT a.wend, a.item, a.c, b.c FROM (" + count +
                          "t GROUP BY wend, item) a, (" + count +
                          "u GROUP BY wend, item) b "
                          "WHERE a.wend = b.wend AND a.item = b.item");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_TRUE(engine.Feed(Inserts(6)).ok());
  auto analysis = engine.ExplainAnalyze(*q);
  ASSERT_TRUE(analysis.ok()) << analysis.status().ToString();
  const std::string& text = analysis->text;
  EXPECT_EQ(Occurrences(text, "(shared with project_2)"), 1u) << text;
  EXPECT_EQ(Occurrences(text, "[op=aggregate "), 1u) << text;
  EXPECT_EQ(Occurrences(text, "[op=window "), 1u) << text;
  EXPECT_EQ(Occurrences(text, "[op=source "), 1u) << text;
  EXPECT_EQ(Occurrences(text, "op=aggregate_2"), 0u) << text;
  // Six bids, each counted once, not once per copy.
  EXPECT_NE(text.find("[op=aggregate rows in=6 "), std::string::npos) << text;
  EXPECT_EQ(Occurrences(analysis->json, "\"shared_with\":\"project_2\""), 1u)
      << analysis->json;
}

TEST(ExplainAnalyzeTest, UnknownQueryIsNotFound) {
  Engine a;
  ASSERT_TRUE(a.RegisterStream("Bid", BidSchema()).ok());
  ASSERT_TRUE(a.EnableObservability(Profiling()).ok());
  Engine b;
  ASSERT_TRUE(b.RegisterStream("Bid", BidSchema()).ok());
  auto foreign = b.Execute("SELECT bidtime, price FROM Bid");
  ASSERT_TRUE(foreign.ok());
  auto analysis = a.ExplainAnalyze(*foreign);
  ASSERT_FALSE(analysis.ok());
  EXPECT_EQ(analysis.status().code(), StatusCode::kNotFound);
}

TEST(ExplainAnalyzeTest, WithoutMetricsIsInvalidArgument) {
  Engine engine;
  ASSERT_TRUE(engine.RegisterStream("Bid", BidSchema()).ok());
  auto q = engine.Execute("SELECT bidtime, price FROM Bid");
  ASSERT_TRUE(q.ok());
  auto analysis = engine.ExplainAnalyze(*q);
  ASSERT_FALSE(analysis.ok());
  EXPECT_EQ(analysis.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace onesql
