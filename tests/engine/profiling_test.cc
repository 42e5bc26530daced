// Query-level profiling (DESIGN.md §15): profiling needs metrics, and
// EXPLAIN ANALYZE renders the plan tree annotated with each operator's live
// counters and sampled wall time, in both text and JSON.

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
              const std::string& item, FeedEvent::Kind kind) {
  FeedEvent e;
  e.kind = kind;
  e.source = "Bid";
  e.ptime = ptime;
  e.row = {Value::Time(ptime), Value::Int64(price), Value::Int64(qty),
           Value::String(item), Value::String(item)};
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

TEST(KernelPathTest, ProfilingRequiresMetrics) {
  Engine engine;
  ASSERT_TRUE(engine.RegisterStream("Bid", BidSchema()).ok());
  obs::ObsOptions options;
  options.profiling = true;
  const Status status = engine.EnableObservability(options);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
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
  EXPECT_NE(text.find("[sampled wall_us n="), std::string::npos);
  EXPECT_EQ(text.find("kernel"), std::string::npos);
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
  const server::Json* profile = filter->Find("profile");
  ASSERT_NE(profile, nullptr);
  ASSERT_NE(profile->Find("wall_us"), nullptr);
  EXPECT_GE(profile->Find("wall_us")->Find("count")->AsInt(), 0);
  EXPECT_GE(profile->Find("rows_per_sec")->AsInt(), 0);
  EXPECT_EQ(profile->Find("kernel"), nullptr);
  EXPECT_EQ(profile->Find("batches"), nullptr);
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
  EXPECT_EQ(analysis->text.find("sampled wall_us"), std::string::npos);
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
