#include "plan/optimizer.h"

#include <gtest/gtest.h>

#include "plan/binder.h"
#include "plan/catalog.h"
#include "sql/parser.h"

namespace onesql {
namespace plan {
namespace {

class OptimizerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(catalog_
                    .Register(TableDef{
                        "Bid",
                        Schema({{"bidtime", DataType::kTimestamp, true},
                                {"price", DataType::kBigint},
                                {"item", DataType::kVarchar}}),
                        true})
                    .ok());
    ASSERT_TRUE(catalog_
                    .Register(TableDef{
                        "Ask",
                        Schema({{"asktime", DataType::kTimestamp, true},
                                {"price", DataType::kBigint},
                                {"item", DataType::kVarchar}}),
                        true})
                    .ok());
  }

  QueryPlan MustOptimize(const std::string& sql) {
    auto stmt = sql::Parser::Parse(sql);
    EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
    Binder binder(&catalog_);
    auto plan = binder.Bind(**stmt);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    QueryPlan p = std::move(*plan);
    EXPECT_TRUE(Optimizer::Optimize(&p).ok());
    return p;
  }

  Catalog catalog_;
};

const JoinNode& FindJoin(const LogicalNode& node) {
  switch (node.kind()) {
    case LogicalNode::Kind::kJoin:
      return static_cast<const JoinNode&>(node);
    case LogicalNode::Kind::kProject:
      return FindJoin(static_cast<const ProjectNode&>(node).input());
    case LogicalNode::Kind::kFilter:
      return FindJoin(static_cast<const FilterNode&>(node).input());
    default:
      ADD_FAILURE() << "no join found in plan";
      return static_cast<const JoinNode&>(node);  // unreachable in practice
  }
}

TEST_F(OptimizerTest, ConjunctSplitAndCombineRoundTrip) {
  auto a = BoundExpr::Op(
      ScalarOp::kEq, DataType::kBoolean, [] {
        std::vector<BoundExprPtr> v;
        v.push_back(BoundExpr::InputRef(0, DataType::kBigint));
        v.push_back(BoundExpr::Literal(Value::Int64(1)));
        return v;
      }());
  auto b = BoundExpr::Op(
      ScalarOp::kLt, DataType::kBoolean, [] {
        std::vector<BoundExprPtr> v;
        v.push_back(BoundExpr::InputRef(1, DataType::kBigint));
        v.push_back(BoundExpr::Literal(Value::Int64(2)));
        return v;
      }());
  std::vector<BoundExprPtr> both;
  both.push_back(a->Clone());
  both.push_back(b->Clone());
  BoundExprPtr combined = CombineConjuncts(std::move(both));
  ASSERT_NE(combined, nullptr);
  EXPECT_EQ(combined->op, ScalarOp::kAnd);
  auto split = SplitConjuncts(std::move(combined));
  ASSERT_EQ(split.size(), 2u);
  EXPECT_TRUE(BoundExprEquals(*split[0], *a));
  EXPECT_TRUE(BoundExprEquals(*split[1], *b));
}

TEST_F(OptimizerTest, CombineEmptyIsNull) {
  EXPECT_EQ(CombineConjuncts({}), nullptr);
}

TEST_F(OptimizerTest, FilterPushdownThroughCommaJoin) {
  // Single-side conjuncts move below the join; the cross-side equality
  // becomes a hash key.
  QueryPlan plan = MustOptimize(
      "SELECT b.item FROM Bid b, Ask a "
      "WHERE b.price > 5 AND b.price = a.price AND a.item = 'x'");
  const JoinNode& join = FindJoin(*plan.root);
  ASSERT_EQ(join.equi_keys().size(), 1u);
  EXPECT_EQ(join.equi_keys()[0].first, 1u);   // b.price
  EXPECT_EQ(join.equi_keys()[0].second, 1u);  // a.price
  EXPECT_EQ(join.left().kind(), LogicalNode::Kind::kFilter);
  EXPECT_EQ(join.right().kind(), LogicalNode::Kind::kFilter);
  EXPECT_EQ(join.condition(), nullptr);
}

TEST_F(OptimizerTest, SpanningPredicateStaysOnJoin) {
  QueryPlan plan = MustOptimize(
      "SELECT b.item FROM Bid b, Ask a WHERE b.price < a.price");
  const JoinNode& join = FindJoin(*plan.root);
  EXPECT_TRUE(join.equi_keys().empty());
  ASSERT_NE(join.condition(), nullptr);
  EXPECT_EQ(join.condition()->op, ScalarOp::kLt);
}

TEST_F(OptimizerTest, AdjacentFiltersMerge) {
  // DISTINCT introduces Aggregate(Project(Filter)), and nested derived
  // tables introduce stacked filters; check direct stacking merges.
  auto stmt = sql::Parser::Parse(
      "SELECT * FROM (SELECT bidtime, price FROM Bid WHERE price > 1) t "
      "WHERE price < 10");
  ASSERT_TRUE(stmt.ok());
  Binder binder(&catalog_);
  auto plan = binder.Bind(**stmt);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  QueryPlan p = std::move(*plan);
  ASSERT_TRUE(Optimizer::Optimize(&p).ok());
  // There should be no Filter directly above another Filter anywhere.
  std::vector<const LogicalNode*> stack = {p.root.get()};
  while (!stack.empty()) {
    const LogicalNode* n = stack.back();
    stack.pop_back();
    switch (n->kind()) {
      case LogicalNode::Kind::kFilter: {
        const auto* f = static_cast<const FilterNode*>(n);
        EXPECT_NE(f->input().kind(), LogicalNode::Kind::kFilter);
        stack.push_back(&f->input());
        break;
      }
      case LogicalNode::Kind::kProject:
        stack.push_back(&static_cast<const ProjectNode*>(n)->input());
        break;
      default:
        break;
    }
  }
}

TEST_F(OptimizerTest, Listing2DerivesPurgeSpecs) {
  // The paper's Q7: bidtime in [wend - 10min, wend) lets both join sides be
  // purged as the watermark advances.
  const char* sql = R"(
    SELECT MaxBid.wstart, MaxBid.wend, Bid.bidtime, Bid.price, Bid.item
    FROM
      Bid,
      (SELECT MAX(t.price) maxPrice, t.wstart wstart, t.wend wend
       FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime),
                   dur => INTERVAL '10' MINUTE) t
       GROUP BY t.wend) MaxBid
    WHERE
      Bid.price = MaxBid.maxPrice AND
      Bid.bidtime >= MaxBid.wend - INTERVAL '10' MINUTE AND
      Bid.bidtime < MaxBid.wend
  )";
  QueryPlan plan = MustOptimize(sql);
  const JoinNode& join = FindJoin(*plan.root);
  // price = maxPrice extracted as hash key.
  ASSERT_EQ(join.equi_keys().size(), 1u);
  // Left (Bid) side: bidtime >= wend - 10min  =>  purge at bidtime + 10min.
  ASSERT_TRUE(join.left_purge().has_value());
  EXPECT_EQ(join.left_purge()->et_col, 0u);
  EXPECT_EQ(join.left_purge()->slack, Interval::Minutes(10));
  // Right (MaxBid) side: bidtime < wend  =>  purge at wend (slack 0), and
  // the MaxBid aggregation is final by then (wend is its event-time key).
  ASSERT_TRUE(join.right_purge().has_value());
  EXPECT_EQ(join.right_purge()->slack, Interval::Minutes(0));
}

TEST_F(OptimizerTest, NoPurgeWithoutEventTimeBounds) {
  QueryPlan plan = MustOptimize(
      "SELECT b.item FROM Bid b, Ask a WHERE b.price = a.price");
  const JoinNode& join = FindJoin(*plan.root);
  EXPECT_FALSE(join.left_purge().has_value());
  EXPECT_FALSE(join.right_purge().has_value());
}

TEST_F(OptimizerTest, EventTimeEqualityGivesZeroSlackBothSides) {
  QueryPlan plan = MustOptimize(
      "SELECT b.item FROM Bid b, Ask a WHERE b.bidtime = a.asktime");
  const JoinNode& join = FindJoin(*plan.root);
  ASSERT_TRUE(join.left_purge().has_value());
  ASSERT_TRUE(join.right_purge().has_value());
  EXPECT_EQ(join.left_purge()->slack, Interval::Millis(0));
  EXPECT_EQ(join.right_purge()->slack, Interval::Millis(0));
}

TEST_F(OptimizerTest, AppendOnlyDetection) {
  QueryPlan plan = MustOptimize(
      "SELECT wstart, wend, MAX(price) m FROM Tumble(data => TABLE(Bid), "
      "timecol => DESCRIPTOR(bidtime), dur => INTERVAL '10' MINUTE) t "
      "GROUP BY wend");
  // Scan->Window->Aggregate: aggregate breaks append-only.
  EXPECT_FALSE(IsAppendOnlyPipeline(*plan.root));
  const auto& project = static_cast<const ProjectNode&>(*plan.root);
  const auto& agg = static_cast<const AggregateNode&>(project.input());
  EXPECT_TRUE(IsAppendOnlyPipeline(agg.input()));
}

/// The node kinds from `node` down its single-input chain, until a node
/// that is not a filter, projection or window, e.g. "Project Window Scan";
/// each filter is followed by its conjunct count.
std::string Spine(const LogicalNode& node) {
  switch (node.kind()) {
    case LogicalNode::Kind::kFilter: {
      const auto& filter = static_cast<const FilterNode&>(node);
      const size_t conjuncts =
          SplitConjuncts(filter.predicate().Clone()).size();
      return "Filter" + std::to_string(conjuncts) + " " +
             Spine(filter.input());
    }
    case LogicalNode::Kind::kProject:
      return "Project " + Spine(static_cast<const ProjectNode&>(node).input());
    case LogicalNode::Kind::kWindow:
      return "Window " + Spine(static_cast<const WindowNode&>(node).input());
    case LogicalNode::Kind::kScan:
      return "Scan";
    default:
      return "Other";
  }
}

constexpr const char* kHop =
    "Hop(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime), "
    "dur => INTERVAL '10' MINUTES, hopsize => INTERVAL '5' MINUTES) h";
constexpr const char* kTumble =
    "Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime), "
    "dur => INTERVAL '10' MINUTES) t";
constexpr const char* kSession =
    "Session(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime), "
    "gap => INTERVAL '5' MINUTES, key => DESCRIPTOR(item)) s";

TEST_F(OptimizerTest, FilterOnInputColumnsMovesBelowHopAndTumble) {
  // Both conjuncts read only Bid's columns, so the whole filter runs once
  // per bid instead of once per window copy.
  for (const char* window : {kHop, kTumble}) {
    QueryPlan plan = MustOptimize(std::string("SELECT * FROM ") + window +
                                  " WHERE price >= 0 AND item <> 'x'");
    EXPECT_EQ(Spine(*plan.root), "Project Window Filter2 Scan") << window;
  }
}

TEST_F(OptimizerTest, FilterOnWindowBoundsStaysAboveTheWindow) {
  // wstart/wend exist only above the window: their conjuncts stay there,
  // and the ones on Bid's columns still move below.
  QueryPlan bounds = MustOptimize(std::string("SELECT * FROM ") + kHop +
                                  " WHERE wend > wstart");
  EXPECT_EQ(Spine(*bounds.root), "Project Filter1 Window Scan");
  QueryPlan mixed = MustOptimize(
      std::string("SELECT * FROM ") + kHop +
      " WHERE price >= 0 AND wend > wstart AND bidtime < wend AND item = 'a'");
  EXPECT_EQ(Spine(*mixed.root), "Project Filter2 Window Filter2 Scan");
}

TEST_F(OptimizerTest, FilterOverSessionStaysAbove) {
  // Dropping rows before a Session window would change the sessions the
  // remaining rows form.
  QueryPlan plan = MustOptimize(std::string("SELECT * FROM ") + kSession +
                                " WHERE price >= 0");
  EXPECT_EQ(Spine(*plan.root), "Project Filter1 Window Scan");
}

}  // namespace
}  // namespace plan
}  // namespace onesql
