#include "plan/binder.h"

#include <gtest/gtest.h>

#include "plan/catalog.h"
#include "sql/parser.h"

namespace onesql {
namespace plan {
namespace {

class BinderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // The paper's NEXMark-style relations.
    ASSERT_TRUE(catalog_
                    .Register(TableDef{
                        "Bid",
                        Schema({{"bidtime", DataType::kTimestamp, true},
                                {"price", DataType::kBigint},
                                {"item", DataType::kVarchar}}),
                        /*unbounded=*/true})
                    .ok());
    ASSERT_TRUE(catalog_
                    .Register(TableDef{
                        "Category",
                        Schema({{"id", DataType::kBigint},
                                {"name", DataType::kVarchar}}),
                        /*unbounded=*/false})
                    .ok());
  }

  Result<QueryPlan> Bind(const std::string& sql) {
    auto stmt = sql::Parser::Parse(sql);
    if (!stmt.ok()) return stmt.status();
    Binder binder(&catalog_);
    return binder.Bind(**stmt);
  }

  QueryPlan MustBind(const std::string& sql) {
    auto plan = Bind(sql);
    EXPECT_TRUE(plan.ok()) << sql << "\n -> " << plan.status().ToString();
    return plan.ok() ? std::move(*plan) : QueryPlan{};
  }

  void ExpectBindError(const std::string& sql, const std::string& fragment) {
    auto plan = Bind(sql);
    ASSERT_FALSE(plan.ok()) << "expected bind failure for: " << sql;
    EXPECT_NE(plan.status().message().find(fragment), std::string::npos)
        << plan.status().ToString();
  }

  Catalog catalog_;
};

TEST_F(BinderTest, SimpleProjection) {
  QueryPlan plan = MustBind("SELECT price, item FROM Bid");
  ASSERT_NE(plan.root, nullptr);
  EXPECT_EQ(plan.output_schema.num_fields(), 2u);
  EXPECT_EQ(plan.output_schema.field(0).name, "price");
  EXPECT_EQ(plan.output_schema.field(0).type, DataType::kBigint);
  EXPECT_EQ(plan.root->kind(), LogicalNode::Kind::kProject);
}

TEST_F(BinderTest, StarExpansion) {
  QueryPlan plan = MustBind("SELECT * FROM Bid");
  EXPECT_EQ(plan.output_schema.num_fields(), 3u);
  EXPECT_EQ(plan.output_schema.field(0).name, "bidtime");
  EXPECT_TRUE(plan.output_schema.field(0).is_event_time);
}

TEST_F(BinderTest, EventTimePreservedByVerbatimForward) {
  QueryPlan plan = MustBind("SELECT bidtime, price FROM Bid");
  EXPECT_TRUE(plan.output_schema.field(0).is_event_time);
}

TEST_F(BinderTest, EventTimeDegradedByComputation) {
  // Section 5 / Appendix B.2: a computed expression over an event-time
  // column loses watermark alignment.
  QueryPlan plan =
      MustBind("SELECT bidtime + INTERVAL '1' MINUTE AS t FROM Bid");
  EXPECT_FALSE(plan.output_schema.field(0).is_event_time);
  EXPECT_EQ(plan.output_schema.field(0).type, DataType::kTimestamp);
}

TEST_F(BinderTest, AliasAndExprNames) {
  QueryPlan plan = MustBind("SELECT price AS p, price * 2 FROM Bid");
  EXPECT_EQ(plan.output_schema.field(0).name, "p");
  EXPECT_EQ(plan.output_schema.field(1).name, "EXPR$1");
}

TEST_F(BinderTest, UnknownColumnFails) {
  ExpectBindError("SELECT nosuch FROM Bid", "not found");
}

TEST_F(BinderTest, UnknownTableFails) {
  ExpectBindError("SELECT * FROM NoSuch", "not found");
}

TEST_F(BinderTest, QualifiedResolution) {
  QueryPlan plan = MustBind("SELECT b.price FROM Bid b");
  EXPECT_EQ(plan.output_schema.field(0).name, "price");
  ExpectBindError("SELECT Bid.price FROM Bid b", "unknown table alias");
}

TEST_F(BinderTest, TypeErrors) {
  ExpectBindError("SELECT price + item FROM Bid", "cannot apply");
  ExpectBindError("SELECT * FROM Bid WHERE price", "BOOLEAN");
  ExpectBindError("SELECT NOT price FROM Bid", "BOOLEAN");
}

TEST_F(BinderTest, TimestampIntervalArithmetic) {
  QueryPlan plan = MustBind(
      "SELECT bidtime - INTERVAL '10' MINUTE, "
      "bidtime - bidtime FROM Bid");
  EXPECT_EQ(plan.output_schema.field(0).type, DataType::kTimestamp);
  EXPECT_EQ(plan.output_schema.field(1).type, DataType::kInterval);
}

TEST_F(BinderTest, TumbleAppendsWindowColumns) {
  QueryPlan plan = MustBind(
      "SELECT * FROM Tumble(data => TABLE(Bid), "
      "timecol => DESCRIPTOR(bidtime), dur => INTERVAL '10' MINUTE) t");
  ASSERT_EQ(plan.output_schema.num_fields(), 5u);
  EXPECT_EQ(plan.output_schema.field(3).name, "wstart");
  EXPECT_EQ(plan.output_schema.field(4).name, "wend");
  EXPECT_TRUE(plan.output_schema.field(3).is_event_time);
  EXPECT_EQ(plan.output_schema.field(3).window_role, WindowRole::kStart);
  EXPECT_EQ(plan.output_schema.field(4).window_role, WindowRole::kEnd);
}

TEST_F(BinderTest, TumbleRequiresTimestampDescriptor) {
  ExpectBindError(
      "SELECT * FROM Tumble(data => TABLE(Bid), "
      "timecol => DESCRIPTOR(price), dur => INTERVAL '10' MINUTE) t",
      "TIMESTAMP");
}

TEST_F(BinderTest, TumbleRequiresIntervalDur) {
  ExpectBindError(
      "SELECT * FROM Tumble(data => TABLE(Bid), "
      "timecol => DESCRIPTOR(bidtime), dur => 10) t",
      "INTERVAL literal");
}

TEST_F(BinderTest, HopRequiresHopsize) {
  ExpectBindError(
      "SELECT * FROM Hop(data => TABLE(Bid), "
      "timecol => DESCRIPTOR(bidtime), dur => INTERVAL '10' MINUTE) t",
      "hopsize");
}

TEST_F(BinderTest, GroupByEventTimeWindow) {
  QueryPlan plan = MustBind(
      "SELECT wend, MAX(price) AS maxp "
      "FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime), "
      "dur => INTERVAL '10' MINUTE) t GROUP BY wend");
  EXPECT_EQ(plan.output_schema.field(0).name, "wend");
  EXPECT_TRUE(plan.output_schema.field(0).is_event_time);
  EXPECT_EQ(plan.output_schema.field(1).type, DataType::kBigint);
  // version key = the group-key output column.
  EXPECT_EQ(plan.version_key_columns, std::vector<size_t>{0});
  // completeness column = the window-end column.
  EXPECT_EQ(plan.completeness_column, 0u);
}

TEST_F(BinderTest, WindowSiblingFunctionalDependency) {
  // Listing 2/6: GROUP BY wend, but SELECT may reference wstart.
  QueryPlan plan = MustBind(
      "SELECT wstart, wend, MAX(price) AS maxp "
      "FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime), "
      "dur => INTERVAL '10' MINUTE) t GROUP BY wend");
  EXPECT_EQ(plan.output_schema.field(0).name, "wstart");
  EXPECT_EQ(plan.output_schema.field(0).window_role, WindowRole::kStart);
  EXPECT_EQ(plan.version_key_columns, (std::vector<size_t>{0, 1}));
  EXPECT_EQ(plan.completeness_column, 1u);
}

TEST_F(BinderTest, Extension2RequiresEventTimeGroupKeyOnStreams) {
  ExpectBindError("SELECT item, COUNT(*) FROM Bid GROUP BY item",
                  "Extension 2");
}

TEST_F(BinderTest, BoundedTablesMayGroupFreely) {
  QueryPlan plan =
      MustBind("SELECT name, COUNT(*) FROM Category GROUP BY name");
  EXPECT_EQ(plan.output_schema.num_fields(), 2u);
  EXPECT_FALSE(plan.root->unbounded());
}

TEST_F(BinderTest, UngroupedColumnRejected) {
  ExpectBindError(
      "SELECT item, MAX(price) FROM Tumble(data => TABLE(Bid), "
      "timecol => DESCRIPTOR(bidtime), dur => INTERVAL '10' MINUTE) t "
      "GROUP BY wend",
      "GROUP BY");
}

TEST_F(BinderTest, AggregateTypeRules) {
  QueryPlan plan = MustBind(
      "SELECT wend, COUNT(*) c, SUM(price) s, AVG(price) a, MIN(item) m "
      "FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime), "
      "dur => INTERVAL '10' MINUTE) t GROUP BY wend");
  EXPECT_EQ(plan.output_schema.field(1).type, DataType::kBigint);
  EXPECT_EQ(plan.output_schema.field(2).type, DataType::kBigint);
  EXPECT_EQ(plan.output_schema.field(3).type, DataType::kDouble);
  EXPECT_EQ(plan.output_schema.field(4).type, DataType::kVarchar);
}

TEST_F(BinderTest, SumRequiresNumeric) {
  ExpectBindError(
      "SELECT wend, SUM(item) FROM Tumble(data => TABLE(Bid), "
      "timecol => DESCRIPTOR(bidtime), dur => INTERVAL '10' MINUTE) t "
      "GROUP BY wend",
      "numeric");
}

TEST_F(BinderTest, NestedAggregateRejected) {
  ExpectBindError(
      "SELECT wend, MAX(SUM(price)) FROM Tumble(data => TABLE(Bid), "
      "timecol => DESCRIPTOR(bidtime), dur => INTERVAL '10' MINUTE) t "
      "GROUP BY wend",
      "nested");
}

TEST_F(BinderTest, HavingBindsOverAggregates) {
  QueryPlan plan = MustBind(
      "SELECT wend, COUNT(*) c FROM Tumble(data => TABLE(Bid), "
      "timecol => DESCRIPTOR(bidtime), dur => INTERVAL '10' MINUTE) t "
      "GROUP BY wend HAVING COUNT(*) > 1");
  // Plan shape: Project(Filter(Aggregate(...))).
  ASSERT_EQ(plan.root->kind(), LogicalNode::Kind::kProject);
  const auto& project = static_cast<const ProjectNode&>(*plan.root);
  EXPECT_EQ(project.input().kind(), LogicalNode::Kind::kFilter);
}

TEST_F(BinderTest, HavingWithoutGroupByRejected) {
  ExpectBindError("SELECT price FROM Bid HAVING price > 1", "HAVING");
}

TEST_F(BinderTest, EmitAfterWatermarkRequiresEventTime) {
  ExpectBindError("SELECT price FROM Bid EMIT AFTER WATERMARK",
                  "event-time");
  QueryPlan plan = MustBind("SELECT bidtime, price FROM Bid "
                            "EMIT AFTER WATERMARK");
  EXPECT_EQ(plan.completeness_column, 0u);
}

TEST_F(BinderTest, EmitOnlyTopLevel) {
  ExpectBindError(
      "SELECT * FROM (SELECT price FROM Bid EMIT STREAM) t",
      "top level");
}

TEST_F(BinderTest, PaperListing2Binds) {
  const char* sql = R"(
    SELECT
      MaxBid.wstart, MaxBid.wend,
      Bid.bidtime, Bid.price, Bid.item
    FROM
      Bid,
      (SELECT
         MAX(TumbleBid.price) maxPrice,
         TumbleBid.wstart wstart,
         TumbleBid.wend wend
       FROM
         Tumble(
           data    => TABLE(Bid),
           timecol => DESCRIPTOR(bidtime),
           dur     => INTERVAL '10' MINUTE) TumbleBid
       GROUP BY
         TumbleBid.wend) MaxBid
    WHERE
      Bid.price = MaxBid.maxPrice AND
      Bid.bidtime >= MaxBid.wend - INTERVAL '10' MINUTE AND
      Bid.bidtime < MaxBid.wend
  )";
  QueryPlan plan = MustBind(sql);
  ASSERT_EQ(plan.output_schema.num_fields(), 5u);
  EXPECT_EQ(plan.output_schema.field(0).name, "wstart");
  EXPECT_EQ(plan.output_schema.field(1).name, "wend");
  EXPECT_EQ(plan.output_schema.field(2).name, "bidtime");
  EXPECT_TRUE(plan.root->unbounded());
  // wend keeps the window-end role through derived table + join + project.
  EXPECT_EQ(plan.output_schema.field(1).window_role, WindowRole::kEnd);
}

TEST_F(BinderTest, DuplicateAliasRejected) {
  ExpectBindError("SELECT 1 AS x FROM Bid b, Category b", "duplicate");
}

TEST_F(BinderTest, AmbiguousColumnRejected) {
  // Both Bid (via b1) and Bid (via b2) have `price`.
  ExpectBindError("SELECT price FROM Bid b1, Bid b2", "ambiguous");
}

TEST_F(BinderTest, DistinctOverStreamRequiresEventTime) {
  ExpectBindError("SELECT DISTINCT item FROM Bid", "Extension 2");
  QueryPlan plan = MustBind("SELECT DISTINCT bidtime, item FROM Bid");
  EXPECT_EQ(plan.root->kind(), LogicalNode::Kind::kAggregate);
}

TEST_F(BinderTest, JoinOnCondition) {
  QueryPlan plan = MustBind(
      "SELECT b.item, c.name FROM Bid b JOIN Category c ON b.price = c.id");
  ASSERT_EQ(plan.root->kind(), LogicalNode::Kind::kProject);
  const auto& project = static_cast<const ProjectNode&>(*plan.root);
  EXPECT_EQ(project.input().kind(), LogicalNode::Kind::kJoin);
}

TEST_F(BinderTest, CountStarOnlyForCount) {
  ExpectBindError(
      "SELECT wend, SUM(*) FROM Tumble(data => TABLE(Bid), "
      "timecol => DESCRIPTOR(bidtime), dur => INTERVAL '10' MINUTE) t "
      "GROUP BY wend",
      "COUNT(*)");
}

TEST_F(BinderTest, OrderByBindsOverOutput) {
  QueryPlan plan = MustBind(
      "SELECT price AS p, item FROM Bid ORDER BY p DESC, item");
  ASSERT_EQ(plan.order_by.size(), 2u);
  EXPECT_TRUE(plan.order_by[0].second);
  EXPECT_FALSE(plan.order_by[1].second);
}

/// One expression shape over placeholders: $b BOOLEAN, $i BIGINT, $d DOUBLE,
/// $s VARCHAR. It must bind to `type`, or fail with `error`, alike in both
/// contexts.
struct ExprShape {
  const char* expr;
  DataType type;
  const char* error;  // nullptr: binds
};

const ExprShape kExprShapes[] = {
    {"CASE WHEN $b THEN $i ELSE $d END", DataType::kDouble, nullptr},
    {"CASE WHEN $b THEN $d ELSE $i END", DataType::kDouble, nullptr},
    {"CASE WHEN $b THEN $i END", DataType::kBigint, nullptr},
    {"CASE WHEN $b THEN NULL ELSE $s END", DataType::kVarchar, nullptr},
    {"CASE WHEN $i THEN 1 ELSE 2 END", DataType::kNull,
     "CASE WHEN condition must be BOOLEAN"},
    {"CASE WHEN $b THEN $i ELSE $s END", DataType::kNull,
     "CASE branches have incompatible types"},
    {"CASE WHEN $b THEN $s WHEN $b THEN $i END", DataType::kNull,
     "CASE branches have incompatible types"},
    {"COALESCE($i, $d)", DataType::kDouble, nullptr},
    {"COALESCE(NULL, $s)", DataType::kVarchar, nullptr},
    {"COALESCE($i, $s)", DataType::kNull,
     "COALESCE arguments have incompatible types"},
    {"CAST($i AS DOUBLE)", DataType::kDouble, nullptr},
    {"CAST($s AS BIGINT)", DataType::kNull, "cannot CAST VARCHAR to BIGINT"},
    {"$s IS NULL", DataType::kBoolean, nullptr},
    {"$i IS NOT NULL", DataType::kBoolean, nullptr},
    {"NOT $b", DataType::kBoolean, nullptr},
    {"NOT $i", DataType::kNull, "NOT requires a BOOLEAN operand"},
    {"-$d", DataType::kDouble, nullptr},
    {"-$s", DataType::kNull, "unary '-' requires a numeric operand"},
    {"$i + $d", DataType::kDouble, nullptr},
    {"$i % $d", DataType::kNull, "cannot apply '%'"},
    {"$i < $d", DataType::kBoolean, nullptr},
    {"$s = $i", DataType::kNull, "cannot apply 'comparison'"},
    {"$b AND $b", DataType::kBoolean, nullptr},
    {"UPPER($s)", DataType::kVarchar, nullptr},
    {"ABS($d)", DataType::kDouble, nullptr},
    {"UPPER($i)", DataType::kNull, "UPPER requires a VARCHAR argument"},
    {"UPPER(DISTINCT $s)", DataType::kNull,
     "DISTINCT is only valid in aggregates"},
    {"CURRENT_TIME", DataType::kNull, "CURRENT_TIME is only supported"},
};

/// `shape` with its placeholders over columns of T (scalar context) or over
/// aggregate calls of the same types (aggregate context).
std::string Instantiate(std::string shape, bool aggregate) {
  const std::pair<const char*, const char*> subs[] = {
      {"$b", aggregate ? "(COUNT(*) > 1)" : "(i > 1)"},
      {"$i", aggregate ? "SUM(i)" : "i"},
      {"$d", aggregate ? "SUM(d)" : "d"},
      {"$s", aggregate ? "MIN(s)" : "s"},
  };
  for (const auto& [from, to] : subs) {
    for (size_t at = shape.find(from); at != std::string::npos;
         at = shape.find(from, at)) {
      shape.replace(at, 2, to);
    }
  }
  return shape;
}

TEST_F(BinderTest, ExpressionShapesBindAlikeInScalarAndAggregateContext) {
  ASSERT_TRUE(catalog_
                  .Register(TableDef{"T",
                                     Schema({{"i", DataType::kBigint},
                                             {"d", DataType::kDouble},
                                             {"s", DataType::kVarchar}}),
                                     /*unbounded=*/false})
                  .ok());
  for (const ExprShape& shape : kExprShapes) {
    for (bool aggregate : {false, true}) {
      // COUNT(*) puts the select list in aggregate context even for shapes
      // without placeholders.
      const std::string sql = "SELECT " + Instantiate(shape.expr, aggregate) +
                              (aggregate ? " AS x, COUNT(*) AS n" : " AS x") +
                              " FROM T";
      SCOPED_TRACE(sql);
      auto plan = Bind(sql);
      if (shape.error == nullptr) {
        ASSERT_TRUE(plan.ok()) << plan.status().ToString();
        EXPECT_EQ(plan->output_schema.field(0).type, shape.type);
      } else {
        ASSERT_FALSE(plan.ok());
        EXPECT_NE(plan.status().message().find(shape.error),
                  std::string::npos)
            << plan.status().ToString();
      }
    }
  }
}

TEST_F(BinderTest, AggregateContextKeepsGroupKeysAndConstants) {
  // A subtree equal to a grouping key binds to the key's column; a constant
  // subtree stays a constant; a column outside the keys is rejected.
  QueryPlan plan = MustBind(
      "SELECT name, UPPER(name) AS u, CASE WHEN COUNT(*) > 1 THEN id + 1 "
      "ELSE 0 END AS c, 1 + 2 AS k FROM Category GROUP BY id, name");
  EXPECT_EQ(plan.output_schema.field(1).type, DataType::kVarchar);
  EXPECT_EQ(plan.output_schema.field(2).type, DataType::kBigint);
  EXPECT_EQ(plan.output_schema.field(3).type, DataType::kBigint);
  ExpectBindError("SELECT name, COUNT(*) + id FROM Category GROUP BY name",
                  "column 'id' must appear in the GROUP BY clause");
}

TEST_F(BinderTest, AggregateContextReportsAnUnknownColumnAsNotFound) {
  // A column that does not resolve is reported as such, not as a column
  // missing from the GROUP BY clause; a bound but ungrouped column keeps
  // the GROUP BY error.
  ExpectBindError("SELECT nosuch, COUNT(*) AS n FROM Category",
                  "column 'nosuch' not found");
  ExpectBindError("SELECT name, COUNT(*) AS n FROM Category",
                  "column 'name' must appear in the GROUP BY clause");
}

TEST_F(BinderTest, SumOverCaseWidensWithItsElseBranch) {
  QueryPlan plan = MustBind(
      "SELECT wend, SUM(CASE WHEN price > 1 THEN price ELSE 2.5 END) AS s "
      "FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime), "
      "dur => INTERVAL '10' MINUTE) t GROUP BY wend");
  EXPECT_EQ(plan.output_schema.field(1).type, DataType::kDouble);
}

}  // namespace
}  // namespace plan
}  // namespace onesql
