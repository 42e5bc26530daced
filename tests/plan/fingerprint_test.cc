// Canonical plan fingerprints (plan/fingerprint.h) back the server's
// multi-tenant plan sharing, so these tests pin the contract exactly:
// fingerprints must be invariant under cosmetic rewrites (alias renaming,
// AND-conjunct order) and distinct for anything observable (window width,
// EMIT clause, lateness, projection order, filter thresholds). A false
// merge here would silently serve one tenant another tenant's query. The
// same holds per subtree: the runtime shares equal subtrees within a plan.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "engine/engine.h"
#include "exec/dataflow.h"
#include "plan/fingerprint.h"

namespace onesql {
namespace {

Schema BidSchema() {
  return Schema({{"bidtime", DataType::kTimestamp, true},
                 {"price", DataType::kBigint},
                 {"item", DataType::kVarchar}});
}

/// Plans `sql` on a fresh engine with the Bid stream registered and
/// fingerprints the result.
plan::PlanFingerprint Fingerprint(const std::string& sql,
                                  Interval lateness = Interval::Millis(0)) {
  Engine engine;
  EXPECT_TRUE(engine.RegisterStream("Bid", BidSchema()).ok());
  auto plan = engine.Plan(sql);
  EXPECT_TRUE(plan.ok()) << sql << ": " << plan.status().ToString();
  plan->allowed_lateness = lateness;
  return plan::FingerprintPlan(*plan);
}

constexpr const char* kTumbleMax =
    "SELECT wstart, wend, MAX(price) AS maxPrice "
    "FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime), "
    "dur => INTERVAL '10' MINUTES) t GROUP BY wend "
    "EMIT STREAM";

TEST(PlanFingerprintTest, SameQuerySameFingerprint) {
  const plan::PlanFingerprint a = Fingerprint(kTumbleMax);
  const plan::PlanFingerprint b = Fingerprint(kTumbleMax);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.ToHex(), b.ToHex());
  EXPECT_FALSE(a.canonical.empty());
  EXPECT_EQ(a.ToHex().size(), 32u);  // two 64-bit halves in hex
}

TEST(PlanFingerprintTest, AliasRenamingIsInvariant) {
  // Output aliases and TVF table aliases are client-side names; canonical
  // plans refer to columns positionally, so renames must collide.
  const plan::PlanFingerprint a = Fingerprint(
      "SELECT wstart, wend, MAX(price) AS maxPrice "
      "FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime), "
      "dur => INTERVAL '10' MINUTES) t GROUP BY wend "
      "EMIT STREAM");
  const plan::PlanFingerprint b = Fingerprint(
      "SELECT wstart, wend, MAX(price) AS highestBid "
      "FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime), "
      "dur => INTERVAL '10' MINUTES) windowed GROUP BY wend "
      "EMIT STREAM");
  EXPECT_EQ(a, b);
}

TEST(PlanFingerprintTest, ConjunctOrderIsInvariant) {
  const plan::PlanFingerprint a = Fingerprint(
      "SELECT bidtime, price FROM Bid "
      "WHERE price >= 3 AND price <= 7 EMIT STREAM");
  const plan::PlanFingerprint b = Fingerprint(
      "SELECT bidtime, price FROM Bid "
      "WHERE price <= 7 AND price >= 3 EMIT STREAM");
  EXPECT_EQ(a, b);
}

TEST(PlanFingerprintTest, WindowWidthIsDistinct) {
  const plan::PlanFingerprint ten = Fingerprint(kTumbleMax);
  const plan::PlanFingerprint five = Fingerprint(
      "SELECT wstart, wend, MAX(price) AS maxPrice "
      "FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime), "
      "dur => INTERVAL '5' MINUTES) t GROUP BY wend "
      "EMIT STREAM");
  EXPECT_NE(ten, five);
}

TEST(PlanFingerprintTest, EmitClauseIsDistinct) {
  const plan::PlanFingerprint stream = Fingerprint(kTumbleMax);
  const plan::PlanFingerprint gated = Fingerprint(
      "SELECT wstart, wend, MAX(price) AS maxPrice "
      "FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime), "
      "dur => INTERVAL '10' MINUTES) t GROUP BY wend "
      "EMIT STREAM AFTER WATERMARK");
  EXPECT_NE(stream, gated);
}

TEST(PlanFingerprintTest, AllowedLatenessIsDistinct) {
  // Lateness changes which rows a shared operator drops, so two tenants
  // with different lateness budgets must not share state.
  const plan::PlanFingerprint none = Fingerprint(kTumbleMax);
  const plan::PlanFingerprint two_minutes =
      Fingerprint(kTumbleMax, Interval::Millis(120000));
  EXPECT_NE(none, two_minutes);
}

TEST(PlanFingerprintTest, ProjectionOrderIsDistinct) {
  // Column order is observable in every rendered row; reordering the select
  // list is a different query.
  const plan::PlanFingerprint a =
      Fingerprint("SELECT bidtime, price FROM Bid EMIT STREAM");
  const plan::PlanFingerprint b =
      Fingerprint("SELECT price, bidtime FROM Bid EMIT STREAM");
  EXPECT_NE(a, b);
}

TEST(PlanFingerprintTest, FilterThresholdIsDistinct) {
  const plan::PlanFingerprint a = Fingerprint(
      "SELECT bidtime, price FROM Bid WHERE price >= 3 EMIT STREAM");
  const plan::PlanFingerprint b = Fingerprint(
      "SELECT bidtime, price FROM Bid WHERE price >= 4 EMIT STREAM");
  EXPECT_NE(a, b);
}

TEST(PlanFingerprintTest, ExecuteExposesTheFingerprint) {
  Engine engine;
  ASSERT_TRUE(engine.RegisterStream("Bid", BidSchema()).ok());
  auto q = engine.Execute(kTumbleMax);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ((*q)->plan_fingerprint(), Fingerprint(kTumbleMax));
}

// -- Subtrees ----------------------------------------------------------------
// The runtime compiles each distinct subtree once (DESIGN.md §18), keyed by
// the same canonical text, so the subtree contract is the whole-plan one:
// alias-only differences share, anything observable does not.

/// Two keyed windowed COUNT subqueries over Bid joined on (wend, item); the
/// second is spelled with `second_window` and `second_keys`, and aliases
/// everything differently from the first.
std::string TwoCounts(const std::string& second_window,
                      const std::string& second_keys) {
  return "SELECT a.wend, a.item, a.c, b.n FROM "
         "(SELECT wend, item, COUNT(*) c FROM Hop(data => TABLE(Bid), "
         "timecol => DESCRIPTOR(bidtime), dur => INTERVAL '10' MINUTES, "
         "hopsize => INTERVAL '5' MINUTES) t GROUP BY wend, item) a, "
         "(SELECT wend AS e, item AS i, COUNT(*) AS n FROM " +
         second_window + " w GROUP BY " + second_keys +
         ") b WHERE a.wend = b.e AND a.item = b.i";
}

constexpr const char* kSameHop =
    "Hop(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime), "
    "dur => INTERVAL '10' MINUTES, hopsize => INTERVAL '5' MINUTES)";

/// Canonical texts of the plan's Aggregate nodes, in pre-order.
std::vector<std::string> AggregateCanons(const std::string& sql) {
  Engine engine;
  EXPECT_TRUE(engine.RegisterStream("Bid", BidSchema()).ok());
  auto plan = engine.Plan(sql);
  EXPECT_TRUE(plan.ok()) << sql << ": " << plan.status().ToString();
  if (!plan.ok()) return {};
  const plan::SubtreeCanon canon = plan::CanonicalizeSubtrees(*plan->root);
  std::vector<std::string> out;
  std::vector<const plan::LogicalNode*> stack = {plan->root.get()};
  while (!stack.empty()) {
    const plan::LogicalNode* node = stack.back();
    stack.pop_back();
    if (node->kind() == plan::LogicalNode::Kind::kAggregate) {
      out.push_back(canon.at(node));
    }
    const std::vector<const plan::LogicalNode*> inputs = plan::Inputs(*node);
    stack.insert(stack.end(), inputs.rbegin(), inputs.rend());
  }
  return out;
}

TEST(SubtreeFingerprintTest, PlanFingerprintIsTheRootSubtreeText) {
  Engine engine;
  ASSERT_TRUE(engine.RegisterStream("Bid", BidSchema()).ok());
  auto plan = engine.Plan(kTumbleMax);
  ASSERT_TRUE(plan.ok());
  const plan::SubtreeCanon canon = plan::CanonicalizeSubtrees(*plan->root);
  EXPECT_EQ(plan::FingerprintPlan(*plan).canonical.rfind(
                "v1;" + canon.at(plan->root.get()) + ";emit=", 0),
            0u);
}

TEST(SubtreeFingerprintTest, AliasOnlyDifferencesAreShared) {
  const std::string sql = TwoCounts(kSameHop, "wend, item");
  const std::vector<std::string> aggs = AggregateCanons(sql);
  ASSERT_EQ(aggs.size(), 2u);
  EXPECT_EQ(aggs[0], aggs[1]);

  Engine engine;
  ASSERT_TRUE(engine.RegisterStream("Bid", BidSchema()).ok());
  auto q = engine.Execute(sql);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  const exec::CompiledChain& chain = (*q)->dataflow().chain();
  EXPECT_EQ(chain.fanouts.size(), 1u);
  EXPECT_EQ(chain.aggregates.size(), 1u);
  EXPECT_EQ(chain.sources.at("bid").size(), 2u)
      << "one scan plus one replay step";
}

TEST(SubtreeFingerprintTest, WindowSizeIsNotShared) {
  const std::vector<std::string> aggs = AggregateCanons(TwoCounts(
      "Hop(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime), "
      "dur => INTERVAL '20' MINUTES, hopsize => INTERVAL '5' MINUTES)",
      "wend, item"));
  ASSERT_EQ(aggs.size(), 2u);
  EXPECT_NE(aggs[0], aggs[1]);
}

TEST(SubtreeFingerprintTest, HopSizeIsNotShared) {
  const std::string sql = TwoCounts(
      "Hop(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime), "
      "dur => INTERVAL '10' MINUTES, hopsize => INTERVAL '2' MINUTES)",
      "wend, item");
  const std::vector<std::string> aggs = AggregateCanons(sql);
  ASSERT_EQ(aggs.size(), 2u);
  EXPECT_NE(aggs[0], aggs[1]);
  Engine engine;
  ASSERT_TRUE(engine.RegisterStream("Bid", BidSchema()).ok());
  auto q = engine.Execute(sql);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_TRUE((*q)->dataflow().chain().fanouts.empty());
}

TEST(SubtreeFingerprintTest, KeyOrderIsNotShared) {
  const std::string sql = TwoCounts(kSameHop, "item, wend");
  const std::vector<std::string> aggs = AggregateCanons(sql);
  ASSERT_EQ(aggs.size(), 2u);
  EXPECT_NE(aggs[0], aggs[1]);
  // The Hop below both aggregates is the same subtree and is shared; the
  // aggregates are compiled twice.
  Engine engine;
  ASSERT_TRUE(engine.RegisterStream("Bid", BidSchema()).ok());
  auto q = engine.Execute(sql);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ((*q)->dataflow().chain().aggregates.size(), 2u);
  EXPECT_EQ((*q)->dataflow().chain().fanouts.size(), 1u);
}

TEST(SubtreeFingerprintTest, BareScansAreNeverShared) {
  Engine engine;
  ASSERT_TRUE(engine.RegisterStream("Bid", BidSchema()).ok());
  auto q = engine.Execute(
      "SELECT a.price, b.bidtime FROM Bid a, Bid b WHERE a.item = b.item");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  const exec::CompiledChain& chain = (*q)->dataflow().chain();
  EXPECT_TRUE(chain.fanouts.empty());
  ASSERT_EQ(chain.sources.at("bid").size(), 2u);
  EXPECT_NE(chain.sources.at("bid")[0].scan, nullptr);
  EXPECT_NE(chain.sources.at("bid")[1].scan, nullptr);
}

}  // namespace
}  // namespace onesql
