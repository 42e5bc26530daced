// Shared subtrees (DESIGN.md §18): NEXMark Q5 spells out one Hop ->
// COUNT(*) subquery twice, and the runtime compiles it once and fans its
// changes out to both consumers. A twin of Q5 whose second copy assigns the
// same windows through a different spelling canonicalizes differently, so
// it compiles both copies, as every plan did before sharing. The two must
// render bit-identically — stream (kind, row, ptime, ver) and the snapshot
// at every processing time — whatever the (inert) shard setting.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "nexmark/nexmark.h"

namespace onesql {
namespace {

/// Q5 whose second Hop is offset by one hop period: it assigns exactly the
/// windows of an unshifted Hop, but its canonical text differs from the
/// first copy's at the Hop, so nothing above the bare scans is shared. (An
/// always-true WHERE would sit above the Hop and leave the Hop shared.)
std::string Q5Twin() {
  std::string sql = nexmark::Q5();
  const std::string hop_h = "hopsize => INTERVAL '5' MINUTES) h";
  const size_t at = sql.find(hop_h);
  EXPECT_NE(at, std::string::npos);
  sql.insert(at + hop_h.size() - 3, ", offset => INTERVAL '5' MINUTES");
  return sql;
}

std::vector<FeedEvent> NexmarkFeed() {
  nexmark::GeneratorConfig config;
  config.seed = 7;
  config.num_events = 3000;
  config.mean_event_gap = Interval::Seconds(2);
  config.max_disorder = 20;
  return nexmark::Generator(config).Generate();
}

TEST(SharedSubtreeTest, Q5CompilesItsCountSubtreeOnce) {
  Engine engine;
  ASSERT_TRUE(nexmark::RegisterNexmark(&engine).ok());
  auto q5 = engine.Execute(nexmark::Q5());
  ASSERT_TRUE(q5.ok()) << q5.status().ToString();
  auto twin = engine.Execute(Q5Twin());
  ASSERT_TRUE(twin.ok()) << twin.status().ToString();
  EXPECT_NE((*q5)->plan_fingerprint(), (*twin)->plan_fingerprint());

  const exec::CompiledChain& shared = (*q5)->dataflow().chain();
  const exec::CompiledChain& copied = (*twin)->dataflow().chain();
  EXPECT_EQ(shared.fanouts.size(), 1u);
  EXPECT_TRUE(copied.fanouts.empty());
  // One Bid scan, one Hop and one COUNT aggregate fewer than the twin.
  EXPECT_EQ(shared.aggregates.size(), 2u);
  EXPECT_EQ(copied.aggregates.size(), 3u);
  EXPECT_EQ(copied.operators.size(), shared.operators.size() + 3);
  // Both Bid events reach the one scan first, then the replay to MaxCnt.
  ASSERT_EQ(shared.sources.count("bid"), 1u);
  const std::vector<exec::SourceStep>& steps = shared.sources.at("bid");
  ASSERT_EQ(steps.size(), 2u);
  EXPECT_NE(steps[0].scan, nullptr);
  EXPECT_EQ(steps[1].scan, nullptr);
  EXPECT_EQ(steps[1].consumer, 1);
  // The tree positions still name every operator of both copies.
  EXPECT_EQ(shared.positions.size(), copied.positions.size());
}

/// Feeds `feed` in 500-event calls, so runs cross push boundaries too;
/// `between` runs after every call but the last.
void FeedInSlices(Engine* engine, const std::vector<FeedEvent>& feed,
                  const std::function<void()>& between = {}) {
  for (size_t begin = 0; begin < feed.size(); begin += 500) {
    const size_t end = std::min(feed.size(), begin + 500);
    ASSERT_TRUE(engine
                    ->Feed(std::vector<FeedEvent>(feed.begin() + begin,
                                                  feed.begin() + end))
                    .ok());
    if (end < feed.size() && between) between();
  }
}

void ExpectSameStream(const ContinuousQuery& q, const ContinuousQuery& twin) {
  const std::vector<Row> stream = q.StreamRows();
  const std::vector<Row> twin_stream = twin.StreamRows();
  ASSERT_GT(stream.size(), 100u);
  ASSERT_EQ(stream.size(), twin_stream.size());
  for (size_t i = 0; i < stream.size(); ++i) {
    ASSERT_TRUE(RowsEqual(stream[i], twin_stream[i]))
        << "stream row " << i << ": " << RowToString(stream[i]) << " vs "
        << RowToString(twin_stream[i]);
  }
}

/// Runs `sql` and `twin_sql` side by side over the NEXMark feed and
/// compares their stream renderings.
void ExpectSameStream(const std::string& sql, const std::string& twin_sql) {
  Engine engine;
  ASSERT_TRUE(nexmark::RegisterNexmark(&engine).ok());
  auto q = engine.Execute(sql);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  auto twin = engine.Execute(twin_sql);
  ASSERT_TRUE(twin.ok()) << twin.status().ToString();
  FeedInSlices(&engine, NexmarkFeed());
  ExpectSameStream(**q, **twin);
}

TEST(SharedSubtreeTest, ReplayKeepsItsPlaceBetweenOtherScans) {
  // Pre-order reads Bid through the first COUNT copy, its second copy, and
  // then an unshared Tumble MAX. The replay to the second copy's consumer
  // must run before the Tumble branch sees the event, as the second copy's
  // own scan did, or the outer join emits in a different order.
  auto sql = [](const std::string& second_copy_offset) {
    const std::string hop =
        "Hop(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime), "
        "dur => INTERVAL '10' MINUTES, hopsize => INTERVAL '5' MINUTES";
    return "SELECT a.wend, a.auction, a.c, b.c AS c2, o.mx FROM "
           "(SELECT wend, auction, COUNT(*) c FROM " + hop +
           ") h GROUP BY wend, auction) a, "
           "(SELECT wend, auction, COUNT(*) c FROM " + hop +
           second_copy_offset + ") h2 GROUP BY wend, auction) b, "
           "(SELECT wend, auction, MAX(price) mx FROM Tumble(data => "
           "TABLE(Bid), timecol => DESCRIPTOR(bidtime), "
           "dur => INTERVAL '10' MINUTES) t GROUP BY wend, auction) o "
           "WHERE a.wend = b.wend AND a.auction = b.auction AND "
           "a.wend = o.wend AND a.auction = o.auction";
  };
  const std::string shared = sql("");
  const std::string twin = sql(", offset => INTERVAL '5' MINUTES");
  {
    Engine engine;
    ASSERT_TRUE(nexmark::RegisterNexmark(&engine).ok());
    auto q = engine.Execute(shared);
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    const std::vector<exec::SourceStep>& steps =
        (*q)->dataflow().chain().sources.at("bid");
    ASSERT_EQ(steps.size(), 3u);
    EXPECT_NE(steps[0].scan, nullptr);
    EXPECT_EQ(steps[1].scan, nullptr) << "the replay sits between the scans";
    EXPECT_NE(steps[2].scan, nullptr);
  }
  ExpectSameStream(shared, twin);
}

TEST(SharedSubtreeTest, NestedSharingRendersLikeFourCopies) {
  // A self-join of one COUNT subquery, itself repeated: the inner fan-out
  // replays into the join, whose own fan-out replays to the outer join.
  // The twin spells each of the four COUNT copies with a different (but
  // equivalent) offset, so it shares nothing.
  auto count = [](int offset_minutes) {
    return "(SELECT wend, auction, COUNT(*) c FROM Hop(data => TABLE(Bid), "
           "timecol => DESCRIPTOR(bidtime), dur => INTERVAL '10' MINUTES, "
           "hopsize => INTERVAL '5' MINUTES, offset => INTERVAL '" +
           std::to_string(offset_minutes) +
           "' MINUTES) h GROUP BY wend, auction)";
  };
  auto pair = [&](int first, int second) {
    return "(SELECT a.wend, a.auction, a.c, b.c AS c2 FROM " + count(first) +
           " a, " + count(second) +
           " b WHERE a.wend = b.wend AND a.auction = b.auction)";
  };
  auto sql = [&](int o1, int o2, int o3, int o4) {
    return "SELECT x.wend, x.auction, x.c, y.c2 FROM " + pair(o1, o2) +
           " x, " + pair(o3, o4) +
           " y WHERE x.wend = y.wend AND x.auction = y.auction";
  };
  const std::string shared = sql(0, 0, 0, 0);
  {
    Engine engine;
    ASSERT_TRUE(nexmark::RegisterNexmark(&engine).ok());
    auto q = engine.Execute(shared);
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    const exec::CompiledChain& chain = (*q)->dataflow().chain();
    EXPECT_EQ(chain.fanouts.size(), 2u);
    EXPECT_EQ(chain.sources.at("bid").size(), 3u);
    EXPECT_EQ(chain.aggregates.size(), 1u);
  }
  ExpectSameStream(shared, sql(0, 5, 10, 15));
}

class SharedSubtreeShardsTest : public ::testing::TestWithParam<int> {};

TEST_P(SharedSubtreeShardsTest, Q5RendersLikeItsUnsharedTwin) {
  const std::vector<FeedEvent> feed = NexmarkFeed();
  Engine engine;
  ASSERT_TRUE(nexmark::RegisterNexmark(&engine).ok());
  ExecutionOptions options;
  options.shards = GetParam();
  auto q5 = engine.Execute(nexmark::Q5(), options);
  ASSERT_TRUE(q5.ok()) << q5.status().ToString();
  auto twin = engine.Execute(Q5Twin(), options);
  ASSERT_TRUE(twin.ok()) << twin.status().ToString();
  ASSERT_EQ((*q5)->dataflow().chain().fanouts.size(), 1u);
  // The COUNT aggregate's state is held once, not twice.
  FeedInSlices(&engine, feed, [&] {
    EXPECT_LT((*q5)->StateBytes(), (*twin)->StateBytes());
  });
  ExpectSameStream(**q5, **twin);
  std::set<Timestamp> ptimes;
  for (const FeedEvent& event : feed) ptimes.insert(event.ptime);
  for (Timestamp ptime : ptimes) {
    auto a = (*q5)->SnapshotAt(ptime);
    auto b = (*twin)->SnapshotAt(ptime);
    ASSERT_TRUE(a.ok() && b.ok());
    ASSERT_EQ(a->size(), b->size()) << "snapshot at " << ptime.ToString();
    for (size_t i = 0; i < a->size(); ++i) {
      ASSERT_TRUE(RowsEqual((*a)[i], (*b)[i]))
          << "snapshot at " << ptime.ToString() << " row " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, SharedSubtreeShardsTest,
                         ::testing::Values(1, 2),
                         [](const auto& info) {
                           return "N" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace onesql
