// Property tests for the paper's central claims about time-varying
// relations:
//
//  1. Stream/table duality (Section 3.3.1): accumulating the EMIT STREAM
//     changelog of a query reconstructs exactly the table rendering of the
//     same query.
//  2. Pointwise semantics: the final result depends only on the relation's
//     contents, not on the processing-time order in which rows arrived
//     (evaluated over feeds with random out-of-orderness vs. event-time
//     ordered replays).
//  3. EMIT AFTER WATERMARK converges to the same final result once the
//     input is complete, while only ever materializing final rows.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "engine/engine.h"

namespace onesql {
namespace {

// gtest names each case after the raw bytes of its parameter. The numeric
// fields lead so that the name does not depend on where the linker places
// the string literals.
struct DualityParam {
  uint32_t seed;
  int num_events;
  int max_disorder;  // how far an event may be displaced in arrival order
  const char* name;
  const char* query;
};

constexpr const char* kTumbleMax =
    "SELECT wstart, wend, MAX(price) AS maxPrice "
    "FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime), "
    "dur => INTERVAL '10' MINUTES) t GROUP BY wend";

constexpr const char* kTumbleMulti =
    "SELECT wend, COUNT(*) AS c, SUM(price) AS s, AVG(price) AS a, "
    "MIN(item) AS lo, MAX(item) AS hi "
    "FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime), "
    "dur => INTERVAL '7' MINUTES) t GROUP BY wend";

constexpr const char* kHopSum =
    "SELECT wstart, wend, SUM(price) AS total "
    "FROM Hop(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime), "
    "dur => INTERVAL '10' MINUTES, hopsize => INTERVAL '4' MINUTES) t "
    "GROUP BY wend";

constexpr const char* kFilterProject =
    "SELECT bidtime, price * 2 AS dbl, item FROM Bid WHERE price > 5";

constexpr const char* kQ7 =
    "SELECT MaxBid.wstart, MaxBid.wend, Bid.bidtime, Bid.price, Bid.item "
    "FROM Bid, "
    "(SELECT MAX(t.price) maxPrice, t.wstart wstart, t.wend wend "
    " FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime), "
    "             dur => INTERVAL '10' MINUTE) t "
    " GROUP BY t.wend) MaxBid "
    "WHERE Bid.price = MaxBid.maxPrice "
    "AND Bid.bidtime >= MaxBid.wend - INTERVAL '10' MINUTE "
    "AND Bid.bidtime < MaxBid.wend";

class DualityTest : public ::testing::TestWithParam<DualityParam> {
 protected:
  struct Event {
    Timestamp event_time;
    int64_t price;
    std::string item;
  };

  static Schema BidSchema() {
    return Schema({{"bidtime", DataType::kTimestamp, true},
                   {"price", DataType::kBigint},
                   {"item", DataType::kVarchar}});
  }

  static Row ToRow(const Event& e) {
    return {Value::Time(e.event_time), Value::Int64(e.price),
            Value::String(e.item)};
  }

  /// Generates events in arrival order with bounded displacement from
  /// event-time order, so watermarks can be perfect (no late drops).
  static std::vector<Event> GenerateArrivals(uint32_t seed, int n,
                                             int max_disorder) {
    std::mt19937 rng(seed);
    std::vector<Event> events;
    events.reserve(n);
    int64_t t = Timestamp::FromHMS(8, 0).millis();
    for (int i = 0; i < n; ++i) {
      t += 1 + static_cast<int64_t>(rng() % 120'000);  // unique event times
      Event e;
      e.event_time = Timestamp(t);
      e.price = static_cast<int64_t>(rng() % 100);
      e.item = std::string(1, static_cast<char>('A' + rng() % 26));
      events.push_back(std::move(e));
    }
    // Bounded shuffle: swap each element with a random earlier position
    // within the disorder budget.
    for (int i = n - 1; i > 0; --i) {
      const int lo = std::max(0, i - max_disorder);
      const int j = lo + static_cast<int>(rng() % (i - lo + 1));
      std::swap(events[i], events[j]);
    }
    return events;
  }

  /// Feeds arrivals with perfect watermarks (min over future event times).
  static void FeedWithPerfectWatermarks(Engine* engine,
                                        const std::vector<Event>& arrivals) {
    const int n = static_cast<int>(arrivals.size());
    // min_future[i] = min event time of arrivals[i..].
    std::vector<Timestamp> min_future(n + 1, Timestamp::Max());
    for (int i = n - 1; i >= 0; --i) {
      min_future[i] =
          std::min(min_future[i + 1], arrivals[i].event_time);
    }
    Timestamp ptime = Timestamp::FromHMS(8, 0);
    for (int i = 0; i < n; ++i) {
      ptime = ptime + Interval::Seconds(30);
      ASSERT_TRUE(
          engine->Insert("Bid", ptime, ToRow(arrivals[i])).ok());
      if (i % 3 == 2) {
        ptime = ptime + Interval::Seconds(1);
        const Timestamp wm = min_future[i + 1] - Interval::Millis(1);
        ASSERT_TRUE(engine->AdvanceWatermark("Bid", ptime, wm).ok());
      }
    }
    // Final watermark: input complete.
    ptime = ptime + Interval::Seconds(1);
    ASSERT_TRUE(
        engine->AdvanceWatermark("Bid", ptime, Timestamp::Max()).ok());
  }

  static std::vector<Row> Sorted(std::vector<Row> rows) {
    std::sort(rows.begin(), rows.end(),
              [](const Row& a, const Row& b) { return CompareRows(a, b) < 0; });
    return rows;
  }

  /// Reconstructs the final relation from a changelog of emissions.
  static std::vector<Row> AccumulateEmissions(
      const std::vector<exec::Emission>& emissions) {
    std::map<Row, int64_t, RowLess> bag;
    for (const auto& e : emissions) {
      if (e.undo) {
        auto it = bag.find(e.row);
        EXPECT_NE(it, bag.end()) << "undo of absent row " << e.ToString();
        if (it != bag.end() && --it->second == 0) bag.erase(it);
      } else {
        bag[e.row] += 1;
      }
    }
    std::vector<Row> rows;
    for (const auto& [row, count] : bag) {
      for (int64_t i = 0; i < count; ++i) rows.push_back(row);
    }
    return rows;
  }

  static void ExpectSameRows(const std::vector<Row>& a,
                             const std::vector<Row>& b,
                             const std::string& what) {
    const auto sa = Sorted(a);
    const auto sb = Sorted(b);
    ASSERT_EQ(sa.size(), sb.size()) << what;
    for (size_t i = 0; i < sa.size(); ++i) {
      EXPECT_TRUE(RowsEqual(sa[i], sb[i]))
          << what << " row " << i << ": " << RowToString(sa[i]) << " vs "
          << RowToString(sb[i]);
    }
  }
};

TEST_P(DualityTest, StreamChangelogReconstructsTable) {
  const DualityParam& param = GetParam();
  Engine engine;
  ASSERT_TRUE(engine.RegisterStream("Bid", BidSchema()).ok());

  auto table_q = engine.Execute(param.query);
  ASSERT_TRUE(table_q.ok()) << table_q.status().ToString();
  auto stream_q =
      engine.Execute(std::string(param.query) + " EMIT STREAM");
  ASSERT_TRUE(stream_q.ok()) << stream_q.status().ToString();

  const auto arrivals =
      GenerateArrivals(param.seed, param.num_events, param.max_disorder);
  FeedWithPerfectWatermarks(&engine, arrivals);

  auto snapshot = (*table_q)->CurrentSnapshot();
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  const auto from_changelog = AccumulateEmissions((*stream_q)->Emissions());
  ExpectSameRows(*snapshot, from_changelog, "stream/table duality");
}

TEST_P(DualityTest, ResultIndependentOfArrivalOrder) {
  const DualityParam& param = GetParam();
  const auto arrivals =
      GenerateArrivals(param.seed, param.num_events, param.max_disorder);

  // Out-of-order feed with watermarks.
  Engine ooo;
  ASSERT_TRUE(ooo.RegisterStream("Bid", BidSchema()).ok());
  auto q1 = ooo.Execute(param.query);
  ASSERT_TRUE(q1.ok()) << q1.status().ToString();
  FeedWithPerfectWatermarks(&ooo, arrivals);

  // Event-time-ordered replay, no watermarks at all.
  Engine ordered;
  ASSERT_TRUE(ordered.RegisterStream("Bid", BidSchema()).ok());
  auto q2 = ordered.Execute(param.query);
  ASSERT_TRUE(q2.ok()) << q2.status().ToString();
  auto sorted_events = arrivals;
  std::sort(sorted_events.begin(), sorted_events.end(),
            [](const Event& a, const Event& b) {
              return a.event_time < b.event_time;
            });
  Timestamp ptime = Timestamp::FromHMS(8, 0);
  for (const Event& e : sorted_events) {
    ptime = ptime + Interval::Seconds(30);
    ASSERT_TRUE(ordered.Insert("Bid", ptime, ToRow(e)).ok());
  }

  auto s1 = (*q1)->CurrentSnapshot();
  auto s2 = (*q2)->CurrentSnapshot();
  ASSERT_TRUE(s1.ok() && s2.ok());
  ExpectSameRows(*s1, *s2, "arrival-order independence");
}

TEST_P(DualityTest, AfterWatermarkConvergesToSameFinalResult) {
  const DualityParam& param = GetParam();
  Engine engine;
  ASSERT_TRUE(engine.RegisterStream("Bid", BidSchema()).ok());

  auto instant_q = engine.Execute(param.query);
  ASSERT_TRUE(instant_q.ok()) << instant_q.status().ToString();
  auto gated_q =
      engine.Execute(std::string(param.query) + " EMIT AFTER WATERMARK");
  ASSERT_TRUE(gated_q.ok()) << gated_q.status().ToString();

  const auto arrivals =
      GenerateArrivals(param.seed, param.num_events, param.max_disorder);
  FeedWithPerfectWatermarks(&engine, arrivals);

  auto instant = (*instant_q)->CurrentSnapshot();
  auto gated = (*gated_q)->CurrentSnapshot();
  ASSERT_TRUE(instant.ok() && gated.ok());
  ExpectSameRows(*instant, *gated, "after-watermark convergence");

  // And the gated stream never retracted anything: every emission is final.
  for (const auto& e : (*gated_q)->Emissions()) {
    EXPECT_FALSE(e.undo) << e.ToString();
    EXPECT_EQ(e.ver, 0) << e.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, DualityTest,
    ::testing::Values(
        DualityParam{1, 60, 0, "tumble_max_ordered", kTumbleMax},
        DualityParam{2, 60, 8, "tumble_max_disorder", kTumbleMax},
        DualityParam{3, 80, 6, "tumble_multi_agg", kTumbleMulti},
        DualityParam{4, 60, 5, "hop_sum", kHopSum},
        DualityParam{5, 50, 10, "filter_project", kFilterProject},
        DualityParam{6, 40, 4, "q7_join", kQ7},
        DualityParam{7, 60, 20, "q7_join_heavy_disorder", kQ7},
        DualityParam{8, 300, 15, "tumble_max_large", kTumbleMax}),
    [](const auto& info) { return info.param.name; });

}  // namespace
}  // namespace onesql
