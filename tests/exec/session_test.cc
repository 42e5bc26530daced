// Tests for the Session windowing TVF (the paper's Section 8 future work),
// exercised end-to-end through the engine.

#include <gtest/gtest.h>

#include <random>

#include "engine/engine.h"

namespace onesql {
namespace {

Timestamp T(int h, int m) { return Timestamp::FromHMS(h, m); }

class SessionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(engine_
                    .RegisterStream(
                        "Clicks", Schema({{"ts", DataType::kTimestamp, true},
                                          {"user_id", DataType::kBigint},
                                          {"page", DataType::kVarchar}}))
                    .ok());
  }

  Status Click(int pm, int em, int64_t user, const std::string& page) {
    return engine_.Insert(
        "Clicks", T(9, pm),
        {Value::Time(T(8, em)), Value::Int64(user), Value::String(page)});
  }

  Status Unclick(int pm, int em, int64_t user, const std::string& page) {
    return engine_.Delete(
        "Clicks", T(9, pm),
        {Value::Time(T(8, em)), Value::Int64(user), Value::String(page)});
  }

  static constexpr const char* kRaw =
      "SELECT * FROM Session(data => TABLE(Clicks), "
      "timecol => DESCRIPTOR(ts), gap => INTERVAL '5' MINUTES, "
      "key => DESCRIPTOR(user_id)) s";

  Engine engine_;
};

TEST_F(SessionTest, SingleSessionBounds) {
  auto q = engine_.Execute(kRaw);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_TRUE(Click(1, 0, 1, "a").ok());
  ASSERT_TRUE(Click(2, 3, 1, "b").ok());   // within gap: same session
  auto rows = (*q)->CurrentSnapshot();
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 2u);
  for (const Row& row : *rows) {
    EXPECT_EQ(row[3], Value::Time(T(8, 0)));  // wstart = min ts
    EXPECT_EQ(row[4], Value::Time(T(8, 8)));  // wend = max ts + gap
  }
}

TEST_F(SessionTest, GapSplitsSessions) {
  auto q = engine_.Execute(kRaw);
  ASSERT_TRUE(q.ok());
  ASSERT_TRUE(Click(1, 0, 1, "a").ok());
  ASSERT_TRUE(Click(2, 10, 1, "b").ok());  // 10 > 5 min gap: new session
  auto rows = (*q)->CurrentSnapshot();
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 2u);
  // Two distinct sessions.
  EXPECT_EQ((*rows)[0][4], Value::Time(T(8, 5)));
  EXPECT_EQ((*rows)[1][3], Value::Time(T(8, 10)));
}

TEST_F(SessionTest, ExactGapDoesNotMerge) {
  auto q = engine_.Execute(kRaw);
  ASSERT_TRUE(q.ok());
  ASSERT_TRUE(Click(1, 0, 1, "a").ok());
  ASSERT_TRUE(Click(2, 5, 1, "b").ok());  // exactly gap apart: separate
  auto rows = (*q)->CurrentSnapshot();
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ((*rows)[0][4], Value::Time(T(8, 5)));
  EXPECT_EQ((*rows)[1][3], Value::Time(T(8, 5)));
}

TEST_F(SessionTest, LateRowMergesSessionsAndRetracts) {
  auto stream = engine_.Execute(std::string(kRaw) + " EMIT STREAM");
  auto table = engine_.Execute(kRaw);
  ASSERT_TRUE(stream.ok() && table.ok());
  ASSERT_TRUE(Click(1, 0, 1, "a").ok());
  ASSERT_TRUE(Click(2, 8, 1, "b").ok());  // separate session
  // A bridging click at 8:04 merges the two sessions into [8:00, 8:13).
  ASSERT_TRUE(Click(3, 4, 1, "bridge").ok());

  auto rows = (*table)->CurrentSnapshot();
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 3u);
  for (const Row& row : *rows) {
    EXPECT_EQ(row[3], Value::Time(T(8, 0)));
    EXPECT_EQ(row[4], Value::Time(T(8, 13)));
  }
  // The changelog retracted both old-session rows.
  size_t undos = 0;
  for (const auto& e : (*stream)->Emissions()) {
    if (e.undo) ++undos;
  }
  EXPECT_EQ(undos, 2u);
}

TEST_F(SessionTest, KeysSessionizeIndependently) {
  auto q = engine_.Execute(kRaw);
  ASSERT_TRUE(q.ok());
  ASSERT_TRUE(Click(1, 0, 1, "a").ok());
  ASSERT_TRUE(Click(2, 3, 2, "b").ok());  // other user: own session
  auto rows = (*q)->CurrentSnapshot();
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ((*rows)[0][4], Value::Time(T(8, 5)));
  EXPECT_EQ((*rows)[1][3], Value::Time(T(8, 3)));
  EXPECT_EQ((*rows)[1][4], Value::Time(T(8, 8)));
}

TEST_F(SessionTest, GlobalSessionsWithoutKey) {
  auto q = engine_.Execute(
      "SELECT * FROM Session(data => TABLE(Clicks), "
      "timecol => DESCRIPTOR(ts), gap => INTERVAL '5' MINUTES) s");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_TRUE(Click(1, 0, 1, "a").ok());
  ASSERT_TRUE(Click(2, 3, 2, "b").ok());  // different user, same session
  auto rows = (*q)->CurrentSnapshot();
  ASSERT_TRUE(rows.ok());
  for (const Row& row : *rows) {
    EXPECT_EQ(row[3], Value::Time(T(8, 0)));
    EXPECT_EQ(row[4], Value::Time(T(8, 8)));
  }
}

TEST_F(SessionTest, DeleteSplitsSession) {
  auto q = engine_.Execute(kRaw);
  ASSERT_TRUE(q.ok());
  ASSERT_TRUE(Click(1, 0, 1, "a").ok());
  ASSERT_TRUE(Click(2, 4, 1, "bridge").ok());
  ASSERT_TRUE(Click(3, 8, 1, "b").ok());  // one session [8:00, 8:13)
  ASSERT_TRUE(Unclick(4, 4, 1, "bridge").ok());  // split!
  auto rows = (*q)->CurrentSnapshot();
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ((*rows)[0][4], Value::Time(T(8, 5)));   // [8:00, 8:05)
  EXPECT_EQ((*rows)[1][3], Value::Time(T(8, 8)));   // [8:08, 8:13)
}

TEST_F(SessionTest, DeleteOfUnknownRowIsError) {
  auto q = engine_.Execute(kRaw);
  ASSERT_TRUE(q.ok());
  ASSERT_TRUE(Click(1, 0, 1, "a").ok());
  EXPECT_FALSE(Unclick(2, 0, 1, "wrong-page").ok());
}

TEST_F(SessionTest, GroupBySessionWindow) {
  // Sessions as first-class relational windows: per-user session click
  // counts via plain GROUP BY (what the paper argues SQL should express).
  auto q = engine_.Execute(
      "SELECT user_id, wstart, wend, COUNT(*) AS clicks "
      "FROM Session(data => TABLE(Clicks), timecol => DESCRIPTOR(ts), "
      "gap => INTERVAL '5' MINUTES, key => DESCRIPTOR(user_id)) s "
      "GROUP BY user_id, wend");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_TRUE(Click(1, 0, 1, "a").ok());
  ASSERT_TRUE(Click(2, 2, 1, "b").ok());
  ASSERT_TRUE(Click(3, 20, 1, "c").ok());
  ASSERT_TRUE(Click(4, 1, 2, "d").ok());
  auto rows = (*q)->CurrentSnapshot();
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 3u);
  // user 1 session [8:00,8:07) with 2 clicks, [8:20,8:25) with 1;
  // user 2 session [8:01,8:06) with 1.
  EXPECT_EQ((*rows)[0][3], Value::Int64(2));
  EXPECT_EQ((*rows)[1][3], Value::Int64(1));
  EXPECT_EQ((*rows)[2][3], Value::Int64(1));
}

TEST_F(SessionTest, WatermarkFinalizesSessionsAndDropsLate) {
  auto q = engine_.Execute(std::string(kRaw) + " EMIT AFTER WATERMARK");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_TRUE(Click(1, 0, 1, "a").ok());
  // Watermark passes the session end (8:05): the session is final.
  ASSERT_TRUE(engine_.AdvanceWatermark("Clicks", T(9, 2), T(8, 6)).ok());
  auto rows = (*q)->CurrentSnapshot();
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 1u);
  // A late click that would have extended the finalized session is dropped.
  ASSERT_TRUE(Click(3, 1, 1, "late").ok());
  rows = (*q)->CurrentSnapshot();
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 1u);
}

// Property: streaming sessionization equals offline sessionization over the
// final set of rows, across random workloads.
class SessionPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(SessionPropertyTest, MatchesOfflineSessionization) {
  const int seed = GetParam();
  std::mt19937 rng(seed);
  const int64_t gap_ms = 60'000;

  Engine engine;
  ASSERT_TRUE(engine
                  .RegisterStream(
                      "E", Schema({{"ts", DataType::kTimestamp, true},
                                   {"k", DataType::kBigint}}))
                  .ok());
  auto q = engine.Execute(
      "SELECT * FROM Session(data => TABLE(E), timecol => DESCRIPTOR(ts), "
      "gap => INTERVAL '1' MINUTE, key => DESCRIPTOR(k)) s");
  ASSERT_TRUE(q.ok()) << q.status().ToString();

  // Random inserts (and occasional deletes) in random arrival order.
  std::map<int64_t, std::vector<int64_t>> live;  // key -> times
  Timestamp ptime = Timestamp::FromHMS(8, 0);
  for (int step = 0; step < 120; ++step) {
    ptime = ptime + Interval::Seconds(1);
    const int64_t k = 1 + rng() % 3;
    auto& times = live[k];
    if (!times.empty() && rng() % 4 == 0) {
      const size_t idx = rng() % times.size();
      ASSERT_TRUE(engine
                      .Delete("E", ptime,
                              {Value::Time(Timestamp(times[idx])),
                               Value::Int64(k)})
                      .ok());
      times.erase(times.begin() + static_cast<int64_t>(idx));
    } else {
      const int64_t t = static_cast<int64_t>(rng() % 600) * 1000;
      ASSERT_TRUE(engine
                      .Insert("E", ptime,
                              {Value::Time(Timestamp(t)), Value::Int64(k)})
                      .ok());
      times.push_back(t);
    }
  }

  // Offline oracle: sessionize each key's surviving times directly.
  std::vector<Row> expected;
  for (auto& [k, times] : live) {
    std::sort(times.begin(), times.end());
    size_t i = 0;
    while (i < times.size()) {
      size_t j = i;
      int64_t end = times[i] + gap_ms;
      while (j + 1 < times.size() && times[j + 1] < end) {
        ++j;
        end = std::max(end, times[j] + gap_ms);
      }
      for (size_t m = i; m <= j; ++m) {
        expected.push_back({Value::Time(Timestamp(times[m])),
                            Value::Int64(k), Value::Time(Timestamp(times[i])),
                            Value::Time(Timestamp(end))});
      }
      i = j + 1;
    }
  }
  std::sort(expected.begin(), expected.end(),
            [](const Row& a, const Row& b) { return CompareRows(a, b) < 0; });

  auto actual = (*q)->CurrentSnapshot();
  ASSERT_TRUE(actual.ok());
  std::vector<Row> sorted = *actual;
  std::sort(sorted.begin(), sorted.end(),
            [](const Row& a, const Row& b) { return CompareRows(a, b) < 0; });
  ASSERT_EQ(sorted.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_TRUE(RowsEqual(sorted[i], expected[i]))
        << "seed " << seed << " row " << i << ": " << RowToString(sorted[i])
        << " vs " << RowToString(expected[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SessionPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// --------------------------------------------------------------------------
// Gap-boundary semantics. The session window is [min_t, max_t + gap) —
// half-open — so a row at exactly max_t + gap starts a NEW session, and a
// delete that leaves two runs exactly gap apart splits them. The queries run
// at shards = 8: the setting is still accepted but has no effect (every
// query runs on one chain), so it must render bit-identically to the
// default. Each case runs once; the parameter goes with the setting.
// --------------------------------------------------------------------------

class SessionBoundaryTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    ASSERT_TRUE(engine_
                    .RegisterStream(
                        "Clicks", Schema({{"ts", DataType::kTimestamp, true},
                                          {"user_id", DataType::kBigint},
                                          {"page", DataType::kVarchar}}))
                    .ok());
    auto q = engine_.Execute(
        "SELECT * FROM Session(data => TABLE(Clicks), "
        "timecol => DESCRIPTOR(ts), gap => INTERVAL '5' MINUTES, "
        "key => DESCRIPTOR(user_id)) s",
        ExecutionOptions{.shards = GetParam()});
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    query_ = *q;
  }

  Status Click(int pm, int em, int64_t user, const std::string& page) {
    return engine_.Insert(
        "Clicks", T(9, pm),
        {Value::Time(T(8, em)), Value::Int64(user), Value::String(page)});
  }

  Status Unclick(int pm, int em, int64_t user, const std::string& page) {
    return engine_.Delete(
        "Clicks", T(9, pm),
        {Value::Time(T(8, em)), Value::Int64(user), Value::String(page)});
  }

  /// Sorted multiset of (wstart minute, wend minute) per snapshot row.
  std::vector<std::pair<int64_t, int64_t>> Windows() {
    auto rows = query_->CurrentSnapshot();
    EXPECT_TRUE(rows.ok());
    std::vector<std::pair<int64_t, int64_t>> out;
    if (!rows.ok()) return out;
    for (const Row& row : *rows) {
      out.emplace_back((row[3].AsTimestamp() - T(8, 0)).millis() / 60'000,
                       (row[4].AsTimestamp() - T(8, 0)).millis() / 60'000);
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  Engine engine_;
  ContinuousQuery* query_ = nullptr;
};

TEST_P(SessionBoundaryTest, RowAtExactGapStartsNewSession) {
  ASSERT_TRUE(Click(1, 0, 1, "a").ok());
  ASSERT_TRUE(Click(2, 5, 1, "b").ok());   // at max_t + gap: separate
  ASSERT_TRUE(Click(3, 10, 1, "c").ok());  // again exactly at the boundary
  using W = std::vector<std::pair<int64_t, int64_t>>;
  EXPECT_EQ(Windows(), (W{{0, 5}, {5, 10}, {10, 15}}));
  // Inside the gap (8:14 < 8:15) merges into the last session.
  ASSERT_TRUE(Click(4, 14, 1, "d").ok());
  auto windows = Windows();
  ASSERT_EQ(windows.size(), 4u);
  EXPECT_EQ(windows.back(), (std::pair<int64_t, int64_t>{10, 19}));
}

TEST_P(SessionBoundaryTest, BridgingRowAtExactBoundariesMergesNeither) {
  // Sessions [8:00, 8:05) and [8:10, 8:15); a row at 8:05 spans [8:05,
  // 8:10) — flush against both neighbours, merging with neither.
  ASSERT_TRUE(Click(1, 0, 1, "a").ok());
  ASSERT_TRUE(Click(2, 10, 1, "b").ok());
  ASSERT_TRUE(Click(3, 5, 1, "c").ok());
  using W = std::vector<std::pair<int64_t, int64_t>>;
  EXPECT_EQ(Windows(), (W{{0, 5}, {5, 10}, {10, 15}}));
}

TEST_P(SessionBoundaryTest, DeleteLeavingRunsExactlyGapApartSplits) {
  // One session [8:00, 8:10) out of rows {8:00, 8:02, 8:05}; deleting 8:02
  // leaves 8:00 and 8:05 exactly gap apart — they must split.
  ASSERT_TRUE(Click(1, 0, 1, "a").ok());
  ASSERT_TRUE(Click(2, 2, 1, "b").ok());
  ASSERT_TRUE(Click(3, 5, 1, "c").ok());
  using W = std::vector<std::pair<int64_t, int64_t>>;
  EXPECT_EQ(Windows(), (W{{0, 10}, {0, 10}, {0, 10}}));
  ASSERT_TRUE(Unclick(4, 2, 1, "b").ok());
  EXPECT_EQ(Windows(), (W{{0, 5}, {5, 10}}));
}

TEST_P(SessionBoundaryTest, ShardCountsRenderIdentically) {
  // The same boundary-heavy feed rendered at this shard setting must equal
  // the default rendering bit-for-bit (stream metadata included).
  auto run = [](int shards) {
    Engine engine;
    EXPECT_TRUE(engine
                    .RegisterStream(
                        "Clicks", Schema({{"ts", DataType::kTimestamp, true},
                                          {"user_id", DataType::kBigint},
                                          {"page", DataType::kVarchar}}))
                    .ok());
    auto q = engine.Execute(
        "SELECT * FROM Session(data => TABLE(Clicks), "
        "timecol => DESCRIPTOR(ts), gap => INTERVAL '5' MINUTES, "
        "key => DESCRIPTOR(user_id)) s",
        ExecutionOptions{.shards = shards});
    EXPECT_TRUE(q.ok());
    const int boundary_minutes[] = {0, 5, 10, 2, 7, 15, 5, 0};
    int pm = 1;
    for (int em : boundary_minutes) {
      EXPECT_TRUE(engine
                      .Insert("Clicks", T(9, pm++),
                              {Value::Time(T(8, em)), Value::Int64(em % 2),
                               Value::String("p")})
                      .ok());
    }
    EXPECT_TRUE(engine
                    .Delete("Clicks", T(9, pm),
                            {Value::Time(T(8, 2)), Value::Int64(0),
                             Value::String("p")})
                    .ok());
    return (*q)->StreamRows();
  };
  const std::vector<Row> seq = run(1);
  const std::vector<Row> par = run(GetParam());
  ASSERT_EQ(seq.size(), par.size());
  for (size_t i = 0; i < seq.size(); ++i) {
    EXPECT_TRUE(RowsEqual(seq[i], par[i]))
        << "row " << i << ": " << RowToString(seq[i]) << " vs "
        << RowToString(par[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, SessionBoundaryTest, ::testing::Values(8),
                         [](const auto& info) {
                           return "N" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace onesql
