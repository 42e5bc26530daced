// Unit tests for the metrics primitives: exponential histogram bucket
// boundaries and merge, counter aggregation (single- and multi-threaded),
// gauges, and registry dedup. The concurrent tests double as the TSan hammer
// suite (see ci.sh): many threads bumping the same instruments and
// registering through the registry at once.

#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <vector>

namespace onesql {
namespace obs {
namespace {

TEST(HistogramTest, BucketBoundaries) {
  // Bucket 0 holds exactly v == 0; bucket i >= 1 holds 2^(i-1) <= v < 2^i.
  EXPECT_EQ(Histogram::BucketOf(0), 0u);
  EXPECT_EQ(Histogram::BucketOf(1), 1u);
  EXPECT_EQ(Histogram::BucketOf(2), 2u);
  EXPECT_EQ(Histogram::BucketOf(3), 2u);
  EXPECT_EQ(Histogram::BucketOf(4), 3u);
  EXPECT_EQ(Histogram::BucketOf(7), 3u);
  EXPECT_EQ(Histogram::BucketOf(8), 4u);
  for (size_t i = 1; i < 63; ++i) {
    const uint64_t lower = uint64_t{1} << (i - 1);
    const uint64_t upper = (uint64_t{1} << i) - 1;
    EXPECT_EQ(Histogram::BucketOf(lower), i) << "lower edge of bucket " << i;
    EXPECT_EQ(Histogram::BucketOf(upper), i) << "upper edge of bucket " << i;
  }
  // The last bucket absorbs everything from 2^62 up.
  EXPECT_EQ(Histogram::BucketOf(uint64_t{1} << 63), 63u);
  EXPECT_EQ(Histogram::BucketOf(std::numeric_limits<uint64_t>::max()), 63u);
}

TEST(HistogramTest, BucketUpperBounds) {
  EXPECT_EQ(HistogramData::BucketUpperBound(0), 0u);
  EXPECT_EQ(HistogramData::BucketUpperBound(1), 1u);
  EXPECT_EQ(HistogramData::BucketUpperBound(2), 3u);
  EXPECT_EQ(HistogramData::BucketUpperBound(10), 1023u);
  EXPECT_EQ(HistogramData::BucketUpperBound(63),
            std::numeric_limits<uint64_t>::max());
  // A recorded value never exceeds its bucket's upper bound.
  for (uint64_t v : {0ull, 1ull, 2ull, 3ull, 100ull, 65536ull, 123456789ull}) {
    EXPECT_LE(v, HistogramData::BucketUpperBound(Histogram::BucketOf(v)));
  }
}

TEST(HistogramTest, RecordCountsAndExactSum) {
  Histogram h;
  h.Record(0);
  h.Record(1);
  h.Record(5);
  h.Record(5);
  h.Record(1000);
  HistogramData d = h.Data();
  EXPECT_EQ(d.TotalCount(), 5u);
  EXPECT_EQ(d.sum, 1011u);  // the sum is exact, not bucket-approximated
  EXPECT_EQ(d.counts[0], 1u);
  EXPECT_EQ(d.counts[1], 1u);
  EXPECT_EQ(d.counts[Histogram::BucketOf(5)], 2u);
  EXPECT_EQ(d.counts[Histogram::BucketOf(1000)], 1u);
}

TEST(HistogramTest, PercentileResolvesToBucketUpperBound) {
  Histogram h;
  for (int i = 0; i < 90; ++i) h.Record(1);     // bucket 1, upper bound 1
  for (int i = 0; i < 10; ++i) h.Record(100);   // bucket 7, upper bound 127
  HistogramData d = h.Data();
  EXPECT_EQ(d.Percentile(50), 1u);
  EXPECT_EQ(d.Percentile(90), 1u);
  EXPECT_EQ(d.Percentile(95), 127u);
  EXPECT_EQ(d.Percentile(99), 127u);
  EXPECT_EQ(d.Percentile(100), 127u);

  HistogramData empty;
  EXPECT_EQ(empty.Percentile(50), 0u);
}

TEST(HistogramTest, MergeAddsCountsAndSums) {
  Histogram a, b;
  a.Record(1);
  a.Record(64);
  b.Record(1);
  b.Record(4096);
  HistogramData da = a.Data();
  da.Merge(b.Data());
  EXPECT_EQ(da.TotalCount(), 4u);
  EXPECT_EQ(da.sum, 1u + 64u + 1u + 4096u);
  EXPECT_EQ(da.counts[1], 2u);
  EXPECT_EQ(da.counts[Histogram::BucketOf(64)], 1u);
  EXPECT_EQ(da.counts[Histogram::BucketOf(4096)], 1u);
}

TEST(CounterTest, SingleThreadAggregation) {
  Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Increment();
  c.Add(41);
  EXPECT_EQ(c.Value(), 42u);
}

TEST(CounterTest, ConcurrentAddsSumExactly) {
  // The one relaxed atomic must lose nothing: N threads adding concurrently
  // aggregate to exactly the arithmetic total.
  Counter c;
  constexpr int kThreads = 8;
  constexpr int kAddsPerThread = 100000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kAddsPerThread; ++i) c.Increment();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.Value(), uint64_t{kThreads} * kAddsPerThread);
}

TEST(HistogramTest, ConcurrentRecordsSumExactly) {
  Histogram h;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.Record(static_cast<uint64_t>(t + 1));
      }
    });
  }
  for (auto& t : threads) t.join();
  HistogramData d = h.Data();
  EXPECT_EQ(d.TotalCount(), uint64_t{kThreads} * kPerThread);
  uint64_t want_sum = 0;
  for (int t = 0; t < kThreads; ++t) {
    want_sum += uint64_t{kPerThread} * static_cast<uint64_t>(t + 1);
  }
  EXPECT_EQ(d.sum, want_sum);
}

TEST(GaugeTest, SetAndAdd) {
  Gauge g;
  g.Set(10);
  g.Add(-15);
  EXPECT_EQ(g.Value(), -5);  // gauges may go negative
}

TEST(RegistryTest, DedupsByNameAndLabels) {
  MetricsRegistry reg;
  Counter* a = reg.GetCounter("onesql_test_total", {{"query", "q0"}});
  Counter* b = reg.GetCounter("onesql_test_total", {{"query", "q0"}});
  Counter* c = reg.GetCounter("onesql_test_total", {{"query", "q1"}});
  EXPECT_EQ(a, b);  // same (name, labels) -> same instrument
  EXPECT_NE(a, c);
  a->Add(2);
  b->Add(3);
  MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.CounterValue("onesql_test_total", {{"query", "q0"}}), 5u);
  EXPECT_EQ(snap.CounterValue("onesql_test_total", {{"query", "q1"}}), 0u);
  EXPECT_EQ(snap.CounterValue("missing"), 0u);
}

TEST(RegistryTest, LabelOrderDoesNotMatter) {
  MetricsRegistry reg;
  Counter* a =
      reg.GetCounter("onesql_test_total", {{"a", "1"}, {"b", "2"}});
  Counter* b =
      reg.GetCounter("onesql_test_total", {{"b", "2"}, {"a", "1"}});
  EXPECT_EQ(a, b);
}

TEST(RegistryTest, SnapshotIsSortedAndTyped) {
  MetricsRegistry reg;
  reg.GetCounter("onesql_b_total")->Add(1);
  reg.GetCounter("onesql_a_total")->Add(2);
  reg.GetGauge("onesql_g")->Set(7);
  reg.GetHistogram("onesql_h")->Record(3);
  MetricsSnapshot snap = reg.Snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].name, "onesql_a_total");
  EXPECT_EQ(snap.counters[1].name, "onesql_b_total");
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].value, 7);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].data.TotalCount(), 1u);
  const HistogramData* h = snap.HistogramOf("onesql_h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->sum, 3u);
}

TEST(RegistryTest, ConcurrentRegistrationAndUseHammer) {
  // Threads race registration (same and different names) against hot-path
  // updates and snapshots. Totals must come out exact; under TSan this is
  // the registry's data-race certification.
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kIters = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg] {
      for (int i = 0; i < kIters; ++i) {
        const std::string name =
            "onesql_hammer_total_" + std::to_string(i % 7);
        reg.GetCounter(name)->Increment();
        reg.GetHistogram("onesql_hammer_lat")->Record(
            static_cast<uint64_t>(i % 100));
        if (i % 1000 == 0) (void)reg.Snapshot();
      }
    });
  }
  for (auto& t : threads) t.join();
  MetricsSnapshot snap = reg.Snapshot();
  uint64_t total = 0;
  for (int k = 0; k < 7; ++k) {
    total +=
        snap.CounterValue("onesql_hammer_total_" + std::to_string(k));
  }
  EXPECT_EQ(total, uint64_t{kThreads} * kIters);
  const HistogramData* lat = snap.HistogramOf("onesql_hammer_lat");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->TotalCount(), uint64_t{kThreads} * kIters);
}

}  // namespace
}  // namespace obs
}  // namespace onesql
