// Experiment PROFILE: query-level profiling overhead on the NEXMark feed
// path. The same query/feed runs with observability off, with metrics only,
// and with metrics + profiling (sampled per-operator timers and rows/s
// gauges); the summary table reports the relative
// overhead and enforces the <5% budget for the profiling configuration —
// the same contract bench_obs pins for plain metrics. With profiling off
// the hot path pays one extra null-pointer test per operator dispatch, so
// the "metrics" row doubles as the ~0%-when-off check against "off".

#include <benchmark/benchmark.h>

#include <time.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "nexmark/nexmark.h"
#include "obs/instruments.h"

namespace onesql {
namespace bench {
namespace {

enum class ProfileMode { kOff, kMetrics, kProfiling };

const char* ModeName(ProfileMode mode) {
  switch (mode) {
    case ProfileMode::kOff:
      return "off";
    case ProfileMode::kMetrics:
      return "metrics";
    case ProfileMode::kProfiling:
      return "metrics+profiling";
  }
  return "?";
}

std::vector<FeedEvent> MakeFeed(int num_events) {
  nexmark::GeneratorConfig config;
  config.num_events = num_events;
  config.max_disorder = 10;
  config.mean_event_gap = Interval::Millis(800);
  nexmark::Generator gen(config);
  return gen.Generate();
}

/// CPU time consumed by this process so far, in seconds. The feed runs on
/// the calling thread (one shard), so time the process spends descheduled
/// does not count against either arm the way wall time would.
double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// One full engine run of `sql` over `feed` under the given mode; returns
/// the feed's process CPU time in seconds (setup excluded).
double TimeFeed(const std::string& sql, const std::vector<FeedEvent>& feed,
                ProfileMode mode) {
  Engine engine;
  if (!nexmark::RegisterNexmark(&engine).ok()) std::abort();
  if (mode != ProfileMode::kOff) {
    obs::ObsOptions options;
    options.metrics = true;
    options.profiling = mode == ProfileMode::kProfiling;
    if (!engine.EnableObservability(options).ok()) std::abort();
  }
  auto q = engine.Execute(sql);
  if (!q.ok()) {
    std::fprintf(stderr, "%s\n", q.status().ToString().c_str());
    std::abort();
  }
  const double start = ProcessCpuSeconds();
  if (!engine.Feed(feed).ok()) std::abort();
  return ProcessCpuSeconds() - start;
}

void BM_NexmarkFeedProfile(benchmark::State& state, ProfileMode mode) {
  const auto feed = MakeFeed(4000);
  const std::string sql = nexmark::Q4();
  for (auto _ : state) {
    benchmark::DoNotOptimize(TimeFeed(sql, feed, mode));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(feed.size()));
}
BENCHMARK_CAPTURE(BM_NexmarkFeedProfile, off, ProfileMode::kOff);
BENCHMARK_CAPTURE(BM_NexmarkFeedProfile, metrics, ProfileMode::kMetrics);
BENCHMARK_CAPTURE(BM_NexmarkFeedProfile, profiling, ProfileMode::kProfiling);

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// Returns false if the profiling overhead blows its <5% budget.
///
/// Methodology: modes are measured interleaved round-robin, so machine drift
/// hits each repetition's arms alike, and each arm is timed in process CPU
/// time. Every repetition yields one ratio mode/off; the gate reads the
/// median of those ratios. (A ratio of two best-of-N minima let one lucky
/// "off" sample fail the gate.)
bool PrintOverheadTableAndCheck() {
  const int kEvents = 20000;
  const int kReps = 11;
  const auto feed = MakeFeed(kEvents);
  const std::string sql = nexmark::Q4();
  const ProfileMode kModes[] = {ProfileMode::kOff, ProfileMode::kMetrics,
                                ProfileMode::kProfiling};

  std::vector<double> secs[3];
  std::vector<double> ratios[3];
  for (int m = 0; m < 3; ++m) (void)TimeFeed(sql, feed, kModes[m]);
  for (int rep = 0; rep < kReps; ++rep) {
    double t[3];
    for (int m = 0; m < 3; ++m) {
      t[m] = TimeFeed(sql, feed, kModes[m]);
      secs[m].push_back(t[m]);
    }
    for (int m = 0; m < 3; ++m) ratios[m].push_back(t[m] / t[0]);
  }

  PrintSection("PROFILE: profiling overhead, NEXMark Q4 feed path (" +
               std::to_string(kEvents) + " events, " + std::to_string(kReps) +
               " interleaved repetitions, process CPU time)");
  std::printf("%-18s %14s %14s %16s\n", "mode", "median cpu s", "events/s",
              "median overhead");
  bool ok = true;
  for (int m = 0; m < 3; ++m) {
    const double secs_p50 = Median(secs[m]);
    const double overhead_pct = (Median(ratios[m]) - 1.0) * 100.0;
    std::printf("%-18s %14.4f %14.0f %15.2f%%\n", ModeName(kModes[m]),
                secs_p50, static_cast<double>(kEvents) / secs_p50,
                overhead_pct);
    if (kModes[m] == ProfileMode::kProfiling && overhead_pct >= 5.0) {
      ok = false;
    }
  }
  if (ok) {
    std::printf("profiling overhead within the <5%% budget\n");
  } else {
    std::fprintf(stderr,
                 "FAIL: profiling-enabled overhead exceeds the 5%% budget\n");
  }
  return ok;
}

}  // namespace
}  // namespace bench
}  // namespace onesql

int main(int argc, char** argv) {
  const bool ok = onesql::bench::PrintOverheadTableAndCheck();
  const int rc =
      onesql::bench::RunBenchmarksAndDumpJson("profile", &argc, &argv[0]);
  return ok ? rc : 1;
}
