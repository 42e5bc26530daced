// Experiment NEX: end-to-end throughput of the NEXMark queries through the
// full engine (parse -> bind -> optimize -> incremental dataflow), plus a
// summary table of events/sec per query.

#include <benchmark/benchmark.h>

#include <chrono>
#include <memory>

#include "bench/bench_util.h"
#include "nexmark/nexmark.h"

namespace onesql {
namespace bench {
namespace {

std::vector<FeedEvent> MakeFeed(int num_events, int disorder = 10) {
  nexmark::GeneratorConfig config;
  config.num_events = num_events;
  config.max_disorder = disorder;
  config.mean_event_gap = Interval::Millis(800);
  nexmark::Generator gen(config);
  return gen.Generate();
}

double RunQuery(const std::string& sql, const std::vector<FeedEvent>& feed) {
  Engine engine;
  if (!nexmark::RegisterNexmark(&engine).ok()) std::abort();
  auto q = engine.Execute(sql);
  if (!q.ok()) {
    std::fprintf(stderr, "%s\n", q.status().ToString().c_str());
    std::abort();
  }
  const auto start = std::chrono::steady_clock::now();
  if (!engine.Feed(feed).ok()) std::abort();
  const auto end = std::chrono::steady_clock::now();
  const double secs =
      std::chrono::duration<double>(end - start).count();
  return static_cast<double>(feed.size()) / secs;
}

void PrintThroughputTable() {
  const int kEvents = 20000;
  const auto feed = MakeFeed(kEvents);
  PrintSection("NEXMark query throughput (single thread, " +
               std::to_string(kEvents) + " events)");
  std::printf("%-8s %-52s %12s\n", "query", "shape", "events/s");
  struct Entry {
    const char* name;
    std::string sql;
    const char* shape;
  } entries[] = {
      {"Q1", nexmark::Q1(), "stateless projection (currency conversion)"},
      {"Q2", nexmark::Q2(), "stateless filter (auction sample)"},
      {"Q3", nexmark::Q3(), "incremental stream-stream equi join"},
      {"Q4", nexmark::Q4(), "window + join + grouped AVG per category"},
      {"Q5", nexmark::Q5(), "hopping windows, two-level aggregation + join"},
      {"Q7", nexmark::Q7(), "tumbling windowed MAX + self join"},
  };
  for (const Entry& e : entries) {
    std::printf("%-8s %-52s %12.0f\n", e.name, e.shape, RunQuery(e.sql, feed));
  }
  std::printf(
      "(stateless queries are fastest; the two-level Q5 pays for a hop\n"
      " expansion shared by both levels and a changelog self-join)\n");
}

/// Times the feed alone: each iteration needs a fresh engine (the feed's
/// processing times cannot run twice), and building it, planning the query
/// and tearing the previous engine down all happen with the timer paused
/// (the last engine is torn down after the timed loop).
void BM_NexmarkQuery(benchmark::State& state, const std::string& sql) {
  const auto feed = MakeFeed(4000);
  std::unique_ptr<Engine> engine;
  for (auto _ : state) {
    state.PauseTiming();
    engine = std::make_unique<Engine>();
    if (!nexmark::RegisterNexmark(engine.get()).ok()) std::abort();
    auto q = engine->Execute(sql);
    if (!q.ok()) std::abort();
    state.ResumeTiming();
    if (!engine->Feed(feed).ok()) std::abort();
    benchmark::DoNotOptimize(*q);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(feed.size()));
}
// Five repetitions, so the recorded p50/p95/p99 are three real percentiles.
BENCHMARK_CAPTURE(BM_NexmarkQuery, q1, nexmark::Q1())->Repetitions(5);
BENCHMARK_CAPTURE(BM_NexmarkQuery, q2, nexmark::Q2())->Repetitions(5);
BENCHMARK_CAPTURE(BM_NexmarkQuery, q3, nexmark::Q3())->Repetitions(5);
BENCHMARK_CAPTURE(BM_NexmarkQuery, q4, nexmark::Q4())->Repetitions(5);
BENCHMARK_CAPTURE(BM_NexmarkQuery, q5, nexmark::Q5())->Repetitions(5);
BENCHMARK_CAPTURE(BM_NexmarkQuery, q7, nexmark::Q7())->Repetitions(5);

void BM_GeneratorOnly(benchmark::State& state) {
  for (auto _ : state) {
    nexmark::GeneratorConfig config;
    config.num_events = 4000;
    nexmark::Generator gen(config);
    benchmark::DoNotOptimize(gen.Generate());
  }
  state.SetItemsProcessed(state.iterations() * 4000);
}
BENCHMARK(BM_GeneratorOnly);

}  // namespace
}  // namespace bench
}  // namespace onesql

int main(int argc, char** argv) {
  onesql::bench::PrintThroughputTable();
  return onesql::bench::RunBenchmarksAndDumpJson("nexmark", &argc, &argv[0]);
}
