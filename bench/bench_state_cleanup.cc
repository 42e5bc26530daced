// Experiment S5-state: "State for an ongoing aggregation or stateful
// operator can be freed when the watermark is sufficiently advanced"
// (Section 5). Runs the windowed Q7 pipeline over a growing bid stream and
// samples operator state, with watermarks advancing normally vs. watermarks
// withheld. The shape to observe: with watermarks, aggregation groups and
// join state stay bounded (proportional to open windows); without them,
// state grows linearly with the input.

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <memory>
#include <random>

#include "bench/bench_util.h"
#include "exec/dataflow.h"

namespace onesql {
namespace bench {
namespace {

struct Sample {
  int events;
  size_t groups;
  size_t join_rows;
  size_t state_bytes;
};

std::vector<Sample> RunPipeline(int num_events, bool with_watermarks,
                                int sample_every) {
  Engine engine;
  if (!engine.RegisterStream("Bid", PaperBidSchema()).ok()) std::abort();
  auto q = engine.Execute(PaperQ7());
  if (!q.ok()) std::abort();

  std::mt19937 rng(17);
  std::vector<Sample> samples;
  int64_t event_time = T(8, 0).millis();
  Timestamp ptime = T(8, 0);
  for (int i = 0; i < num_events; ++i) {
    event_time += 1 + static_cast<int64_t>(rng() % 5000);
    ptime = ptime + Interval::Millis(10);
    if (!engine
             .Insert("Bid", ptime,
                     {Value::Time(Timestamp(event_time)),
                      Value::Int64(1 + static_cast<int64_t>(rng() % 1000)),
                      Value::String("x")})
             .ok()) {
      std::abort();
    }
    if (with_watermarks && i % 20 == 19) {
      ptime = ptime + Interval::Millis(1);
      if (!engine
               .AdvanceWatermark("Bid", ptime,
                                 Timestamp(event_time) - Interval::Seconds(10))
               .ok()) {
        std::abort();
      }
    }
    if (i % sample_every == sample_every - 1) {
      Sample s;
      s.events = i + 1;
      s.groups = 0;
      for (const auto* agg : (*q)->dataflow().aggregates()) {
        s.groups += agg->NumGroups();
      }
      s.join_rows = 0;
      for (const auto* join : (*q)->dataflow().joins()) {
        s.join_rows += join->left_rows() + join->right_rows();
      }
      s.state_bytes = (*q)->StateBytes();
      samples.push_back(s);
    }
  }
  return samples;
}

void PrintStateSeries() {
  PrintSection(
      "Operator state growth: Q7 over a growing bid stream "
      "(10-minute windows, ~2.5s mean event gap)");
  const int kEvents = 4000;
  const int kSample = 500;
  auto with_wm = RunPipeline(kEvents, /*with_watermarks=*/true, kSample);
  auto without_wm = RunPipeline(kEvents, /*with_watermarks=*/false, kSample);

  std::printf("%-10s | %-12s %-12s %-14s | %-12s %-12s %-14s\n", "events",
              "wm:groups", "wm:joinrows", "wm:bytes", "no:groups",
              "no:joinrows", "no:bytes");
  for (size_t i = 0; i < with_wm.size(); ++i) {
    std::printf("%-10d | %-12zu %-12zu %-14zu | %-12zu %-12zu %-14zu\n",
                with_wm[i].events, with_wm[i].groups, with_wm[i].join_rows,
                with_wm[i].state_bytes, without_wm[i].groups,
                without_wm[i].join_rows, without_wm[i].state_bytes);
  }
  const double ratio =
      static_cast<double>(without_wm.back().state_bytes) /
      static_cast<double>(with_wm.back().state_bytes);
  std::printf(
      "(with watermarks the state is bounded by the open windows; withheld "
      "watermarks\n grow state linearly — %.1fx larger after %d events)\n",
      ratio, kEvents);
}

void BM_Q7WithWatermarkPurge(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto samples = RunPipeline(n, true, n);
    benchmark::DoNotOptimize(samples);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_Q7WithWatermarkPurge)->Arg(1000)->Arg(4000);

void BM_Q7WithoutWatermarks(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto samples = RunPipeline(n, false, n);
    benchmark::DoNotOptimize(samples);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_Q7WithoutWatermarks)->Arg(1000)->Arg(4000);

// Per-change cost of operator state must not grow with the state that stays
// live. Both benchmarks below hold N rows of state the timed loop never
// touches, drive one operator directly (its output detached, so only its
// own work is timed) and report the cost of one change; the time per
// iteration should stay flat as N grows 10-100x.

/// Compiles `sql` over S(t, k, v) and B(t, k, w) (`t` is event time) at one
/// shard.
std::unique_ptr<exec::Dataflow> BuildFlow(const std::string& sql) {
  Engine engine;
  for (const char* name : {"S", "B"}) {
    const Status s = engine.RegisterStream(
        name, Schema({{"t", DataType::kTimestamp, true},
                      {"k", DataType::kBigint},
                      {name[0] == 'S' ? "v" : "w", DataType::kBigint}}));
    if (!s.ok()) std::abort();
  }
  auto plan = engine.Plan(sql);
  if (!plan.ok()) std::abort();
  auto flow = exec::Dataflow::Build(std::move(*plan), 1);
  if (!flow.ok()) std::abort();
  return std::move(*flow);
}

Change MakeChange(ChangeKind kind, int64_t t_ms, int64_t k, int64_t v) {
  return Change{kind,
                {Value::Time(Timestamp(t_ms)), Value::Int64(k), Value::Int64(v)},
                T(9, 0)};
}

// One iteration: a row opens a group that the next watermark completes,
// while range(0) other groups (event times far ahead) stay live.
void BM_AggregateWatermarkLiveGroups(benchmark::State& state) {
  const int64_t live = state.range(0);
  auto flow = BuildFlow("SELECT k, t, SUM(v) AS total FROM S GROUP BY k, t");
  exec::AggregateOperator* agg = flow->aggregates()[0];
  agg->SetOutput(nullptr, 0);
  const int64_t future = T(23, 0).millis();
  for (int64_t k = 0; k < live; ++k) {
    if (!agg->OnElement(0, MakeChange(ChangeKind::kInsert, future, k, 1))
             .ok()) {
      std::abort();
    }
  }
  int64_t t = T(8, 0).millis();
  for (auto _ : state) {
    ++t;
    if (!agg->OnElement(0, MakeChange(ChangeKind::kInsert, t, -1, 1)).ok() ||
        !agg->OnWatermark(0, Timestamp(t), T(9, 0)).ok()) {
      std::abort();
    }
  }
  if (agg->NumGroups() != static_cast<size_t>(live)) std::abort();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AggregateWatermarkLiveGroups)->Arg(1000)->Arg(10000)->Arg(100000);

// One iteration: retract one of range(0) join rows that share one event
// time, then insert it again. Rows are drawn at random, so a retraction's
// row sits anywhere among the rows sharing its event time.
void BM_JoinRetractSharedEventTime(benchmark::State& state) {
  const int64_t rows = state.range(0);
  auto flow = BuildFlow(
      "SELECT s.k AS k, s.v AS v, b.w AS w "
      "FROM S s JOIN B b ON s.k = b.k AND s.t = b.t");
  exec::JoinOperator* join = flow->joins()[0];
  join->SetOutput(nullptr, 0);
  const int64_t shared = T(8, 5).millis();
  for (int64_t k = 0; k < rows; ++k) {
    if (!join->OnElement(0, MakeChange(ChangeKind::kInsert, shared, k, k))
             .ok()) {
      std::abort();
    }
  }
  std::mt19937_64 rng(7);
  for (auto _ : state) {
    const int64_t k = static_cast<int64_t>(rng() % static_cast<uint64_t>(rows));
    if (!join->OnElement(0, MakeChange(ChangeKind::kDelete, shared, k, k))
             .ok() ||
        !join->OnElement(0, MakeChange(ChangeKind::kInsert, shared, k, k))
             .ok()) {
      std::abort();
    }
  }
  if (join->left_rows() != static_cast<size_t>(rows)) std::abort();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_JoinRetractSharedEventTime)->Arg(1000)->Arg(10000);

}  // namespace
}  // namespace bench
}  // namespace onesql

int main(int argc, char** argv) {
  onesql::bench::PrintStateSeries();
  return onesql::bench::RunBenchmarksAndDumpJson("state_cleanup", &argc, &argv[0]);
}
