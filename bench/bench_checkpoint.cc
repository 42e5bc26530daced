// Experiment CHECKPOINT: cost of durability and speed of recovery.
//
// Three questions, each a benchmark family:
//   1. BM_FeedThroughput          — what does the write-ahead feed log cost
//                                   on the hot feed path (durable vs not)?
//   2. BM_CheckpointWrite         — how long does Engine::Checkpoint take as
//                                   retained state grows?
//   3. BM_RestoreFromCheckpoint / — time until a restored engine has a live,
//      BM_RestoreByReplay          queryable continuous query: loading
//                                   operator state from a checkpoint versus
//                                   replaying the whole feed log through the
//                                   dataflow. The checkpoint path must win,
//                                   and win harder as the log grows.
//
// Both recovery paths end in bit-identical query renderings — see
// tests/engine/recovery_test.cc — so this measures pure time-to-recover.

#include <benchmark/benchmark.h>

#include <atomic>
#include <filesystem>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#ifdef _WIN32
#include <process.h>
#else
#include <unistd.h>
#endif

#include "bench/bench_util.h"
#include "state/frame.h"

namespace onesql {
namespace bench {
namespace {

constexpr const char* kKeyedAgg =
    "SELECT item, wstart, wend, SUM(price) AS total, COUNT(*) AS cnt "
    "FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime), "
    "dur => INTERVAL '10' MINUTES) t GROUP BY item, wend";

/// Fresh scratch directories (benchmarks re-create engines many times; each
/// run gets its own log/checkpoint so sequence numbers align). Every
/// directory is removed, with its contents, when the set goes out of scope,
/// so a benchmark removes its directories outside its timed loop.
class BenchDirs {
 public:
  ~BenchDirs() {
    for (const std::string& dir : dirs_) {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }
  }

  std::string New(const std::string& tag) {
    static std::atomic<int> counter{0};
    std::error_code ec;
    const std::string dir =
        (std::filesystem::temp_directory_path(ec) /
         ("onesql_bench_" + tag + "_" +
          std::to_string(static_cast<long>(getpid())) + "_" +
          std::to_string(counter.fetch_add(1))))
            .string();
    if (!state::EnsureDirectory(dir).ok()) std::abort();
    dirs_.push_back(dir);
    return dir;
  }

 private:
  std::vector<std::string> dirs_;
};

/// High-cardinality keyed feed: `keys` distinct items, watermark every
/// `wm_every` rows.
std::vector<FeedEvent> KeyedFeed(int rows, int keys, int wm_every) {
  std::vector<FeedEvent> feed;
  feed.reserve(static_cast<size_t>(rows) + static_cast<size_t>(rows) /
                                               static_cast<size_t>(wm_every));
  uint64_t state = 1;
  for (int i = 0; i < rows; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    const uint64_t r = state >> 33;
    const Timestamp ptime = T(9, 0) + Interval::Millis(i * 10);
    FeedEvent e;
    e.kind = FeedEvent::Kind::kInsert;
    e.source = "Bid";
    e.ptime = ptime;
    e.row = {Value::Time(ptime - Interval::Seconds(r % 60)),
             Value::Int64(static_cast<int64_t>(r % 1000)),
             Value::String("item" + std::to_string(r % static_cast<uint64_t>(
                                                           keys)))};
    feed.push_back(std::move(e));
    if (i % wm_every == wm_every - 1) {
      FeedEvent wm;
      wm.kind = FeedEvent::Kind::kWatermark;
      wm.source = "Bid";
      wm.ptime = ptime;
      wm.watermark = ptime - Interval::Minutes(1);
      feed.push_back(std::move(wm));
    }
  }
  return feed;
}

/// Feeds `feed` into a fresh engine running the keyed aggregation;
/// optionally durable. Returns the directory, made in `dirs` (empty when
/// not durable).
std::string RunOnce(const std::vector<FeedEvent>& feed, bool durable,
                    bool checkpoint_at_end, const std::string& tag,
                    BenchDirs* dirs) {
  Engine engine;
  if (!engine.RegisterStream("Bid", PaperBidSchema()).ok()) std::abort();
  std::string dir;
  if (durable || checkpoint_at_end) {
    dir = dirs->New(tag);
    if (durable && !engine.EnableDurability(dir).ok()) std::abort();
  }
  auto q = engine.Execute(kKeyedAgg);
  if (!q.ok()) std::abort();
  if (!engine.Feed(feed).ok()) std::abort();
  if (checkpoint_at_end && !engine.Checkpoint(dir).ok()) std::abort();
  benchmark::DoNotOptimize((*q)->Emissions().size());
  return dir;
}

/// rows/sec through Engine::Feed with the WAL on (range(0)=1) or off (0),
/// feeding in batches of range(1) (each batch is one fsync when durable).
void BM_FeedThroughput(benchmark::State& state) {
  const bool durable = state.range(0) != 0;
  const int batch = static_cast<int>(state.range(1));
  const int kRows = 10000;
  const std::vector<FeedEvent> feed =
      KeyedFeed(kRows, /*keys=*/512, /*wm_every=*/200);
  int64_t rows_processed = 0;
  BenchDirs dirs;
  for (auto _ : state) {
    state.PauseTiming();
    Engine engine;
    if (!engine.RegisterStream("Bid", PaperBidSchema()).ok()) std::abort();
    if (durable && !engine.EnableDurability(dirs.New("feed")).ok()) {
      std::abort();
    }
    auto q = engine.Execute(kKeyedAgg);
    if (!q.ok()) std::abort();
    state.ResumeTiming();

    for (size_t begin = 0; begin < feed.size();
         begin += static_cast<size_t>(batch)) {
      const size_t end =
          std::min(feed.size(), begin + static_cast<size_t>(batch));
      std::vector<FeedEvent> chunk(feed.begin() + begin, feed.begin() + end);
      if (!engine.Feed(chunk).ok()) std::abort();
    }
    benchmark::DoNotOptimize((*q)->Emissions().size());
    rows_processed += kRows;
  }
  state.counters["rows_per_sec"] = benchmark::Counter(
      static_cast<double>(rows_processed), benchmark::Counter::kIsRate);
  state.counters["durable"] = durable ? 1 : 0;
}
BENCHMARK(BM_FeedThroughput)
    ->ArgsProduct({{0, 1}, {64, 1024}})
    ->Unit(benchmark::kMillisecond);

/// Latency of Engine::Checkpoint after range(0) rows of keyed state.
void BM_CheckpointWrite(benchmark::State& state) {
  const int rows = static_cast<int>(state.range(0));
  const std::vector<FeedEvent> feed =
      KeyedFeed(rows, /*keys=*/512, /*wm_every=*/200);
  Engine engine;
  if (!engine.RegisterStream("Bid", PaperBidSchema()).ok()) std::abort();
  auto q = engine.Execute(kKeyedAgg);
  if (!q.ok()) std::abort();
  if (!engine.Feed(feed).ok()) std::abort();
  BenchDirs dirs;
  const std::string dir = dirs.New("ckptwrite");
  for (auto _ : state) {
    if (!engine.Checkpoint(dir).ok()) std::abort();
  }
  auto bytes = state::ReadFileToString(dir + "/checkpoint.osql");
  state.counters["checkpoint_bytes"] =
      bytes.ok() ? static_cast<double>(bytes->size()) : 0.0;
  state.counters["state_bytes"] = static_cast<double>((*q)->StateBytes());
}
BENCHMARK(BM_CheckpointWrite)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(50000)
    ->Repetitions(5)
    ->Unit(benchmark::kMillisecond);

/// Time from a cold Engine to a live restored query, loading operator state
/// from a checkpoint (the log suffix past the checkpoint is empty).
void BM_RestoreFromCheckpoint(benchmark::State& state) {
  const int rows = static_cast<int>(state.range(0));
  BenchDirs dirs;
  const std::string dir =
      RunOnce(KeyedFeed(rows, /*keys=*/512, /*wm_every=*/200),
              /*durable=*/true, /*checkpoint_at_end=*/true, "restoreckpt",
              &dirs);
  for (auto _ : state) {
    Engine engine;
    if (!engine.Restore(dir).ok()) std::abort();
    if (engine.num_queries() != 1) std::abort();
    benchmark::DoNotOptimize(engine.query(0)->Emissions().size());
  }
  state.counters["rows"] = rows;
}
BENCHMARK(BM_RestoreFromCheckpoint)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(50000)
    ->Repetitions(5)
    ->Unit(benchmark::kMillisecond);

/// Time from a cold Engine to a live query by replaying the entire feed log
/// through the dataflow (no checkpoint taken before the crash).
void BM_RestoreByReplay(benchmark::State& state) {
  const int rows = static_cast<int>(state.range(0));
  BenchDirs dirs;
  const std::string dir =
      RunOnce(KeyedFeed(rows, /*keys=*/512, /*wm_every=*/200),
              /*durable=*/true, /*checkpoint_at_end=*/false, "restorereplay",
              &dirs);
  for (auto _ : state) {
    Engine engine;
    // Cold start: the catalog is not in the log, so re-register, restore
    // (replays the log into retained history), then re-execute the query
    // (replays history through a fresh dataflow).
    if (!engine.RegisterStream("Bid", PaperBidSchema()).ok()) std::abort();
    if (!engine.Restore(dir).ok()) std::abort();
    auto q = engine.Execute(kKeyedAgg);
    if (!q.ok()) std::abort();
    benchmark::DoNotOptimize((*q)->Emissions().size());
  }
  state.counters["rows"] = rows;
}
BENCHMARK(BM_RestoreByReplay)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(50000)
    ->Unit(benchmark::kMillisecond);

/// Experiment CHECKPOINT §group-commit: aggregate rows/sec of `threads`
/// feeders each feeding single events (batch=1 — the worst case for
/// durability, one barrier per event):
///   range(0) = 0  in-memory (no log)        — the ceiling
///   range(0) = 2  group-commit log          — feeders share fsyncs
/// (range(0) = 1 was the synchronous log, removed; the argument values are
/// kept so result names stay comparable across versions.) The group-commit
/// claim is that concurrent batch-1 durable feeding approaches the
/// in-memory rate, because N blocked feeders ride one fsync.
void BM_ConcurrentDurableFeed(benchmark::State& state) {
  const int mode = static_cast<int>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  const int kRowsPerThread = 400;
  // All feeders share one ptime: feed validation requires non-regressing
  // ptime, and concurrent callers have no cross-thread order to promise.
  const Timestamp ptime = T(9, 0);
  int64_t rows_processed = 0;
  BenchDirs dirs;
  for (auto _ : state) {
    state.PauseTiming();
    Engine engine;
    if (!engine.RegisterStream("Bid", PaperBidSchema()).ok()) std::abort();
    if (mode != 0) {
      if (!engine.EnableDurability(dirs.New("gcfeed")).ok()) std::abort();
    }
    auto q = engine.Execute(kKeyedAgg);
    if (!q.ok()) std::abort();
    state.ResumeTiming();

    std::vector<std::thread> feeders;
    feeders.reserve(static_cast<size_t>(threads));
    for (int t = 0; t < threads; ++t) {
      feeders.emplace_back([&engine, t, ptime] {
        for (int i = 0; i < kRowsPerThread; ++i) {
          FeedEvent e;
          e.kind = FeedEvent::Kind::kInsert;
          e.source = "Bid";
          e.ptime = ptime;
          e.row = {Value::Time(ptime), Value::Int64(t * 10000 + i),
                   Value::String("item" + std::to_string(i % 64))};
          if (!engine.Feed({std::move(e)}).ok()) std::abort();
        }
      });
    }
    for (auto& f : feeders) f.join();
    benchmark::DoNotOptimize((*q)->Emissions().size());
    rows_processed += static_cast<int64_t>(threads) * kRowsPerThread;
  }
  state.counters["rows_per_sec"] = benchmark::Counter(
      static_cast<double>(rows_processed), benchmark::Counter::kIsRate);
  state.counters["mode"] = mode;
  state.counters["threads"] = threads;
}
BENCHMARK(BM_ConcurrentDurableFeed)
    ->ArgsProduct({{0, 2}, {1, 4}})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
}  // namespace bench
}  // namespace onesql

ONESQL_BENCH_MAIN("checkpoint")
