#ifndef ONESQL_BENCH_BENCH_UTIL_H_
#define ONESQL_BENCH_BENCH_UTIL_H_

#include <benchmark/benchmark.h>

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/table_printer.h"
#include "engine/engine.h"

namespace onesql {
namespace bench {

inline Timestamp T(int h, int m) { return Timestamp::FromHMS(h, m); }

inline Schema PaperBidSchema() {
  return Schema({{"bidtime", DataType::kTimestamp, true},
                 {"price", DataType::kBigint},
                 {"item", DataType::kVarchar}});
}

/// The paper's Section 4 example dataset.
inline std::vector<FeedEvent> PaperDataset() {
  std::vector<FeedEvent> feed;
  auto bid = [&](int ph, int pm, int eh, int em, int64_t price,
                 const char* item) {
    FeedEvent e;
    e.kind = FeedEvent::Kind::kInsert;
    e.source = "Bid";
    e.ptime = T(ph, pm);
    e.row = {Value::Time(T(eh, em)), Value::Int64(price),
             Value::String(item)};
    feed.push_back(std::move(e));
  };
  auto wm = [&](int ph, int pm, int eh, int em) {
    FeedEvent e;
    e.kind = FeedEvent::Kind::kWatermark;
    e.source = "Bid";
    e.ptime = T(ph, pm);
    e.watermark = T(eh, em);
    feed.push_back(std::move(e));
  };
  wm(8, 7, 8, 5);
  bid(8, 8, 8, 7, 2, "A");
  bid(8, 12, 8, 11, 3, "B");
  bid(8, 13, 8, 5, 4, "C");
  wm(8, 14, 8, 8);
  bid(8, 15, 8, 9, 5, "D");
  wm(8, 16, 8, 12);
  bid(8, 17, 8, 13, 1, "E");
  bid(8, 18, 8, 17, 6, "F");
  wm(8, 21, 8, 20);
  return feed;
}

/// The paper's Q7 (Listing 2), over the (bidtime, price, item) Bid schema.
inline std::string PaperQ7(const std::string& emit = "") {
  return R"(
    SELECT MaxBid.wstart, MaxBid.wend,
           Bid.bidtime, Bid.price, Bid.item
    FROM
      Bid,
      (SELECT MAX(TumbleBid.price) maxPrice,
              TumbleBid.wstart wstart, TumbleBid.wend wend
       FROM Tumble(data    => TABLE(Bid),
                   timecol => DESCRIPTOR(bidtime),
                   dur     => INTERVAL '10' MINUTE) TumbleBid
       GROUP BY TumbleBid.wend) MaxBid
    WHERE Bid.price = MaxBid.maxPrice AND
          Bid.bidtime >= MaxBid.wend - INTERVAL '10' MINUTE AND
          Bid.bidtime < MaxBid.wend
  )" + emit;
}

/// Renders a snapshot in the paper's table style.
inline std::string RenderRows(const Schema& schema,
                              const std::vector<Row>& rows,
                              const std::vector<std::string>& dollar = {
                                  "price", "maxPrice"}) {
  TablePrinter printer(schema);
  for (const std::string& col : dollar) printer.MarkDollarColumn(col);
  printer.AddRows(rows);
  return printer.ToString();
}

/// Renders a query's stream view (Listing 9 style).
inline std::string RenderStream(const ContinuousQuery& query,
                                const std::vector<std::string>& dollar = {
                                    "price", "maxPrice"}) {
  TablePrinter printer(query.StreamSchema());
  for (const std::string& col : dollar) printer.MarkDollarColumn(col);
  printer.AddRows(query.StreamRows());
  return printer.ToString();
}

inline void PrintSection(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

// ---------------------------------------------------------------------------
// Machine-readable benchmark output
// ---------------------------------------------------------------------------

/// The machine a result was measured on, as a JSON object: vCPUs, compiler,
/// and the median fsync latency of a 4 KiB append in the working directory
/// (200 appends — the method perfbench's machine record uses).
inline std::string MachineJson() {
  std::vector<double> fsync_us;
  const char* probe = "bench_fsync_probe";
  const int fd = ::open(probe, O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd >= 0) {
    const std::string block(4096, 'x');
    for (int i = 0; i < 200; ++i) {
      if (::write(fd, block.data(), block.size()) < 0) break;
      const auto t0 = std::chrono::steady_clock::now();
      if (::fsync(fd) != 0) break;
      fsync_us.push_back(std::chrono::duration<double, std::micro>(
                             std::chrono::steady_clock::now() - t0)
                             .count());
    }
    ::close(fd);
    ::unlink(probe);
  }
  std::sort(fsync_us.begin(), fsync_us.end());
  const double p50 = fsync_us.empty() ? 0 : fsync_us[fsync_us.size() / 2];
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"vcpus\":%u,\"compiler\":\"g++ %s\",\"fsync_p50_us\":%.1f}",
                std::max(1u, std::thread::hardware_concurrency()), __VERSION__,
                p50);
  return buf;
}

/// Console reporter that additionally collects every measured run and dumps a
/// compact JSON summary — one record per benchmark instance with p50/p95/p99
/// per-iteration time across its repetitions (a single repetition collapses
/// the three to the same value) plus the median of the throughput counters
/// across repetitions when the benchmark reported them. Keeps the
/// human-readable console table intact.
class JsonBenchReporter : public ::benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    ConsoleReporter::ReportRuns(reports);
    for (const Run& run : reports) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      std::string key = run.run_name.function_name;
      if (!run.run_name.args.empty()) key += "/" + run.run_name.args;
      Samples& s = samples_[key];
      s.params = run.run_name.args;
      s.iterations += run.iterations;
      const double iters =
          run.iterations > 0 ? static_cast<double>(run.iterations) : 1.0;
      s.time_ns.push_back(run.real_accumulated_time / iters * 1e9);
      auto items = run.counters.find("items_per_second");
      if (items != run.counters.end()) s.items_per_second.push_back(items->second);
      auto bytes = run.counters.find("bytes_per_second");
      if (bytes != run.counters.end()) s.bytes_per_second.push_back(bytes->second);
    }
  }

  /// Writes `BENCH_<bench_name>.json` into the working directory, with the
  /// machine record (MachineJson) beside the entries. Refuses
  /// (and fails the process) when no benchmark entry was collected: an empty
  /// baseline silently disarms every downstream regression comparison, which
  /// is exactly how an all-filtered run once shipped an empty
  /// BENCH_nexmark.json.
  bool WriteJson(const std::string& bench_name) {
    const std::string path = "BENCH_" + bench_name + ".json";
    if (samples_.empty()) {
      std::fprintf(stderr,
                   "refusing to write %s: zero benchmark entries were "
                   "collected (over-broad --benchmark_filter?)\n",
                   path.c_str());
      return false;
    }
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return false;
    }
    std::fprintf(f, "{\"bench\":\"%s\",\"machine\":%s,\"benchmarks\":[",
                 bench_name.c_str(), MachineJson().c_str());
    bool first = true;
    for (auto& [name, s] : samples_) {
      std::sort(s.time_ns.begin(), s.time_ns.end());
      std::sort(s.items_per_second.begin(), s.items_per_second.end());
      std::sort(s.bytes_per_second.begin(), s.bytes_per_second.end());
      std::fprintf(
          f,
          "%s\n  {\"name\":\"%s\",\"params\":\"%s\",\"repetitions\":%zu,"
          "\"iterations\":%lld,\"p50_ns\":%.1f,\"p95_ns\":%.1f,"
          "\"p99_ns\":%.1f,\"items_per_second\":%.1f,"
          "\"bytes_per_second\":%.1f}",
          first ? "" : ",", Escape(name).c_str(), Escape(s.params).c_str(),
          s.time_ns.size(), static_cast<long long>(s.iterations),
          Percentile(s.time_ns, 50), Percentile(s.time_ns, 95),
          Percentile(s.time_ns, 99), Percentile(s.items_per_second, 50),
          Percentile(s.bytes_per_second, 50));
      first = false;
    }
    std::fprintf(f, "\n]}\n");
    std::fclose(f);
    std::printf("wrote %s\n", path.c_str());
    return true;
  }

 private:
  struct Samples {
    std::string params;
    long long iterations = 0;
    std::vector<double> time_ns;  // per-iteration time, one per repetition
    // Throughput counters, one per repetition; the median is reported.
    std::vector<double> items_per_second;
    std::vector<double> bytes_per_second;
  };

  static double Percentile(const std::vector<double>& sorted, int pct) {
    if (sorted.empty()) return 0;
    size_t rank = (sorted.size() * static_cast<size_t>(pct) + 99) / 100;
    if (rank > 0) --rank;
    if (rank >= sorted.size()) rank = sorted.size() - 1;
    return sorted[rank];
  }

  static std::string Escape(const std::string& in) {
    std::string out;
    for (char c : in) {
      if (c == '"' || c == '\\') out.push_back('\\');
      out.push_back(c);
    }
    return out;
  }

  std::map<std::string, Samples> samples_;
};

/// Shared driver for every bench binary: parses benchmark flags, runs the
/// registered benchmarks through the JSON-collecting reporter, and writes
/// BENCH_<bench_name>.json next to the console output.
inline int RunBenchmarksAndDumpJson(const std::string& bench_name, int* argc,
                                    char** argv) {
  ::benchmark::Initialize(argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(*argc, argv)) return 1;
  JsonBenchReporter reporter;
  ::benchmark::RunSpecifiedBenchmarks(&reporter);
  const bool ok = reporter.WriteJson(bench_name);
  ::benchmark::Shutdown();
  return ok ? 0 : 1;
}

}  // namespace bench
}  // namespace onesql

/// Drop-in replacement for BENCHMARK_MAIN() that also emits the JSON summary.
#define ONESQL_BENCH_MAIN(bench_name)                                       \
  int main(int argc, char** argv) {                                         \
    return ::onesql::bench::RunBenchmarksAndDumpJson(bench_name, &argc,     \
                                                     argv);                 \
  }

#endif  // ONESQL_BENCH_BENCH_UTIL_H_
