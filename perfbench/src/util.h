// Shared pieces of the benchmark: clocks and percentiles, the result report
// that ends every run with one JSON line, the benchmark's own span tracer,
// changelog folding for the output checks, and the machine probe.
#ifndef PERFBENCH_UTIL_H_
#define PERFBENCH_UTIL_H_

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/row.h"
#include "exec/sink.h"

namespace perfbench {

int64_t NowNs();

/// CPU time of this process, all threads, in ns. Unlike the wall clock it
/// leaves out the time the host ran other guests on our vCPUs (steal),
/// which on a shared host swings from 1% to over 10% between runs.
int64_t ProcessCpuNs();

/// CPU time of process `pid`, all threads, in ns.
int64_t ProcessCpuNs(pid_t pid);
inline double NsToUs(int64_t ns) { return static_cast<double>(ns) / 1e3; }
inline double NsToS(int64_t ns) { return static_cast<double>(ns) / 1e9; }

double Median(std::vector<double> v);

/// A latency sample set: the median and the highest percentile (at most 99)
/// that still has at least ten samples beyond it.
struct Tail {
  double p50 = 0;
  double tail = 0;
  double tail_pct = 0;
  size_t n = 0;
};
Tail Summarize(std::vector<double> v);

/// Latencies of epochs that repeat the same calls: series[e][i] is call i
/// of epoch e (NaN where a call left no sample). Each call's latency is its
/// median over the epochs, so contention that hits one epoch does not move
/// it; the summary is taken over the calls.
Tail SummarizeCalls(const std::vector<std::vector<double>>& series);

/// The sum over calls of each call's median over the epochs: an epoch's
/// duration rebuilt from its calls, as steady as the latencies are.
double SumOfCallMedians(const std::vector<std::vector<double>>& series);

/// Values formatted with `fmt` and joined by spaces (for note lines).
std::string Join(const std::vector<double>& values, const char* fmt);

/// Peak resident set (VmHWM) of `pid` (0 = this process), in MiB.
double PeakRssMb(pid_t pid = 0);

/// Filesystem helpers (everything the benchmark writes stays under the
/// checkout's build directory).
void RemoveTree(const std::string& path);
void MakeDirs(const std::string& path);
double FileMb(const std::string& path);

/// The result of one run: named metrics with units, operation counts, and
/// the output checks. Print() writes one human line per metric and check,
/// then the contract's last line: {"correct","attempted","failed","metrics"}.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  /// A note line printed before the result (never part of the JSON).
  void Note(const std::string& line);
  /// Counts one attempted operation; `ok == false` counts it as failed.
  void Op(bool ok, const std::string& what = "");
  /// An output check: counts as an operation, and a failure marks the run
  /// incorrect.
  void Check(bool ok, const std::string& what);
  bool correct() const { return correct_ && failed_ == 0; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  /// Prints everything; returns the JSON line.
  std::string Print() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  std::vector<std::string> notes_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  bool correct_ = true;
};

/// The benchmark's own tracer: spans around calls into the engine's public
/// API, kept in memory and written as a Chrome trace_event array when the
/// run ends (tools/profile_report.py aggregates the same format). Spans
/// nest on one thread; a span's parent is the span open when it began.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  /// Batch id shared by every span of one feed call.
  void SetBatch(uint64_t batch) { batch_ = batch; }
  int Begin(std::string name);
  void End(int span);

  struct Agg {
    uint64_t count = 0;
    int64_t total_ns = 0;
    int64_t self_ns = 0;
  };
  /// Per-name totals; self time is a span minus its children.
  std::map<std::string, Agg> Aggregate() const;
  std::string ChromeJson() const;
  size_t size() const { return spans_.size(); }

 private:
  struct Span {
    std::string name;
    int64_t start_ns;
    int64_t end_ns;
    int parent;
    uint64_t batch;
  };
  bool enabled_;
  uint64_t batch_ = 0;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a no-op when the tracer is off or null.
class Scope {
 public:
  Scope(Tracer* t, std::string name)
      : t_(t != nullptr && t->enabled() ? t : nullptr),
        id_(t_ != nullptr ? t_->Begin(std::move(name)) : -1) {}
  ~Scope() {
    if (t_ != nullptr) t_->End(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* t_;
  int id_;
};

/// A changelog folded into a bag of rows: inserts add one, retractions
/// remove one. Equal to the table rendering when the changelog is right.
class Fold {
 public:
  void Apply(const onesql::exec::Emission& e);
  /// Folds a row keyed by an already-rendered string (wire deltas).
  void ApplyKey(const std::string& key, bool undo);
  /// True when some key went negative (a retraction of an absent row).
  bool underflow() const { return underflow_; }
  const std::unordered_map<std::string, int64_t>& bag() const { return bag_; }

 private:
  std::unordered_map<std::string, int64_t> bag_;
  bool underflow_ = false;
};

/// Bag of rendered rows (the table rendering in Fold's key space).
std::unordered_map<std::string, int64_t> BagOf(
    const std::vector<onesql::Row>& rows);

/// Order-sensitive digest of a whole changelog: rows, undo, ptime, ver.
uint64_t DigestEmissions(const std::vector<onesql::exec::Emission>& es);

/// The machine every result set is recorded with; `optimized` is false for
/// a build that must not record numbers.
struct Machine {
  unsigned nproc = 0;
  double effective_cores = 0;
  double fsync_p50_us = 0;
  double fsync_tail_us = 0;
  double fsync_tail_pct = 0;
  std::string compiler;
  std::string build_type;
  bool optimized = false;
  std::string ToJson() const;
};
Machine ProbeMachine(const std::string& state_dir);

}  // namespace perfbench

#endif  // PERFBENCH_UTIL_H_
