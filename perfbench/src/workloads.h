// Entry points of the end-to-end runs and of the traced (per-layer) run.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "feeds.h"
#include "util.h"

namespace perfbench {

struct RunConfig {
  uint32_t seed = 1;
  double seconds = 10;
  /// Scratch directory for durable state and checkpoints (inside the
  /// checkout's build directory).
  std::string work_dir;
  /// The onesql_serve binary (nexmark-serve and the TCP layer).
  std::string server_bin;
  /// Self-test: corrupt every expected result so each check must fail.
  bool corrupt_expected = false;
  /// Where the traced run writes its Chrome trace.
  std::string trace_path;
};

/// What a run measured, as the end-to-end metrics are computed from it.
/// The call series are [epoch][call]; every epoch replays the same calls.
struct Measured {
  size_t events = 0;  ///< events in one epoch's timed phase
  /// Wall clock: a feed call until it returns (in process) or its ack
  /// arrives (wire); until every subscriber holds its last delta; and the
  /// time the phase's throughput is rebuilt from (in process: feed plus
  /// fold; wire: one line's send to the next line's send).
  std::vector<std::vector<double>> feed_us, deliver_us, span_us;
  /// CPU time of the process holding the engine over the same intervals
  /// (wire: the server child from send to ack, and send to next send).
  std::vector<std::vector<double>> feed_cpu_us, deliver_cpu_us;
  /// Set-up in CPU time of the engine's process (wire: the server child's
  /// CPU time until it is serving) and on the wall clock.
  std::vector<double> setup_s, setup_wall_s;
  std::vector<double> restore_s, restore_cpu_s, checkpoint_mb;
  double peak_rss_mb = 0;
};

/// Prints the wall-clock figures and reports the end-to-end metrics: CPU
/// time of the engine's process per call (steal left out), set-up, memory,
/// restore and checkpoint size.
void ReportEndToEnd(const Measured& m, Report* report);

/// nexmark-join, nexmark-recover and keyed-agg-sharded: one in-process
/// engine per epoch, epochs repeated until `seconds` have passed.
void RunInProcess(const Workload& w, const RunConfig& cfg, Report* report);

/// nexmark-serve: an onesql_serve child per epoch, one feeder and two
/// subscriber connections driven from one poll loop.
void RunServe(const Workload& w, const RunConfig& cfg, Report* report);

/// The server's per-session outbound bound (--max-session-queue). The
/// feeder waits only for its acks, so nothing slows it when the server's
/// writer threads fall behind; with the shipped 1024 lines a subscriber was
/// dropped whenever other tenants starved the writer for ~15 feed lines
/// (and one 1,000-event line of the join queries alone overflows it). An
/// epoch's whole changelog fits in this bound, so no subscriber is dropped
/// and lag shows as delivery time.
inline constexpr size_t kSessionQueueLines = size_t{1} << 20;

/// One pass of a workload's feed through an onesql_serve child: the
/// feeder sends `feed` lines and waits for each ack while subscriber
/// connections drain their pushes, all from one poll loop.
struct WireEpoch {
  double setup_s = 0;       // the server child's CPU time when serving
  double setup_wall_s = 0;
  std::vector<double> feed_us;     // send of a feed line -> its ack
  std::vector<double> deliver_us;  // send -> last delta it caused, everywhere
  std::vector<double> cycle_us;    // send of a feed line -> send of the next
  std::vector<double> feed_cpu_us;   // server CPU time, send -> ack
  std::vector<double> cycle_cpu_us;  // server CPU time, send -> next send
  int64_t timed_ns = 0;
  uint64_t events = 0;
  uint64_t deltas = 0;
  uint64_t wire_bytes = 0;  // both directions, timed phase only
  double peak_rss_mb = 0;   // the server child's VmHWM
  double checkpoint_mb = 0;
  double restore_s = 0;
  double restore_cpu_s = 0;  // the restarted server's CPU time until hello
};

/// Runs one epoch. With `full`, also checks the subscribers' folded deltas
/// against `snapshot`, checkpoints, restarts the server on the same
/// directory and checks the restarted server renders the same.
bool ServeEpoch(const Workload& w, const std::vector<std::string>& feed_lines,
                const RunConfig& cfg, bool full, WireEpoch* out,
                Report* report);

/// The `feed` request line of every batch.
std::vector<std::string> FeedLines(const Workload& w);

/// The traced run: spans around public calls plus the layer waterfall.
void RunLayers(const Workload& w, const RunConfig& cfg, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
