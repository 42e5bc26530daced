#ifndef ONESQL_OBS_INSTRUMENTS_H_
#define ONESQL_OBS_INSTRUMENTS_H_

#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace onesql {
namespace obs {

/// Sampling period for the wall-clock operator timers: every Nth dispatch
/// per operator instance is timed. Row counters are never sampled.
inline constexpr int kProfileSampleEvery = 16;

/// Observability knobs. Everything is off by default; a default-constructed
/// engine carries no registry, no recorder, and every instrumentation site
/// reduces to one null-pointer test.
struct ObsOptions {
  bool metrics = false;  ///< Counters, gauges, histograms.
  bool tracing = false;  ///< Span recording into per-thread rings.
  /// Query-level profiling (DESIGN.md §15): per-operator wall-time sampling
  /// and rows/s, and pipeline-stall attribution. Requires `metrics` (the
  /// profile is exported through the same registry); implied-off otherwise.
  bool profiling = false;
};

// -- Typed instrument bundles ------------------------------------------------
//
// Components do not talk to the registry directly; they hold a const pointer
// to a pre-resolved bundle (null when metrics are off). The metric catalog —
// names and labels — therefore lives in exactly one place: ObsContext below.

/// Per-operator counters.
struct OperatorMetrics {
  Counter* rows_in = nullptr;
  Counter* rows_out = nullptr;
  Counter* late_drops = nullptr;
  Gauge* state_bytes = nullptr;
};

/// Per-operator profile instruments (DESIGN.md §15), resolved only when
/// `ObsOptions::profiling` is on. Both are time-valued, so they depend on
/// the host and the load, not only on the data.
struct OperatorProfileMetrics {
  Histogram* wall_us = nullptr;   ///< Sampled per-dispatch wall time.
  Gauge* rows_per_sec = nullptr;  ///< rows_in / seconds since attach.
};

/// Engine-level stall attribution: time a Feed spends blocked on the
/// write-ahead log (append + fsync) before dispatch.
struct EngineProfileMetrics {
  Histogram* feed_wal_stall_us = nullptr;  ///< WAL append+sync per feed.
  Histogram* feed_dispatch_us = nullptr;   ///< Query dispatch per feed.
};

/// Server-side sink fan-out attribution: time spent pushing changelog lines
/// to subscribers after a feed round.
struct ServerProfileMetrics {
  Histogram* fanout_us = nullptr;
};

/// Sink-side changelog and pane metrics for one query.
struct SinkMetrics {
  Counter* emissions = nullptr;     ///< Changelog entries materialized.
  Counter* inserts = nullptr;       ///< Non-undo entries.
  Counter* retractions = nullptr;   ///< Undo entries.
  Counter* late_drops = nullptr;    ///< Inputs past the lateness horizon.
  Counter* panes_early = nullptr;   ///< Speculative panes (AFTER DELAY ticks).
  Counter* panes_on_time = nullptr; ///< Completeness-driven panes.
  Counter* panes_late = nullptr;    ///< Corrections within allowed lateness.
  /// Event-time pane emit latency: emission ptime minus the watermark-passing
  /// ptime of the pane's window (deterministic, so tests can assert exact
  /// sums).
  Histogram* emit_latency_ms = nullptr;
  Gauge* timer_queue_depth = nullptr;
  Gauge* pending_panes = nullptr;
  Gauge* snapshot_rows = nullptr;
};

/// Per-source feed metrics.
struct SourceMetrics {
  Counter* rows = nullptr;
  Counter* watermarks = nullptr;
  /// Watermark lag — feed ptime minus the source's current watermark —
  /// recorded per row event (histogram) and as the current value (gauge).
  Histogram* watermark_lag_ms = nullptr;
  Gauge* watermark_lag_current_ms = nullptr;
};

/// Write-ahead feed log metrics (wall-clock latencies, unlike the
/// event-time metrics above).
struct WalMetrics {
  Counter* appends = nullptr;
  Counter* syncs = nullptr;
  Counter* bytes_written = nullptr;
  Histogram* append_latency_us = nullptr;
  Histogram* sync_latency_us = nullptr;
  /// Records covered by each fsync (DESIGN.md §16): one fsync per Feed
  /// call, so this is the number of events the call logged.
  Histogram* group_size = nullptr;
};

/// Engine-level feed and checkpoint metrics.
struct EngineMetrics {
  Counter* feed_inserts = nullptr;
  Counter* feed_deletes = nullptr;
  Counter* feed_watermarks = nullptr;
  Counter* checkpoint_saves = nullptr;
  Counter* checkpoint_restores = nullptr;
  Histogram* checkpoint_save_ms = nullptr;
  Histogram* checkpoint_restore_ms = nullptr;
  /// Restore's three phases, in microseconds: checkpoint load, feed log
  /// read and decode, and suffix replay (re-attaching the log included).
  Histogram* restore_checkpoint_load_us = nullptr;
  Histogram* restore_log_read_us = nullptr;
  Histogram* restore_replay_us = nullptr;
  Gauge* checkpoint_bytes = nullptr;
  Gauge* queries = nullptr;
  /// Live operator instances across all running queries (chain operators
  /// plus sinks). The multi-tenant sharing tests assert on this: 10k subscribers
  /// behind one shared plan must not move it.
  Gauge* operators = nullptr;
};

/// Standing-query server totals (DESIGN.md §13).
struct ServerMetrics {
  Gauge* sessions = nullptr;          ///< Open sessions.
  Gauge* standing_queries = nullptr;  ///< Live engine queries behind the cache.
  Gauge* subscriptions = nullptr;     ///< Active changelog subscriptions.
  Counter* commands = nullptr;        ///< Wire commands handled.
  Counter* command_errors = nullptr;  ///< Commands answered with an error.
  Counter* deltas_pushed = nullptr;   ///< Changelog lines fanned out.
  Counter* shared_hits = nullptr;     ///< Submits routed onto a running plan.
  Counter* sessions_opened = nullptr;
  Counter* sessions_overflowed = nullptr;  ///< Slow subscribers dropped.
};

/// Per-session server metrics (label: session="s<id>").
struct SessionMetrics {
  Counter* commands = nullptr;
  Counter* deltas_pushed = nullptr;
  Gauge* queue_depth = nullptr;  ///< Outbound lines awaiting the socket.
};

/// Per-shared-plan fan-out metrics (label: plan="p<qid>").
struct SharedPlanMetrics {
  Gauge* subscribers = nullptr;
  Counter* deltas_pushed = nullptr;
};

/// One engine's observability state: the registry, the trace recorder, and
/// the resolved instrument bundles. The context owns the bundles; components
/// borrow const pointers, so attaching observability never changes component
/// lifetimes. All Get* methods return nullptr when metrics are disabled.
class ObsContext {
 public:
  explicit ObsContext(const ObsOptions& options)
      : options_(options),
        registry_(options.metrics ? std::make_unique<MetricsRegistry>()
                                  : nullptr),
        trace_(options.tracing ? std::make_unique<TraceRecorder>()
                               : nullptr) {}

  const ObsOptions& options() const { return options_; }
  MetricsRegistry* registry() { return registry_.get(); }
  TraceRecorder* trace() { return trace_.get(); }

  /// True when the profiling factories hand out real bundles.
  bool profiling_enabled() const {
    return registry_ != nullptr && options_.profiling;
  }

  /// Bundle factories; cached per key, so repeated calls (e.g. a query
  /// rebuilt by Restore) return the same instruments.
  const OperatorMetrics* ForOperator(const std::string& query,
                                     const std::string& op);
  /// Profiling bundles return nullptr unless `profiling_enabled()`.
  const OperatorProfileMetrics* ForOperatorProfile(const std::string& query,
                                                   const std::string& op);
  const EngineProfileMetrics* ForEngineProfile();
  const ServerProfileMetrics* ForServerProfile();
  const SinkMetrics* ForSink(const std::string& query);
  const SourceMetrics* ForSource(const std::string& source);
  const WalMetrics* ForWal();
  const EngineMetrics* ForEngine();
  const ServerMetrics* ForServer();
  const SessionMetrics* ForSession(const std::string& session);
  const SharedPlanMetrics* ForSharedPlan(const std::string& plan);

 private:
  ObsOptions options_;
  std::unique_ptr<MetricsRegistry> registry_;
  std::unique_ptr<TraceRecorder> trace_;

  std::mutex mu_;
  std::vector<std::pair<std::string, std::unique_ptr<OperatorMetrics>>>
      operator_bundles_;
  std::vector<std::pair<std::string, std::unique_ptr<OperatorProfileMetrics>>>
      operator_profile_bundles_;
  std::vector<std::pair<std::string, std::unique_ptr<SinkMetrics>>>
      sink_bundles_;
  std::vector<std::pair<std::string, std::unique_ptr<SourceMetrics>>>
      source_bundles_;
  std::vector<std::pair<std::string, std::unique_ptr<SessionMetrics>>>
      session_bundles_;
  std::vector<std::pair<std::string, std::unique_ptr<SharedPlanMetrics>>>
      shared_plan_bundles_;
  std::unique_ptr<WalMetrics> wal_bundle_;
  std::unique_ptr<EngineMetrics> engine_bundle_;
  std::unique_ptr<EngineProfileMetrics> engine_profile_bundle_;
  std::unique_ptr<ServerMetrics> server_bundle_;
  std::unique_ptr<ServerProfileMetrics> server_profile_bundle_;
};

}  // namespace obs
}  // namespace onesql

#endif  // ONESQL_OBS_INSTRUMENTS_H_
