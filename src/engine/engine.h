#ifndef ONESQL_ENGINE_ENGINE_H_
#define ONESQL_ENGINE_ENGINE_H_

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/changelog.h"
#include "common/result.h"
#include "common/schema.h"
#include "engine/explain.h"
#include "exec/dataflow.h"
#include "obs/instruments.h"
#include "plan/catalog.h"
#include "plan/fingerprint.h"
#include "state/serde.h"
#include "state/wal.h"

namespace onesql {

/// Per-query execution options that are not part of the SQL text. Execute
/// always starts a new query with them: sharing one running query among
/// many subscribers is the standing-query server's (DESIGN.md §13), which
/// finds a running query by its plan fingerprint and counts its handles.
struct ExecutionOptions {
  /// Extension 2's "configurable amount of allowed lateness": groupings
  /// accept late inputs (emitting corrections — the late pane) until the
  /// watermark passes their event-time key by this much. Default zero
  /// reproduces the paper's strict drop semantics.
  Interval allowed_lateness{0};

  /// Has no effect: every query runs on one operator chain. Still
  /// range-checked to [1, exec::kMaxShards]; Execute rejects other values.
  int shards = 1;
};

/// A running continuous query: both renderings of its result TVR are
/// observable at any processing time — the table (snapshot) and the stream
/// (changelog with undo/ptime/ver metadata columns, Extension 4).
class ContinuousQuery {
 public:
  const Schema& output_schema() const { return flow_->plan().output_schema; }
  const plan::QueryPlan& plan() const { return flow_->plan(); }

  /// Stream rendering: the materialized changes so far.
  const std::vector<exec::Emission>& Emissions() const {
    return flow_->sink().emissions();
  }

  /// Schema of the stream rendering: output columns plus undo/ptime/ver.
  Schema StreamSchema() const;

  /// Stream rendering as rows of StreamSchema() (Listing 9 format).
  std::vector<Row> StreamRows() const;

  /// The upsert-stream rendering (Appendix B.2.3 / Section 8 "streaming
  /// changelog options"): the result changelog re-encoded as UPSERT/DELETE
  /// records keyed by the query's event-time grouping key. Requires the
  /// grouping key to be a unique key of the result (true for aggregations);
  /// fails otherwise.
  Result<std::vector<Change>> UpsertStream() const;

  /// Table rendering at processing time `ptime`, with ORDER BY / LIMIT
  /// applied. AFTER DELAY panes due by `ptime` are in it, but reading fires
  /// no timer: the stream is the same whether or not anyone reads the table
  /// (Engine::AdvanceTo is the call that moves the clock).
  Result<std::vector<Row>> SnapshotAt(Timestamp ptime) const;

  /// Table rendering as of all input consumed so far; side-effect free like
  /// SnapshotAt.
  Result<std::vector<Row>> CurrentSnapshot() const;

  /// Current watermark as observed at the query result.
  Timestamp watermark() const { return flow_->sink().watermark(); }

  /// State held by this query's operators, in bytes.
  size_t StateBytes() const { return flow_->StateBytes(); }

  /// Canonical identity of this query's plan (DESIGN.md §13): invariant
  /// under alias renaming and filter-conjunct order, distinct across window
  /// widths, EMIT clauses, and allowed lateness. Two queries with equal
  /// fingerprints render bit-identically, which is the sharing contract the
  /// standing-query server (and the fuzzer's sharing oracle) relies on.
  const plan::PlanFingerprint& plan_fingerprint() const {
    return flow_->fingerprint();
  }

  /// The underlying runtime.
  const exec::Dataflow& dataflow() const { return *flow_; }

 private:
  friend class Engine;
  explicit ContinuousQuery(std::unique_ptr<exec::Dataflow> flow)
      : flow_(std::move(flow)) {}

  Result<std::vector<Row>> Present(std::vector<Row> rows) const;

  std::unique_ptr<exec::Dataflow> flow_;
  Timestamp last_ptime_ = Timestamp::Min();

  // Recorded so Engine::Checkpoint can rebuild this query at restore time:
  // the SQL text is re-planned (plans hold pointers, not bytes) and the
  // runtime is rebuilt, then its operator state is loaded from the
  // checkpoint instead of replaying.
  std::string sql_;
  /// Stable observability label suffix ("q<label>"); not a position in
  /// Engine::queries_ — positions shift when queries are dropped, labels
  /// never do.
  uint64_t obs_label_ = 0;
};

/// The engine: a catalog of streams and tables, a set of running continuous
/// queries, and a recorded event history so that queries issued later replay
/// the full feed (which is how the paper's "8:13>" vs "8:21>" point-in-time
/// SELECTs are reproduced).
class Engine {
 public:
  /// Registers an unbounded relation (stream).
  Status RegisterStream(const std::string& name, Schema schema);

  /// Registers a bounded relation (classic table) with static contents.
  Status RegisterTable(const std::string& name, Schema schema,
                       std::vector<Row> rows);

  /// Parses, binds, optimizes, and starts a continuous query. The recorded
  /// history is replayed into it, so its result reflects all data so far.
  /// The returned pointer remains owned by the engine. After a failed feed
  /// log write it returns the log's DataLoss, as Feed and Checkpoint do.
  Result<ContinuousQuery*> Execute(const std::string& sql);
  Result<ContinuousQuery*> Execute(const std::string& sql,
                                   const ExecutionOptions& options);

  /// Compiles a query without starting it (plan inspection).
  Result<plan::QueryPlan> Plan(const std::string& sql) const;

  /// Stops and destroys `query` at once: its operator state is released, its
  /// observability gauges are zeroed (counters are process-lifetime and
  /// remain), and later Execute calls may reuse nothing from it. Pointers to
  /// the query are invalid afterwards. Fails with NotFound if `query` is not
  /// running here.
  Status DropQuery(ContinuousQuery* query);

  /// Returns a fresh engine carrying the same registrations — every stream
  /// and every static table (with its contents) — but no queries, no feed
  /// history, and no durability/observability attachments. Registration
  /// order is canonical (sorted by name), so two clones are bit-identical
  /// starting points: the differential harness runs one recorded feed
  /// through independently configured clones (feed shapes, restore points)
  /// and demands identical renderings.
  Result<std::unique_ptr<Engine>> CloneRegistrations() const;

  /// Feeds one insertion into a stream at processing time `ptime`.
  /// Processing times must be non-decreasing across all feed calls.
  Status Insert(const std::string& stream, Timestamp ptime, Row row);

  /// Feeds one retraction.
  Status Delete(const std::string& stream, Timestamp ptime, Row row);

  /// Advances a stream's watermark (must be monotonic per stream).
  Status AdvanceWatermark(const std::string& stream, Timestamp ptime,
                          Timestamp watermark);

  /// Feeds a whole recorded dataset: inserts, deletes, watermark advances and
  /// clock moves (FeedEvent::Kind::kClock, what AdvanceTo feeds). The batch
  /// is validated event by event,
  /// recorded into the history as runs of consecutive events of one source,
  /// and then dispatched to every query wholesale (one PushChunks). On a
  /// validation error the valid prefix has already been
  /// dispatched (matching the event-by-event semantics) and the error is
  /// returned. When durable, every accepted event is appended to the feed
  /// log and one fsync covers them all before any query sees one: one fsync
  /// per call that accepts an event. If that append or fsync fails, the call
  /// returns DataLoss and dispatches none of its events, and every later
  /// Feed, Execute and Checkpoint returns the same error.
  ///
  /// Not thread-safe, like every other entry point: callers must not call
  /// Feed (or Insert/Delete/AdvanceWatermark, which route through it)
  /// concurrently with each other or with any other engine call. A stream is
  /// one changelog in processing-time order, fed by one caller; the
  /// standing-query server serializes its sessions' commands.
  Status Feed(const std::vector<FeedEvent>& events);

  /// Moves the processing-time clock to `ptime`, firing every AFTER DELAY
  /// timer due at or before it: a one-event Feed of a clock move, so the
  /// move is checked against the ptime order, logged when durable, and kept
  /// in the history. A query executed later, and an engine restored from a
  /// checkpoint or the log, therefore see the clock move where the running
  /// queries saw it and render the same stream.
  Status AdvanceTo(Timestamp ptime);

  const plan::Catalog& catalog() const { return catalog_; }

  // -- Durability (see DESIGN.md §10) ---------------------------------------

  /// Attaches the write-ahead feed log in `dir` (creating the directory and
  /// its first segment, `feed.wal`, as needed; DESIGN.md §10). From this
  /// point every accepted feed event is appended to the log's tail segment —
  /// and fsync'd — *before* it is dispatched to running queries, so a crash
  /// loses nothing the caller was told was accepted. A Feed call pays one
  /// fsync for all the events it accepts (DESIGN.md §16), so larger calls
  /// spread that cost over more events. The end of the log's tail segment
  /// must match the engine's feed position (`feed_seq()`); restore first if
  /// the log already holds events.
  Status EnableDurability(const std::string& dir);

  /// Writes a checkpoint of the full engine state — catalog, static table
  /// contents, stream watermarks, retained history, and every query's
  /// operator state — to `<dir>/checkpoint.osql`, atomically. Must be called
  /// at a feed boundary (between Feed/Insert calls). If a feed log is
  /// attached it is synced first, so the checkpoint never runs ahead of the
  /// log. When `dir` is the log's directory, the durable checkpoint then
  /// rolls the log to a new segment at its feed position and deletes every
  /// segment wholly below it, so the log holds only what was fed since;
  /// restoring reads and replays only that suffix. A checkpoint written
  /// anywhere else deletes nothing.
  Status Checkpoint(const std::string& dir);

  /// Restores engine state from `dir`: loads `checkpoint.osql` if present
  /// (the engine must hold no data or queries yet), rebuilds every query
  /// with its checkpointed operator state, then reads the feed log segments
  /// from the one holding the checkpoint's feed position on, replays the
  /// records past that position and re-attaches the tail segment. With no
  /// checkpoint file the log is replayed from seq 0 (streams must be
  /// re-registered first in that case). Damaged files — truncation, bit
  /// flips, sequence gaps within or between segments, a log that does not
  /// reach back to the position — fail with Status::DataLoss. On any error
  /// the engine is left as Restore found it: its registrations are kept and
  /// whatever was half restored is cleared, so a later Restore (from a
  /// repaired directory, say) may run on it. A checkpoint
  /// of an older format version is refused with NotImplemented, the engine
  /// untouched; its message names the route back: move the file aside,
  /// register the streams, register each static table again with its rows
  /// (the feed log holds only feed events, so a table's rows live in the
  /// checkpoint alone), Restore() from the feed log alone, then Execute()
  /// the queries again. This build deletes segments only below its own
  /// checkpoints, so such a directory still holds the log from seq 0.
  Status Restore(const std::string& dir);

  /// Number of feed events accepted so far (the WAL sequence position).
  uint64_t feed_seq() const { return feed_seq_; }

  // -- Observability (see DESIGN.md §11) ------------------------------------

  /// Switches the observability layer on. Metrics and tracing are opt-in and
  /// off by default; when disabled the hot path pays a single null-pointer
  /// check per instrumented site. Enabling attaches instruments to every
  /// already-running query and (if durable) the feed log; queries executed
  /// or restored later attach automatically. Counters are process-lifetime:
  /// Checkpoint does not persist them and Restore starts a fresh registry —
  /// only the WAL-suffix replay is counted as processing by the restored
  /// engine, so nothing is double-counted.
  Status EnableObservability(const obs::ObsOptions& options);

  bool observability_enabled() const { return obs_ != nullptr; }

  /// Point-in-time snapshot of every metric. Samples the gauges (operator
  /// state bytes, sink queue depths, snapshot sizes) first, so the snapshot
  /// is coherent at the current feed position. Empty when observability is
  /// off or metrics are disabled. Must be called at a feed boundary.
  obs::MetricsSnapshot MetricsSnapshot();

  /// The recorded trace spans in Chrome trace_event JSON (load into
  /// chrome://tracing or Perfetto). "[]" when tracing is disabled.
  std::string DumpTraceJson() const;

  /// EXPLAIN ANALYZE: the query's logical plan annotated with its live
  /// metrics — per-operator rows in/out, late drops, state bytes, sampled
  /// wall time and rows/s — and the sink's emission counters.
  /// Returns both a human-readable text tree and a JSON document carrying
  /// the same values. Requires observability with metrics enabled; the
  /// profiling extras appear only when `ObsOptions::profiling` is on.
  /// Samples gauges first, so call at a feed boundary.
  Result<ExplainAnalysis> ExplainAnalyze(const ContinuousQuery* query);

  /// The observability context (nullptr until EnableObservability).
  obs::ObsContext* obs() { return obs_.get(); }

  /// Queries running on this engine, in Execute() order — which is also the
  /// checkpoint section order, so after Restore() the i-th query is the one
  /// the i-th Execute() call returned in the checkpointed run.
  size_t num_queries() const { return queries_.size(); }
  ContinuousQuery* query(size_t i) { return queries_[i].get(); }

  /// True when a write-ahead feed log is attached.
  bool durable() const { return wal_.is_open(); }

  /// Number of recorded feed events retained for replaying into queries
  /// executed later. Compaction (see CompactHistory) keeps this bounded:
  /// it no longer grows monotonically with the feed once every running
  /// query's watermark advances.
  size_t history_size() const { return history_events_; }

 private:
  /// Per-feed-call cache of a source's validation state, so the hot loop
  /// resolves the catalog (and the watermark slot) once per source rather
  /// than once per event.
  struct SourceFeedState {
    const plan::TableDef* def = nullptr;
    std::vector<DataType> decl;         // declared column types
    Timestamp* watermark = nullptr;     // lazily bound monotonicity slot
  };

  /// Pointers to the retained history chunks, in the order PushChunks takes.
  std::vector<const exec::InputChunk*> HistoryChunks() const;
  /// Amortized history compaction: triggers when the history doubles past a
  /// floor derived from the running queries' watermarks. Retained invariant:
  /// every event a running query could still accept (above its watermark
  /// minus allowed lateness) survives, plus the last dominated watermark
  /// event per source so replays re-establish the watermark position; a
  /// retraction above the floor whose insert fell below it is dropped with
  /// it, so the retained history stays a valid changelog. With
  /// no queries registered nothing is compacted (the paper's late-executed
  /// point-in-time SELECTs need the full feed).
  void MaybeCompactHistory();
  void CompactHistory();

  /// Serializes the engine-level section of a checkpoint (everything but
  /// the per-query runtime state).
  void SaveEngineSection(state::Writer* w, uint64_t* num_queries) const;
  /// `was_durable` reports whether the checkpointed engine had a feed log
  /// attached — Restore() uses it to tell a never-durable checkpoint apart
  /// from one whose log has gone missing (the latter is DataLoss).
  Status LoadEngineSection(state::Reader* r, uint64_t* num_queries,
                           bool* was_durable);
  /// Restore's first phase: loads `<dir>/checkpoint.osql` if present (the
  /// engine section, then every query). `was_durable` as for
  /// LoadEngineSection; false with no checkpoint.
  Status LoadCheckpoint(const std::string& dir, bool* was_durable);
  /// The segment the restored engine appends to, and where its read ended.
  struct LogTail {
    state::WalSegment segment;
    state::SegmentEnd end;
  };
  /// Restore's second phase: reads the log in `dir` from the segment holding
  /// feed_seq_ on, checking seq continuity across segments, and decodes the
  /// records at or past feed_seq_ onto `suffix`. `tail` is left empty when
  /// the directory holds no log.
  Status ReadLogSuffix(const std::string& dir, bool ckpt_durable,
                       std::vector<FeedEvent>* suffix,
                       std::optional<LogTail>* tail);
  /// Restore's three phases on a pristine engine; on error they may leave
  /// it half restored, which Restore then undoes.
  Status RestorePhases(const std::string& dir);
  /// Rebuilds one checkpointed query (re-plan, rebuild runtime, load
  /// operator state) and appends it to `queries_`.
  Status RestoreQuerySection(state::Reader* r);

  /// Attaches the observability context to a query's runtime under its
  /// stable label ("q<obs_label_>").
  void AttachQueryObs(ContinuousQuery* query);
  /// Per-source instrument bundle, cached so the Feed() hot loop never takes
  /// the registry lock. Null when metrics are disabled.
  const obs::SourceMetrics* SourceObs(const std::string& stream);

  // -- Observability state --------------------------------------------------
  // Declared before the queries: members are destroyed in reverse order, so
  // the context (and the instruments it owns) outlives every runtime that
  // borrowed pointers into it.
  std::unique_ptr<obs::ObsContext> obs_;
  const obs::EngineMetrics* engine_metrics_ = nullptr;
  /// Feed-path stall attribution (WAL append+fsync, dispatch fan-out); null
  /// unless profiling is enabled.
  const obs::EngineProfileMetrics* engine_profile_ = nullptr;
  std::unordered_map<std::string, const obs::SourceMetrics*> source_obs_;

  plan::Catalog catalog_;
  std::vector<std::unique_ptr<ContinuousQuery>> queries_;
  /// Metric label suffix for the next query ("q<label>"). Monotonic — labels
  /// of dropped queries are never reused, so their (process-lifetime)
  /// counters are never conflated with a later query's. Identical to
  /// queries_.size() until the first DropQuery.
  uint64_t next_query_label_ = 0;
  /// The recorded feed, retained in chunked columnar form — the exact form
  /// the runtimes consume (PushChunks), so the hot Feed path appends each
  /// event once and dispatches the same chunks to every query without
  /// re-materializing rows. The chunks are runs that never interleave:
  /// reading them in order, row after row, reads the feed in order.
  std::vector<exec::InputChunk> history_;
  /// Number of feed events the chunks carry (chunk count ≠ event count).
  size_t history_events_ = 0;
  std::unordered_map<std::string, std::vector<Row>> table_rows_;
  std::unordered_map<std::string, Timestamp> stream_watermarks_;
  Timestamp last_ptime_ = Timestamp::Min();
  /// Next history size at which compaction is attempted (doubling schedule).
  size_t compact_at_ = 4096;

  // -- Durability state -----------------------------------------------------
  /// The write-ahead feed log (DESIGN.md §16); closed when not durable.
  state::FeedLog wal_;
  /// Sequence number of the next feed event (counted whether or not a log
  /// is attached, so checkpoints always record their feed position).
  uint64_t feed_seq_ = 0;
};

}  // namespace onesql

#endif  // ONESQL_ENGINE_ENGINE_H_
