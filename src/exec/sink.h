#ifndef ONESQL_EXEC_SINK_H_
#define ONESQL_EXEC_SINK_H_

#include <map>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/changelog.h"
#include "common/schema.h"
#include "exec/operator.h"
#include "exec/row_map.h"

namespace onesql {
namespace exec {

/// One materialized change of the query result — a row of the stream
/// rendering of the result TVR, with the metadata columns of Extension 4.
struct Emission {
  Row row;
  bool undo = false;   // retraction of a previous row
  Timestamp ptime;     // processing time at which the row materialized
  int64_t ver = 0;     // revision index within the same event-time grouping

  std::string ToString() const;
};

/// Materialization controls applied at the sink (Extensions 4-7).
struct SinkConfig {
  /// EMIT AFTER WATERMARK: materialize a grouping only once its input is
  /// complete (the watermark passed the completeness column value).
  bool after_watermark = false;
  /// EMIT AFTER DELAY d: coalesce updates per grouping, materializing the
  /// net change `d` after the first un-materialized change.
  std::optional<Interval> delay;
  /// Output column holding each row's completeness timestamp (required for
  /// after_watermark).
  std::optional<size_t> completeness_column;
  /// Output columns identifying "the same event-time grouping" for `ver`
  /// numbering and coalescing; empty keys on the whole row.
  std::vector<size_t> version_key_columns;
  /// Groupings stay correctable for this long past their completeness
  /// timestamp; late corrections materialize as the "late pane" of the
  /// early/on-time/late pattern.
  Interval allowed_lateness{0};
};

/// Terminal operator of every dataflow: applies the EMIT materialization
/// controls and materializes the result TVR once, as its stream changelog
/// (`emissions()`, Listing 9 style); the table (`SnapshotAt`, Listing 3/4
/// style) is a fold of that log. With no delay and no watermark gating the
/// sink materializes instantaneously, which is the default view semantics.
class MaterializationSink : public Operator {
 public:
  explicit MaterializationSink(SinkConfig config)
      : config_(std::move(config)) {}

  Status ProcessElement(int port, const Change& change) override;
  Status ProcessBatch(int port, const ChangeBatch& batch) override;
  Status ProcessWatermark(int port, Timestamp watermark,
                     Timestamp ptime) override;
  const char* Name() const override { return "sink"; }

  /// Attaches per-query sink instruments (nullptr detaches — the default).
  /// Counter updates happen inline; queue-depth/snapshot gauges are sampled
  /// by SampleObs so the hot path never touches them.
  void AttachSinkMetrics(const obs::SinkMetrics* metrics) {
    sink_metrics_ = metrics;
  }

  /// Attaches span recording: every Flush (pane materialization) records a
  /// "sink_flush" span tagged with the query index.
  void AttachTrace(obs::TraceRecorder* trace, int32_t query_tag) {
    trace_ = trace;
    query_tag_ = query_tag;
  }

  /// Publishes the sink's instantaneous sizes (timer queue depth, pending
  /// panes, snapshot rows) to the attached gauges. Called at snapshot time,
  /// single-threaded.
  void SampleObs() const;

  /// Zeroes the same gauges SampleObs publishes; called when the sink's
  /// query is dropped so the exposition stops reporting its sizes.
  void ZeroObs() const;

  /// Advances the sink's processing-time clock, firing AFTER DELAY timers
  /// with deadline < `now` (exclusive) or <= `now` (inclusive). The engine
  /// fires exclusively before delivering an event at `now` and inclusively
  /// before observing results at `now`.
  Status AdvanceTo(Timestamp now, bool inclusive);

  /// The stream rendering of the result TVR.
  const std::vector<Emission>& emissions() const { return emissions_; }

  /// The table rendering: result rows as of processing time `ptime`
  /// (all timers <= ptime must have been fired; use Dataflow/Engine APIs).
  /// Queries at or past the latest materialization are served from the
  /// incrementally maintained row map in O(result size); only genuinely
  /// historical (point-in-time) queries fold the emissions up to `ptime`.
  std::vector<Row> SnapshotAt(Timestamp ptime) const;
  std::vector<Row> CurrentSnapshot() const;

  Timestamp watermark() const { return merger_.combined(); }
  int64_t late_drops() const { return late_drops_; }
  /// Total emissions replayed by historical SnapshotAt calls.
  /// Regression guard: CurrentSnapshot and up-to-date SnapshotAt calls must
  /// not scan the log at all (they used to replay it in full).
  int64_t changelog_entries_scanned() const {
    return changelog_entries_scanned_;
  }
  size_t StateBytes() const override;

  /// Serializes the whole sink — key states (none in instant modes), timer
  /// queues and the emission log — in the canonical encoding.
  Status SaveState(state::Writer* w) const override;

  /// Restores into a freshly constructed sink (same SinkConfig). The row
  /// map, and in instant modes every `ver` counter, is the fold of the
  /// restored emissions; old-layout instant key states or changelog that
  /// disagree with them are DataLoss.
  Status LoadState(state::Reader* r) override;

 private:
  /// Deadline or completeness instant -> key, firing in (instant, arrival)
  /// order.
  using TimerQueue = std::multimap<Timestamp, Row>;

  /// A grouping's state under AFTER WATERMARK / AFTER DELAY; instant modes
  /// keep none.
  struct KeyState {
    // Net result rows already materialized / not yet materialized.
    std::map<Row, int64_t, RowLess> last;
    std::map<Row, int64_t, RowLess> current;
    std::optional<Timestamp> deadline;
    // The key's entry in timers_, valid while `deadline` is set, so
    // reclaiming the key erases its timer without a search.
    TimerQueue::iterator timer;
    std::optional<Timestamp> completeness;
    bool on_time_fired = false;
    bool complete = false;
    int64_t next_ver = 0;
  };

  /// Which pane of the early/on-time/late pattern a Flush materializes:
  /// delay-timer flushes are speculative (early), completeness-driven
  /// flushes are on-time, and corrections within the lateness budget are
  /// late. A flush that materializes nothing counts no pane.
  enum class PaneKind { kEarly, kOnTime, kLate };

  /// One row of the table: its multiplicity and, in instant whole-row
  /// mode, where the row is its own version key, the row's next `ver`.
  /// There a row at count zero keeps its entry (and ver counter) and
  /// readers skip it; in the other modes zero-count rows are erased.
  struct RowEntry {
    int64_t count = 0;
    int64_t next_ver = 0;
  };

  bool instant() const {
    return !config_.after_watermark && !config_.delay.has_value();
  }
  Row KeyOf(const Row& row) const;
  Status Flush(KeyState* state, Timestamp ptime, PaneKind pane);
  void MaybeReclaim(const Row& key);
  /// Points each restored key state at its restored timer (LoadState).
  Status LinkTimers();
  /// Appends one emission and folds it into the row map. `hash` is
  /// HashRow(row) (hot callers already have it).
  void Materialize(const Row& row, bool undo, Timestamp ptime, int64_t ver,
                   size_t hash);
  /// The table's fold step, with SnapshotOf's multiset semantics. A row at
  /// count zero is erased unless its entry carries a ver counter.
  static void Fold(FlatRowMap<RowEntry>* rows, bool undo, const Row& row,
                   size_t hash);
  /// The instant-mode path, for both key shapes.
  Status ApplyInstant(bool is_delete, const Row& row, Timestamp ptime);
  /// The instant-mode `ver` counter of `row`'s key, created at 0 if absent.
  /// `hash` is HashRow(row).
  int64_t* VerCounter(const Row& row, size_t hash);
  /// True when rows `a` and `b` have the same version key.
  bool SameVersionKey(const Row& a, const Row& b) const;
  /// Older checkpoints saved instant-mode key states; each must equal the
  /// emissions' fold restricted to its key, or DataLoss.
  Status CheckOldKeyStates(
      const std::vector<std::pair<Row, KeyState>>& old_keys) const;

  SinkConfig config_;
  std::unordered_map<Row, KeyState, RowHash, RowEq> keys_;
  // deadline -> keys with AFTER DELAY timers.
  TimerQueue timers_;
  // completeness timestamp -> keys awaiting the watermark.
  TimerQueue pending_complete_;

  std::vector<Emission> emissions_;  // the one log, non-decreasing in ptime
  FlatRowMap<RowEntry> rows_;        // the current table: emissions_ folded
  // Version-keyed instant mode: key -> next `ver`.
  FlatRowMap<int64_t> vers_;
  Change change_scratch_;  // batch-path scratch
  Row key_scratch_;        // VerCounter's projected version key
  WatermarkMerger merger_{1};
  Timestamp now_ = Timestamp::Min();
  int64_t late_drops_ = 0;
  mutable int64_t changelog_entries_scanned_ = 0;
  const obs::SinkMetrics* sink_metrics_ = nullptr;
  obs::TraceRecorder* trace_ = nullptr;
  int32_t query_tag_ = -1;
};

}  // namespace exec
}  // namespace onesql

#endif  // ONESQL_EXEC_SINK_H_
