#ifndef ONESQL_EXEC_OPERATORS_H_
#define ONESQL_EXEC_OPERATORS_H_

#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/row.h"
#include "exec/accumulator.h"
#include "exec/operator.h"
#include "exec/row_map.h"
#include "plan/logical_plan.h"

namespace onesql {
namespace exec {

/// Entry point of a pipeline: forwards pushed source changes downstream.
/// The dataflow registers one SourceOperator per Scan; the same registered
/// relation may feed several scans (the paper's Listing 2 scans Bid twice).
class SourceOperator : public Operator {
 public:
  Status ProcessElement(int port, const Change& change) override;
  Status ProcessBatch(int port, const ChangeBatch& batch) override;
  Status ProcessWatermark(int port, Timestamp watermark,
                     Timestamp ptime) override;
  const char* Name() const override { return "source"; }
};

/// Stateless row filter: symmetric for INSERTs and DELETEs.
class FilterOperator : public Operator {
 public:
  explicit FilterOperator(const plan::BoundExpr* predicate)
      : predicate_(predicate) {}
  Status ProcessElement(int port, const Change& change) override;
  Status ProcessBatch(int port, const ChangeBatch& batch) override;
  Status ProcessWatermark(int port, Timestamp watermark,
                     Timestamp ptime) override;
  const char* Name() const override { return "filter"; }

 private:
  const plan::BoundExpr* predicate_;
  // Batch-path scratch (capacity reused across batches; downstream consumes
  // an emitted batch synchronously before the next one is built).
  std::vector<uint8_t> keep_;
  ChangeBatch out_batch_;
  Row scratch_row_;
};

/// Stateless projection.
class ProjectOperator : public Operator {
 public:
  explicit ProjectOperator(const std::vector<plan::BoundExprPtr>* exprs)
      : exprs_(exprs) {}
  Status ProcessElement(int port, const Change& change) override;
  Status ProcessBatch(int port, const ChangeBatch& batch) override;
  Status ProcessWatermark(int port, Timestamp watermark,
                     Timestamp ptime) override;
  const char* Name() const override { return "project"; }

 private:
  /// Copies the first `n` weights/ptimes/seqs of `batch` into out_batch_.
  void FillMetaPrefix(const ChangeBatch& batch, size_t n);

  const std::vector<plan::BoundExprPtr>* exprs_;
  ChangeBatch out_batch_;
  Row scratch_row_;
  Change out_;  // scalar-path output, refilled per change
};

/// Windowing TVF (Extension 3): appends wstart/wend. Stateless — DELETEs map
/// to the same windows as the INSERTs they retract.
class WindowOperator : public Operator {
 public:
  explicit WindowOperator(const plan::WindowNode* node) : node_(node) {}
  Status ProcessElement(int port, const Change& change) override;
  Status ProcessBatch(int port, const ChangeBatch& batch) override;
  Status ProcessWatermark(int port, Timestamp watermark,
                     Timestamp ptime) override;
  const char* Name() const override { return "window"; }

  /// Window starts containing event time `t` for the given parameters, in
  /// ascending order. Exposed for property tests.
  static std::vector<Timestamp> AssignWindows(Timestamp t, Interval dur,
                                              Interval hop, Interval offset);

 private:
  /// Appends the window starts containing `t` to `out` (no allocation in
  /// the common tumble case; `out` is caller scratch).
  static void AssignWindowsInto(Timestamp t, Interval dur, Interval hop,
                                Interval offset, std::vector<int64_t>* out);

  const plan::WindowNode* node_;
  ChangeBatch out_batch_;
  std::vector<int64_t> starts_scratch_;
  Change out_;  // scalar-path output, refilled per window
};

/// Time-progressing predicate (Section 8 future work): keeps the sliding
/// tail `et_col > CURRENT_TIME - horizon` of the stream, where CURRENT_TIME
/// is the relation's event-time clock (its watermark). Rows pass through on
/// arrival and are retracted once the watermark passes et + horizon.
class TemporalFilterOperator : public Operator {
 public:
  explicit TemporalFilterOperator(const plan::TemporalFilterNode* node)
      : node_(node) {}
  Status ProcessElement(int port, const Change& change) override;
  Status ProcessWatermark(int port, Timestamp watermark,
                     Timestamp ptime) override;
  const char* Name() const override { return "temporal_filter"; }
  size_t StateBytes() const override;
  Status SaveState(state::Writer* w) const override;
  Status LoadState(state::Reader* r) override;

  size_t live_rows() const { return live_.size(); }
  int64_t expired_rows() const { return expired_; }

 private:
  const plan::TemporalFilterNode* node_;
  std::multimap<int64_t, Row> live_;  // keyed by event time (ms)
  Timestamp watermark_ = Timestamp::Min();
  int64_t expired_ = 0;
};

/// Session windowing (the paper's Section 8 future work: "transitive
/// closure sessions" and "keyed sessions"). Appends wstart/wend columns
/// like Tumble/Hop, but sessions are data-driven: rows whose event times
/// are within `gap` of each other (per optional key) share a session
/// [min_t, max_t + gap). Inserting a row may merge sessions and deleting
/// one may split them, so previously emitted rows are retracted and
/// re-emitted with their new bounds. Sessions whose end passes the
/// watermark are final and their state is released.
class SessionOperator : public Operator {
 public:
  SessionOperator(const plan::WindowNode* node, Interval allowed_lateness)
      : node_(node), allowed_lateness_(allowed_lateness) {}
  Status ProcessElement(int port, const Change& change) override;
  Status ProcessWatermark(int port, Timestamp watermark,
                     Timestamp ptime) override;
  const char* Name() const override { return "session"; }
  size_t StateBytes() const override;
  Status SaveState(state::Writer* w) const override;
  Status LoadState(state::Reader* r) override;

  /// Live (non-final) sessions across all keys.
  size_t NumSessions() const;
  int64_t late_drops() const { return late_drops_; }

 private:
  struct Session {
    Timestamp start;  // min member event time
    Timestamp end;    // max member event time + gap
    std::multimap<Timestamp, Row> rows;
  };
  struct KeyState {
    std::map<Timestamp, Session> sessions;  // by start; disjoint intervals
  };

  Row KeyOf(const Row& row) const;
  Status EmitRow(ChangeKind kind, const Row& row, Timestamp wstart,
                 Timestamp wend, Timestamp ptime);
  Status HandleInsert(KeyState* ks, const Row& row, Timestamp t,
                      Timestamp ptime);
  Status HandleDelete(KeyState* ks, const Row& row, Timestamp t,
                      Timestamp ptime);

  const plan::WindowNode* node_;
  Interval allowed_lateness_{0};
  std::unordered_map<Row, KeyState, RowHash, RowEq> keys_;
  Timestamp watermark_ = Timestamp::Min();
  int64_t late_drops_ = 0;
};

/// Grouped aggregation over a changelog. Emits retraction pairs
/// (DELETE old row, INSERT new row) whenever a group's output changes —
/// never emitting when the output row is unchanged. Implements Extension 2:
/// once the watermark passes every event-time grouping key of a group, the
/// group is complete; its state is purged and late inputs are dropped.
/// Groups are indexed by completion instant, so a watermark visits only the
/// groups it completes.
class AggregateOperator : public Operator {
 public:
  AggregateOperator(const plan::AggregateNode* node,
                    Interval allowed_lateness);
  Status ProcessElement(int port, const Change& change) override;
  Status ProcessBatch(int port, const ChangeBatch& batch) override;
  Status ProcessWatermark(int port, Timestamp watermark,
                     Timestamp ptime) override;
  const char* Name() const override { return "aggregate"; }
  size_t StateBytes() const override;
  Status SaveState(state::Writer* w) const override;
  Status LoadState(state::Reader* r) override;

  /// Number of live groups (state-size benchmarks).
  size_t NumGroups() const { return groups_.size(); }
  /// Inputs dropped because their group was already complete.
  int64_t late_drops() const { return late_drops_; }

 private:
  /// Completion instant (ms) -> hash of the group's key. One entry per live
  /// group when the plan has event-time keys; none otherwise.
  using CompletionIndex = std::multimap<int64_t, size_t>;

  struct GroupState {
    std::vector<AccumulatorPtr> accumulators;
    int64_t row_count = 0;
    bool has_output = false;
    Row last_output;
    CompletionIndex::iterator completion;  // valid when tracks_completion()
  };

  /// Evaluates the group key of `input` into key_scratch_.
  Status EvalKey(const Row& input);
  /// Builds the accumulator set for a fresh group.
  Status MakeGroup(GroupState* state);
  /// Finds the group for `key`, creating it (accumulators and completion
  /// entry) when absent.
  Result<GroupState*> FindOrCreateGroup(const Row& key, size_t hash);
  /// Drops a group whose rows were all retracted.
  void EraseGroup(const Row& key, size_t hash, const GroupState& state);
  /// True when groups complete, i.e. the plan groups by event time.
  bool tracks_completion() const {
    return !node_->event_time_key_indexes().empty();
  }
  /// The instant (ms) at which a group completes: its largest non-NULL
  /// event-time key (Timestamp::Min() when all are NULL). Requires
  /// tracks_completion().
  int64_t CompletionMillis(const Row& key) const;
  /// True when every event-time key of `key` is at or below the watermark
  /// minus the allowed lateness.
  bool IsComplete(const Row& key, Timestamp watermark) const;
  Status EmitGroupUpdate(GroupState* state, const Row& key, Timestamp ptime);
  /// Batch-path per-row core: the key row, its hash, and the per-call
  /// argument values are already evaluated (by vectorized kernels, which
  /// cannot fail — so pre-evaluation cannot reorder errors).
  Status ApplyRow(ChangeKind kind, const Row& key, size_t hash,
                  const Value* args, Timestamp ptime);

  const plan::AggregateNode* node_;
  Interval allowed_lateness_{0};
  FlatRowMap<GroupState> groups_;
  CompletionIndex completion_;
  Timestamp watermark_ = Timestamp::Min();
  int64_t late_drops_ = 0;
  // Batch-path scratch: key/argument columns evaluated a vector at a time.
  std::vector<ColumnVector> key_cols_;
  std::vector<ColumnVector> arg_cols_;
  std::vector<size_t> hash_scratch_;
  std::vector<Value> arg_scratch_;
  Row key_scratch_;
  // Emission scratch: the emitted change, and the next output row (which
  // swaps with the group's last output once emitted).
  Change out_;
  Row next_output_;
};

/// Materializing binary join (inner/cross). Both inputs are kept as
/// key-indexed multisets; changes on one side probe the other and emit the
/// corresponding insertions/retractions of concatenated rows. Optional
/// purge specs release state as the watermark advances (the Section 5
/// lesson on efficient operations over watermarked event-time attributes).
/// Each distinct row with an event time under a purge spec has one entry in
/// an event-time-ordered purge index, and the row holds that entry's
/// iterator: a retraction erases it in O(1), a watermark visits only the
/// rows it releases.
class JoinOperator : public Operator {
 public:
  explicit JoinOperator(const plan::JoinNode* node);
  Status ProcessElement(int port, const Change& change) override;
  Status ProcessWatermark(int port, Timestamp watermark,
                     Timestamp ptime) override;
  const char* Name() const override { return "join"; }
  size_t StateBytes() const override;
  Status SaveState(state::Writer* w) const override;
  Status LoadState(state::Reader* r) override;

  size_t left_rows() const { return left_.size; }
  size_t right_rows() const { return right_.size; }

 private:
  struct RowState;
  /// A bucket: the side's rows with one equi-key, in RowLess order (the
  /// order probes emit in).
  using Bucket = std::map<Row, RowState, RowLess>;
  using BucketMap = std::unordered_map<Row, Bucket, RowHash, RowEq>;
  /// Locates a purge-tracked row: element addresses of both maps are stable
  /// until the element itself is erased.
  struct PurgeEntry {
    std::pair<const Row, Bucket>* bucket;
    std::pair<const Row, RowState>* row;
  };
  /// Event time (ms) -> purge-tracked row, one entry per distinct row.
  using PurgeIndex = std::multimap<int64_t, PurgeEntry>;
  struct RowState {
    int64_t count = 0;           // multiplicity
    PurgeIndex::iterator purge;  // valid when the row is purge-tracked
  };
  struct SideState {
    BucketMap buckets;
    PurgeIndex purge_index;
    size_t size = 0;  // rows counted with multiplicity
  };

  /// Fills key_ with the equi-key of a `left` or right row.
  void EvalKey(const Row& row, bool left);
  Status Probe(const Change& change, const Row& key, bool from_left);
  Status ApplyToState(SideState* side, const Change& change, const Row& key,
                      const std::optional<plan::JoinPurgeSpec>& purge);
  void PurgeSide(SideState* side,
                 const std::optional<plan::JoinPurgeSpec>& purge,
                 Timestamp watermark);
  static void SaveSide(const SideState& side,
                       const std::optional<plan::JoinPurgeSpec>& purge,
                       state::Writer* w);
  static Status LoadSide(SideState* side,
                         const std::optional<plan::JoinPurgeSpec>& purge,
                         state::Reader* r);

  const plan::JoinNode* node_;
  SideState left_;
  SideState right_;
  WatermarkMerger merger_{2};
  Row key_;     // equi-key of the change being processed
  Change out_;  // probe output, refilled per match
};

}  // namespace exec
}  // namespace onesql

#endif  // ONESQL_EXEC_OPERATORS_H_
