#ifndef ONESQL_EXEC_DATAFLOW_H_
#define ONESQL_EXEC_DATAFLOW_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "exec/operators.h"
#include "exec/sink.h"
#include "plan/fingerprint.h"
#include "plan/logical_plan.h"

namespace onesql {
namespace exec {

/// The terminal of a plan subtree that several consumers in one chain read
/// (a shared subtree: DESIGN.md §18). The chain compiles the subtree once.
/// Its first consumer is fed live, exactly as the subtree's only copy would
/// feed it. Every change and watermark is also recorded, and the run one
/// input event produced is replayed to each later consumer at the point of
/// the per-source dispatch where that consumer's own copy of the subtree
/// used to sit (see SourceStep). Every consumer therefore sees the run in
/// the order, and at the moment, it did when each had its own copy.
class FanoutOperator : public Operator {
 public:
  /// Adds a consumer after the live one and returns its index (1, 2, ...).
  int AddConsumer(Operator* op, int port);

  /// Replays the recorded run to consumer `index`. The last consumer's
  /// replay ends the run.
  Status Replay(int index);

  /// Drops the recorded run (an error cut the event short).
  void Reset() { size_ = 0; }

  const char* Name() const override { return "fanout"; }

 protected:
  Status ProcessElement(int port, const Change& change) override;
  Status ProcessWatermark(int port, Timestamp watermark,
                          Timestamp ptime) override;

 private:
  struct Record {
    bool is_watermark = false;
    Change change;        ///< elements; the ptime of watermark records
    Timestamp watermark;  ///< watermark records
  };
  Record& Append();

  std::vector<std::pair<Operator*, int>> later_;  ///< consumers 1, 2, ...
  /// The current run is run_[0, size_); records past it keep their row
  /// allocations for reuse.
  std::vector<Record> run_;
  size_t size_ = 0;
};

/// One delivery of a source event within a chain: into a scan, or — where
/// a later occurrence of a shared subtree sat in the plan — a replay of that
/// subtree's recorded run to the occurrence's consumer.
struct SourceStep {
  SourceOperator* scan = nullptr;
  FanoutOperator* fanout = nullptr;  ///< set when scan is null
  int consumer = 0;
};

/// A query's compiled operator chain (everything upstream of the
/// materialization sink). The chain holds only const pointers into the
/// owning QueryPlan.
///
/// The plan is a tree; the chain is a DAG. Each distinct subtree with an
/// operator above its scan (equal plan/fingerprint canonical text) compiles
/// once and feeds all its consumers through a FanoutOperator. A bare scan is
/// never shared: the per-source dispatch list already hands one event to
/// several scans without copying it.
struct CompiledChain {
  /// Distinct operators in build order (pre-order; join: left then right;
  /// later occurrences of a shared subtree add none).
  std::vector<std::unique_ptr<Operator>> operators;
  /// Parallel to `operators`: the `op` metric label — the kind name,
  /// suffixed `_2`, `_3`, ... for repeats in build order.
  std::vector<std::string> labels;
  std::vector<std::unique_ptr<FanoutOperator>> fanouts;
  /// Per source (lower-case): the steps one of its events goes through, in
  /// the pre-order of the plan's scans of it.
  std::unordered_map<std::string, std::vector<SourceStep>> sources;
  std::vector<AggregateOperator*> aggregates;
  std::vector<JoinOperator*> joins;

  /// The operator behind a plan node. `shared` marks the root of a later
  /// occurrence of a shared subtree; the nodes below such a root have no
  /// entry (they are the first occurrence's).
  struct NodeOperator {
    size_t op = 0;
    bool shared = false;
  };
  std::unordered_map<const plan::LogicalNode*, NodeOperator> nodes;

  /// The operator of every plan-tree position, in pre-order: the layout of
  /// a chain section before subtrees were shared (one blob per position).
  std::vector<size_t> positions;

  size_t StateBytes() const;

  /// Delivers one event of a source through its steps. On error every
  /// fan-out drops its partial run, and the status is returned: the
  /// consumers before the failing one got the whole run, the failing one
  /// the run up to its failing change.
  Status PushElement(const std::vector<SourceStep>& steps,
                     const Change& change);
  Status PushWatermark(const std::vector<SourceStep>& steps,
                       Timestamp watermark, Timestamp ptime);

  /// Attaches per-operator instruments from `ctx` under `query_label`, one
  /// bundle per entry of `labels`.
  void AttachObs(obs::ObsContext* ctx, const std::string& query_label);

  /// Serializes every distinct operator's state, in build order: a varint
  /// operator count, then one length-prefixed blob per operator.
  Status SaveState(state::Writer* w) const;

  /// Merges a saved chain section into this chain. The leading count tells
  /// the layouts apart: one blob per distinct operator (SaveState's), or
  /// one per plan-tree position (the layout before sharing), whose later
  /// occurrences of a shared subtree must equal the first byte for byte.
  /// Any other count, or a mismatch, is DataLoss.
  Status LoadState(state::Reader* r);

 private:
  Status Abandon(Status status);
};

/// The bound on the shard-count settings (ExecutionOptions::shards, the
/// server's `shards`), which are range-checked but have no effect. A
/// checkpoint recording more shards is damaged.
inline constexpr int kMaxShards = 4096;

/// An executable continuous query: the query's operator chain ending at one
/// MaterializationSink, driven by pushing chunked source changes and
/// watermarks in processing-time order.
class Dataflow {
 public:
  /// Compiles the plan into its operator chain. Fails with NotImplemented
  /// for plan shapes the streaming runtime does not support (e.g. LEFT
  /// JOIN).
  static Result<std::unique_ptr<Dataflow>> Build(plan::QueryPlan plan);

  /// Pushes pre-chunked input: columnar element runs and watermark
  /// advances, ordered across chunks by per-event sequence number (see
  /// ChunkBuilder). Chunks must arrive in non-decreasing ptime order across
  /// pushes; events of sources the query does not read only move the
  /// processing-time clock. This is the one ingestion path — live feeds,
  /// late-query replay and restore alike. Single-scan chains consume whole
  /// ChangeBatches through the vectorized operator kernels; everything else
  /// is delivered per event in exact sequence order, so output bytes are
  /// identical either way.
  Status PushChunks(const std::vector<const InputChunk*>& chunks);

  /// Advances the processing-time clock to `ptime`, firing all AFTER DELAY
  /// timers due at or before it. Call before observing results at `ptime`.
  Status AdvanceTo(Timestamp ptime);

  /// True if this query reads `source`.
  bool ReadsSource(const std::string& source) const;

  const MaterializationSink& sink() const { return *sink_; }
  const plan::QueryPlan& plan() const { return plan_; }
  /// The plan's fingerprint, from the same subtree texts the chain was
  /// deduplicated by.
  const plan::PlanFingerprint& fingerprint() const { return fingerprint_; }
  const CompiledChain& chain() const { return chain_; }

  /// Total bytes of operator state (aggregations, joins, sink), for the
  /// state-size benchmarks.
  size_t StateBytes() const;

  /// Always 1: every query runs on one chain. Kept for callers of the
  /// former N-chain runtime.
  int shard_count() const { return 1; }

  /// Serializes all runtime state into `w`. Must be called at a feed
  /// boundary (between pushes). Layout: a varint chain count (1), one
  /// length-prefixed chain section, a length-prefixed sink section, and a
  /// routing sequence counter (0) — the layout the N-chain runtime wrote.
  Status SaveState(state::Writer* w) const;

  /// Restores state saved by SaveState into a freshly built runtime for the
  /// same plan. A checkpoint of the N-chain runtime holds N chain sections;
  /// all of them load into the one chain (keyed entries are disjoint across
  /// sections, watermarks merge by maximum, counters sum), and its routing
  /// counter is read and ignored. Structural mismatch or damage yields
  /// DataLoss.
  Status LoadState(state::Reader* r);

  /// Introspection for tests and benchmarks.
  const std::vector<AggregateOperator*>& aggregates() const {
    return chain_.aggregates;
  }
  const std::vector<JoinOperator*>& joins() const { return chain_.joins; }

  /// Attaches observability: per-operator and sink instruments resolved
  /// from `ctx` under `query_label`, and trace spans tagged with
  /// `query_index`. A null context (or one with everything disabled) leaves
  /// all hooks detached — the default state. Call before pushing data.
  void AttachObs(obs::ObsContext* ctx, const std::string& query_label,
                 int query_index);

  /// Publishes instantaneous gauges — per-operator state bytes, sink
  /// timer-queue depth, pending panes, snapshot rows — and each operator's
  /// tallied scalar dispatches. Called at snapshot time; a no-op when
  /// detached.
  void SampleObsGauges();

  /// Zeroes the same gauges SampleObsGauges publishes, after publishing the
  /// last dispatch tallies. Called when the runtime is being torn down
  /// (Engine::DropQuery) so the exposition stops reporting state for a dead
  /// operator tree.
  void ZeroObsGauges();

  /// Live operator instances: every distinct operator (a shared subtree
  /// counts once) plus the sink. The engine sums this into the
  /// `onesql_engine_operators` gauge — the number the multi-tenant sharing
  /// tests pin (10k subscribers behind one shared plan must not move it).
  size_t NumOperators() const { return chain_.operators.size() + 1; }

 private:
  Dataflow() = default;

  /// True when the chain reads exactly one source through exactly one scan
  /// and has no fan-out, the sink keeps no AFTER DELAY timers, and the
  /// chunks relevant to the chain arrive in strictly ascending seq order —
  /// the conditions under which whole batches flow through OnBatch without
  /// changing what per-event delivery emits.
  bool CanPushWholeBatches(
      const std::vector<const InputChunk*>& chunks) const;
  Status PushChunksWhole(const std::vector<const InputChunk*>& chunks);
  Status PushChunksMerged(const std::vector<const InputChunk*>& chunks);

  plan::QueryPlan plan_;
  plan::PlanFingerprint fingerprint_;
  std::unique_ptr<MaterializationSink> sink_;
  CompiledChain chain_;
  obs::TraceRecorder* trace_ = nullptr;
  int32_t query_tag_ = -1;
  /// Steady-clock attach time, the denominator epoch for rows/s gauges.
  uint64_t profile_attach_us_ = 0;
};

}  // namespace exec
}  // namespace onesql

#endif  // ONESQL_EXEC_DATAFLOW_H_
