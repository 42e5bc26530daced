#ifndef ONESQL_EXEC_DATAFLOW_H_
#define ONESQL_EXEC_DATAFLOW_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "exec/operators.h"
#include "exec/shard_router.h"
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

/// A compiled copy of a query's operator chain (everything upstream of the
/// materialization sink). The chain holds only const pointers into the
/// owning QueryPlan, so several copies — one per shard — can share one plan.
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
  /// suffixed `_2`, `_3`, ... for repeats in build order. Deterministic, so
  /// every shard copy of an operator resolves to the same instrument bundle.
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
  /// `filter` redistributes keyed state at restore time (see
  /// StateKeyFilter); any other count, or a mismatch, is DataLoss.
  Status LoadState(state::Reader* r, const StateKeyFilter* filter);

 private:
  Status Abandon(Status status);
};

class CaptureOperator;
class WorkerPool;

/// The largest shard count a query runs at. Dataflow::Build, Engine::Execute,
/// Engine::Restore and the server's `submit` all enforce this one bound (a
/// checkpoint recording more shards is damaged).
inline constexpr int kMaxShards = 4096;

/// An executable continuous query: the query's operator chain feeding one
/// MaterializationSink, driven by pushing chunked source changes and
/// watermarks in processing-time order.
///
/// The shard count is a value the runtime holds, not a second class. With
/// one shard — or for a plan that cannot be key-partitioned (see
/// shard_router.h) — the single chain ends at the sink and a push is a plain
/// walk of the input. With N > 1 shards the runtime holds N copies of the
/// chain, each fed the key partition of the input it owns plus every
/// watermark, and each ending in a CaptureOperator; shard outputs are merged
/// in input order into the one sink, so emissions and snapshots are
/// bit-identical to the one-shard run (DESIGN.md §9, §16).
///
/// Sharded execution is pipelined: each push opens one epoch, the router
/// streams fixed-size slices of the routed input into the per-shard worker
/// queues as it produces them — so routing of slice k+1 overlaps shard
/// processing of slice k — and the epoch barrier (WorkerPool::EndEpoch)
/// closes the epoch before the deterministic input-order merge runs on the
/// caller thread. Pushes at or below the inline threshold skip the queues and
/// run shard by shard on the caller.
class Dataflow {
 public:
  /// Compiles the plan into `shards` key-partitioned chains. Plans that
  /// cannot be key-partitioned get one chain whatever `shards` says. Fails
  /// with InvalidArgument for `shards` outside [1, kMaxShards], and with
  /// NotImplemented for plan shapes the streaming runtime does not support
  /// (e.g. LEFT JOIN).
  static Result<std::unique_ptr<Dataflow>> Build(plan::QueryPlan plan,
                                                 int shards);
  ~Dataflow();

  /// Pushes pre-chunked input: columnar element runs, watermark advances and
  /// singleton events, ordered across chunks by per-event sequence number
  /// (see ChunkBuilder). Chunks must arrive in non-decreasing ptime order
  /// across pushes; events of sources the query does not read only move the
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
  /// The first shard's chain; every shard's has the same structure and
  /// operator labels.
  const CompiledChain& chain() const { return shards_[0].chain; }

  /// Total bytes of operator state (aggregations, joins, sink), for the
  /// state-size benchmarks. Keyed state is counted per entry, so the total
  /// does not depend on the shard count.
  size_t StateBytes() const;

  /// Number of parallel shards (1 when the plan runs on one chain).
  int shard_count() const { return static_cast<int>(shards_.size()); }

  /// Serializes all runtime state into `w`. Must be called at a feed
  /// boundary (between pushes). Layout: a varint chain count, one
  /// length-prefixed section per chain, a length-prefixed sink section, and
  /// the routing sequence counter (always 0 on one chain) — so state saved
  /// at N shards loads at any other shard count (each loading chain takes
  /// the keyed entries it owns; see StateKeyFilter).
  Status SaveState(state::Writer* w) const;

  /// Restores state saved by SaveState, at any shard count, into a freshly
  /// built runtime for the same plan: every target chain re-reads all saved
  /// chain sections, keeping exactly the keyed state it owns under this
  /// runtime's routing. Structural mismatch or damage yields DataLoss.
  Status LoadState(state::Reader* r);

  /// Introspection for tests and benchmarks, flattened across shards
  /// (shard-major order).
  const std::vector<AggregateOperator*>& aggregates() const {
    return aggregates_;
  }
  const std::vector<JoinOperator*>& joins() const { return joins_; }

  /// Attaches observability: per-operator and sink instruments resolved
  /// from `ctx` under `query_label`, and trace spans tagged with
  /// `query_index`. A null context (or one with everything disabled) leaves
  /// all hooks detached — the default state. Call before pushing data.
  void AttachObs(obs::ObsContext* ctx, const std::string& query_label,
                 int query_index);

  /// Publishes instantaneous gauges — per-operator state bytes (summed
  /// across shards), sink timer-queue depth, pending panes, snapshot rows —
  /// and each operator's tallied scalar dispatches. Called single-threaded
  /// at snapshot time; a no-op when detached.
  void SampleObsGauges();

  /// Zeroes the same gauges SampleObsGauges publishes, after publishing the
  /// last dispatch tallies. Called when the runtime is being torn down
  /// (Engine::DropQuery) so the exposition stops reporting state for a dead
  /// operator tree.
  void ZeroObsGauges();

  /// Live operator instances, counting every shard copy of every distinct
  /// operator (a shared subtree counts once) plus the sink. The engine sums this into the
  /// `onesql_engine_operators` gauge — the number the multi-tenant sharing
  /// tests pin (10k subscribers behind one shared plan must not move it).
  size_t NumOperators() const {
    return shards_.size() * shards_[0].chain.operators.size() + 1;
  }

 private:
  struct Shard {
    std::unique_ptr<CaptureOperator> capture;  ///< null on one chain
    CompiledChain chain;
  };

  /// A position in the flattened chunk list: one input event, living either
  /// as a row of a columnar chunk or as a scalar/watermark chunk.
  struct ChunkRef {
    const InputChunk* chunk = nullptr;
    uint32_t row = 0;  // kRows row index
  };

  static constexpr uint64_t kNoFailure = ~uint64_t{0};
  /// Sharded pushes at or below this many events run inline on the caller
  /// thread; above it the per-shard queues pipeline routing against
  /// processing.
  static constexpr size_t kInlineEventThreshold = 32;
  /// Events routed per dispatched slice. Small enough that a multi-block
  /// push overlaps routing with processing, large enough that the per-slice
  /// queue handoff amortizes.
  static constexpr uint32_t kRouteBlockEvents = 256;

  /// Per-shard worker-side state for the epoch in flight. Reused across
  /// epochs (reset at push entry), so steady-state dispatch allocates
  /// nothing beyond what the sub-batch accumulator retains.
  struct ShardEpochState {
    Status status;
    uint64_t fail_seq = kNoFailure;
    bool failed = false;
    bool started = false;  ///< per-epoch worker init done (failure slot)
    ChangeBatch sub;       ///< chunk scatter: owned rows awaiting delivery
    const std::vector<SourceStep>* sub_ops = nullptr;
  };

  Dataflow();

  bool sharded() const { return pool_ != nullptr; }

  // -- One chain ------------------------------------------------------------
  /// True when the chain reads exactly one source through exactly one scan
  /// and has no fan-out, the sink keeps no AFTER DELAY timers, and the chunks relevant to the
  /// chain arrive in strictly ascending seq order — the conditions under
  /// which whole batches flow through OnBatch without changing what
  /// per-event delivery emits.
  bool CanPushWholeBatches(
      const std::vector<const InputChunk*>& chunks) const;
  Status PushChunksWhole(const std::vector<const InputChunk*>& chunks);
  Status PushChunksMerged(const std::vector<const InputChunk*>& chunks);

  // -- N chains -------------------------------------------------------------
  Status PushChunksSharded(const std::vector<const InputChunk*>& chunks);
  // WorkerPool task trampolines (ctx is the Dataflow).
  static void RunChunkRangeTask(void* ctx, int worker, uint32_t begin,
                                uint32_t end);
  static void RunChunkFlushTask(void* ctx, int worker, uint32_t begin,
                                uint32_t end);
  /// Processes events [begin, end) of the epoch's flattened chunk-ref list
  /// for shard `s`. No-op once the shard has failed this epoch.
  void ProcessChunkRange(int s, uint32_t begin, uint32_t end);
  /// Delivers shard `s`'s accumulated sub-batch to its source operators
  /// (batch-scatter mode); records failure state on error.
  void FlushShardSub(ShardEpochState* st);
  /// Resets per-shard epoch state at push entry.
  void BeginPushEpoch();
  /// Earliest failing input seq across shards; the deterministic error.
  int SelectFailedShard(uint64_t* limit) const;
  /// The input-order merge into the sink, up to (and at, for elements)
  /// `limit`.
  Status MergeEpoch(uint64_t limit);

  plan::QueryPlan plan_;
  plan::PlanFingerprint fingerprint_;
  std::unique_ptr<MaterializationSink> sink_;
  std::vector<Shard> shards_;
  obs::TraceRecorder* trace_ = nullptr;
  int32_t query_tag_ = -1;
  /// Steady-clock attach time, the denominator epoch for rows/s gauges.
  uint64_t profile_attach_us_ = 0;

  // Introspection flattened across shards (shard-major order).
  std::vector<AggregateOperator*> aggregates_;
  std::vector<JoinOperator*> joins_;

  // Sharded state (unused on one chain).
  PartitionSpec spec_;
  std::unique_ptr<WorkerPool> pool_;
  /// Routing sequence: the next pushed event's global input position. Drives
  /// stateless round-robin routing; never advances on one chain.
  uint64_t next_seq_ = 0;
  // Epoch inputs: set by PushChunksSharded before the first dispatch, read
  // by the workers until the epoch barrier, cleared after the merge.
  std::vector<ChunkRef> epoch_refs_;
  std::vector<int> epoch_owner_;
  uint64_t epoch_base_ = 0;
  bool epoch_batch_scatter_ = false;
  std::vector<ShardEpochState> shard_epoch_;
  /// Stall attribution (null unless profiling a sharded runtime):
  /// epoch-barrier wait and merge time per push, plus the worker-queue depth
  /// high-water gauge.
  const obs::QueryProfileMetrics* query_profile_ = nullptr;
};

}  // namespace exec
}  // namespace onesql

#endif  // ONESQL_EXEC_DATAFLOW_H_
