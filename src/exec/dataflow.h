#ifndef ONESQL_EXEC_DATAFLOW_H_
#define ONESQL_EXEC_DATAFLOW_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "exec/operators.h"
#include "exec/shard_router.h"
#include "exec/sink.h"
#include "plan/logical_plan.h"

namespace onesql {
namespace exec {

/// A compiled copy of a query's operator chain (everything upstream of the
/// materialization sink). The chain holds only const pointers into the
/// owning QueryPlan, so several copies — one per shard — can share one plan.
struct CompiledChain {
  std::vector<std::unique_ptr<Operator>> operators;
  std::unordered_map<std::string, std::vector<SourceOperator*>> sources;
  std::vector<AggregateOperator*> aggregates;
  std::vector<JoinOperator*> joins;

  size_t StateBytes() const;

  /// Attaches per-operator instruments from `ctx` under `query_label`. The
  /// `op` label is the operator's kind name, suffixed `_2`, `_3`, ... for
  /// repeats in chain-build order — deterministic, so every shard copy of a
  /// chain position resolves to the same shared instrument bundle.
  void AttachObs(obs::ObsContext* ctx, const std::string& query_label);

  /// Serializes every operator's state, in the chain's deterministic build
  /// order, as one length-prefixed blob per operator.
  Status SaveState(state::Writer* w) const;

  /// Merges a saved chain section into this chain: operator blobs are
  /// length-prefixed, each handed to the operator at the same position.
  /// `filter` redistributes keyed state at restore time (see
  /// StateKeyFilter); the chain structure (a pure function of the plan) must
  /// match the saved one, or DataLoss is returned.
  Status LoadState(state::Reader* r, const StateKeyFilter* filter);
};

class CaptureOperator;
class WorkerPool;

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
  /// with InvalidArgument for `shards < 1`, and with NotImplemented for plan
  /// shapes the streaming runtime does not support (e.g. LEFT JOIN).
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
  /// across shards), sink timer-queue depth, pending panes, snapshot rows.
  /// Called single-threaded at snapshot time; a no-op when detached.
  void SampleObsGauges();

  /// Zeroes the same gauges SampleObsGauges publishes. Called when the
  /// runtime is being torn down (Engine::DropQuery) so the exposition stops
  /// reporting state for a dead operator tree. A no-op when detached.
  void ZeroObsGauges();

  /// Live operator instances, counting every shard copy of every chain
  /// position plus the sink. The engine sums this into the
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
    const std::vector<SourceOperator*>* sub_ops = nullptr;
  };

  Dataflow();

  bool sharded() const { return pool_ != nullptr; }

  // -- One chain ------------------------------------------------------------
  /// True when the chain reads exactly one source through exactly one scan,
  /// the sink keeps no AFTER DELAY timers, and the chunks relevant to the
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
