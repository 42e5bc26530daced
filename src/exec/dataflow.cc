#include "exec/dataflow.h"

#include <algorithm>
#include <set>
#include <string_view>
#include <utility>

#include "exec/worker_pool.h"

namespace onesql {
namespace exec {

int FanoutOperator::AddConsumer(Operator* op, int port) {
  later_.emplace_back(op, port);
  return static_cast<int>(later_.size());
}

FanoutOperator::Record& FanoutOperator::Append() {
  if (size_ == run_.size()) run_.emplace_back();
  return run_[size_++];
}

Status FanoutOperator::ProcessElement(int /*port*/, const Change& change) {
  Record& record = Append();
  record.is_watermark = false;
  record.change = change;
  return EmitElement(change);
}

Status FanoutOperator::ProcessWatermark(int /*port*/, Timestamp watermark,
                                        Timestamp ptime) {
  Record& record = Append();
  record.is_watermark = true;
  record.watermark = watermark;
  record.change.ptime = ptime;
  return EmitWatermark(watermark, ptime);
}

Status FanoutOperator::Replay(int index) {
  const auto [op, port] = later_[static_cast<size_t>(index - 1)];
  for (size_t i = 0; i < size_; ++i) {
    const Record& record = run_[i];
    ONESQL_RETURN_NOT_OK(
        record.is_watermark
            ? op->OnWatermark(port, record.watermark, record.change.ptime)
            : op->OnElement(port, record.change));
  }
  if (static_cast<size_t>(index) == later_.size()) size_ = 0;
  return Status::OK();
}

size_t CompiledChain::StateBytes() const {
  size_t total = 0;
  for (const auto& op : operators) total += op->StateBytes();
  return total;
}

Status CompiledChain::Abandon(Status status) {
  for (const auto& fanout : fanouts) fanout->Reset();
  return status;
}

Status CompiledChain::PushElement(const std::vector<SourceStep>& steps,
                                  const Change& change) {
  for (const SourceStep& step : steps) {
    Status status = step.scan != nullptr ? step.scan->OnElement(0, change)
                                         : step.fanout->Replay(step.consumer);
    if (!status.ok()) return Abandon(std::move(status));
  }
  return Status::OK();
}

Status CompiledChain::PushWatermark(const std::vector<SourceStep>& steps,
                                    Timestamp watermark, Timestamp ptime) {
  for (const SourceStep& step : steps) {
    Status status = step.scan != nullptr
                        ? step.scan->OnWatermark(0, watermark, ptime)
                        : step.fanout->Replay(step.consumer);
    if (!status.ok()) return Abandon(std::move(status));
  }
  return Status::OK();
}

void CompiledChain::AttachObs(obs::ObsContext* ctx,
                              const std::string& query_label) {
  if (ctx == nullptr || ctx->registry() == nullptr) return;
  for (size_t i = 0; i < operators.size(); ++i) {
    operators[i]->AttachMetrics(ctx->ForOperator(query_label, labels[i]));
    // Null unless profiling is enabled; shard copies share the bundle.
    operators[i]->AttachProfile(
        ctx->ForOperatorProfile(query_label, labels[i]));
  }
}

Status CompiledChain::SaveState(state::Writer* w) const {
  w->PutVarint(operators.size());
  for (const auto& op : operators) {
    state::Writer nested;
    ONESQL_RETURN_NOT_OK(op->SaveState(&nested));
    w->PutBlob(nested);
  }
  return Status::OK();
}

Status CompiledChain::LoadState(state::Reader* r,
                                const StateKeyFilter* filter) {
  ONESQL_ASSIGN_OR_RETURN(uint64_t n, r->ReadVarint());
  // CompileChain builds the operator vector deterministically from the plan,
  // so blob i of the saved chain belongs to the same operator as here.
  if (n == operators.size()) {
    for (auto& op : operators) {
      ONESQL_ASSIGN_OR_RETURN(state::Reader section, r->ReadBlob());
      ONESQL_RETURN_NOT_OK(op->LoadState(&section, filter));
      ONESQL_RETURN_NOT_OK(section.ExpectEnd());
    }
    return Status::OK();
  }
  if (n != positions.size()) {
    return Status::DataLoss(
        "checkpointed chain has " + std::to_string(n) +
        " operators, the plan compiles to " +
        std::to_string(operators.size()) +
        " (checkpoint incompatible with this query)");
  }
  // One blob per plan-tree position: every copy of a shared subtree was
  // compiled and saved. The copies saw the same input, so their blobs are
  // equal; the first loads and the others must match it.
  std::vector<std::string_view> first(operators.size());
  std::vector<bool> loaded(operators.size(), false);
  for (size_t op : positions) {
    ONESQL_ASSIGN_OR_RETURN(std::string_view bytes, r->ReadBlobBytes());
    if (loaded[op]) {
      if (bytes != first[op]) {
        return Status::DataLoss("checkpointed copies of the shared " +
                                labels[op] + " operator differ");
      }
      continue;
    }
    loaded[op] = true;
    first[op] = bytes;
    state::Reader section(bytes);
    ONESQL_RETURN_NOT_OK(operators[op]->LoadState(&section, filter));
    ONESQL_RETURN_NOT_OK(section.ExpectEnd());
  }
  return Status::OK();
}

namespace {

/// Recursive chain builder: one per chain copy. Each distinct subtree with an
/// operator above its scan is built once; its later occurrences become
/// consumers of a FanoutOperator on the first occurrence's top operator.
class ChainBuilder {
 public:
  ChainBuilder(const plan::QueryPlan& plan, const plan::SubtreeCanon& canon,
               CompiledChain* chain)
      : plan_(plan), canon_(canon), chain_(chain) {
    built_.reserve(canon.size());
    chain_->nodes.reserve(canon.size());
  }

  Status Build(const plan::LogicalNode& node, Operator* out, int port);

 private:
  /// The first occurrence of a non-scan subtree.
  struct Built {
    size_t op = 0;         ///< index of its top operator
    Operator* out = nullptr;  ///< where the first occurrence feeds
    int port = 0;
    FanoutOperator* fanout = nullptr;  ///< made at the second occurrence
    size_t first_position = 0, end_position = 0;  ///< its `positions` slice
  };

  /// Adds `op` for `node`, wired to (out, port).
  template <typename Op>
  Op* Add(const plan::LogicalNode& node, std::unique_ptr<Op> op,
          Operator* out, int port) {
    op->SetOutput(out, port);
    Op* self = op.get();
    chain_->nodes[&node] = {chain_->operators.size(), false};
    chain_->positions.push_back(chain_->operators.size());
    chain_->operators.push_back(std::move(op));
    return self;
  }

  /// Wires a later occurrence `node` of `built`'s subtree to (out, port).
  void Share(Built* built, const plan::LogicalNode& node, Operator* out,
             int port);

  const plan::QueryPlan& plan_;
  const plan::SubtreeCanon& canon_;
  CompiledChain* chain_;
  std::unordered_map<std::string_view, Built> built_;
};

void ChainBuilder::Share(Built* built, const plan::LogicalNode& node,
                         Operator* out, int port) {
  if (built->fanout == nullptr) {
    auto fanout = std::make_unique<FanoutOperator>();
    fanout->SetOutput(built->out, built->port);
    chain_->operators[built->op]->SetOutput(fanout.get(), 0);
    built->fanout = fanout.get();
    chain_->fanouts.push_back(std::move(fanout));
  }
  const int consumer = built->fanout->AddConsumer(out, port);
  // The later occurrence's scans would sit here in each source's pre-order
  // list of scans, so its replay step goes here too.
  std::set<std::string> sources;
  plan::CollectSources(node, &sources);
  for (const std::string& source : sources) {
    chain_->sources[source].push_back(
        SourceStep{nullptr, built->fanout, consumer});
  }
  chain_->nodes[&node] = {built->op, true};
  for (size_t i = built->first_position; i < built->end_position; ++i) {
    const size_t op = chain_->positions[i];
    chain_->positions.push_back(op);
  }
}

Status ChainBuilder::Build(const plan::LogicalNode& node, Operator* out,
                           int port) {
  using Kind = plan::LogicalNode::Kind;
  if (node.kind() == Kind::kScan) {
    const auto& scan = static_cast<const plan::ScanNode&>(node);
    SourceOperator* op =
        Add(node, std::make_unique<SourceOperator>(), out, port);
    chain_->sources[ToLower(scan.source())].push_back(SourceStep{op});
    return Status::OK();
  }
  const std::string_view canon = canon_.at(&node);
  auto it = built_.find(canon);
  if (it != built_.end()) {
    Share(&it->second, node, out, port);
    return Status::OK();
  }
  Built built;
  built.op = chain_->operators.size();
  built.out = out;
  built.port = port;
  built.first_position = chain_->positions.size();
  switch (node.kind()) {
    case Kind::kScan:
      break;
    case Kind::kFilter: {
      const auto& filter = static_cast<const plan::FilterNode&>(node);
      Operator* self = Add(
          node, std::make_unique<FilterOperator>(&filter.predicate()), out,
          port);
      ONESQL_RETURN_NOT_OK(Build(filter.input(), self, 0));
      break;
    }
    case Kind::kProject: {
      const auto& project = static_cast<const plan::ProjectNode&>(node);
      Operator* self = Add(
          node, std::make_unique<ProjectOperator>(&project.exprs()), out,
          port);
      ONESQL_RETURN_NOT_OK(Build(project.input(), self, 0));
      break;
    }
    case Kind::kWindow: {
      const auto& window = static_cast<const plan::WindowNode&>(node);
      std::unique_ptr<Operator> op;
      if (window.window_kind() == plan::WindowKind::kSession) {
        op = std::make_unique<SessionOperator>(&window,
                                               plan_.allowed_lateness);
      } else {
        op = std::make_unique<WindowOperator>(&window);
      }
      Operator* self = Add(node, std::move(op), out, port);
      ONESQL_RETURN_NOT_OK(Build(window.input(), self, 0));
      break;
    }
    case Kind::kAggregate: {
      const auto& agg = static_cast<const plan::AggregateNode&>(node);
      AggregateOperator* self = Add(
          node,
          std::make_unique<AggregateOperator>(&agg, plan_.allowed_lateness),
          out, port);
      chain_->aggregates.push_back(self);
      ONESQL_RETURN_NOT_OK(Build(agg.input(), self, 0));
      break;
    }
    case Kind::kTemporalFilter: {
      const auto& tf = static_cast<const plan::TemporalFilterNode&>(node);
      Operator* self =
          Add(node, std::make_unique<TemporalFilterOperator>(&tf), out, port);
      ONESQL_RETURN_NOT_OK(Build(tf.input(), self, 0));
      break;
    }
    case Kind::kJoin: {
      const auto& join = static_cast<const plan::JoinNode&>(node);
      if (join.join_type() == sql::JoinType::kLeft) {
        return Status::NotImplemented(
            "LEFT JOIN is not supported by the streaming runtime");
      }
      JoinOperator* self =
          Add(node, std::make_unique<JoinOperator>(&join), out, port);
      chain_->joins.push_back(self);
      ONESQL_RETURN_NOT_OK(Build(join.left(), self, 0));
      ONESQL_RETURN_NOT_OK(Build(join.right(), self, 1));
      break;
    }
  }
  built.end_position = chain_->positions.size();
  built_.emplace(canon, built);
  return Status::OK();
}

/// Names each operator by its kind, suffixed `_2`, `_3`, ... for repeats in
/// build order.
std::vector<std::string> LabelOperators(
    const std::vector<std::unique_ptr<Operator>>& operators) {
  std::unordered_map<std::string, int> seen;
  std::vector<std::string> labels;
  labels.reserve(operators.size());
  for (const auto& op : operators) {
    std::string label = op->Name();
    const int occurrence = ++seen[label];
    if (occurrence > 1) label += "_" + std::to_string(occurrence);
    labels.push_back(std::move(label));
  }
  return labels;
}

/// Compiles the plan tree into an operator chain terminating at `terminal`.
/// Fails with NotImplemented for plan shapes the streaming runtime does not
/// support (e.g. LEFT JOIN).
Result<CompiledChain> CompileChain(const plan::QueryPlan& plan,
                                   const plan::SubtreeCanon& canon,
                                   Operator* terminal) {
  CompiledChain chain;
  ChainBuilder builder(plan, canon, &chain);
  ONESQL_RETURN_NOT_OK(builder.Build(*plan.root, terminal, 0));
  chain.labels = LabelOperators(chain.operators);
  return chain;
}

/// Derives the sink's materialization controls from the plan's EMIT clause,
/// validating the completeness/version-key requirements.
Result<SinkConfig> MakeSinkConfig(const plan::QueryPlan& plan) {
  SinkConfig config;
  if (plan.emit.has_value()) {
    config.after_watermark = plan.emit->after_watermark;
    config.delay = plan.emit->delay;
  }
  config.completeness_column = plan.completeness_column;
  config.version_key_columns = plan.version_key_columns;
  config.allowed_lateness = plan.allowed_lateness;
  if (config.after_watermark && !config.completeness_column.has_value()) {
    return Status::PlanError(
        "EMIT AFTER WATERMARK requires a completeness column");
  }
  // The completeness value must be constant within a version key so the sink
  // can gate whole groupings on it.
  if (config.after_watermark && !config.version_key_columns.empty()) {
    if (std::find(config.version_key_columns.begin(),
                  config.version_key_columns.end(),
                  *config.completeness_column) ==
        config.version_key_columns.end()) {
      return Status::PlanError(
          "the completeness column must be part of the grouping key");
    }
  }
  return config;
}

/// Keeps the keyed state owned by shard `shard` of `num_shards` under the
/// spec's state-key routing; counters load into shard 0 only.
struct ShardStateFilter : StateKeyFilter {
  ShardStateFilter(const PartitionSpec* spec, int shard, int num_shards)
      : spec_(spec), shard_(shard), num_shards_(num_shards) {
    primary = shard == 0;
  }
  bool Keep(const Row& state_key) const override {
    return RouteStateKey(*spec_, state_key, num_shards_) == shard_;
  }

 private:
  const PartitionSpec* spec_;
  int shard_;
  int num_shards_;
};

}  // namespace

/// Terminal operator of one shard's chain: buffers everything the chain
/// emits, tagged with the global sequence number of the input event being
/// processed, so the merge step can re-interleave shard outputs in input
/// order and feed the shared sink exactly as one chain would.
class CaptureOperator : public Operator {
 public:
  struct Record {
    uint64_t seq = 0;
    bool is_watermark = false;
    Change change;        // element records
    Timestamp watermark;  // watermark records
    Timestamp ptime;      // watermark records
  };

  /// Sets the sequence number subsequent captures are attributed to.
  void set_seq(uint64_t seq) { seq_ = seq; }

  std::vector<Record>& records() { return records_; }

  Status ProcessElement(int /*port*/, const Change& change) override {
    Record record;
    record.seq = seq_;
    record.change = change;
    records_.push_back(std::move(record));
    return Status::OK();
  }

  /// Batch-path capture: records one element per row, attributed to the
  /// row's own sequence number (sub-batches scattered to a shard carry the
  /// runtime seqs), so the merge stays input-ordered without decomposing the
  /// batch upstream.
  Status ProcessBatch(int /*port*/, const ChangeBatch& batch) override {
    for (size_t i = 0; i < batch.num_rows; ++i) {
      Record record;
      record.seq = i < batch.seqs.size() ? batch.seqs[i] : seq_;
      batch.MaterializeChange(i, &record.change);
      records_.push_back(std::move(record));
    }
    return Status::OK();
  }

  Status ProcessWatermark(int /*port*/, Timestamp watermark,
                          Timestamp ptime) override {
    Record record;
    record.seq = seq_;
    record.is_watermark = true;
    record.watermark = watermark;
    record.ptime = ptime;
    records_.push_back(std::move(record));
    return Status::OK();
  }

  const char* Name() const override { return "capture"; }

 private:
  uint64_t seq_ = 0;
  std::vector<Record> records_;
};

Dataflow::Dataflow() = default;
Dataflow::~Dataflow() = default;

Result<std::unique_ptr<Dataflow>> Dataflow::Build(plan::QueryPlan plan,
                                                  int shards) {
  if (plan.root == nullptr) {
    return Status::InvalidArgument("cannot build a dataflow without a plan");
  }
  if (shards < 1 || shards > kMaxShards) {
    return Status::InvalidArgument("shard count must be between 1 and " +
                                   std::to_string(kMaxShards) + ", got " +
                                   std::to_string(shards));
  }
  auto flow = std::unique_ptr<Dataflow>(new Dataflow());
  flow->plan_ = std::move(plan);
  ONESQL_ASSIGN_OR_RETURN(SinkConfig config, MakeSinkConfig(flow->plan_));
  flow->sink_ = std::make_unique<MaterializationSink>(std::move(config));

  std::optional<PartitionSpec> spec;
  if (shards > 1) spec = ExtractPartitionSpec(flow->plan_);
  const plan::SubtreeCanon canon =
      plan::CanonicalizeSubtrees(*flow->plan_.root);
  flow->fingerprint_ = plan::FingerprintPlan(flow->plan_, canon);
  const int n = spec.has_value() ? shards : 1;
  flow->shards_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    Shard shard;
    Operator* terminal = flow->sink_.get();
    if (spec.has_value()) {
      shard.capture = std::make_unique<CaptureOperator>();
      terminal = shard.capture.get();
    }
    // Every chain holds only const pointers into flow->plan_, so N copies
    // share the one plan; each copy owns its (key-partitioned) state.
    ONESQL_ASSIGN_OR_RETURN(shard.chain,
                            CompileChain(flow->plan_, canon, terminal));
    for (AggregateOperator* agg : shard.chain.aggregates) {
      flow->aggregates_.push_back(agg);
    }
    for (JoinOperator* join : shard.chain.joins) {
      flow->joins_.push_back(join);
    }
    flow->shards_.push_back(std::move(shard));
  }
  if (spec.has_value()) {
    flow->spec_ = *std::move(spec);
    flow->shard_epoch_.resize(static_cast<size_t>(n));
    flow->pool_ = std::make_unique<WorkerPool>(n);
  }
  return flow;
}

Status Dataflow::PushChunks(const std::vector<const InputChunk*>& chunks) {
  if (chunks.empty()) return Status::OK();
  if (sharded()) return PushChunksSharded(chunks);
  obs::Span span(trace_, "push_batch", "dataflow", query_tag_, 0);
  size_t nevents = 0;
  for (const InputChunk* chunk : chunks) nevents += chunk->NumEvents();
  span.set_aux(nevents);
  ClearBatchFailure();
  if (CanPushWholeBatches(chunks)) return PushChunksWhole(chunks);
  return PushChunksMerged(chunks);
}

// ---------------------------------------------------------------------------
// One chain
// ---------------------------------------------------------------------------

bool Dataflow::CanPushWholeBatches(
    const std::vector<const InputChunk*>& chunks) const {
  // AFTER DELAY timers fire at their deadlines between events. The batch
  // path advances the sink clock only at watermark chunks and at the batch
  // end, so it would coalesce updates across a deadline that per-event
  // delivery (and the N-chain merge) separates.
  if (plan_.emit.has_value() && plan_.emit->delay.has_value()) return false;
  const CompiledChain& chain = shards_[0].chain;
  if (!chain.fanouts.empty()) return false;
  if (chain.sources.size() != 1) return false;
  if (chain.sources.begin()->second.size() != 1) return false;
  const std::string& source = chain.sources.begin()->first;
  // Relevant chunks must be strictly seq-ordered: case-variant spellings of
  // one source open separate chunks whose runs can interleave, and replaying
  // such chunks whole would reorder events. (Chunks are internally ordered
  // by construction.)
  bool any = false;
  uint64_t last_seq = 0;
  for (const InputChunk* chunk : chunks) {
    if (chunk->source_lower != source) continue;
    if (chunk->NumEvents() == 0) continue;
    if (any && chunk->FirstSeq() <= last_seq) return false;
    last_seq = chunk->LastSeq();
    any = true;
  }
  return true;
}

Status Dataflow::PushChunksWhole(const std::vector<const InputChunk*>& chunks) {
  const CompiledChain& chain = shards_[0].chain;
  const std::string& source = chain.sources.begin()->first;
  SourceOperator* op = chain.sources.begin()->second[0].scan;
  Timestamp max_ptime = Timestamp::Min();
  for (const InputChunk* chunk : chunks) {
    const Timestamp chunk_max = chunk->MaxPtime();
    if (chunk_max > max_ptime) max_ptime = chunk_max;
    if (chunk->source_lower != source) continue;
    switch (chunk->kind) {
      case InputChunk::Kind::kRows: {
        Status status = op->OnBatch(0, chunk->batch);
        if (!status.ok()) {
          // Per-event delivery advances the sink to the failing event's
          // ptime before delivering it; the batch path reports that row out
          // of band, so catch the sink up before surfacing the error.
          const BatchFailure& failure = GetBatchFailure();
          if (failure.has) {
            ONESQL_RETURN_NOT_OK(sink_->AdvanceTo(failure.ptime,
                                                  /*inclusive=*/false));
          }
          return status;
        }
        break;
      }
      case InputChunk::Kind::kWatermark:
        ONESQL_RETURN_NOT_OK(sink_->AdvanceTo(chunk->ptime,
                                              /*inclusive=*/false));
        ONESQL_RETURN_NOT_OK(op->OnWatermark(0, chunk->watermark,
                                             chunk->ptime));
        break;
      case InputChunk::Kind::kSingle: {
        ONESQL_RETURN_NOT_OK(sink_->AdvanceTo(chunk->ptime,
                                              /*inclusive=*/false));
        Change change{chunk->event_kind, chunk->row, chunk->ptime};
        ONESQL_RETURN_NOT_OK(op->OnElement(0, change));
        break;
      }
    }
  }
  // Events of unread sources only move the sink's processing-time clock;
  // one advance to the batch frontier reproduces the per-event timer
  // firings (each timer flushes at its own deadline, not at the advance
  // instant).
  if (max_ptime > Timestamp::Min()) {
    ONESQL_RETURN_NOT_OK(sink_->AdvanceTo(max_ptime, /*inclusive=*/false));
  }
  return Status::OK();
}

Status Dataflow::PushChunksMerged(
    const std::vector<const InputChunk*>& chunks) {
  // Each chunk's source steps are looked up once, not per event.
  CompiledChain& chain = shards_[0].chain;
  const auto& sources = chain.sources;
  std::vector<const std::vector<SourceStep>*> chunk_ops(chunks.size());
  for (size_t i = 0; i < chunks.size(); ++i) {
    auto it = sources.find(chunks[i]->source_lower);
    chunk_ops[i] = it == sources.end() ? nullptr : &it->second;
  }
  Change scratch;
  return ForEachEventInSeqOrder(
      chunks, [&](size_t i, size_t row) -> Status {
        const InputChunk& chunk = *chunks[i];
        const std::vector<SourceStep>* ops = chunk_ops[i];
        switch (chunk.kind) {
          case InputChunk::Kind::kRows:
            ONESQL_RETURN_NOT_OK(sink_->AdvanceTo(chunk.batch.ptimes[row],
                                                  /*inclusive=*/false));
            if (ops == nullptr) return Status::OK();
            chunk.batch.MaterializeChange(row, &scratch);
            break;
          case InputChunk::Kind::kWatermark:
            ONESQL_RETURN_NOT_OK(sink_->AdvanceTo(chunk.ptime,
                                                  /*inclusive=*/false));
            if (ops == nullptr) return Status::OK();
            return chain.PushWatermark(*ops, chunk.watermark, chunk.ptime);
          case InputChunk::Kind::kSingle:
            ONESQL_RETURN_NOT_OK(sink_->AdvanceTo(chunk.ptime,
                                                  /*inclusive=*/false));
            if (ops == nullptr) return Status::OK();
            scratch.kind = chunk.event_kind;
            scratch.row = chunk.row;
            scratch.ptime = chunk.ptime;
            break;
        }
        return chain.PushElement(*ops, scratch);
      });
}

// ---------------------------------------------------------------------------
// N chains
// ---------------------------------------------------------------------------

void Dataflow::BeginPushEpoch() {
  for (ShardEpochState& st : shard_epoch_) {
    st.status = Status::OK();
    st.fail_seq = kNoFailure;
    st.failed = false;
    st.started = false;
    st.sub.Clear();
    st.sub_ops = nullptr;
  }
}

void Dataflow::RunChunkRangeTask(void* ctx, int worker, uint32_t begin,
                                 uint32_t end) {
  static_cast<Dataflow*>(ctx)->ProcessChunkRange(worker, begin, end);
}

void Dataflow::RunChunkFlushTask(void* ctx, int worker, uint32_t /*begin*/,
                                 uint32_t /*end*/) {
  auto* self = static_cast<Dataflow*>(ctx);
  ShardEpochState& st = self->shard_epoch_[static_cast<size_t>(worker)];
  if (st.failed) return;
  self->FlushShardSub(&st);
}

void Dataflow::FlushShardSub(ShardEpochState* st) {
  if (st->sub.num_rows == 0) return;
  // Batch scatter runs only on chains without fan-outs: every step is a scan.
  for (const SourceStep& step : *st->sub_ops) {
    Status status = step.scan->OnBatch(0, st->sub);
    if (!status.ok()) {
      const BatchFailure& failure = GetBatchFailure();
      st->fail_seq = failure.has ? failure.seq : st->sub.seqs.front();
      st->status = std::move(status);
      st->failed = true;
      return;
    }
  }
  st->sub.Clear();
}

void Dataflow::ProcessChunkRange(int s, uint32_t begin, uint32_t end) {
  ShardEpochState& st = shard_epoch_[static_cast<size_t>(s)];
  if (st.failed) return;
  if (!st.started) {
    // Reset this worker's thread-local batch-failure slot once per epoch:
    // FlushShardSub reads it to attribute OnBatch failures to a seq.
    ClearBatchFailure();
    st.started = true;
  }
  // Worker-side span: one per shard per dispatched slice, recorded into the
  // worker thread's own ring.
  obs::Span shard_span(trace_, "shard_worker", "dataflow", query_tag_, s);
  shard_span.set_aux(end - begin);
  Shard& shard = shards_[static_cast<size_t>(s)];
  for (uint32_t i = begin; i < end; ++i) {
    const ChunkRef& ref = epoch_refs_[i];
    const InputChunk* chunk = ref.chunk;
    const uint64_t rseq = epoch_base_ + i;
    if (chunk->kind == InputChunk::Kind::kWatermark) {
      auto it = shard.chain.sources.find(chunk->source_lower);
      if (it == shard.chain.sources.end()) continue;
      FlushShardSub(&st);
      if (st.failed) return;
      shard.capture->set_seq(rseq);
      Status status =
          shard.chain.PushWatermark(it->second, chunk->watermark, chunk->ptime);
      if (!status.ok()) {
        st.status = std::move(status);
        st.fail_seq = rseq;
        st.failed = true;
        return;
      }
      continue;
    }
    if (epoch_owner_[i] != s) continue;
    auto it = shard.chain.sources.find(chunk->source_lower);
    if (it == shard.chain.sources.end()) continue;
    if (epoch_batch_scatter_ && chunk->kind == InputChunk::Kind::kRows) {
      if (st.sub_ops != nullptr && st.sub_ops != &it->second) {
        FlushShardSub(&st);
        if (st.failed) return;
      }
      st.sub_ops = &it->second;
      if (st.sub.num_rows == 0) st.sub.ResetLike(chunk->batch);
      st.sub.AppendRowFrom(chunk->batch, ref.row);
      st.sub.seqs.back() = rseq;  // runtime seq: routing + merge attribution
      continue;
    }
    FlushShardSub(&st);
    if (st.failed) return;
    shard.capture->set_seq(rseq);
    Change change;
    if (chunk->kind == InputChunk::Kind::kRows) {
      chunk->batch.MaterializeChange(ref.row, &change);
    } else {
      change.kind = chunk->event_kind;
      change.row = chunk->row;
      change.ptime = chunk->ptime;
    }
    Status status = shard.chain.PushElement(it->second, change);
    if (!status.ok()) {
      st.status = std::move(status);
      st.fail_seq = rseq;
      st.failed = true;
      return;
    }
  }
}

// The error a push surfaces must be the one a single chain would hit: the
// earliest failing input event, not whichever failing shard happens to come
// first in shard order. (On a watermark — which every shard processes — ties
// across shards break to the lowest shard id, which is deterministic even if
// one chain, walking one combined state map, could surface a different
// group's error first.)
int Dataflow::SelectFailedShard(uint64_t* limit) const {
  int failed_shard = -1;
  *limit = kNoFailure;
  for (size_t s = 0; s < shard_epoch_.size(); ++s) {
    if (shard_epoch_[s].fail_seq < *limit) {
      *limit = shard_epoch_[s].fail_seq;
      failed_shard = static_cast<int>(s);
    }
  }
  return failed_shard;
}

// Deterministic merge: replay the epoch's input in order, advancing the
// sink's clock per event exactly as one chain's delivery would, then deliver
// the capture records attributed to that event's sequence number. Element
// outputs live on the owning shard only. Watermark outputs exist identically
// on every shard (watermarks are broadcast and the partitionable operator
// set emits no elements on watermarks), so shard 0's copy is delivered and
// the duplicates skipped.
//
// On failure the merge still runs, but only up to the failing event: the
// one-chain semantics are that everything before the first error has
// already reached the sink, and the failing element's own pre-error
// emissions (captured by its owning shard) have too. Discarding the captured
// prefix here — or delivering past the failure — would leave the sink
// shard-divergent from the one-chain run. A failing *watermark* delivers
// nothing at its own seq: no single shard's partial output matches the
// partial walk of one chain's combined state map.
Status Dataflow::MergeEpoch(uint64_t limit) {
  const int num_shards = shard_count();
  std::vector<size_t> cursor(static_cast<size_t>(num_shards), 0);
  auto deliver = [&](int s, uint64_t seq, bool deliver_records) -> Status {
    auto& records = shards_[static_cast<size_t>(s)].capture->records();
    size_t& c = cursor[static_cast<size_t>(s)];
    while (c < records.size() && records[c].seq == seq) {
      const CaptureOperator::Record& record = records[c];
      if (deliver_records) {
        if (record.is_watermark) {
          ONESQL_RETURN_NOT_OK(
              sink_->OnWatermark(0, record.watermark, record.ptime));
        } else {
          ONESQL_RETURN_NOT_OK(sink_->OnElement(0, record.change));
        }
      }
      ++c;
    }
    return Status::OK();
  };
  Status merge_status = Status::OK();
  for (size_t i = 0; i < epoch_refs_.size(); ++i) {
    const uint64_t seq = epoch_base_ + i;
    if (seq > limit) break;
    const ChunkRef& ref = epoch_refs_[i];
    const bool is_watermark = ref.chunk->kind == InputChunk::Kind::kWatermark;
    const Timestamp ptime = ref.chunk->kind == InputChunk::Kind::kRows
                                ? ref.chunk->batch.ptimes[ref.row]
                                : ref.chunk->ptime;
    merge_status = sink_->AdvanceTo(ptime, /*inclusive=*/false);
    if (!merge_status.ok()) break;
    if (seq == limit) {
      if (!is_watermark) {
        merge_status = deliver(epoch_owner_[i], seq, /*deliver_records=*/true);
      }
      break;
    }
    if (is_watermark) {
      for (int s = 0; s < num_shards; ++s) {
        merge_status = deliver(s, seq, /*deliver_records=*/s == 0);
        if (!merge_status.ok()) break;
      }
    } else {
      merge_status = deliver(epoch_owner_[i], seq, /*deliver_records=*/true);
    }
    if (!merge_status.ok()) break;
  }
  for (Shard& shard : shards_) shard.capture->records().clear();
  return merge_status;
}

Status Dataflow::PushChunksSharded(
    const std::vector<const InputChunk*>& chunks) {
  // Flatten the chunk list to one globally seq-ordered event list. Routing,
  // scatter and merge all walk this list; element payloads stay columnar:
  // stateless chains receive whole per-shard sub-batches through the
  // vectorized kernels, and keyed chains materialize rows on the owning
  // worker instead of on the caller.
  epoch_refs_.clear();
  ONESQL_RETURN_NOT_OK(
      ForEachEventInSeqOrder(chunks, [&](size_t i, size_t row) {
        epoch_refs_.push_back(ChunkRef{chunks[i], static_cast<uint32_t>(row)});
        return Status::OK();
      }));
  if (epoch_refs_.empty()) return Status::OK();

  obs::Span batch_span(trace_, "push_batch", "dataflow", query_tag_);
  batch_span.set_aux(epoch_refs_.size());
  const int num_shards = shard_count();
  const uint64_t base = next_seq_;
  next_seq_ += epoch_refs_.size();
  const uint32_t n = static_cast<uint32_t>(epoch_refs_.size());

  // Whole sub-batches can only flow into chains whose capture re-attributes
  // per row (one scan per source and no fan-out: a second scan of the same
  // source, or a replay, would interleave its records per event, which
  // per-operator batch delivery cannot reproduce). Stateless chains are
  // single-scan in practice, but verify rather than assume.
  bool batch_scatter = spec_.stateless && shards_[0].chain.fanouts.empty();
  for (const auto& [name, ops] : shards_[0].chain.sources) {
    if (ops.size() != 1) batch_scatter = false;
  }

  // Routing decisions are made on the caller thread so they are a pure
  // function of the input order: element events go to the shard owning
  // their key partition, watermarks to every shard (each shard's operators
  // keep their own WatermarkMerger, and all mergers see the same stream, so
  // every shard forwards the same watermark values). The routed vectors are
  // sized up front — workers only ever read indices of slices already
  // dispatched, and the backing arrays never reallocate under them.
  epoch_owner_.assign(epoch_refs_.size(), 0);
  BeginPushEpoch();
  epoch_base_ = base;
  epoch_batch_scatter_ = batch_scatter;
  const bool inline_run = epoch_refs_.size() <= kInlineEventThreshold;

  {
    obs::Span route_span(trace_, "route", "dataflow", query_tag_);
    route_span.set_aux(epoch_refs_.size());
    for (uint32_t block = 0; block < n; block += kRouteBlockEvents) {
      const uint32_t block_end = std::min(n, block + kRouteBlockEvents);
      for (uint32_t i = block; i < block_end; ++i) {
        const ChunkRef& ref = epoch_refs_[i];
        switch (ref.chunk->kind) {
          case InputChunk::Kind::kRows:
            epoch_owner_[i] =
                RouteShardBatch(spec_, ref.chunk->source_lower,
                                ref.chunk->batch, ref.row, base + i,
                                num_shards);
            break;
          case InputChunk::Kind::kSingle:
            epoch_owner_[i] = RouteShard(spec_, ref.chunk->source_lower,
                                         ref.chunk->row, base + i, num_shards);
            break;
          case InputChunk::Kind::kWatermark:
            break;
        }
      }
      // Pipelining: each routed slice is dispatched immediately, so the
      // workers chew on slice k while this thread routes slice k+1.
      if (!inline_run) {
        pool_->DispatchAll(&RunChunkRangeTask, this, block, block_end);
      }
    }
  }
  if (inline_run) {
    for (int s = 0; s < num_shards; ++s) {
      ProcessChunkRange(s, 0, n);
      ShardEpochState& st = shard_epoch_[static_cast<size_t>(s)];
      if (!st.failed) FlushShardSub(&st);
    }
  } else {
    // Trailing per-shard flush (accumulated scatter sub-batches), then the
    // epoch barrier: FIFO queue order guarantees the flush runs after every
    // range slice on its worker, and the barrier gives this thread the
    // happens-before edge the lock-free merge depends on.
    pool_->DispatchAll(&RunChunkFlushTask, this, 0, 0);
    const uint64_t t0 =
        query_profile_ != nullptr ? obs::TraceRecorder::NowMicros() : 0;
    pool_->EndEpoch();
    if (query_profile_ != nullptr) {
      query_profile_->shard_wait_us->Record(obs::TraceRecorder::NowMicros() -
                                            t0);
    }
  }

  uint64_t limit = kNoFailure;
  const int failed_shard = SelectFailedShard(&limit);

  // Deterministic merge: advance the sink per event, deliver the owning
  // shard's captures (shard 0's copy for watermarks), and stop at the
  // earliest failing event.
  obs::Span merge_span(trace_, "merge", "dataflow", query_tag_);
  const uint64_t merge_t0 =
      query_profile_ != nullptr ? obs::TraceRecorder::NowMicros() : 0;
  Status merge_status = MergeEpoch(limit);
  if (query_profile_ != nullptr) {
    query_profile_->merge_us->Record(obs::TraceRecorder::NowMicros() -
                                     merge_t0);
  }
  if (!merge_status.ok()) return merge_status;
  if (failed_shard >= 0) {
    return std::move(shard_epoch_[static_cast<size_t>(failed_shard)].status);
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Either shape
// ---------------------------------------------------------------------------

Status Dataflow::AdvanceTo(Timestamp ptime) {
  return sink_->AdvanceTo(ptime, /*inclusive=*/true);
}

bool Dataflow::ReadsSource(const std::string& source) const {
  return shards_[0].chain.sources.count(ToLower(source)) > 0;
}

size_t Dataflow::StateBytes() const {
  size_t total = sink_->StateBytes();
  for (const Shard& shard : shards_) total += shard.chain.StateBytes();
  return total;
}

Status Dataflow::SaveState(state::Writer* w) const {
  w->PutVarint(shards_.size());
  for (const Shard& shard : shards_) {
    state::Writer chain;
    ONESQL_RETURN_NOT_OK(shard.chain.SaveState(&chain));
    w->PutBlob(chain);
  }
  state::Writer sink;
  ONESQL_RETURN_NOT_OK(sink_->SaveState(&sink));
  w->PutBlob(sink);
  w->PutVarint(next_seq_);
  return Status::OK();
}

Status Dataflow::LoadState(state::Reader* r) {
  ONESQL_ASSIGN_OR_RETURN(uint64_t nchains, r->ReadVarint());
  if (nchains == 0) {
    return Status::DataLoss("checkpoint holds no chain sections");
  }
  if (nchains > r->remaining()) {
    return Status::DataLoss("impossible chain section count in checkpoint");
  }
  // Hold the raw bytes of every saved chain section so each target chain can
  // re-decode all of them with its own ownership filter. A checkpoint taken
  // at N shards thus restores at M shards with the same merged state: every
  // group/bucket lands on the shard that will receive its future inputs. On
  // one chain there is no filter: keyed entries are disjoint across
  // sections, watermarks merge by maximum, and counters sum.
  std::vector<std::string_view> sections;
  sections.reserve(static_cast<size_t>(nchains));
  for (uint64_t i = 0; i < nchains; ++i) {
    ONESQL_ASSIGN_OR_RETURN(std::string_view bytes, r->ReadBlobBytes());
    sections.push_back(bytes);
  }
  const int num_shards = shard_count();
  for (int s = 0; s < num_shards; ++s) {
    ShardStateFilter filter(&spec_, s, num_shards);
    for (std::string_view bytes : sections) {
      state::Reader section(bytes);
      ONESQL_RETURN_NOT_OK(shards_[static_cast<size_t>(s)].chain.LoadState(
          &section, sharded() ? &filter : nullptr));
      ONESQL_RETURN_NOT_OK(section.ExpectEnd());
    }
  }
  ONESQL_ASSIGN_OR_RETURN(state::Reader sink_section, r->ReadBlob());
  ONESQL_RETURN_NOT_OK(sink_->LoadState(&sink_section, nullptr));
  ONESQL_RETURN_NOT_OK(sink_section.ExpectEnd());
  ONESQL_ASSIGN_OR_RETURN(uint64_t seq, r->ReadVarint());
  // Continue the input sequence so stateless round-robin routing stays
  // deterministic across the restore boundary. One chain routes nothing and
  // keeps writing 0.
  if (sharded()) next_seq_ = std::max(next_seq_, seq);
  return r->ExpectEnd();
}

void Dataflow::AttachObs(obs::ObsContext* ctx, const std::string& query_label,
                         int query_index) {
  if (ctx == nullptr) return;
  trace_ = ctx->trace();
  query_tag_ = query_index;
  // Every shard chain resolves to the same instrument bundles (same query
  // and op labels), so rows in/out totals are shard-count-invariant; the
  // sharded Counter absorbs the concurrent writes.
  for (Shard& shard : shards_) shard.chain.AttachObs(ctx, query_label);
  sink_->AttachSinkMetrics(ctx->ForSink(query_label));
  sink_->AttachTrace(ctx->trace(), query_index);
  if (sharded()) query_profile_ = ctx->ForQueryProfile(query_label);
  if (ctx->profiling_enabled()) {
    profile_attach_us_ = obs::TraceRecorder::NowMicros();
  }
}

void Dataflow::SampleObsGauges() {
  const uint64_t now_us = obs::TraceRecorder::NowMicros();
  const size_t num_ops = shards_[0].chain.operators.size();
  for (size_t pos = 0; pos < num_ops; ++pos) {
    // All shard copies of a chain position share one bundle: publish the
    // summed state so the gauge means the same thing at any shard count.
    size_t total = 0;
    for (Shard& shard : shards_) {
      shard.chain.operators[pos]->PublishElementTally();
      total += shard.chain.operators[pos]->StateBytes();
    }
    const Operator& op = *shards_[0].chain.operators[pos];
    const obs::OperatorMetrics* m = op.metrics();
    if (m == nullptr) continue;
    m->state_bytes->Set(static_cast<int64_t>(total));
    // The shared rows_in counter already sums across shard copies, so one
    // rows/s computation per chain position covers every shard.
    const obs::OperatorProfileMetrics* p = op.profile();
    if (p != nullptr && now_us > profile_attach_us_) {
      p->rows_per_sec->Set(static_cast<int64_t>(
          m->rows_in->Value() * 1000000 / (now_us - profile_attach_us_)));
    }
  }
  if (query_profile_ != nullptr) {
    query_profile_->shard_queue_high_water->Set(
        static_cast<int64_t>(pool_->queue_depth_high_water()));
  }
  sink_->SampleObs();
}

void Dataflow::ZeroObsGauges() {
  // Publish the last dispatch tallies first: the profile counters outlive
  // the query.
  SampleObsGauges();
  for (const auto& op : shards_[0].chain.operators) {
    const obs::OperatorMetrics* m = op->metrics();
    if (m != nullptr) m->state_bytes->Set(0);
    const obs::OperatorProfileMetrics* p = op->profile();
    if (p != nullptr) p->rows_per_sec->Set(0);
  }
  if (query_profile_ != nullptr) query_profile_->shard_queue_high_water->Set(0);
  sink_->ZeroObs();
}

}  // namespace exec
}  // namespace onesql
