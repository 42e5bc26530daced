#include "exec/dataflow.h"

#include <algorithm>
#include <set>
#include <string_view>
#include <utility>


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
    // Null unless profiling is enabled.
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

Status CompiledChain::LoadState(state::Reader* r) {
  ONESQL_ASSIGN_OR_RETURN(uint64_t n, r->ReadVarint());
  // CompileChain builds the operator vector deterministically from the plan,
  // so blob i of the saved chain belongs to the same operator as here.
  if (n == operators.size()) {
    for (auto& op : operators) {
      ONESQL_ASSIGN_OR_RETURN(state::Reader section, r->ReadBlob());
      ONESQL_RETURN_NOT_OK(op->LoadState(&section));
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
    ONESQL_RETURN_NOT_OK(operators[op]->LoadState(&section));
    ONESQL_RETURN_NOT_OK(section.ExpectEnd());
  }
  return Status::OK();
}

namespace {

/// Recursive chain builder. Each distinct subtree with an
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

}  // namespace

Result<std::unique_ptr<Dataflow>> Dataflow::Build(plan::QueryPlan plan) {
  if (plan.root == nullptr) {
    return Status::InvalidArgument("cannot build a dataflow without a plan");
  }
  auto flow = std::unique_ptr<Dataflow>(new Dataflow());
  flow->plan_ = std::move(plan);
  ONESQL_ASSIGN_OR_RETURN(SinkConfig config, MakeSinkConfig(flow->plan_));
  flow->sink_ = std::make_unique<MaterializationSink>(std::move(config));
  const plan::SubtreeCanon canon =
      plan::CanonicalizeSubtrees(*flow->plan_.root);
  flow->fingerprint_ = plan::FingerprintPlan(flow->plan_, canon);
  ONESQL_ASSIGN_OR_RETURN(flow->chain_,
                          CompileChain(flow->plan_, canon, flow->sink_.get()));
  return flow;
}

Status Dataflow::PushChunks(const std::vector<const InputChunk*>& chunks) {
  if (chunks.empty()) return Status::OK();
  obs::Span span(trace_, "push_batch", "dataflow", query_tag_);
  size_t nevents = 0;
  for (const InputChunk* chunk : chunks) nevents += chunk->NumEvents();
  span.set_aux(nevents);
  ClearBatchFailure();
  if (CanPushWholeBatches(chunks)) return PushChunksWhole(chunks);
  return PushChunksMerged(chunks);
}

bool Dataflow::CanPushWholeBatches(
    const std::vector<const InputChunk*>& chunks) const {
  // AFTER DELAY timers fire at their deadlines between events. The batch
  // path advances the sink clock only at watermark chunks and at the batch
  // end, so it would coalesce updates across a deadline that per-event
  // delivery separates.
  if (plan_.emit.has_value() && plan_.emit->delay.has_value()) return false;
  if (!chain_.fanouts.empty()) return false;
  if (chain_.sources.size() != 1) return false;
  if (chain_.sources.begin()->second.size() != 1) return false;
  const std::string& source = chain_.sources.begin()->first;
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
  const std::string& source = chain_.sources.begin()->first;
  SourceOperator* op = chain_.sources.begin()->second[0].scan;
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
  const auto& sources = chain_.sources;
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
            return chain_.PushWatermark(*ops, chunk.watermark, chunk.ptime);
        }
        return chain_.PushElement(*ops, scratch);
      });
}

Status Dataflow::AdvanceTo(Timestamp ptime) {
  return sink_->AdvanceTo(ptime, /*inclusive=*/true);
}

bool Dataflow::ReadsSource(const std::string& source) const {
  return chain_.sources.count(ToLower(source)) > 0;
}

size_t Dataflow::StateBytes() const {
  return sink_->StateBytes() + chain_.StateBytes();
}

Status Dataflow::SaveState(state::Writer* w) const {
  w->PutVarint(1);
  state::Writer chain;
  ONESQL_RETURN_NOT_OK(chain_.SaveState(&chain));
  w->PutBlob(chain);
  state::Writer sink;
  ONESQL_RETURN_NOT_OK(sink_->SaveState(&sink));
  w->PutBlob(sink);
  w->PutVarint(0);  // the N-chain runtime's routing sequence
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
  // A checkpoint of the N-chain runtime holds one section per chain; all of
  // them merge into the one chain: keyed entries are disjoint across
  // sections, watermarks merge by maximum, and counters sum.
  for (uint64_t i = 0; i < nchains; ++i) {
    ONESQL_ASSIGN_OR_RETURN(state::Reader section, r->ReadBlob());
    ONESQL_RETURN_NOT_OK(chain_.LoadState(&section));
    ONESQL_RETURN_NOT_OK(section.ExpectEnd());
  }
  ONESQL_ASSIGN_OR_RETURN(state::Reader sink_section, r->ReadBlob());
  ONESQL_RETURN_NOT_OK(sink_->LoadState(&sink_section));
  ONESQL_RETURN_NOT_OK(sink_section.ExpectEnd());
  // The N-chain runtime's routing sequence: read and ignored.
  ONESQL_RETURN_NOT_OK(r->ReadVarint().status());
  return r->ExpectEnd();
}

void Dataflow::AttachObs(obs::ObsContext* ctx, const std::string& query_label,
                         int query_index) {
  if (ctx == nullptr) return;
  trace_ = ctx->trace();
  query_tag_ = query_index;
  chain_.AttachObs(ctx, query_label);
  sink_->AttachSinkMetrics(ctx->ForSink(query_label));
  sink_->AttachTrace(ctx->trace(), query_index);
  if (ctx->profiling_enabled()) {
    profile_attach_us_ = obs::TraceRecorder::NowMicros();
  }
}

void Dataflow::SampleObsGauges() {
  const uint64_t now_us = obs::TraceRecorder::NowMicros();
  for (const auto& op : chain_.operators) {
    op->PublishElementTally();
    const obs::OperatorMetrics* m = op->metrics();
    if (m == nullptr) continue;
    m->state_bytes->Set(static_cast<int64_t>(op->StateBytes()));
    const obs::OperatorProfileMetrics* p = op->profile();
    if (p != nullptr && now_us > profile_attach_us_) {
      p->rows_per_sec->Set(static_cast<int64_t>(
          m->rows_in->Value() * 1000000 / (now_us - profile_attach_us_)));
    }
  }
  sink_->SampleObs();
}

void Dataflow::ZeroObsGauges() {
  // Publish the last dispatch tallies first: the profile counters outlive
  // the query.
  SampleObsGauges();
  for (const auto& op : chain_.operators) {
    const obs::OperatorMetrics* m = op->metrics();
    if (m != nullptr) m->state_bytes->Set(0);
    const obs::OperatorProfileMetrics* p = op->profile();
    if (p != nullptr) p->rows_per_sec->Set(0);
  }
  sink_->ZeroObs();
}

}  // namespace exec
}  // namespace onesql
