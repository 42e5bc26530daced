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
  if (n != operators.size()) {
    return Status::DataLoss(
        "checkpointed chain has " + std::to_string(n) +
        " operators, the plan compiles to " +
        std::to_string(operators.size()) +
        " (checkpoint incompatible with this query)");
  }
  // CompileChain builds the operator vector deterministically from the plan,
  // so blob i of the saved chain belongs to the same operator as here.
  for (auto& op : operators) {
    ONESQL_ASSIGN_OR_RETURN(state::Reader section, r->ReadBlob());
    ONESQL_RETURN_NOT_OK(op->LoadState(&section));
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
  };

  /// Adds `op` for `node`, wired to (out, port).
  template <typename Op>
  Op* Add(const plan::LogicalNode& node, std::unique_ptr<Op> op,
          Operator* out, int port) {
    op->SetOutput(out, port);
    Op* self = op.get();
    chain_->nodes[&node] = {chain_->operators.size(), false};
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
  // The sink advances its clock as changes and watermarks reach it; on an
  // error it still catches up to the failing event, as it would have had
  // that event been pushed alone.
  auto fail = [this](Status status, Timestamp ptime) -> Status {
    ONESQL_RETURN_NOT_OK(sink_->AdvanceTo(ptime, /*inclusive=*/false));
    return status;
  };
  Change scratch;
  for (const InputChunk* chunk : chunks) {
    if (chunk->kind == InputChunk::Kind::kClock) {
      // A clock move fires the AFTER DELAY timers due at or before it.
      ONESQL_RETURN_NOT_OK(sink_->AdvanceTo(chunk->ptime, /*inclusive=*/true));
      continue;
    }
    auto it = chain_.sources.find(chunk->source_lower);
    // Events of sources the query does not read only move the clock.
    if (it == chain_.sources.end()) continue;
    const std::vector<SourceStep>& steps = it->second;
    if (chunk->kind == InputChunk::Kind::kWatermark) {
      Status status =
          chain_.PushWatermark(steps, chunk->watermark, chunk->ptime);
      if (!status.ok()) return fail(std::move(status), chunk->ptime);
      continue;
    }
    // Each event passes every step (a self-join's scans, a fan-out replay)
    // before the next event enters.
    for (size_t row = 0; row < chunk->batch.num_rows; ++row) {
      chunk->batch.MaterializeChange(row, &scratch);
      Status status = chain_.PushElement(steps, scratch);
      if (!status.ok()) return fail(std::move(status), scratch.ptime);
    }
  }
  // Chunks are in ptime order, so the last one ends the push.
  return sink_->AdvanceTo(chunks.back()->MaxPtime(), /*inclusive=*/false);
}

bool Dataflow::ReadsSource(const std::string& source) const {
  return chain_.sources.count(ToLower(source)) > 0;
}

size_t Dataflow::StateBytes() const {
  return sink_->StateBytes() + chain_.StateBytes();
}

Status Dataflow::SaveState(state::Writer* w) const {
  state::Writer chain;
  ONESQL_RETURN_NOT_OK(chain_.SaveState(&chain));
  w->PutBlob(chain);
  state::Writer sink;
  ONESQL_RETURN_NOT_OK(sink_->SaveState(&sink));
  w->PutBlob(sink);
  return Status::OK();
}

Status Dataflow::LoadState(state::Reader* r) {
  ONESQL_ASSIGN_OR_RETURN(state::Reader chain_section, r->ReadBlob());
  ONESQL_RETURN_NOT_OK(chain_.LoadState(&chain_section));
  ONESQL_RETURN_NOT_OK(chain_section.ExpectEnd());
  ONESQL_ASSIGN_OR_RETURN(state::Reader sink_section, r->ReadBlob());
  ONESQL_RETURN_NOT_OK(sink_->LoadState(&sink_section));
  ONESQL_RETURN_NOT_OK(sink_section.ExpectEnd());
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
