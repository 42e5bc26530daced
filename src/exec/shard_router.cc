#include "exec/shard_router.h"

#include <set>

#include "common/schema.h"

namespace onesql {
namespace exec {

namespace {

/// Where one output column of a plan node comes from, traced through the
/// stateless pass-through operators down to the scans.
struct ColumnOrigin {
  bool known = false;
  std::string source;  // lower-cased relation name
  size_t column = 0;   // column index within the source row
};

/// Per-output-column provenance of `node`. A column is `known` only when it
/// is a verbatim forward of a source column — the conservative policy:
/// any computed expression (including wstart/wend and aggregate results)
/// loses provenance.
std::vector<ColumnOrigin> Provenance(const plan::LogicalNode& node) {
  switch (node.kind()) {
    case plan::LogicalNode::Kind::kScan: {
      const auto& scan = static_cast<const plan::ScanNode&>(node);
      std::vector<ColumnOrigin> out(scan.schema().num_fields());
      for (size_t i = 0; i < out.size(); ++i) {
        out[i] = ColumnOrigin{true, ToLower(scan.source()), i};
      }
      return out;
    }
    case plan::LogicalNode::Kind::kFilter:
      return Provenance(static_cast<const plan::FilterNode&>(node).input());
    case plan::LogicalNode::Kind::kTemporalFilter:
      return Provenance(
          static_cast<const plan::TemporalFilterNode&>(node).input());
    case plan::LogicalNode::Kind::kProject: {
      const auto& project = static_cast<const plan::ProjectNode&>(node);
      const auto input = Provenance(project.input());
      std::vector<ColumnOrigin> out(project.exprs().size());
      for (size_t i = 0; i < project.exprs().size(); ++i) {
        const plan::BoundExpr& e = *project.exprs()[i];
        if (e.kind == plan::BoundExpr::Kind::kInputRef &&
            e.input_index < input.size()) {
          out[i] = input[e.input_index];
        }
      }
      return out;
    }
    case plan::LogicalNode::Kind::kWindow: {
      const auto& window = static_cast<const plan::WindowNode&>(node);
      auto out = Provenance(window.input());
      out.push_back(ColumnOrigin{});  // wstart
      out.push_back(ColumnOrigin{});  // wend
      return out;
    }
    case plan::LogicalNode::Kind::kAggregate: {
      const auto& agg = static_cast<const plan::AggregateNode&>(node);
      const auto input = Provenance(agg.input());
      std::vector<ColumnOrigin> out;
      out.reserve(agg.schema().num_fields());
      for (const auto& key : agg.keys()) {
        ColumnOrigin origin;
        if (key->kind == plan::BoundExpr::Kind::kInputRef &&
            key->input_index < input.size()) {
          origin = input[key->input_index];
        }
        out.push_back(origin);
      }
      while (out.size() < agg.schema().num_fields()) {
        out.push_back(ColumnOrigin{});  // aggregate results
      }
      return out;
    }
    case plan::LogicalNode::Kind::kJoin: {
      const auto& join = static_cast<const plan::JoinNode&>(node);
      auto out = Provenance(join.left());
      const auto right = Provenance(join.right());
      out.insert(out.end(), right.begin(), right.end());
      return out;
    }
  }
  return {};
}

struct PlanStats {
  int aggregates = 0;
  int joins = 0;
  int scans = 0;
  bool session = false;
  bool temporal_filter = false;
  const plan::AggregateNode* agg = nullptr;
  const plan::JoinNode* join = nullptr;
};

void CollectStats(const plan::LogicalNode& node, PlanStats* stats) {
  switch (node.kind()) {
    case plan::LogicalNode::Kind::kScan:
      ++stats->scans;
      return;
    case plan::LogicalNode::Kind::kFilter:
      CollectStats(static_cast<const plan::FilterNode&>(node).input(), stats);
      return;
    case plan::LogicalNode::Kind::kProject:
      CollectStats(static_cast<const plan::ProjectNode&>(node).input(), stats);
      return;
    case plan::LogicalNode::Kind::kTemporalFilter:
      stats->temporal_filter = true;
      CollectStats(static_cast<const plan::TemporalFilterNode&>(node).input(),
                   stats);
      return;
    case plan::LogicalNode::Kind::kWindow: {
      const auto& window = static_cast<const plan::WindowNode&>(node);
      if (window.window_kind() == plan::WindowKind::kSession) {
        stats->session = true;
      }
      CollectStats(window.input(), stats);
      return;
    }
    case plan::LogicalNode::Kind::kAggregate: {
      const auto& agg = static_cast<const plan::AggregateNode&>(node);
      ++stats->aggregates;
      stats->agg = &agg;
      CollectStats(agg.input(), stats);
      return;
    }
    case plan::LogicalNode::Kind::kJoin: {
      const auto& join = static_cast<const plan::JoinNode&>(node);
      ++stats->joins;
      stats->join = &join;
      CollectStats(join.left(), stats);
      CollectStats(join.right(), stats);
      return;
    }
  }
}

void CollectSources(const plan::LogicalNode& node,
                    std::set<std::string>* out) {
  switch (node.kind()) {
    case plan::LogicalNode::Kind::kScan:
      out->insert(
          ToLower(static_cast<const plan::ScanNode&>(node).source()));
      return;
    case plan::LogicalNode::Kind::kFilter:
      CollectSources(static_cast<const plan::FilterNode&>(node).input(), out);
      return;
    case plan::LogicalNode::Kind::kProject:
      CollectSources(static_cast<const plan::ProjectNode&>(node).input(), out);
      return;
    case plan::LogicalNode::Kind::kTemporalFilter:
      CollectSources(
          static_cast<const plan::TemporalFilterNode&>(node).input(), out);
      return;
    case plan::LogicalNode::Kind::kWindow:
      CollectSources(static_cast<const plan::WindowNode&>(node).input(), out);
      return;
    case plan::LogicalNode::Kind::kAggregate:
      CollectSources(static_cast<const plan::AggregateNode&>(node).input(),
                     out);
      return;
    case plan::LogicalNode::Kind::kJoin: {
      const auto& join = static_cast<const plan::JoinNode&>(node);
      CollectSources(join.left(), out);
      CollectSources(join.right(), out);
      return;
    }
  }
}

}  // namespace

std::optional<PartitionSpec> ExtractPartitionSpec(
    const plan::QueryPlan& plan) {
  if (plan.root == nullptr) return std::nullopt;

  PlanStats stats;
  CollectStats(*plan.root, &stats);

  // Session windows keep merge/split state whose retract-and-re-emit order
  // is a global property; temporal filters retract on watermarks, whose
  // cross-key interleaving the shard merge cannot reconstruct. Both fall
  // back to one chain.
  if (stats.session || stats.temporal_filter) return std::nullopt;

  // Pure pipelines hold no keyed state: any deterministic deal is correct.
  if (stats.aggregates == 0 && stats.joins == 0) {
    PartitionSpec spec;
    spec.stateless = true;
    return spec;
  }

  // Exactly one keyed stateful operator is supported; stacked stateful
  // operators would need a consistency proof between their keys.
  if (stats.aggregates + stats.joins != 1) return std::nullopt;

  if (stats.agg != nullptr) {
    const auto input = Provenance(stats.agg->input());
    PartitionSpec spec;
    std::string source;
    std::vector<size_t> cols;
    for (size_t key_pos = 0; key_pos < stats.agg->keys().size(); ++key_pos) {
      const auto& key = stats.agg->keys()[key_pos];
      if (key->kind != plan::BoundExpr::Kind::kInputRef) continue;
      if (key->input_index >= input.size()) continue;
      const ColumnOrigin& origin = input[key->input_index];
      if (!origin.known) continue;
      if (!source.empty() && origin.source != source) continue;
      source = origin.source;
      cols.push_back(origin.column);
      // The group-key row carries the same value at position `key_pos` as
      // the source row carries at `origin.column` (verbatim forward), so
      // hashing it routes saved group state to the inputs' shard.
      spec.state_key_positions.push_back(key_pos);
    }
    // Rows of one group share every group-key value, so hashing any verbatim
    // source-column subset of the key colocates the group. At least one such
    // column is required.
    if (cols.empty()) return std::nullopt;
    spec.source_keys[source] = std::move(cols);
    return spec;
  }

  // Single equi join: both sides must be distinct sources (a self-join feeds
  // one input row to both sides under different keys, which single-shard
  // routing cannot honor).
  const plan::JoinNode& join = *stats.join;
  if (join.equi_keys().empty()) return std::nullopt;
  std::set<std::string> left_sources, right_sources;
  CollectSources(join.left(), &left_sources);
  CollectSources(join.right(), &right_sources);
  if (left_sources.size() != 1 || right_sources.size() != 1) {
    return std::nullopt;
  }
  const std::string left_source = *left_sources.begin();
  const std::string right_source = *right_sources.begin();
  if (left_source == right_source) return std::nullopt;

  const auto left_prov = Provenance(join.left());
  const auto right_prov = Provenance(join.right());
  std::vector<size_t> left_cols, right_cols;
  std::vector<size_t> key_positions;
  for (size_t pair_pos = 0; pair_pos < join.equi_keys().size(); ++pair_pos) {
    const auto& [l, r] = join.equi_keys()[pair_pos];
    if (l >= left_prov.size() || r >= right_prov.size()) continue;
    const ColumnOrigin& lo = left_prov[l];
    const ColumnOrigin& ro = right_prov[r];
    if (!lo.known || !ro.known) continue;
    left_cols.push_back(lo.column);
    right_cols.push_back(ro.column);
    // The join's state key (the equi-key tuple, one entry per equi pair)
    // carries the same value at `pair_pos` as either source row carries at
    // the resolved column, so hashing it routes saved buckets to the shard
    // that receives their future probes.
    key_positions.push_back(pair_pos);
  }
  // Matching rows agree on every equi key, so hashing any aligned subset of
  // the pairs colocates them. At least one resolvable pair is required.
  if (left_cols.empty()) return std::nullopt;
  PartitionSpec spec;
  spec.source_keys[left_source] = std::move(left_cols);
  spec.source_keys[right_source] = std::move(right_cols);
  spec.state_key_positions = std::move(key_positions);
  return spec;
}

int RouteShard(const PartitionSpec& spec, const std::string& source_lower,
               const Row& row, uint64_t seq, int num_shards) {
  if (num_shards <= 1) return 0;
  if (spec.stateless) {
    return static_cast<int>(seq % static_cast<uint64_t>(num_shards));
  }
  auto it = spec.source_keys.find(source_lower);
  // A source without a key entry is not read by any keyed operator (or not
  // read at all); its changes are no-ops downstream, so shard 0 is fine.
  if (it == spec.source_keys.end()) return 0;
  size_t h = 0;
  for (size_t col : it->second) {
    h = h * 1000003 ^ (col < row.size() ? row[col].Hash() : 0);
  }
  return static_cast<int>(h % static_cast<size_t>(num_shards));
}

int RouteShardBatch(const PartitionSpec& spec, const std::string& source_lower,
                    const exec::ChangeBatch& batch, size_t i, uint64_t seq,
                    int num_shards) {
  if (num_shards <= 1) return 0;
  if (spec.stateless) {
    return static_cast<int>(seq % static_cast<uint64_t>(num_shards));
  }
  auto it = spec.source_keys.find(source_lower);
  if (it == spec.source_keys.end()) return 0;
  size_t h = 0;
  for (size_t col : it->second) {
    h = h * 1000003 ^
        (col < batch.columns.size() ? batch.columns[col].ValueAt(i).Hash()
                                    : 0);
  }
  return static_cast<int>(h % static_cast<size_t>(num_shards));
}

int RouteStateKey(const PartitionSpec& spec, const Row& state_key,
                  int num_shards) {
  if (num_shards <= 1) return 0;
  // The fold must match RouteShard exactly: position i of
  // `state_key_positions` is pairwise aligned with position i of every
  // per-source column list, and the state key carries the same values.
  size_t h = 0;
  for (size_t pos : spec.state_key_positions) {
    h = h * 1000003 ^ (pos < state_key.size() ? state_key[pos].Hash() : 0);
  }
  return static_cast<int>(h % static_cast<size_t>(num_shards));
}

}  // namespace exec
}  // namespace onesql
