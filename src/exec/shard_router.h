#ifndef ONESQL_EXEC_SHARD_ROUTER_H_
#define ONESQL_EXEC_SHARD_ROUTER_H_

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/row.h"
#include "exec/change_batch.h"
#include "plan/logical_plan.h"

namespace onesql {
namespace exec {

/// How input changes of one query are routed across shards.
///
/// The sharded runtime compiles N copies of the operator chain and routes
/// each input change to exactly one copy. For the routing to be correct the
/// partition function must colocate every row that shares keyed operator
/// state (an aggregation group, a join key bucket). The spec records, per
/// source relation, which source-row columns are hashed to pick the shard —
/// exactly the hash-sharded operator parallelism of the Flink lineage behind
/// the paper, with DBSP's observation that changelog operators parallelize
/// cleanly by key partition.
struct PartitionSpec {
  /// source name (lower case) -> source-row column indexes to hash.
  /// For a join, both sides list column positions in pairwise alignment so
  /// that matching keys hash identically.
  std::unordered_map<std::string, std::vector<size_t>> source_keys;

  /// True when the plan holds no keyed state at all (pure
  /// filter/project/window pipelines): any deterministic routing is correct,
  /// so changes are dealt round-robin by sequence number.
  bool stateless = false;

  /// Positions within the keyed operator's *state key* that carry the hashed
  /// routing columns, aligned (in order) with the per-source column lists in
  /// `source_keys`. For an aggregation the state key is the group-key row
  /// and the positions index the verbatim-source-column keys; for a join it
  /// is the equi-key tuple and the positions index the resolvable key pairs.
  /// `RouteStateKey` folds these exactly like `RouteShard` folds the source
  /// columns, so a saved group/bucket lands on the shard that would receive
  /// its future inputs — the property checkpoint restore at a different
  /// shard count relies on. Empty for stateless specs.
  std::vector<size_t> state_key_positions;
};

/// Derives the partition spec for `plan`, or nullopt when the plan cannot be
/// key-partitioned and must run on one chain (N = 1).
///
/// Partitionable shapes:
///  - no keyed state at all                      -> round-robin routing;
///  - a single Aggregate (plus any stateless operators) with at least one
///    group key that is a verbatim source column  -> hash those columns;
///  - a single equi Join over two distinct sources with at least one
///    resolvable key pair                         -> hash the key pair.
///
/// Everything else — session windows (global merge/split state), temporal
/// filters (watermark-triggered retractions whose interleaving is a global
/// order), self-joins (one input row feeds both sides under different keys),
/// stacked stateful operators — is marked non-partitionable.
std::optional<PartitionSpec> ExtractPartitionSpec(const plan::QueryPlan& plan);

/// Routes one change to a shard. `seq` is the change's global sequence
/// number (used for stateless round-robin routing).
int RouteShard(const PartitionSpec& spec, const std::string& source_lower,
               const Row& row, uint64_t seq, int num_shards);

/// RouteShard for row `i` of a columnar batch: hashes the key columns
/// straight out of the column vectors (ValueAt round-trips exactly, so the
/// fold equals RouteShard on the materialized row).
int RouteShardBatch(const PartitionSpec& spec, const std::string& source_lower,
                    const exec::ChangeBatch& batch, size_t i, uint64_t seq,
                    int num_shards);

/// Routes one keyed-operator state key (aggregation group key or join
/// equi-key tuple) to a shard, folding `spec.state_key_positions` with the
/// same hash as `RouteShard`. Used at restore time to redistribute
/// checkpointed state across an arbitrary shard count.
int RouteStateKey(const PartitionSpec& spec, const Row& state_key,
                  int num_shards);

}  // namespace exec
}  // namespace onesql

#endif  // ONESQL_EXEC_SHARD_ROUTER_H_
