#ifndef ONESQL_PLAN_FINGERPRINT_H_
#define ONESQL_PLAN_FINGERPRINT_H_

#include <cstdint>
#include <string>
#include <unordered_map>

#include "plan/logical_plan.h"

namespace onesql {
namespace plan {

/// A canonical identity for a bound, optimized query plan, used by the
/// standing-query server to route subscribers of identical queries onto one
/// shared operator tree (multi-query sharing; see DESIGN.md §13).
///
/// Two plans share a fingerprint exactly when their runtimes are
/// *observationally bit-identical*: same sources, same operator tree, same
/// EMIT materialization controls, same presentation (ORDER BY / LIMIT), and
/// same allowed lateness. The canonicalization is deliberately conservative —
/// it only erases differences that provably cannot change any rendering:
///
///  - Output column *names* (SELECT aliases, table aliases) are excluded:
///    binding resolves every reference to a position, and rows carry no
///    names, so `SELECT price AS p` and `SELECT price AS q` over the same
///    source render identically.
///  - AND-conjunct order inside filter predicates is sorted: a filter passes
///    or drops rows without reordering them, so `WHERE a > 1 AND b < 2` and
///    `WHERE b < 2 AND a > 1` are the same operator.
///
/// Everything else is order-sensitive on purpose. Window widths, hop sizes,
/// session gaps, grouping-key order, aggregate-call order, join shape, and
/// the EMIT clause all feed the hash, because each of them changes either
/// the result rows or their materialization order.
struct PlanFingerprint {
  uint64_t hi = 0;
  uint64_t lo = 0;
  /// The canonical text the hash was computed over. Kept so fingerprint
  /// equality can fall back to byte comparison — a 128-bit collision must
  /// never silently fuse two different standing queries.
  std::string canonical;

  bool operator==(const PlanFingerprint& o) const {
    return hi == o.hi && lo == o.lo && canonical == o.canonical;
  }
  bool operator!=(const PlanFingerprint& o) const { return !(*this == o); }

  /// 32-hex-digit rendering (the wire protocol's `fingerprint` field).
  std::string ToHex() const;
};

/// The canonical text of every subtree of a plan, keyed by the subtree's
/// root node. Two subtrees with equal text compile to operators that turn the
/// same input into the same changelog, under the same rules that make equal
/// whole-plan fingerprints safe to share (the text of a parent embeds its
/// inputs' texts, so equal text means equal subtrees all the way down).
using SubtreeCanon = std::unordered_map<const LogicalNode*, std::string>;

/// Canonicalizes every subtree under `root` in one bottom-up pass: each node
/// is rendered once, from its inputs' already-rendered texts.
SubtreeCanon CanonicalizeSubtrees(const LogicalNode& root);

/// Computes the fingerprint of a bound + optimized plan. The plan's
/// `allowed_lateness` must already hold its effective value (Engine::Execute
/// applies the execution option before fingerprinting), since lateness
/// changes the emitted late panes. The operator-tree part is the root's
/// text from CanonicalizeSubtrees.
PlanFingerprint FingerprintPlan(const QueryPlan& plan);

/// The same, from the plan's subtree texts already computed.
PlanFingerprint FingerprintPlan(const QueryPlan& plan,
                                const SubtreeCanon& canon);

}  // namespace plan
}  // namespace onesql

#endif  // ONESQL_PLAN_FINGERPRINT_H_
