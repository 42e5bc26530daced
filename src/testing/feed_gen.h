#ifndef ONESQL_TESTING_FEED_GEN_H_
#define ONESQL_TESTING_FEED_GEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "engine/engine.h"

namespace onesql {
namespace testing {

/// The differential fuzzer's case space (DESIGN.md §12): one seed maps
/// deterministically to a small bundle of continuous queries plus an
/// out-of-order, timestamped, watermarked feed. Every generated case is
/// valid by construction — deletes only target live rows, processing times
/// and watermarks are monotone — so any oracle disagreement is an engine
/// bug, not a malformed input.

/// Shapes cover every operator family the planner can emit for a single
/// statement: stateless pipelines, the three windowing TVFs, and the
/// streaming equi-join. kSharedAggJoin joins two identical keyed Hop
/// aggregates of S on (k, wend) — NEXMark Q5's shape, whose repeated subtree
/// the runtime compiles once (DESIGN.md §18); only the shared-subtrees
/// boundary template draws it.
enum class QueryShape {
  kFilterProject,
  kTumbleAgg,
  kHopAgg,
  kSession,
  kJoin,
  kSharedAggJoin,
};

/// Aggregate calls drawn for the windowed shapes. The double-typed ones are
/// generated over a dyadic domain (multiples of 1/64, |d| <= 64) so every
/// partial sum is exactly representable and bitwise comparison across
/// evaluation orders is sound.
enum class AggKind {
  kCountStar,
  kCountV,
  kSumV,
  kSumD,
  kAvgD,
  kMinV,
  kMaxV,
  kMinItem,
  kMaxItem,
  kCountDistinctV,
};

const char* QueryShapeToString(QueryShape shape);
const char* AggKindToString(AggKind kind);

struct QuerySpec {
  QueryShape shape = QueryShape::kFilterProject;
  int64_t dur_ms = 0;   // Tumble/Hop window length
  int64_t hop_ms = 0;   // Hop period
  int64_t gap_ms = 0;   // Session gap
  bool keyed = false;   // GROUP BY k alongside wend
  bool gated = false;   // EMIT AFTER WATERMARK (Tumble/Hop only)
  int64_t delay_ms = 0;  // EMIT AFTER DELAY (Tumble/Hop only), 0 = none
  bool has_filter = false;
  int64_t filter_min_v = 0;  // WHERE v >= filter_min_v
  bool extra_proj = false;   // kFilterProject: add "v + k AS x"
  bool extra_join_cond = false;  // kJoin: add "AND a.v <= b.v"
  bool ts_join = false;  // kJoin: add "AND a.ts = b.ts" (both sides purge)
  std::vector<AggKind> aggs;
  std::string sql;  // rendered statement (RenderSql)
};

/// How the feed is shaped, which decides the applicable oracles:
///  - kDeletesPerfect: inserts + deletes, perfect watermarks. All five
///    oracles apply (nothing is ever late, windows never close early).
///  - kInsertOnlyPerfect: insert-only, perfect watermarks, non-negative
///    event times. Adds the CQL baseline oracle for tumbling aggregates.
///  - kInsertOnlySloppy: insert-only with arbitrary (monotone) watermarks,
///    so rows genuinely drop late. The reference interpreter does not model
///    lateness; only the self-consistency oracles (duality, batched
///    feed, crash equivalence) run.
enum class FeedMode {
  kDeletesPerfect,
  kInsertOnlyPerfect,
  kInsertOnlySloppy,
};

const char* FeedModeToString(FeedMode mode);

struct FuzzCase {
  uint64_t seed = 0;
  FeedMode mode = FeedMode::kDeletesPerfect;
  std::vector<QuerySpec> queries;
  std::vector<FeedEvent> events;

  bool perfect_watermarks() const { return mode != FeedMode::kInsertOnlySloppy; }
};

/// Schema shared by both fuzz streams, S and R:
///   ts TIMESTAMP event-time, k BIGINT, v BIGINT, d DOUBLE, item VARCHAR.
Schema FuzzStreamSchema();

/// Names of the two registered streams.
inline const char* kFuzzStreamS = "S";
inline const char* kFuzzStreamR = "R";

/// Renders spec into its SQL text (does not touch spec.sql).
std::string RenderSql(const QuerySpec& spec);

/// Deterministically expands one seed into a full case. A case with an
/// AFTER DELAY query also moves the clock between events (FeedEvent::kClock,
/// Engine::AdvanceTo). The SQL of every
/// query is validated against Engine::Plan; a spec the planner rejects is
/// replaced by a trivial known-good projection (this keeps the generator
/// total — a planner regression then shows up as mass fallback, caught by
/// the smoke assertions in tests/fuzz).
FuzzCase GenerateCase(uint64_t seed);

/// Batch-boundary stress templates for the columnar feed history (DESIGN.md
/// §14): each family shapes the feed so the ChangeBatch chunking degenerates
/// in a specific way, and any divergence between a run's stored columns and
/// the rows fed shows up as an oracle disagreement.
///  - kOneEventBatches: insert-only, event times strictly ascending per
///    stream, so the perfect watermark schedule closes every rows-chunk
///    after exactly one row. Exercises batch size 1 everywhere.
///  - kOddRuns: insert-only runs of odd length (1/3/5/7/9) with descending
///    event times inside each run; the perfect watermark only advances at
///    run boundaries, so every chunk has an odd, >1-capable row count and
///    is internally out of order.
///  - kNullHeavy: ~60% NULLs in every nullable column, so the validity
///    masks, not the value lanes, carry most of the information.
///  - kRetractionDense: deletes-allowed mode with the delete probability
///    raised to ~65%, so the weight column flips sign on most rows and
///    accumulator retraction dominates.
///  - kSharedEventTimes: deletes-allowed mode over at most three distinct
///    event times and a small row vocabulary, ~55% deletes. Many aggregate
///    groups share one completion instant and empty and re-form before it;
///    join rows repeat (multiplicity > 1) and, with the join's event times
///    equated, pile onto one purge instant on both sides.
///  - kSharedSubtrees: deletes-allowed mode whose first query is a
///    kSharedAggJoin, so every oracle runs a fan-out: one compiled aggregate
///    replaying each event's changes to its second consumer.
enum class BoundaryTemplate {
  kOneEventBatches,
  kOddRuns,
  kNullHeavy,
  kRetractionDense,
  kSharedEventTimes,
  kSharedSubtrees,
};

const char* BoundaryTemplateToString(BoundaryTemplate t);

inline constexpr BoundaryTemplate kAllBoundaryTemplates[] = {
    BoundaryTemplate::kOneEventBatches, BoundaryTemplate::kOddRuns,
    BoundaryTemplate::kNullHeavy, BoundaryTemplate::kRetractionDense,
    BoundaryTemplate::kSharedEventTimes, BoundaryTemplate::kSharedSubtrees};

/// Deterministically expands (seed, template) into a full case with the
/// same validity guarantees as GenerateCase — deletes only target live
/// rows, ptimes and watermarks monotone — so every oracle that applies to
/// the case's mode can run on it unchanged. The seed stream is
/// decorrelated from GenerateCase's, and GenerateCase's seed-to-case
/// mapping is untouched.
FuzzCase GenerateBoundaryCase(uint64_t seed, BoundaryTemplate t);

/// Rebuilds the watermark schedule of `events` in place: strips every
/// watermark event and re-inserts the perfect schedule (per stream, the
/// minimum event time over all *future* insert/delete rows, minus 1ms),
/// ending with a Timestamp::Max() watermark per stream. Used by the
/// minimizer, whose event removals would otherwise break the
/// perfect-watermark invariant the reference oracle relies on.
void RegeneratePerfectWatermarks(std::vector<FeedEvent>* events);

/// Drops delete events whose row no longer has a live matching insert
/// before them (the minimizer creates such orphans when it removes insert
/// events), and re-establishes watermark monotonicity per stream.
void RepairFeed(std::vector<FeedEvent>* events);

}  // namespace testing
}  // namespace onesql

#endif  // ONESQL_TESTING_FEED_GEN_H_
