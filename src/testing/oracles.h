#ifndef ONESQL_TESTING_ORACLES_H_
#define ONESQL_TESTING_ORACLES_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "testing/feed_gen.h"

namespace onesql {
namespace testing {

/// Knobs for one differential run. Defaults run every applicable oracle.
struct OracleOptions {
  /// Directory for the crash oracle's checkpoint files; a per-case
  /// subdirectory is created and removed inside it. Empty disables the
  /// crash oracle.
  std::string temp_dir;

  /// When true the crash run also attaches the write-ahead feed log, so
  /// restore exercises checkpoint + WAL-suffix replay instead of
  /// checkpoint-only. Costs one fsync per feed call; the driver enables it
  /// for a slice of the seed range.
  bool crash_use_wal = false;

  /// Number of evenly spaced feed prefixes at which the duality oracle
  /// compares the accumulated changelog against the snapshot.
  int duality_checks = 8;

  bool run_reference = true;  // auto-skipped for sloppy-watermark feeds
  bool run_cql = true;        // applies to tumbling aggregates, mode B only
  bool run_crash = true;
  /// Serve the case through the standing-query server with two sessions
  /// sharing each query's operator tree, and require every subscriber's
  /// pushed changelog to render bit-identically to the dedicated baseline.
  bool run_sharing = true;
};

/// One oracle disagreement. `oracle` is the stable machine-readable name:
/// "duality", "batched", "crash", "reference", "cql", "sharing", or "feed"
/// (the feed itself was rejected, which a generated case never is).
struct CaseFailure {
  std::string oracle;
  std::string detail;
};

struct CaseOutcome {
  std::vector<CaseFailure> failures;

  bool ok() const { return failures.empty(); }
  std::string ToString() const;
};

/// Runs one case through every applicable oracle:
///
///  1. Duality: at every checked feed prefix, the accumulated EMIT STREAM
///     changelog of each query must reconstruct exactly its table snapshot.
///  2. Batched feed: re-running the same events through Engine::Feed in
///     seed-chosen batches of 1-7 events — the whole-batch path where the
///     chain allows it — must render a bit-identical stream
///     (undo/ptime/ver included) and snapshot.
///  3. Crash equivalence: checkpointing at a seed-chosen prefix, restoring
///     into a fresh engine, and feeding the suffix must render identically
///     to the uninterrupted run.
///  4. Reference semantics: the final snapshot must equal the naive
///     interpreter's from-scratch evaluation (perfect-watermark modes), and
///     the CQL baseline's (insert-only tumbling aggregates).
///  5. Sharing: serving the case through the standing-query server with two
///     sessions riding one shared plan per query (submit {"share": true}),
///     every subscriber's pushed delta stream must be byte-identical to the
///     wire encoding of the dedicated baseline's changelog, and the served
///     snapshots must match the baseline's.
///
/// Returns an error only when the harness itself cannot run (a query fails
/// to plan, registration fails) — engine disagreements are reported as
/// failures in the outcome, never as a Status.
Result<CaseOutcome> RunCase(const FuzzCase& fuzz, const OracleOptions& opts);

}  // namespace testing
}  // namespace onesql

#endif  // ONESQL_TESTING_ORACLES_H_
