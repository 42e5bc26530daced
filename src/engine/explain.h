#ifndef ONESQL_ENGINE_EXPLAIN_H_
#define ONESQL_ENGINE_EXPLAIN_H_

#include <string>

namespace onesql {

/// The result of Engine::ExplainAnalyze: the query's logical plan annotated
/// with its live metrics, in two renderings carrying the same values.
struct ExplainAnalysis {
  /// The query's observability label ("q<n>"): the name in the text header,
  /// the JSON "query" field and the `query` label of its metrics.
  std::string query;

  /// EXPLAIN-style indented plan tree: each node's own EXPLAIN line followed
  /// by bracketed annotation lines (rows, state bytes, sampled wall time,
  /// rows/s), then query-level sink and engine stall lines.
  std::string text;

  /// JSON document with a stable shape (consumed by tools/profile_report.py):
  /// {"query","sql","shards","profiling","plan":{...recursive "inputs"...},
  ///  "sink":{...}, and — when profiling is on — "engine"}. "shards" is
  /// always 1.
  /// Count-valued fields are exact; time-valued fields are sampled and
  /// machine-dependent (see DESIGN.md §15 for the determinism contract).
  std::string json;
};

}  // namespace onesql

#endif  // ONESQL_ENGINE_EXPLAIN_H_
