#ifndef ONESQL_PLAN_BINDER_H_
#define ONESQL_PLAN_BINDER_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "plan/catalog.h"
#include "plan/logical_plan.h"
#include "sql/ast.h"

namespace onesql {
namespace plan {

/// Resolves names, checks types, and lowers a parsed SELECT statement to a
/// logical plan. Responsibilities beyond classic binding:
///
/// - Event-time attribute tracking (Section 5 / Appendix B.2): a column
///   keeps its watermark-aligned event-time property only when forwarded
///   verbatim; computed expressions degrade to plain TIMESTAMP.
/// - Extension 2 validation: a GROUP BY over an unbounded input must include
///   at least one event-time grouping key.
/// - Window-column functional dependency: grouping by a window's wend makes
///   its wstart available (and vice versa), as in the paper's Listing 2.
/// - EMIT clause validation (top-level only) and derivation of the
///   completeness column / version-key columns used by materialization.
class Binder {
 public:
  explicit Binder(const Catalog* catalog) : catalog_(catalog) {}

  /// Binds a top-level statement into an executable QueryPlan.
  Result<QueryPlan> Bind(const sql::SelectStmt& stmt);

 private:
  /// One named relation visible in a scope, with its column offset within
  /// the concatenated input row.
  struct ScopeRange {
    std::string name;  // alias or table name; may be empty
    Schema schema;
    size_t offset = 0;
  };

  struct Scope {
    std::vector<ScopeRange> ranges;

    size_t total_columns() const;
    /// Concatenated schema across ranges.
    Schema Concat() const;
    /// Resolves a (possibly unqualified) column; ambiguity is an error.
    Result<std::pair<size_t, Field>> Resolve(const std::string& qualifier,
                                             const std::string& name) const;
  };

  struct BoundTable {
    LogicalNodePtr node;
    std::vector<ScopeRange> ranges;
  };

  /// Per-output-column bookkeeping used to derive QueryPlan metadata.
  struct BoundSelect {
    LogicalNodePtr node;
    /// For each output column: index of the aggregate group key it forwards
    /// verbatim, or -1.
    std::vector<int64_t> group_key_origin;
    bool aggregated = false;
  };

  Result<BoundSelect> BindSelect(const sql::SelectStmt& stmt, bool top_level);
  Result<BoundTable> BindTableRef(const sql::TableRef& ref);
  Result<BoundTable> BindTvf(const sql::TvfRef& tvf);

  /// What aggregate context binds against: the grouping keys with their
  /// output fields, and the aggregate calls collected so far. Over the
  /// Aggregate node's output, key i is column i and call j is column
  /// keys.size() + j.
  struct Grouping {
    std::vector<BoundExprPtr> keys;
    std::vector<Field> key_fields;
    std::vector<AggregateCall> aggs;
  };

  /// Binds an expression over `scope`. With `grouping`, binds in aggregate
  /// context, which differs only at its leaves: an aggregate call becomes
  /// its output column (collected into `grouping->aggs`), a subtree equal
  /// to a grouping key becomes the key's column, a constant stays a
  /// constant, and any other bare column is an error. Every other node is
  /// type-checked by the same rules in both contexts.
  Result<BoundExprPtr> BindScalar(const sql::Expr& expr, const Scope& scope,
                                  Grouping* grouping = nullptr);

  // Shared type-checked operator construction.
  Result<BoundExprPtr> MakeUnary(sql::UnaryOp op, BoundExprPtr operand);
  Result<BoundExprPtr> MakeBinary(sql::BinaryOp op, BoundExprPtr left,
                                  BoundExprPtr right);
  Result<BoundExprPtr> MakeCast(BoundExprPtr operand, DataType target);
  /// CASE over `children` (conditions and results alternating, ELSE last).
  Result<BoundExprPtr> MakeCase(std::vector<BoundExprPtr> children);
  Result<BoundExprPtr> MakeScalarFunction(const std::string& name,
                                          std::vector<BoundExprPtr> args);
  Result<AggregateCall> MakeAggregateCall(const sql::FunctionCallExpr& call,
                                          const Scope& scope);

  const Catalog* catalog_;
};

}  // namespace plan
}  // namespace onesql

#endif  // ONESQL_PLAN_BINDER_H_
