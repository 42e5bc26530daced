#ifndef ONESQL_PLAN_LOGICAL_PLAN_H_
#define ONESQL_PLAN_LOGICAL_PLAN_H_

#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/schema.h"
#include "common/timestamp.h"
#include "plan/bound_expr.h"
#include "sql/ast.h"

namespace onesql {
namespace plan {

/// Base class for logical plan nodes. Every node knows its output schema
/// (with event-time / window-role metadata) and whether its output relation
/// is unbounded.
class LogicalNode {
 public:
  enum class Kind {
    kScan,
    kFilter,
    kProject,
    kWindow,
    kAggregate,
    kJoin,
    kTemporalFilter,
  };

  LogicalNode(Kind kind, Schema schema, bool unbounded)
      : kind_(kind), schema_(std::move(schema)), unbounded_(unbounded) {}
  virtual ~LogicalNode() = default;

  Kind kind() const { return kind_; }
  const Schema& schema() const { return schema_; }
  bool unbounded() const { return unbounded_; }

  /// Multi-line indented plan rendering (EXPLAIN-style).
  virtual std::string ToString(int indent = 0) const = 0;

 protected:
  std::string Indent(int indent) const { return std::string(indent * 2, ' '); }

  Kind kind_;
  Schema schema_;
  bool unbounded_;
};

using LogicalNodePtr = std::unique_ptr<LogicalNode>;

/// Leaf: reads a relation registered in the catalog.
class ScanNode : public LogicalNode {
 public:
  ScanNode(std::string source, Schema schema, bool unbounded)
      : LogicalNode(Kind::kScan, std::move(schema), unbounded),
        source_(std::move(source)) {}
  const std::string& source() const { return source_; }
  std::string ToString(int indent) const override;

 private:
  std::string source_;
};

/// Row filter; changelog entries whose row fails the predicate are dropped
/// (symmetrically for INSERTs and DELETEs, so TVR semantics are preserved).
class FilterNode : public LogicalNode {
 public:
  FilterNode(LogicalNodePtr input, BoundExprPtr predicate)
      : LogicalNode(Kind::kFilter, input->schema(), input->unbounded()),
        input_(std::move(input)),
        predicate_(std::move(predicate)) {}
  const LogicalNode& input() const { return *input_; }
  LogicalNodePtr& mutable_input() { return input_; }
  const BoundExpr& predicate() const { return *predicate_; }
  BoundExprPtr& mutable_predicate() { return predicate_; }
  std::string ToString(int indent) const override;

 private:
  LogicalNodePtr input_;
  BoundExprPtr predicate_;
};

/// Computes one output column per expression. The output schema records
/// which columns remain watermark-aligned event-time attributes (a verbatim
/// forward of an event-time column keeps the property; any computed
/// expression loses it — the conservative policy described in Appendix B.2).
class ProjectNode : public LogicalNode {
 public:
  ProjectNode(LogicalNodePtr input, std::vector<BoundExprPtr> exprs,
              Schema schema)
      : LogicalNode(Kind::kProject, std::move(schema), input->unbounded()),
        input_(std::move(input)),
        exprs_(std::move(exprs)) {}
  const LogicalNode& input() const { return *input_; }
  LogicalNodePtr& mutable_input() { return input_; }
  const std::vector<BoundExprPtr>& exprs() const { return exprs_; }
  std::string ToString(int indent) const override;

 private:
  LogicalNodePtr input_;
  std::vector<BoundExprPtr> exprs_;
};

/// The paper's Section 8 "time-progressing expressions": keeps the rows with
/// `et_col > CURRENT_TIME - horizon` where CURRENT_TIME is the relation's
/// progressing event-time clock (its watermark). Rows are admitted on
/// arrival and *retracted* once the watermark passes `et_col + horizon`, so
/// the output TVR is the sliding tail of the stream.
class TemporalFilterNode : public LogicalNode {
 public:
  TemporalFilterNode(LogicalNodePtr input, size_t et_col, Interval horizon)
      : LogicalNode(Kind::kTemporalFilter, input->schema(),
                    input->unbounded()),
        input_(std::move(input)),
        et_col_(et_col),
        horizon_(horizon) {}
  const LogicalNode& input() const { return *input_; }
  LogicalNodePtr& mutable_input() { return input_; }
  size_t et_col() const { return et_col_; }
  Interval horizon() const { return horizon_; }
  std::string ToString(int indent) const override;

 private:
  LogicalNodePtr input_;
  size_t et_col_;
  Interval horizon_;
};

enum class WindowKind { kTumble, kHop, kSession };

const char* WindowKindToString(WindowKind kind);

/// A windowing TVF application (Extension 3, and the Section 8 future-work
/// session windows): appends wstart/wend event-time columns. Tumble emits
/// one output row per input row; Hop emits dur/hop rows per input row;
/// Session (dur = the inactivity gap, optionally keyed) emits one row per
/// input row but may retract and re-emit rows as sessions merge or split.
class WindowNode : public LogicalNode {
 public:
  WindowNode(LogicalNodePtr input, WindowKind wkind, size_t timecol,
             Interval dur, Interval hop, Interval offset, Schema schema,
             std::optional<size_t> session_key = std::nullopt)
      : LogicalNode(Kind::kWindow, std::move(schema), input->unbounded()),
        input_(std::move(input)),
        window_kind_(wkind),
        timecol_(timecol),
        dur_(dur),
        hop_(hop),
        offset_(offset),
        session_key_(session_key) {}
  const LogicalNode& input() const { return *input_; }
  LogicalNodePtr& mutable_input() { return input_; }
  WindowKind window_kind() const { return window_kind_; }
  size_t timecol() const { return timecol_; }
  Interval dur() const { return dur_; }
  Interval hop() const { return hop_; }
  Interval offset() const { return offset_; }
  /// Sessionization key column (kSession only); nullopt = global sessions.
  std::optional<size_t> session_key() const { return session_key_; }
  /// Indexes of the appended window columns in the output schema.
  size_t wstart_index() const { return schema_.num_fields() - 2; }
  size_t wend_index() const { return schema_.num_fields() - 1; }
  std::string ToString(int indent) const override;

 private:
  LogicalNodePtr input_;
  WindowKind window_kind_;
  size_t timecol_;
  Interval dur_;
  Interval hop_;
  Interval offset_;
  std::optional<size_t> session_key_;
};

/// Grouped aggregation. Output schema: group key columns first, then one
/// column per aggregate call. `event_time_key_indexes` lists positions (into
/// `keys`) of watermark-aligned event-time grouping keys; per Extension 2
/// the group is complete once the watermark passes the key value, after
/// which state is purged and late inputs are dropped.
class AggregateNode : public LogicalNode {
 public:
  AggregateNode(LogicalNodePtr input, std::vector<BoundExprPtr> keys,
                std::vector<AggregateCall> aggs,
                std::vector<size_t> event_time_key_indexes, Schema schema)
      : LogicalNode(Kind::kAggregate, std::move(schema), input->unbounded()),
        input_(std::move(input)),
        keys_(std::move(keys)),
        aggs_(std::move(aggs)),
        event_time_key_indexes_(std::move(event_time_key_indexes)) {}
  const LogicalNode& input() const { return *input_; }
  LogicalNodePtr& mutable_input() { return input_; }
  const std::vector<BoundExprPtr>& keys() const { return keys_; }
  const std::vector<AggregateCall>& aggs() const { return aggs_; }
  const std::vector<size_t>& event_time_key_indexes() const {
    return event_time_key_indexes_;
  }
  std::string ToString(int indent) const override;

 private:
  LogicalNodePtr input_;
  std::vector<BoundExprPtr> keys_;
  std::vector<AggregateCall> aggs_;
  std::vector<size_t> event_time_key_indexes_;
};

/// Watermark-driven state cleanup directive for one side of a join,
/// derived by the optimizer from event-time-vs-event-time predicates:
/// a row whose `et_col` value v satisfies v + slack <= watermark can never
/// match any future row of the other side and is purged.
struct JoinPurgeSpec {
  size_t et_col = 0;       // column index within that side's schema
  Interval slack{0};

  std::string ToString() const;
};

/// Binary join. `condition` (nullable for a pure cross join) is evaluated
/// over the concatenated [left..., right...] row. `equi_keys` is an optimizer
/// extraction of equality conjuncts for hash-based execution; the remaining
/// condition stays as a residual predicate.
class JoinNode : public LogicalNode {
 public:
  JoinNode(sql::JoinType join_type, LogicalNodePtr left, LogicalNodePtr right,
           BoundExprPtr condition, Schema schema)
      : LogicalNode(Kind::kJoin, std::move(schema),
                    left->unbounded() || right->unbounded()),
        join_type_(join_type),
        left_(std::move(left)),
        right_(std::move(right)),
        condition_(std::move(condition)) {}
  sql::JoinType join_type() const { return join_type_; }
  const LogicalNode& left() const { return *left_; }
  const LogicalNode& right() const { return *right_; }
  LogicalNodePtr& mutable_left() { return left_; }
  LogicalNodePtr& mutable_right() { return right_; }
  const BoundExpr* condition() const { return condition_.get(); }
  BoundExprPtr& mutable_condition() { return condition_; }

  /// (left column, right column) pairs compared with `=`.
  const std::vector<std::pair<size_t, size_t>>& equi_keys() const {
    return equi_keys_;
  }
  std::vector<std::pair<size_t, size_t>>* mutable_equi_keys() {
    return &equi_keys_;
  }
  const std::optional<JoinPurgeSpec>& left_purge() const { return left_purge_; }
  const std::optional<JoinPurgeSpec>& right_purge() const {
    return right_purge_;
  }
  void set_left_purge(JoinPurgeSpec spec) { left_purge_ = spec; }
  void set_right_purge(JoinPurgeSpec spec) { right_purge_ = spec; }
  /// Removes purge directives (ablation studies).
  void clear_purges() {
    left_purge_.reset();
    right_purge_.reset();
  }

  std::string ToString(int indent) const override;

 private:
  sql::JoinType join_type_;
  LogicalNodePtr left_;
  LogicalNodePtr right_;
  BoundExprPtr condition_;
  std::vector<std::pair<size_t, size_t>> equi_keys_;
  std::optional<JoinPurgeSpec> left_purge_;
  std::optional<JoinPurgeSpec> right_purge_;
};

/// The node's inputs, left to right: none for a scan, two for a join, one
/// otherwise.
std::vector<const LogicalNode*> Inputs(const LogicalNode& node);

/// Adds the lower-cased names of the sources the subtree scans to `out`.
void CollectSources(const LogicalNode& node, std::set<std::string>* out);

/// A fully bound query: the plan tree plus presentation directives
/// (ORDER BY / LIMIT apply to snapshot rendering) and the materialization
/// controls from the EMIT clause (Extensions 4-7).
struct QueryPlan {
  LogicalNodePtr root;
  Schema output_schema;  // == root->schema(), for convenience

  std::optional<sql::EmitClause> emit;
  std::vector<std::pair<BoundExprPtr, bool>> order_by;  // (expr, descending)
  std::optional<int64_t> limit;

  /// Output column whose value, once below the watermark, marks the row's
  /// input as complete (drives EMIT AFTER WATERMARK). Prefers a window-end
  /// column; set only when the query groups by an event-time key.
  std::optional<size_t> completeness_column;

  /// Output columns identifying "the same event-time grouping" for `ver`
  /// sequence numbers (Extension 4) and AFTER DELAY coalescing. Empty means
  /// key on the whole row.
  std::vector<size_t> version_key_columns;

  /// Extension 2 notes that "a configurable amount of allowed lateness is
  /// often needed": groupings stay correctable (state retained, late inputs
  /// accepted and emitted as corrections) until the watermark passes the
  /// event-time key by this much. Zero reproduces the paper's strict
  /// semantics.
  Interval allowed_lateness{0};

  std::string ToString() const;
};

}  // namespace plan
}  // namespace onesql

#endif  // ONESQL_PLAN_LOGICAL_PLAN_H_
