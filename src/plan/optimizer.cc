#include "plan/optimizer.h"

#include <limits>
#include <map>

namespace onesql {
namespace plan {

namespace {

constexpr int64_t kNegInf = std::numeric_limits<int64_t>::min();
constexpr int64_t kPosInf = std::numeric_limits<int64_t>::max();

void SplitConjunctsInto(BoundExprPtr expr, std::vector<BoundExprPtr>* out) {
  if (expr == nullptr) return;
  if (expr->kind == BoundExpr::Kind::kOp && expr->op == ScalarOp::kAnd) {
    SplitConjunctsInto(std::move(expr->children[0]), out);
    SplitConjunctsInto(std::move(expr->children[1]), out);
    return;
  }
  out->push_back(std::move(expr));
}

}  // namespace

std::vector<BoundExprPtr> SplitConjuncts(BoundExprPtr expr) {
  std::vector<BoundExprPtr> out;
  SplitConjunctsInto(std::move(expr), &out);
  return out;
}

BoundExprPtr CombineConjuncts(std::vector<BoundExprPtr> conjuncts) {
  BoundExprPtr acc;
  for (auto& c : conjuncts) {
    if (acc == nullptr) {
      acc = std::move(c);
    } else {
      std::vector<BoundExprPtr> children;
      children.push_back(std::move(acc));
      children.push_back(std::move(c));
      acc = BoundExpr::Op(ScalarOp::kAnd, DataType::kBoolean,
                          std::move(children));
    }
  }
  return acc;
}

bool IsAppendOnlyPipeline(const LogicalNode& node) {
  switch (node.kind()) {
    case LogicalNode::Kind::kScan:
      return true;
    case LogicalNode::Kind::kFilter:
      return IsAppendOnlyPipeline(
          static_cast<const FilterNode&>(node).input());
    case LogicalNode::Kind::kProject:
      return IsAppendOnlyPipeline(
          static_cast<const ProjectNode&>(node).input());
    case LogicalNode::Kind::kWindow: {
      const auto& window = static_cast<const WindowNode&>(node);
      // Session windows retract rows when sessions merge or split.
      if (window.window_kind() == WindowKind::kSession) return false;
      return IsAppendOnlyPipeline(window.input());
    }
    case LogicalNode::Kind::kAggregate:
    case LogicalNode::Kind::kJoin:
    case LogicalNode::Kind::kTemporalFilter:  // retracts expiring rows
      return false;
  }
  return false;
}

namespace {

// True if `col` of `node`'s output, traced through filters and verbatim
// projections, is an event-time grouping key of an Aggregate node, i.e.
// its groups are final (no further retractions) once the watermark passes
// the column value.
bool TracesToEventTimeAggregateKey(const LogicalNode& node, size_t col) {
  switch (node.kind()) {
    case LogicalNode::Kind::kFilter:
      return TracesToEventTimeAggregateKey(
          static_cast<const FilterNode&>(node).input(), col);
    case LogicalNode::Kind::kProject: {
      const auto& project = static_cast<const ProjectNode&>(node);
      const BoundExpr& e = *project.exprs()[col];
      if (e.kind != BoundExpr::Kind::kInputRef) return false;
      return TracesToEventTimeAggregateKey(project.input(), e.input_index);
    }
    case LogicalNode::Kind::kAggregate: {
      const auto& agg = static_cast<const AggregateNode&>(node);
      if (col >= agg.keys().size()) return false;
      for (size_t i : agg.event_time_key_indexes()) {
        if (i == col) return true;
      }
      return false;
    }
    default:
      return false;
  }
}

bool CanPurgeSide(const LogicalNode& side, size_t col, Interval slack) {
  if (!side.unbounded()) return false;  // bounded inputs need no purging
  if (IsAppendOnlyPipeline(side)) return true;
  if (slack.millis() < 0) return false;
  return TracesToEventTimeAggregateKey(side, col);
}

// An event-time "term": input[col] + shift, extracted from a predicate
// operand.
struct EtTerm {
  size_t col = 0;
  int64_t shift_ms = 0;
};

std::optional<EtTerm> ParseEtTerm(const BoundExpr& e) {
  if (e.kind == BoundExpr::Kind::kInputRef) {
    if (e.type != DataType::kTimestamp) return std::nullopt;
    return EtTerm{e.input_index, 0};
  }
  if (e.kind == BoundExpr::Kind::kOp &&
      (e.op == ScalarOp::kAdd || e.op == ScalarOp::kSub) &&
      e.children.size() == 2) {
    const BoundExpr& a = *e.children[0];
    const BoundExpr& b = *e.children[1];
    if (a.kind == BoundExpr::Kind::kInputRef &&
        a.type == DataType::kTimestamp &&
        b.kind == BoundExpr::Kind::kLiteral &&
        b.type == DataType::kInterval) {
      const int64_t ms = b.literal.AsInterval().millis();
      return EtTerm{a.input_index, e.op == ScalarOp::kAdd ? ms : -ms};
    }
    // interval + timestamp
    if (e.op == ScalarOp::kAdd && b.kind == BoundExpr::Kind::kInputRef &&
        b.type == DataType::kTimestamp &&
        a.kind == BoundExpr::Kind::kLiteral &&
        a.type == DataType::kInterval) {
      return EtTerm{b.input_index, a.literal.AsInterval().millis()};
    }
  }
  return std::nullopt;
}

// Bounds on (left_et - right_et) per (left column, right column) pair.
struct EtBounds {
  int64_t lo = kNegInf;
  int64_t hi = kPosInf;
};

// Processes one comparison conjunct, tightening bounds when it relates an
// event-time column of the left side to one of the right side.
void AccumulateEtBound(const BoundExpr& conjunct, const Schema& left_schema,
                       size_t nleft,
                       std::map<std::pair<size_t, size_t>, EtBounds>* bounds,
                       const Schema& right_schema) {
  if (conjunct.kind != BoundExpr::Kind::kOp) return;
  ScalarOp op = conjunct.op;
  if (op != ScalarOp::kLt && op != ScalarOp::kLe && op != ScalarOp::kGt &&
      op != ScalarOp::kGe && op != ScalarOp::kEq) {
    return;
  }
  auto t1 = ParseEtTerm(*conjunct.children[0]);
  auto t2 = ParseEtTerm(*conjunct.children[1]);
  if (!t1.has_value() || !t2.has_value()) return;

  // Orient so that t1 is the left-side column.
  bool t1_left = t1->col < nleft;
  bool t2_left = t2->col < nleft;
  if (t1_left == t2_left) return;  // same side
  if (!t1_left) {
    std::swap(t1, t2);
    // Mirror the comparison.
    switch (op) {
      case ScalarOp::kLt: op = ScalarOp::kGt; break;
      case ScalarOp::kLe: op = ScalarOp::kGe; break;
      case ScalarOp::kGt: op = ScalarOp::kLt; break;
      case ScalarOp::kGe: op = ScalarOp::kLe; break;
      default: break;
    }
  }
  const size_t lcol = t1->col;
  const size_t rcol = t2->col - nleft;
  if (!left_schema.field(lcol).is_event_time) return;
  if (!right_schema.field(rcol).is_event_time) return;

  // L + a OP R + b  =>  L - R OP (b - a).
  const int64_t c = t2->shift_ms - t1->shift_ms;
  EtBounds& eb = (*bounds)[{lcol, rcol}];
  switch (op) {
    case ScalarOp::kLt:
    case ScalarOp::kLe:
      eb.hi = std::min(eb.hi, c);
      break;
    case ScalarOp::kGt:
    case ScalarOp::kGe:
      eb.lo = std::max(eb.lo, c);
      break;
    case ScalarOp::kEq:
      eb.hi = std::min(eb.hi, c);
      eb.lo = std::max(eb.lo, c);
      break;
    default:
      break;
  }
}

void DerivePurgeSpecs(JoinNode* join) {
  if (join->join_type() == sql::JoinType::kLeft) return;
  const Schema& left_schema = join->left().schema();
  const Schema& right_schema = join->right().schema();
  const size_t nleft = left_schema.num_fields();

  std::map<std::pair<size_t, size_t>, EtBounds> bounds;
  if (join->condition() != nullptr) {
    // Inspect conjuncts without consuming them.
    std::vector<const BoundExpr*> stack = {join->condition()};
    while (!stack.empty()) {
      const BoundExpr* e = stack.back();
      stack.pop_back();
      if (e->kind == BoundExpr::Kind::kOp && e->op == ScalarOp::kAnd) {
        stack.push_back(e->children[0].get());
        stack.push_back(e->children[1].get());
        continue;
      }
      AccumulateEtBound(*e, left_schema, nleft, &bounds, right_schema);
    }
  }
  // Equi keys over event-time columns give exact bounds.
  for (const auto& [l, r] : join->equi_keys()) {
    if (left_schema.field(l).is_event_time &&
        right_schema.field(r).is_event_time &&
        left_schema.field(l).type == DataType::kTimestamp) {
      EtBounds& eb = bounds[{l, r}];
      eb.lo = std::max(eb.lo, int64_t{0});
      eb.hi = std::min(eb.hi, int64_t{0});
    }
  }

  for (const auto& [cols, eb] : bounds) {
    if (!join->left_purge().has_value() && eb.lo != kNegInf) {
      const Interval slack(-eb.lo);
      if (CanPurgeSide(join->left(), cols.first, slack)) {
        join->set_left_purge(JoinPurgeSpec{cols.first, slack});
      }
    }
    if (!join->right_purge().has_value() && eb.hi != kPosInf) {
      const Interval slack(eb.hi);
      if (CanPurgeSide(join->right(), cols.second, slack)) {
        join->set_right_purge(JoinPurgeSpec{cols.second, slack});
      }
    }
  }
}

void ExtractEquiKeys(JoinNode* join) {
  if (join->condition() == nullptr) return;
  if (join->join_type() == sql::JoinType::kLeft) return;
  const size_t nleft = join->left().schema().num_fields();

  std::vector<BoundExprPtr> conjuncts =
      SplitConjuncts(std::move(join->mutable_condition()));
  std::vector<BoundExprPtr> residual;
  for (auto& c : conjuncts) {
    bool extracted = false;
    if (c->kind == BoundExpr::Kind::kOp && c->op == ScalarOp::kEq &&
        c->children.size() == 2 &&
        c->children[0]->kind == BoundExpr::Kind::kInputRef &&
        c->children[1]->kind == BoundExpr::Kind::kInputRef) {
      size_t a = c->children[0]->input_index;
      size_t b = c->children[1]->input_index;
      if (a >= nleft && b < nleft) std::swap(a, b);
      if (a < nleft && b >= nleft) {
        join->mutable_equi_keys()->emplace_back(a, b - nleft);
        extracted = true;
      }
    }
    if (!extracted) residual.push_back(std::move(c));
  }
  join->mutable_condition() = CombineConjuncts(std::move(residual));
}

// Pushes the conjuncts of `predicate` into the appropriate side of `join`,
// merging cross-side conjuncts into the join condition. Only valid for
// inner/cross joins.
void PushFilterIntoJoin(JoinNode* join, BoundExprPtr predicate) {
  const size_t nleft = join->left().schema().num_fields();
  std::vector<BoundExprPtr> conjuncts = SplitConjuncts(std::move(predicate));
  std::vector<BoundExprPtr> left_side, right_side, spanning;
  for (auto& c : conjuncts) {
    std::vector<size_t> refs;
    CollectInputRefs(*c, &refs);
    const bool any_left = !refs.empty() && refs.front() < nleft;
    const bool any_right = !refs.empty() && refs.back() >= nleft;
    if (any_left && !any_right) {
      left_side.push_back(std::move(c));
    } else if (any_right && !any_left) {
      ShiftInputRefs(c.get(), -static_cast<int64_t>(nleft));
      right_side.push_back(std::move(c));
    } else {
      spanning.push_back(std::move(c));
    }
  }
  if (!left_side.empty()) {
    join->mutable_left() = std::make_unique<FilterNode>(
        std::move(join->mutable_left()),
        CombineConjuncts(std::move(left_side)));
  }
  if (!right_side.empty()) {
    join->mutable_right() = std::make_unique<FilterNode>(
        std::move(join->mutable_right()),
        CombineConjuncts(std::move(right_side)));
  }
  if (!spanning.empty()) {
    if (join->condition() != nullptr) {
      spanning.push_back(std::move(join->mutable_condition()));
    }
    join->mutable_condition() = CombineConjuncts(std::move(spanning));
  }
}

// Moves the conjuncts of `*predicate` that read only `window`'s input
// columns into a filter below it, leaves the rest in `*predicate` (null if
// none), and returns whether any conjunct moved. Only valid for Hop/Tumble:
// their output is the input columns followed by wstart/wend, and each input
// row's window copies carry its columns unchanged, so such a conjunct keeps
// or drops all copies of a row alike.
bool PushFilterBelowWindow(WindowNode* window, BoundExprPtr* predicate) {
  const size_t ninput = window->input().schema().num_fields();
  std::vector<BoundExprPtr> below, above;
  for (auto& c : SplitConjuncts(std::move(*predicate))) {
    std::vector<size_t> refs;
    CollectInputRefs(*c, &refs);
    (refs.empty() || refs.back() < ninput ? below : above)
        .push_back(std::move(c));
  }
  *predicate = CombineConjuncts(std::move(above));
  if (below.empty()) return false;
  window->mutable_input() = std::make_unique<FilterNode>(
      std::move(window->mutable_input()), CombineConjuncts(std::move(below)));
  return true;
}

}  // namespace

LogicalNodePtr Optimizer::OptimizeNode(LogicalNodePtr node) {
  switch (node->kind()) {
    case LogicalNode::Kind::kScan:
      return node;
    case LogicalNode::Kind::kFilter: {
      auto* filter = static_cast<FilterNode*>(node.get());
      filter->mutable_input() = OptimizeNode(std::move(filter->mutable_input()));
      LogicalNode& input = *filter->mutable_input();
      if (input.kind() == LogicalNode::Kind::kJoin) {
        auto* join = static_cast<JoinNode*>(&input);
        if (join->join_type() != sql::JoinType::kLeft) {
          PushFilterIntoJoin(join, std::move(filter->mutable_predicate()));
          LogicalNodePtr join_node = std::move(filter->mutable_input());
          // Re-run join-local rules now that the condition changed.
          auto* j = static_cast<JoinNode*>(join_node.get());
          j->mutable_left() = OptimizeNode(std::move(j->mutable_left()));
          j->mutable_right() = OptimizeNode(std::move(j->mutable_right()));
          ExtractEquiKeys(j);
          DerivePurgeSpecs(j);
          return join_node;
        }
      }
      // A Session window stays below its filter: dropping rows first would
      // change which sessions the remaining rows form.
      if (input.kind() == LogicalNode::Kind::kWindow &&
          static_cast<WindowNode&>(input).window_kind() !=
              WindowKind::kSession) {
        auto* window = static_cast<WindowNode*>(&input);
        if (PushFilterBelowWindow(window, &filter->mutable_predicate())) {
          // The pushed filter may merge with, or move below, what it now
          // sits on.
          window->mutable_input() =
              OptimizeNode(std::move(window->mutable_input()));
        }
        if (filter->mutable_predicate() == nullptr) {
          return std::move(filter->mutable_input());
        }
        return node;
      }
      // Merge adjacent filters.
      if (input.kind() == LogicalNode::Kind::kFilter) {
        auto* inner = static_cast<FilterNode*>(&input);
        std::vector<BoundExprPtr> conjuncts;
        conjuncts.push_back(std::move(filter->mutable_predicate()));
        conjuncts.push_back(std::move(inner->mutable_predicate()));
        auto merged = std::make_unique<FilterNode>(
            std::move(inner->mutable_input()),
            CombineConjuncts(std::move(conjuncts)));
        return OptimizeNode(std::move(merged));
      }
      return node;
    }
    case LogicalNode::Kind::kProject: {
      auto* project = static_cast<ProjectNode*>(node.get());
      project->mutable_input() =
          OptimizeNode(std::move(project->mutable_input()));
      return node;
    }
    case LogicalNode::Kind::kWindow: {
      auto* window = static_cast<WindowNode*>(node.get());
      window->mutable_input() =
          OptimizeNode(std::move(window->mutable_input()));
      return node;
    }
    case LogicalNode::Kind::kAggregate: {
      auto* agg = static_cast<AggregateNode*>(node.get());
      agg->mutable_input() = OptimizeNode(std::move(agg->mutable_input()));
      return node;
    }
    case LogicalNode::Kind::kTemporalFilter: {
      auto* tf = static_cast<TemporalFilterNode*>(node.get());
      tf->mutable_input() = OptimizeNode(std::move(tf->mutable_input()));
      return node;
    }
    case LogicalNode::Kind::kJoin: {
      auto* join = static_cast<JoinNode*>(node.get());
      join->mutable_left() = OptimizeNode(std::move(join->mutable_left()));
      join->mutable_right() = OptimizeNode(std::move(join->mutable_right()));
      ExtractEquiKeys(join);
      DerivePurgeSpecs(join);
      return node;
    }
  }
  return node;
}

Status Optimizer::Optimize(QueryPlan* plan) {
  if (plan == nullptr || plan->root == nullptr) {
    return Status::InvalidArgument("Optimize requires a bound plan");
  }
  plan->root = OptimizeNode(std::move(plan->root));
  return Status::OK();
}

}  // namespace plan
}  // namespace onesql
