#include "plan/binder.h"

#include <algorithm>

#include "plan/optimizer.h"

namespace onesql {
namespace plan {

namespace {

void CollectAstConjuncts(const sql::Expr& expr,
                         std::vector<const sql::Expr*>* out) {
  if (expr.kind() == sql::Expr::Kind::kBinary) {
    const auto& bin = static_cast<const sql::BinaryExpr&>(expr);
    if (bin.op() == sql::BinaryOp::kAnd) {
      CollectAstConjuncts(bin.left(), out);
      CollectAstConjuncts(bin.right(), out);
      return;
    }
  }
  out->push_back(&expr);
}

/// Matches "CURRENT_TIME", "CURRENT_TIME - INTERVAL ...", or
/// "CURRENT_TIME + INTERVAL ..." and returns the subtracted horizon.
std::optional<Interval> ParseCurrentTimeSide(const sql::Expr& expr) {
  if (expr.kind() == sql::Expr::Kind::kCurrentTime) return Interval(0);
  if (expr.kind() != sql::Expr::Kind::kBinary) return std::nullopt;
  const auto& bin = static_cast<const sql::BinaryExpr&>(expr);
  if (bin.op() != sql::BinaryOp::kSub && bin.op() != sql::BinaryOp::kAdd) {
    return std::nullopt;
  }
  if (bin.left().kind() != sql::Expr::Kind::kCurrentTime ||
      bin.right().kind() != sql::Expr::Kind::kLiteral) {
    return std::nullopt;
  }
  const Value& v = static_cast<const sql::LiteralExpr&>(bin.right()).value();
  if (v.type() != DataType::kInterval) return std::nullopt;
  return bin.op() == sql::BinaryOp::kSub ? v.AsInterval() : -v.AsInterval();
}

bool IsNumericOrNull(DataType t) {
  return t == DataType::kBigint || t == DataType::kDouble ||
         t == DataType::kNull;
}

DataType CommonNumeric(DataType a, DataType b) {
  if (a == DataType::kDouble || b == DataType::kDouble) {
    return DataType::kDouble;
  }
  if (a == DataType::kBigint || b == DataType::kBigint) {
    return DataType::kBigint;
  }
  return DataType::kNull;
}

bool IsComparable(DataType a, DataType b) {
  if (a == DataType::kNull || b == DataType::kNull) return true;
  if (IsNumericOrNull(a) && IsNumericOrNull(b)) return true;
  return a == b;
}

/// The type that CASE branches or COALESCE arguments of types `a` and `b`
/// share: NULL gives way to the other type and numerics widen. nullopt when
/// they share none.
std::optional<DataType> CommonType(DataType a, DataType b) {
  if (a == DataType::kNull || a == b) return b;
  if (b == DataType::kNull) return a;
  if (IsNumericOrNull(a) && IsNumericOrNull(b)) return CommonNumeric(a, b);
  return std::nullopt;
}

/// The direct subexpressions of `expr`, in the order its bound form takes
/// them as operands: a CASE's conditions and results alternate, ELSE last.
std::vector<const sql::Expr*> Children(const sql::Expr& expr) {
  std::vector<const sql::Expr*> out;
  switch (expr.kind()) {
    case sql::Expr::Kind::kUnary:
      out.push_back(&static_cast<const sql::UnaryExpr&>(expr).operand());
      break;
    case sql::Expr::Kind::kBinary: {
      const auto& bin = static_cast<const sql::BinaryExpr&>(expr);
      out = {&bin.left(), &bin.right()};
      break;
    }
    case sql::Expr::Kind::kCast:
      out.push_back(&static_cast<const sql::CastExpr&>(expr).operand());
      break;
    case sql::Expr::Kind::kIsNull:
      out.push_back(&static_cast<const sql::IsNullExpr&>(expr).operand());
      break;
    case sql::Expr::Kind::kCase: {
      const auto& c = static_cast<const sql::CaseExpr&>(expr);
      for (const auto& w : c.whens()) {
        out.push_back(w.condition.get());
        out.push_back(w.result.get());
      }
      if (c.else_result() != nullptr) out.push_back(c.else_result());
      break;
    }
    case sql::Expr::Kind::kFunctionCall:
      for (const auto& arg :
           static_cast<const sql::FunctionCallExpr&>(expr).args()) {
        out.push_back(arg.get());
      }
      break;
    default:  // literals, column references, '*', CURRENT_TIME
      break;
  }
  return out;
}

/// True if `pred` holds for `expr` or any of its subexpressions.
template <typename Pred>
bool AnySubexpr(const sql::Expr& expr, const Pred& pred) {
  if (pred(expr)) return true;
  for (const sql::Expr* child : Children(expr)) {
    if (AnySubexpr(*child, pred)) return true;
  }
  return false;
}

bool IsAggregateCall(const sql::Expr& expr) {
  if (expr.kind() != sql::Expr::Kind::kFunctionCall) return false;
  const std::string& name = static_cast<const sql::FunctionCallExpr&>(expr).name();
  return IdentEquals(name, "COUNT") || IdentEquals(name, "SUM") ||
         IdentEquals(name, "MIN") || IdentEquals(name, "MAX") ||
         IdentEquals(name, "AVG");
}

bool ContainsAggregate(const sql::Expr& expr) {
  return AnySubexpr(expr, IsAggregateCall);
}

/// The output column `name` computed by `expr` over `input`. A verbatim
/// forward (an InputRef) keeps its source column's event-time mark and
/// window role, and its name when `name` is empty; a computed column is
/// plain (Section 5 / Appendix B.2).
Field OutputField(const BoundExpr& expr, const Schema& input,
                  std::string name) {
  Field f;
  f.name = std::move(name);
  f.type = expr.type;
  if (expr.kind == BoundExpr::Kind::kInputRef) {
    const Field& src = input.field(expr.input_index);
    f.is_event_time = src.is_event_time;
    f.window_role = src.window_role;
    if (f.name.empty()) f.name = src.name;
  }
  return f;
}

}  // namespace

// ---------------------------------------------------------------------------
// Scope
// ---------------------------------------------------------------------------

size_t Binder::Scope::total_columns() const {
  size_t n = 0;
  for (const auto& r : ranges) n += r.schema.num_fields();
  return n;
}

Schema Binder::Scope::Concat() const {
  Schema out;
  for (const auto& r : ranges) {
    for (const Field& f : r.schema.fields()) out.AddField(f);
  }
  return out;
}

Result<std::pair<size_t, Field>> Binder::Scope::Resolve(
    const std::string& qualifier, const std::string& name) const {
  if (!qualifier.empty()) {
    for (const auto& r : ranges) {
      if (!IdentEquals(r.name, qualifier)) continue;
      auto idx = r.schema.FindField(name);
      if (!idx.has_value()) {
        return Status::BindError("column '" + name + "' not found in '" +
                                 qualifier + "'");
      }
      return std::make_pair(r.offset + *idx, r.schema.field(*idx));
    }
    return Status::BindError("unknown table alias '" + qualifier + "'");
  }
  std::optional<std::pair<size_t, Field>> found;
  for (const auto& r : ranges) {
    auto idx = r.schema.FindField(name);
    if (!idx.has_value()) continue;
    if (found.has_value()) {
      return Status::BindError("column reference '" + name +
                               "' is ambiguous");
    }
    found = std::make_pair(r.offset + *idx, r.schema.field(*idx));
  }
  if (!found.has_value()) {
    return Status::BindError("column '" + name + "' not found");
  }
  return *found;
}

// ---------------------------------------------------------------------------
// Type-checked operator construction
// ---------------------------------------------------------------------------

Result<BoundExprPtr> Binder::MakeUnary(sql::UnaryOp op, BoundExprPtr operand) {
  const DataType t = operand->type;
  std::vector<BoundExprPtr> children;
  children.push_back(std::move(operand));
  switch (op) {
    case sql::UnaryOp::kNot:
      if (t != DataType::kBoolean && t != DataType::kNull) {
        return Status::BindError("NOT requires a BOOLEAN operand, got " +
                                 std::string(DataTypeToString(t)));
      }
      return BoundExpr::Op(ScalarOp::kNot, DataType::kBoolean,
                           std::move(children));
    case sql::UnaryOp::kNeg:
      if (t == DataType::kInterval) {
        return BoundExpr::Op(ScalarOp::kNeg, DataType::kInterval,
                             std::move(children));
      }
      if (!IsNumericOrNull(t)) {
        return Status::BindError("unary '-' requires a numeric operand");
      }
      return BoundExpr::Op(ScalarOp::kNeg, t, std::move(children));
  }
  return Status::Internal("unreachable unary op");
}

Result<BoundExprPtr> Binder::MakeBinary(sql::BinaryOp op, BoundExprPtr left,
                                        BoundExprPtr right) {
  const DataType lt = left->type;
  const DataType rt = right->type;
  auto children = [&]() {
    std::vector<BoundExprPtr> v;
    v.push_back(std::move(left));
    v.push_back(std::move(right));
    return v;
  };
  auto type_error = [&](const char* what) {
    return Status::BindError(std::string("cannot apply '") + what +
                             "' to types " + DataTypeToString(lt) + " and " +
                             DataTypeToString(rt));
  };

  switch (op) {
    case sql::BinaryOp::kAdd:
      if (IsNumericOrNull(lt) && IsNumericOrNull(rt)) {
        return BoundExpr::Op(ScalarOp::kAdd, CommonNumeric(lt, rt),
                             children());
      }
      if ((lt == DataType::kTimestamp && rt == DataType::kInterval) ||
          (lt == DataType::kInterval && rt == DataType::kTimestamp)) {
        return BoundExpr::Op(ScalarOp::kAdd, DataType::kTimestamp, children());
      }
      if (lt == DataType::kInterval && rt == DataType::kInterval) {
        return BoundExpr::Op(ScalarOp::kAdd, DataType::kInterval, children());
      }
      return type_error("+");
    case sql::BinaryOp::kSub:
      if (IsNumericOrNull(lt) && IsNumericOrNull(rt)) {
        return BoundExpr::Op(ScalarOp::kSub, CommonNumeric(lt, rt),
                             children());
      }
      if (lt == DataType::kTimestamp && rt == DataType::kInterval) {
        return BoundExpr::Op(ScalarOp::kSub, DataType::kTimestamp, children());
      }
      if (lt == DataType::kTimestamp && rt == DataType::kTimestamp) {
        return BoundExpr::Op(ScalarOp::kSub, DataType::kInterval, children());
      }
      if (lt == DataType::kInterval && rt == DataType::kInterval) {
        return BoundExpr::Op(ScalarOp::kSub, DataType::kInterval, children());
      }
      return type_error("-");
    case sql::BinaryOp::kMul:
      if (IsNumericOrNull(lt) && IsNumericOrNull(rt)) {
        return BoundExpr::Op(ScalarOp::kMul, CommonNumeric(lt, rt),
                             children());
      }
      if ((lt == DataType::kInterval && rt == DataType::kBigint) ||
          (lt == DataType::kBigint && rt == DataType::kInterval)) {
        return BoundExpr::Op(ScalarOp::kMul, DataType::kInterval, children());
      }
      return type_error("*");
    case sql::BinaryOp::kDiv:
      if (IsNumericOrNull(lt) && IsNumericOrNull(rt)) {
        return BoundExpr::Op(ScalarOp::kDiv, CommonNumeric(lt, rt),
                             children());
      }
      if (lt == DataType::kInterval && rt == DataType::kBigint) {
        return BoundExpr::Op(ScalarOp::kDiv, DataType::kInterval, children());
      }
      return type_error("/");
    case sql::BinaryOp::kMod:
      if ((lt == DataType::kBigint || lt == DataType::kNull) &&
          (rt == DataType::kBigint || rt == DataType::kNull)) {
        return BoundExpr::Op(ScalarOp::kMod, DataType::kBigint, children());
      }
      return type_error("%");
    case sql::BinaryOp::kEq:
    case sql::BinaryOp::kNeq:
    case sql::BinaryOp::kLt:
    case sql::BinaryOp::kLe:
    case sql::BinaryOp::kGt:
    case sql::BinaryOp::kGe: {
      if (!IsComparable(lt, rt)) return type_error("comparison");
      ScalarOp sop;
      switch (op) {
        case sql::BinaryOp::kEq: sop = ScalarOp::kEq; break;
        case sql::BinaryOp::kNeq: sop = ScalarOp::kNeq; break;
        case sql::BinaryOp::kLt: sop = ScalarOp::kLt; break;
        case sql::BinaryOp::kLe: sop = ScalarOp::kLe; break;
        case sql::BinaryOp::kGt: sop = ScalarOp::kGt; break;
        default: sop = ScalarOp::kGe; break;
      }
      return BoundExpr::Op(sop, DataType::kBoolean, children());
    }
    case sql::BinaryOp::kAnd:
    case sql::BinaryOp::kOr: {
      auto boolish = [](DataType t) {
        return t == DataType::kBoolean || t == DataType::kNull;
      };
      if (!boolish(lt) || !boolish(rt)) {
        return type_error(op == sql::BinaryOp::kAnd ? "AND" : "OR");
      }
      return BoundExpr::Op(
          op == sql::BinaryOp::kAnd ? ScalarOp::kAnd : ScalarOp::kOr,
          DataType::kBoolean, children());
    }
  }
  return Status::Internal("unreachable binary op");
}

Result<BoundExprPtr> Binder::MakeCast(BoundExprPtr operand, DataType target) {
  const DataType from = operand->type;
  const bool ok = from == target || from == DataType::kNull ||
                  target == DataType::kVarchar ||
                  (IsNumericOrNull(from) && IsNumericOrNull(target) &&
                   target != DataType::kNull);
  if (!ok) {
    return Status::BindError(std::string("cannot CAST ") +
                             DataTypeToString(from) + " to " +
                             DataTypeToString(target));
  }
  std::vector<BoundExprPtr> children;
  children.push_back(std::move(operand));
  return BoundExpr::Op(ScalarOp::kCast, target, std::move(children));
}

Result<BoundExprPtr> Binder::MakeScalarFunction(
    const std::string& name, std::vector<BoundExprPtr> args) {
  auto require_args = [&](size_t n) -> Status {
    if (args.size() != n) {
      return Status::BindError(name + " requires " + std::to_string(n) +
                               " argument(s)");
    }
    return Status::OK();
  };
  auto arg_type = [&](size_t i) { return args[i]->type; };

  if (IdentEquals(name, "LOWER") || IdentEquals(name, "UPPER")) {
    ONESQL_RETURN_NOT_OK(require_args(1));
    if (arg_type(0) != DataType::kVarchar && arg_type(0) != DataType::kNull) {
      return Status::BindError(name + " requires a VARCHAR argument");
    }
    return BoundExpr::Op(IdentEquals(name, "LOWER") ? ScalarOp::kLower
                                                    : ScalarOp::kUpper,
                         DataType::kVarchar, std::move(args));
  }
  if (IdentEquals(name, "CHAR_LENGTH") || IdentEquals(name, "LENGTH")) {
    ONESQL_RETURN_NOT_OK(require_args(1));
    if (arg_type(0) != DataType::kVarchar && arg_type(0) != DataType::kNull) {
      return Status::BindError(name + " requires a VARCHAR argument");
    }
    return BoundExpr::Op(ScalarOp::kCharLength, DataType::kBigint,
                         std::move(args));
  }
  if (IdentEquals(name, "ABS") || IdentEquals(name, "FLOOR") ||
      IdentEquals(name, "CEIL") || IdentEquals(name, "CEILING")) {
    ONESQL_RETURN_NOT_OK(require_args(1));
    if (!IsNumericOrNull(arg_type(0))) {
      return Status::BindError(name + " requires a numeric argument");
    }
    ScalarOp op = ScalarOp::kAbs;
    if (IdentEquals(name, "FLOOR")) op = ScalarOp::kFloor;
    if (IdentEquals(name, "CEIL") || IdentEquals(name, "CEILING")) {
      op = ScalarOp::kCeil;
    }
    const DataType result_type = arg_type(0);  // before args is moved from
    return BoundExpr::Op(op, result_type, std::move(args));
  }
  if (IdentEquals(name, "CONCAT")) {
    if (args.size() < 2) {
      return Status::BindError("CONCAT requires at least two arguments");
    }
    return BoundExpr::Op(ScalarOp::kConcat, DataType::kVarchar,
                         std::move(args));
  }
  if (IdentEquals(name, "COALESCE")) {
    if (args.size() < 2) {
      return Status::BindError("COALESCE requires at least two arguments");
    }
    DataType common = DataType::kNull;
    for (const auto& arg : args) {
      const std::optional<DataType> widened = CommonType(common, arg->type);
      if (!widened.has_value()) {
        return Status::BindError("COALESCE arguments have incompatible types");
      }
      common = *widened;
    }
    return BoundExpr::Op(ScalarOp::kCoalesce, common, std::move(args));
  }
  return Status::BindError("unknown function '" + name + "'");
}

Result<BoundExprPtr> Binder::MakeCase(std::vector<BoundExprPtr> children) {
  DataType result_type = DataType::kNull;
  for (size_t i = 0; i < children.size(); ++i) {
    const DataType t = children[i]->type;
    if (i % 2 == 0 && i + 1 < children.size()) {  // a WHEN condition
      if (t != DataType::kBoolean && t != DataType::kNull) {
        return Status::BindError("CASE WHEN condition must be BOOLEAN");
      }
      continue;
    }
    const std::optional<DataType> widened = CommonType(result_type, t);
    if (!widened.has_value()) {
      return Status::BindError("CASE branches have incompatible types");
    }
    result_type = *widened;
  }
  return BoundExpr::Op(ScalarOp::kCase, result_type, std::move(children));
}

Result<AggregateCall> Binder::MakeAggregateCall(
    const sql::FunctionCallExpr& call, const Scope& scope) {
  AggregateCall out;
  out.distinct = call.distinct();

  const std::string& name = call.name();
  const bool is_count = IdentEquals(name, "COUNT");

  if (call.args().size() != 1) {
    return Status::BindError("aggregate " + name +
                             " requires exactly one argument");
  }
  const sql::Expr& arg = *call.args()[0];
  if (arg.kind() == sql::Expr::Kind::kStar) {
    if (!is_count) {
      return Status::BindError("'*' is only valid in COUNT(*)");
    }
    if (out.distinct) {
      return Status::BindError("COUNT(DISTINCT *) is not valid");
    }
    out.fn = AggFn::kCountStar;
    out.result_type = DataType::kBigint;
    return out;
  }
  if (ContainsAggregate(arg)) {
    return Status::BindError("aggregate calls cannot be nested");
  }
  ONESQL_ASSIGN_OR_RETURN(out.arg, BindScalar(arg, scope));
  const DataType at = out.arg->type;

  if (is_count) {
    out.fn = AggFn::kCount;
    out.result_type = DataType::kBigint;
    return out;
  }
  if (IdentEquals(name, "SUM")) {
    if (!IsNumericOrNull(at)) {
      return Status::BindError("SUM requires a numeric argument");
    }
    out.fn = AggFn::kSum;
    out.result_type = at == DataType::kDouble ? DataType::kDouble
                                              : DataType::kBigint;
    return out;
  }
  if (IdentEquals(name, "AVG")) {
    if (!IsNumericOrNull(at)) {
      return Status::BindError("AVG requires a numeric argument");
    }
    out.fn = AggFn::kAvg;
    out.result_type = DataType::kDouble;
    return out;
  }
  if (IdentEquals(name, "MIN") || IdentEquals(name, "MAX")) {
    if (at == DataType::kBoolean) {
      return Status::BindError("MIN/MAX over BOOLEAN is not supported");
    }
    out.fn = IdentEquals(name, "MIN") ? AggFn::kMin : AggFn::kMax;
    out.result_type = at;
    return out;
  }
  return Status::BindError("unknown aggregate function '" + name + "'");
}

// ---------------------------------------------------------------------------
// Expression binding
// ---------------------------------------------------------------------------

Result<BoundExprPtr> Binder::BindScalar(const sql::Expr& expr,
                                        const Scope& scope,
                                        Grouping* grouping) {
  if (grouping != nullptr) {
    // Aggregate context: an aggregate call, a subtree equal to a grouping
    // key, or a constant binds to what it is over the Aggregate node's
    // output; anything else recurses below, with the same rules as scalar
    // context.
    if (IsAggregateCall(expr)) {
      ONESQL_ASSIGN_OR_RETURN(
          AggregateCall agg,
          MakeAggregateCall(static_cast<const sql::FunctionCallExpr&>(expr),
                            scope));
      std::vector<AggregateCall>& aggs = grouping->aggs;
      size_t idx = 0;
      while (idx < aggs.size() && !AggregateCallEquals(aggs[idx], agg)) ++idx;
      if (idx == aggs.size()) aggs.push_back(std::move(agg));
      return BoundExpr::InputRef(grouping->keys.size() + idx,
                                 aggs[idx].result_type);
    }
    Result<BoundExprPtr> over_input = BindScalar(expr, scope);
    if (over_input.ok()) {
      for (size_t i = 0; i < grouping->keys.size(); ++i) {
        if (BoundExprEquals(**over_input, *grouping->keys[i])) {
          return BoundExpr::InputRef(i, grouping->key_fields[i].type);
        }
      }
      if (!ReferencesInput(**over_input)) return over_input;
    }
    if (expr.kind() == sql::Expr::Kind::kColumnRef) {
      // A column that does not resolve keeps its resolution error.
      if (!over_input.ok()) return over_input.status();
      return Status::BindError(
          "column '" + expr.ToString() +
          "' must appear in the GROUP BY clause or be used in an aggregate "
          "function");
    }
  }

  switch (expr.kind()) {
    case sql::Expr::Kind::kLiteral:
      return BoundExpr::Literal(
          static_cast<const sql::LiteralExpr&>(expr).value());
    case sql::Expr::Kind::kColumnRef: {
      const auto& ref = static_cast<const sql::ColumnRefExpr&>(expr);
      ONESQL_ASSIGN_OR_RETURN(auto resolved,
                              scope.Resolve(ref.qualifier(), ref.name()));
      return BoundExpr::InputRef(resolved.first, resolved.second.type);
    }
    case sql::Expr::Kind::kStar:
      return Status::BindError("'*' is not allowed in this context");
    case sql::Expr::Kind::kCurrentTime:
      return Status::NotImplemented(
          "CURRENT_TIME is only supported in WHERE predicates of the form "
          "<event-time column> > CURRENT_TIME - <interval> (time-progressing "
          "expressions)");
    case sql::Expr::Kind::kFunctionCall: {
      const auto& call = static_cast<const sql::FunctionCallExpr&>(expr);
      if (IsAggregateCall(call)) {
        return Status::BindError("aggregate function " + call.name() +
                                 " is not allowed in this context");
      }
      if (call.distinct()) {
        return Status::BindError("DISTINCT is only valid in aggregates");
      }
      break;
    }
    default:
      break;
  }

  std::vector<BoundExprPtr> operands;
  for (const sql::Expr* child : Children(expr)) {
    ONESQL_ASSIGN_OR_RETURN(BoundExprPtr bound,
                            BindScalar(*child, scope, grouping));
    operands.push_back(std::move(bound));
  }
  switch (expr.kind()) {
    case sql::Expr::Kind::kUnary:
      return MakeUnary(static_cast<const sql::UnaryExpr&>(expr).op(),
                       std::move(operands[0]));
    case sql::Expr::Kind::kBinary:
      return MakeBinary(static_cast<const sql::BinaryExpr&>(expr).op(),
                        std::move(operands[0]), std::move(operands[1]));
    case sql::Expr::Kind::kCast:
      return MakeCast(std::move(operands[0]),
                      static_cast<const sql::CastExpr&>(expr).target());
    case sql::Expr::Kind::kIsNull:
      return BoundExpr::Op(
          static_cast<const sql::IsNullExpr&>(expr).negated()
              ? ScalarOp::kIsNotNull
              : ScalarOp::kIsNull,
          DataType::kBoolean, std::move(operands));
    case sql::Expr::Kind::kCase:
      return MakeCase(std::move(operands));
    case sql::Expr::Kind::kFunctionCall:
      return MakeScalarFunction(
          static_cast<const sql::FunctionCallExpr&>(expr).name(),
          std::move(operands));
    default:
      return Status::Internal("unreachable expression kind");
  }
}

// ---------------------------------------------------------------------------
// Table references
// ---------------------------------------------------------------------------

Result<Binder::BoundTable> Binder::BindTvf(const sql::TvfRef& tvf) {
  WindowKind wkind;
  std::vector<std::string> param_names;
  if (IdentEquals(tvf.function_name(), "Tumble")) {
    wkind = WindowKind::kTumble;
    param_names = {"data", "timecol", "dur", "offset"};
  } else if (IdentEquals(tvf.function_name(), "Hop")) {
    wkind = WindowKind::kHop;
    param_names = {"data", "timecol", "dur", "hopsize", "offset"};
  } else if (IdentEquals(tvf.function_name(), "Session")) {
    // Section 8 future work: keyed sessions (periods of activity separated
    // by gaps of at least `gap`, per optional key).
    wkind = WindowKind::kSession;
    param_names = {"data", "timecol", "gap", "key"};
  } else {
    return Status::BindError("unknown table-valued function '" +
                             tvf.function_name() + "'");
  }

  // Resolve named/positional arguments to parameter slots.
  std::vector<const sql::TvfArg*> slots(param_names.size(), nullptr);
  size_t positional = 0;
  for (const sql::TvfArg& arg : tvf.args()) {
    size_t slot;
    if (!arg.name.empty()) {
      auto it = std::find_if(
          param_names.begin(), param_names.end(),
          [&](const std::string& p) { return IdentEquals(p, arg.name); });
      if (it == param_names.end()) {
        return Status::BindError("unknown parameter '" + arg.name + "' for " +
                                 tvf.function_name());
      }
      slot = static_cast<size_t>(it - param_names.begin());
    } else {
      slot = positional++;
      if (slot >= param_names.size()) {
        return Status::BindError("too many arguments for " +
                                 tvf.function_name());
      }
    }
    if (slots[slot] != nullptr) {
      return Status::BindError("parameter '" + param_names[slot] +
                               "' specified twice");
    }
    slots[slot] = &arg;
  }

  // data
  if (slots[0] == nullptr || slots[0]->arg_kind != sql::TvfArg::Kind::kTable) {
    return Status::BindError(tvf.function_name() +
                             " requires a TABLE(...) 'data' argument");
  }
  ONESQL_ASSIGN_OR_RETURN(BoundTable data, BindTableRef(*slots[0]->table));
  const Schema& data_schema = data.node->schema();

  // timecol
  if (slots[1] == nullptr ||
      slots[1]->arg_kind != sql::TvfArg::Kind::kDescriptor) {
    return Status::BindError(tvf.function_name() +
                             " requires a DESCRIPTOR(...) 'timecol' argument");
  }
  auto timecol = data_schema.FindField(slots[1]->descriptor);
  if (!timecol.has_value()) {
    return Status::BindError("DESCRIPTOR column '" + slots[1]->descriptor +
                             "' not found in windowed relation");
  }
  const Field& time_field = data_schema.field(*timecol);
  if (time_field.type != DataType::kTimestamp) {
    return Status::BindError("timecol '" + slots[1]->descriptor +
                             "' must have type TIMESTAMP");
  }
  if (data.node->unbounded() && !time_field.is_event_time) {
    return Status::BindError(
        "timecol '" + slots[1]->descriptor +
        "' of an unbounded relation must be a watermarked event time column");
  }

  // Interval parameters.
  auto bind_interval = [&](const sql::TvfArg* arg,
                           const char* what) -> Result<Interval> {
    if (arg == nullptr) {
      return Status::BindError(std::string(tvf.function_name()) +
                               " requires parameter '" + what + "'");
    }
    if (arg->arg_kind != sql::TvfArg::Kind::kScalar ||
        arg->scalar->kind() != sql::Expr::Kind::kLiteral) {
      return Status::BindError(std::string("parameter '") + what +
                               "' must be an INTERVAL literal");
    }
    const Value& v =
        static_cast<const sql::LiteralExpr&>(*arg->scalar).value();
    if (v.type() != DataType::kInterval) {
      return Status::BindError(std::string("parameter '") + what +
                               "' must be an INTERVAL literal");
    }
    return v.AsInterval();
  };

  ONESQL_ASSIGN_OR_RETURN(
      Interval dur,
      bind_interval(slots[2], wkind == WindowKind::kSession ? "gap" : "dur"));
  if (dur.millis() <= 0) {
    return Status::BindError(wkind == WindowKind::kSession
                                 ? "session gap must be positive"
                                 : "window duration must be positive");
  }
  Interval hop = dur;
  Interval offset(0);
  std::optional<size_t> session_key;
  if (wkind == WindowKind::kHop) {
    ONESQL_ASSIGN_OR_RETURN(hop, bind_interval(slots[3], "hopsize"));
    if (hop.millis() <= 0) {
      return Status::BindError("hopsize must be positive");
    }
    if (slots[4] != nullptr) {
      ONESQL_ASSIGN_OR_RETURN(offset, bind_interval(slots[4], "offset"));
    }
  } else if (wkind == WindowKind::kTumble) {
    if (slots[3] != nullptr) {
      ONESQL_ASSIGN_OR_RETURN(offset, bind_interval(slots[3], "offset"));
    }
  } else {  // kSession: optional DESCRIPTOR key
    if (slots[3] != nullptr) {
      if (slots[3]->arg_kind != sql::TvfArg::Kind::kDescriptor) {
        return Status::BindError(
            "Session 'key' must be a DESCRIPTOR(...) argument");
      }
      auto key_idx = data_schema.FindField(slots[3]->descriptor);
      if (!key_idx.has_value()) {
        return Status::BindError("DESCRIPTOR column '" + slots[3]->descriptor +
                                 "' not found in sessionized relation");
      }
      session_key = *key_idx;
    }
  }

  Schema out_schema = data_schema;
  out_schema.AddField(Field{"wstart", DataType::kTimestamp,
                            /*is_event_time=*/true, WindowRole::kStart});
  out_schema.AddField(Field{"wend", DataType::kTimestamp,
                            /*is_event_time=*/true, WindowRole::kEnd});

  BoundTable out;
  out.node = std::make_unique<WindowNode>(std::move(data.node), wkind,
                                          *timecol, dur, hop, offset,
                                          out_schema, session_key);
  const std::string range_name =
      tvf.alias().empty() ? tvf.function_name() : tvf.alias();
  out.ranges.push_back(ScopeRange{range_name, out_schema, 0});
  return out;
}

Result<Binder::BoundTable> Binder::BindTableRef(const sql::TableRef& ref) {
  switch (ref.kind()) {
    case sql::TableRef::Kind::kBase: {
      const auto& base = static_cast<const sql::BaseTableRef&>(ref);
      ONESQL_ASSIGN_OR_RETURN(const TableDef* def,
                              catalog_->Lookup(base.name()));
      BoundTable out;
      out.node = std::make_unique<ScanNode>(def->name, def->schema,
                                            def->unbounded);
      const std::string range_name =
          base.alias().empty() ? base.name() : base.alias();
      out.ranges.push_back(ScopeRange{range_name, def->schema, 0});
      return out;
    }
    case sql::TableRef::Kind::kDerived: {
      const auto& derived = static_cast<const sql::DerivedTableRef&>(ref);
      ONESQL_ASSIGN_OR_RETURN(BoundSelect sub,
                              BindSelect(derived.query(), /*top_level=*/false));
      BoundTable out;
      Schema schema = sub.node->schema();
      out.node = std::move(sub.node);
      out.ranges.push_back(ScopeRange{derived.alias(), schema, 0});
      return out;
    }
    case sql::TableRef::Kind::kTvf:
      return BindTvf(static_cast<const sql::TvfRef&>(ref));
    case sql::TableRef::Kind::kJoin: {
      const auto& join = static_cast<const sql::JoinRef&>(ref);
      ONESQL_ASSIGN_OR_RETURN(BoundTable left, BindTableRef(join.left()));
      ONESQL_ASSIGN_OR_RETURN(BoundTable right, BindTableRef(join.right()));
      const size_t left_cols = left.node->schema().num_fields();
      Scope scope;
      scope.ranges = left.ranges;
      for (ScopeRange r : right.ranges) {
        r.offset += left_cols;
        scope.ranges.push_back(std::move(r));
      }
      BoundExprPtr condition;
      if (join.condition() != nullptr) {
        ONESQL_ASSIGN_OR_RETURN(condition,
                                BindScalar(*join.condition(), scope));
        if (condition->type != DataType::kBoolean &&
            condition->type != DataType::kNull) {
          return Status::BindError("join condition must be BOOLEAN");
        }
      } else if (join.join_type() != sql::JoinType::kCross) {
        return Status::BindError("JOIN requires an ON condition");
      }
      Schema schema = scope.Concat();
      BoundTable out;
      out.node = std::make_unique<JoinNode>(join.join_type(),
                                            std::move(left.node),
                                            std::move(right.node),
                                            std::move(condition), schema);
      out.ranges = std::move(scope.ranges);
      return out;
    }
  }
  return Status::Internal("unreachable table ref kind");
}

// ---------------------------------------------------------------------------
// SELECT binding
// ---------------------------------------------------------------------------

Result<Binder::BoundSelect> Binder::BindSelect(const sql::SelectStmt& stmt,
                                               bool top_level) {
  if (stmt.from.empty()) {
    return Status::BindError("queries without a FROM clause are not supported");
  }
  if (!top_level) {
    if (stmt.emit.has_value()) {
      return Status::BindError(
          "EMIT is only allowed at the top level of a query");
    }
    if (!stmt.order_by.empty() || stmt.limit.has_value()) {
      return Status::BindError(
          "ORDER BY / LIMIT are only allowed at the top level");
    }
  }

  // FROM: combine comma-separated items with cross joins.
  BoundTable from;
  for (size_t i = 0; i < stmt.from.size(); ++i) {
    ONESQL_ASSIGN_OR_RETURN(BoundTable item, BindTableRef(*stmt.from[i]));
    if (i == 0) {
      from = std::move(item);
      continue;
    }
    const size_t left_cols = from.node->schema().num_fields();
    for (ScopeRange r : item.ranges) {
      r.offset += left_cols;
      from.ranges.push_back(std::move(r));
    }
    Scope merged;
    merged.ranges = from.ranges;
    Schema schema = merged.Concat();
    from.node = std::make_unique<JoinNode>(sql::JoinType::kCross,
                                           std::move(from.node),
                                           std::move(item.node), nullptr,
                                           schema);
  }

  Scope scope;
  scope.ranges = from.ranges;
  LogicalNodePtr node = std::move(from.node);

  // Duplicate range names are ambiguous.
  for (size_t i = 0; i < scope.ranges.size(); ++i) {
    for (size_t j = i + 1; j < scope.ranges.size(); ++j) {
      if (!scope.ranges[i].name.empty() &&
          IdentEquals(scope.ranges[i].name, scope.ranges[j].name)) {
        return Status::BindError("duplicate table alias '" +
                                 scope.ranges[i].name + "'");
      }
    }
  }

  if (stmt.where != nullptr) {
    // Time-progressing predicates (Section 8 future work) are split out of
    // the WHERE conjunction: `<event-time col> >|>= CURRENT_TIME - <ivl>`
    // becomes a TemporalFilter that retracts rows as the watermark passes
    // their horizon.
    std::vector<const sql::Expr*> conjuncts;
    CollectAstConjuncts(*stmt.where, &conjuncts);
    std::vector<BoundExprPtr> regular;
    for (const sql::Expr* conjunct : conjuncts) {
      if (AnySubexpr(*conjunct, [](const sql::Expr& e) {
            return e.kind() == sql::Expr::Kind::kCurrentTime;
          })) {
        const auto* bin =
            conjunct->kind() == sql::Expr::Kind::kBinary
                ? static_cast<const sql::BinaryExpr*>(conjunct)
                : nullptr;
        const sql::Expr* col_side = nullptr;
        std::optional<Interval> horizon;
        if (bin != nullptr) {
          if ((bin->op() == sql::BinaryOp::kGt ||
               bin->op() == sql::BinaryOp::kGe)) {
            horizon = ParseCurrentTimeSide(bin->right());
            col_side = &bin->left();
          }
          if (!horizon.has_value() && (bin->op() == sql::BinaryOp::kLt ||
                                       bin->op() == sql::BinaryOp::kLe)) {
            horizon = ParseCurrentTimeSide(bin->left());
            col_side = &bin->right();
          }
        }
        if (!horizon.has_value() || col_side == nullptr ||
            col_side->kind() != sql::Expr::Kind::kColumnRef) {
          return Status::NotImplemented(
              "CURRENT_TIME is only supported in predicates of the form "
              "<event-time column> > CURRENT_TIME - <interval>");
        }
        const auto& ref = static_cast<const sql::ColumnRefExpr&>(*col_side);
        ONESQL_ASSIGN_OR_RETURN(auto resolved,
                                scope.Resolve(ref.qualifier(), ref.name()));
        if (resolved.second.type != DataType::kTimestamp ||
            (node->unbounded() && !resolved.second.is_event_time)) {
          return Status::BindError(
              "CURRENT_TIME predicates require a watermarked event-time "
              "column, got '" + ref.ToString() + "'");
        }
        node = std::make_unique<TemporalFilterNode>(std::move(node),
                                                    resolved.first, *horizon);
        continue;
      }
      ONESQL_ASSIGN_OR_RETURN(BoundExprPtr bound,
                              BindScalar(*conjunct, scope));
      if (bound->type != DataType::kBoolean &&
          bound->type != DataType::kNull) {
        return Status::BindError("WHERE clause must be BOOLEAN");
      }
      regular.push_back(std::move(bound));
    }
    if (!regular.empty()) {
      node = std::make_unique<FilterNode>(std::move(node),
                                          CombineConjuncts(std::move(regular)));
    }
  }

  bool aggregated = !stmt.group_by.empty();
  if (!aggregated) {
    for (const auto& item : stmt.select_list) {
      if (item.expr->kind() != sql::Expr::Kind::kStar &&
          ContainsAggregate(*item.expr)) {
        aggregated = true;
        break;
      }
    }
    if (stmt.having != nullptr && ContainsAggregate(*stmt.having)) {
      aggregated = true;
    }
  }
  if (stmt.having != nullptr && !aggregated) {
    return Status::BindError("HAVING requires aggregation");
  }

  std::vector<BoundExprPtr> project_exprs;
  Schema project_schema;
  std::vector<int64_t> group_key_origin;
  const Schema input_schema = scope.Concat();

  auto output_name = [&](const sql::SelectItem& item, size_t index) {
    if (!item.alias.empty()) return item.alias;
    if (item.expr->kind() == sql::Expr::Kind::kColumnRef) {
      return static_cast<const sql::ColumnRefExpr&>(*item.expr).name();
    }
    return std::string("EXPR$") + std::to_string(index);
  };

  if (aggregated) {
    // Bind grouping keys.
    Grouping grouping;
    std::vector<BoundExprPtr>& keys = grouping.keys;
    std::vector<Field>& key_fields = grouping.key_fields;
    auto add_key = [&](BoundExprPtr key, std::string name) {
      for (const auto& existing : keys) {
        if (BoundExprEquals(*existing, *key)) return;
      }
      Field kf = OutputField(*key, input_schema, std::move(name));
      if (kf.name.empty()) {
        kf.name = "$key" + std::to_string(keys.size());
      }
      keys.push_back(std::move(key));
      key_fields.push_back(std::move(kf));
    };

    for (const auto& key_ast : stmt.group_by) {
      if (ContainsAggregate(*key_ast)) {
        return Status::BindError("aggregate functions are not allowed in "
                                 "GROUP BY");
      }
      ONESQL_ASSIGN_OR_RETURN(BoundExprPtr key, BindScalar(*key_ast, scope));
      std::string name;
      if (key_ast->kind() == sql::Expr::Kind::kColumnRef) {
        name = static_cast<const sql::ColumnRefExpr&>(*key_ast).name();
      }
      add_key(std::move(key), std::move(name));
    }

    // Window functional dependency: grouping by wend makes wstart available
    // (and vice versa), since the pair is determined by either member.
    {
      const size_t explicit_keys = keys.size();
      for (size_t i = 0; i < explicit_keys; ++i) {
        if (keys[i]->kind != BoundExpr::Kind::kInputRef) continue;
        const size_t idx = keys[i]->input_index;
        const Field& f = input_schema.field(idx);
        if (f.window_role == WindowRole::kEnd && idx >= 1) {
          const Field& sib = input_schema.field(idx - 1);
          if (sib.window_role == WindowRole::kStart) {
            add_key(BoundExpr::InputRef(idx - 1, sib.type), sib.name);
          }
        } else if (f.window_role == WindowRole::kStart &&
                   idx + 1 < input_schema.num_fields()) {
          const Field& sib = input_schema.field(idx + 1);
          if (sib.window_role == WindowRole::kEnd) {
            add_key(BoundExpr::InputRef(idx + 1, sib.type), sib.name);
          }
        }
      }
    }

    // Extension 2: unbounded GROUP BY requires an event-time grouping key.
    std::vector<size_t> event_time_keys;
    for (size_t i = 0; i < keys.size(); ++i) {
      if (keys[i]->kind == BoundExpr::Kind::kInputRef &&
          input_schema.field(keys[i]->input_index).is_event_time) {
        event_time_keys.push_back(i);
      }
    }
    // Extension 2 applies to GROUP BY clauses; a *global* aggregation (no
    // grouping keys) maintains a single continuously-updated row with O(1)
    // state and is allowed over unbounded inputs.
    if (!keys.empty() && node->unbounded() && event_time_keys.empty()) {
      return Status::BindError(
          "GROUP BY over an unbounded input requires at least one event-time "
          "grouping key (Extension 2)");
    }

    // Bind select list and HAVING, accumulating aggregate calls.
    std::vector<AggregateCall>& aggs = grouping.aggs;
    std::vector<std::string> out_names;
    std::vector<BoundExprPtr> out_exprs;
    for (size_t i = 0; i < stmt.select_list.size(); ++i) {
      const auto& item = stmt.select_list[i];
      if (item.expr->kind() == sql::Expr::Kind::kStar) {
        return Status::BindError(
            "SELECT * cannot be combined with GROUP BY or aggregates");
      }
      ONESQL_ASSIGN_OR_RETURN(BoundExprPtr bound,
                              BindScalar(*item.expr, scope, &grouping));
      out_names.push_back(output_name(item, i));
      out_exprs.push_back(std::move(bound));
    }
    BoundExprPtr having_bound;
    if (stmt.having != nullptr) {
      ONESQL_ASSIGN_OR_RETURN(having_bound,
                              BindScalar(*stmt.having, scope, &grouping));
      if (having_bound->type != DataType::kBoolean &&
          having_bound->type != DataType::kNull) {
        return Status::BindError("HAVING clause must be BOOLEAN");
      }
    }

    // Aggregate output schema: keys, then aggregates.
    Schema agg_schema;
    for (const Field& kf : key_fields) agg_schema.AddField(kf);
    for (size_t i = 0; i < aggs.size(); ++i) {
      agg_schema.AddField(Field{"$agg" + std::to_string(i),
                                aggs[i].result_type, false});
    }

    node = std::make_unique<AggregateNode>(std::move(node), std::move(keys),
                                           std::move(aggs), event_time_keys,
                                           agg_schema);
    if (having_bound != nullptr) {
      node = std::make_unique<FilterNode>(std::move(node),
                                          std::move(having_bound));
    }

    const size_t num_keys = key_fields.size();
    for (size_t i = 0; i < out_exprs.size(); ++i) {
      const BoundExpr& out = *out_exprs[i];
      project_schema.AddField(OutputField(out, agg_schema, out_names[i]));
      const bool forwards_key = out.kind == BoundExpr::Kind::kInputRef &&
                                out.input_index < num_keys;
      group_key_origin.push_back(
          forwards_key ? static_cast<int64_t>(out.input_index) : -1);
      project_exprs.push_back(std::move(out_exprs[i]));
    }
  } else {
    // Non-aggregated: expand stars, bind scalars.
    for (size_t i = 0; i < stmt.select_list.size(); ++i) {
      const auto& item = stmt.select_list[i];
      if (item.expr->kind() == sql::Expr::Kind::kStar) {
        const auto& star = static_cast<const sql::StarExpr&>(*item.expr);
        bool matched = false;
        for (const auto& range : scope.ranges) {
          if (!star.qualifier().empty() &&
              !IdentEquals(range.name, star.qualifier())) {
            continue;
          }
          matched = true;
          for (size_t c = 0; c < range.schema.num_fields(); ++c) {
            const Field& f = range.schema.field(c);
            project_exprs.push_back(
                BoundExpr::InputRef(range.offset + c, f.type));
            project_schema.AddField(f);
            group_key_origin.push_back(-1);
          }
        }
        if (!matched) {
          return Status::BindError("unknown table alias '" +
                                   star.qualifier() + "'");
        }
        continue;
      }
      ONESQL_ASSIGN_OR_RETURN(BoundExprPtr bound,
                              BindScalar(*item.expr, scope));
      project_schema.AddField(
          OutputField(*bound, input_schema, output_name(item, i)));
      project_exprs.push_back(std::move(bound));
      group_key_origin.push_back(-1);
    }
  }

  node = std::make_unique<ProjectNode>(std::move(node),
                                       std::move(project_exprs),
                                       project_schema);

  if (stmt.distinct) {
    // DISTINCT is a grouping by every output column.
    const Schema& schema = node->schema();
    std::vector<BoundExprPtr> keys;
    std::vector<size_t> event_time_keys;
    for (size_t i = 0; i < schema.num_fields(); ++i) {
      keys.push_back(BoundExpr::InputRef(i, schema.field(i).type));
      if (schema.field(i).is_event_time) event_time_keys.push_back(i);
    }
    if (node->unbounded() && event_time_keys.empty()) {
      return Status::BindError(
          "DISTINCT over an unbounded input requires an event-time column "
          "(Extension 2)");
    }
    Schema distinct_schema = schema;
    node = std::make_unique<AggregateNode>(
        std::move(node), std::move(keys), std::vector<AggregateCall>{},
        event_time_keys, distinct_schema);
    group_key_origin.assign(distinct_schema.num_fields(), 0);
    for (size_t i = 0; i < group_key_origin.size(); ++i) {
      group_key_origin[i] = static_cast<int64_t>(i);
    }
    aggregated = true;
  }

  BoundSelect out;
  out.node = std::move(node);
  out.group_key_origin = std::move(group_key_origin);
  out.aggregated = aggregated;
  return out;
}

Result<QueryPlan> Binder::Bind(const sql::SelectStmt& stmt) {
  ONESQL_ASSIGN_OR_RETURN(BoundSelect bound,
                          BindSelect(stmt, /*top_level=*/true));
  QueryPlan plan;
  plan.output_schema = bound.node->schema();
  plan.root = std::move(bound.node);
  plan.emit = stmt.emit;
  plan.limit = stmt.limit;

  // ORDER BY binds against the output schema.
  if (!stmt.order_by.empty()) {
    Scope out_scope;
    out_scope.ranges.push_back(ScopeRange{"", plan.output_schema, 0});
    for (const auto& item : stmt.order_by) {
      ONESQL_ASSIGN_OR_RETURN(BoundExprPtr e,
                              BindScalar(*item.expr, out_scope));
      plan.order_by.emplace_back(std::move(e), item.descending);
    }
  }

  // Version key ("the same event-time grouping", Extension 4): the window
  // columns of the output when present — they identify the event-time window
  // whose revisions `ver` numbers, even when the window flows through joins
  // (the paper's Listing 9). Otherwise the grouping keys of a top-level
  // aggregation; otherwise the whole row.
  for (size_t j = 0; j < plan.output_schema.num_fields(); ++j) {
    if (plan.output_schema.field(j).window_role != WindowRole::kNone) {
      plan.version_key_columns.push_back(j);
    }
  }
  if (plan.version_key_columns.empty() && bound.aggregated) {
    for (size_t j = 0; j < bound.group_key_origin.size(); ++j) {
      if (bound.group_key_origin[j] >= 0) {
        plan.version_key_columns.push_back(j);
      }
    }
  }

  // Completeness column: prefer a window-end event-time column.
  for (size_t j = 0; j < plan.output_schema.num_fields(); ++j) {
    const Field& f = plan.output_schema.field(j);
    if (f.is_event_time && f.window_role == WindowRole::kEnd) {
      plan.completeness_column = j;
      break;
    }
  }
  if (!plan.completeness_column.has_value()) {
    for (size_t j = 0; j < plan.output_schema.num_fields(); ++j) {
      if (plan.output_schema.field(j).is_event_time) {
        plan.completeness_column = j;
        break;
      }
    }
  }

  if (plan.emit.has_value() && plan.emit->after_watermark &&
      !plan.completeness_column.has_value()) {
    return Status::BindError(
        "EMIT AFTER WATERMARK requires a watermarked event-time column in "
        "the query result");
  }

  return plan;
}

}  // namespace plan
}  // namespace onesql
