#include "plan/fingerprint.h"

#include <algorithm>
#include <utility>
#include <vector>

namespace onesql {
namespace plan {

namespace {

// Canonical expression rendering: positional references, typed literals,
// operator names. No identifier ever appears, so aliases cannot leak in.
// Appends in place: the pass renders every plan node, so temporaries per
// sub-expression would dominate its cost.
void AppendExpr(const BoundExpr& e, std::string* out) {
  switch (e.kind) {
    case BoundExpr::Kind::kLiteral:
      *out += "lit<";
      *out += DataTypeToString(e.literal.type());
      *out += '>';
      *out += e.literal.ToString();
      return;
    case BoundExpr::Kind::kInputRef:
      *out += '#';
      *out += std::to_string(e.input_index);
      *out += '<';
      *out += DataTypeToString(e.type);
      *out += '>';
      return;
    case BoundExpr::Kind::kOp:
      *out += ScalarOpToString(e.op);
      *out += '<';
      *out += DataTypeToString(e.type);
      *out += ">(";
      for (size_t i = 0; i < e.children.size(); ++i) {
        if (i > 0) *out += ',';
        AppendExpr(*e.children[i], out);
      }
      *out += ')';
      return;
  }
  *out += '?';
}

std::string CanonExpr(const BoundExpr& e) {
  std::string out;
  AppendExpr(e, &out);
  return out;
}

/// Flattens an AND tree into its conjuncts.
void CollectConjuncts(const BoundExpr& e, std::vector<const BoundExpr*>* out) {
  if (e.kind == BoundExpr::Kind::kOp && e.op == ScalarOp::kAnd) {
    for (const auto& child : e.children) CollectConjuncts(*child, out);
    return;
  }
  out->push_back(&e);
}

/// Filter predicates are order-insensitive per conjunct (a filter never
/// reorders rows), so the canonical form sorts the conjunct renderings.
std::string CanonPredicate(const BoundExpr& predicate) {
  std::vector<const BoundExpr*> conjuncts;
  CollectConjuncts(predicate, &conjuncts);
  std::vector<std::string> rendered;
  rendered.reserve(conjuncts.size());
  for (const BoundExpr* c : conjuncts) rendered.push_back(CanonExpr(*c));
  std::sort(rendered.begin(), rendered.end());
  std::string out = "and{";
  for (size_t i = 0; i < rendered.size(); ++i) {
    if (i > 0) out += ";";
    out += rendered[i];
  }
  out += "}";
  return out;
}

/// Renders `node` from its inputs' already-rendered texts (`canon` holds
/// them), so the whole pass stays bottom-up and each node is rendered once.
std::string RenderNode(const LogicalNode& node, const SubtreeCanon& canon) {
  auto input = [&canon](const LogicalNode& child) -> const std::string& {
    return canon.at(&child);
  };
  switch (node.kind()) {
    case LogicalNode::Kind::kScan: {
      const auto& scan = static_cast<const ScanNode&>(node);
      // Source names are catalog identity, not aliases: lower-cased so the
      // fingerprint matches the catalog's case-insensitive resolution.
      std::string out = "scan(" + ToLower(scan.source());
      // Column types (not names) pin the source's shape, so a re-registered
      // source with a different schema cannot collide.
      for (const Field& f : scan.schema().fields()) {
        out += ",";
        out += DataTypeToString(f.type);
        if (f.is_event_time) out += "*";
      }
      out += ")";
      return out;
    }
    case LogicalNode::Kind::kFilter: {
      const auto& filter = static_cast<const FilterNode&>(node);
      std::string out = "filter(" + CanonPredicate(filter.predicate()) + ",";
      out += input(filter.input());
      out += ")";
      return out;
    }
    case LogicalNode::Kind::kProject: {
      const auto& project = static_cast<const ProjectNode&>(node);
      std::string out = "project([";
      for (size_t i = 0; i < project.exprs().size(); ++i) {
        if (i > 0) out += ",";
        AppendExpr(*project.exprs()[i], &out);
      }
      out += "],";
      out += input(project.input());
      out += ")";
      return out;
    }
    case LogicalNode::Kind::kTemporalFilter: {
      const auto& tf = static_cast<const TemporalFilterNode&>(node);
      std::string out = "temporal(#" + std::to_string(tf.et_col()) + "," +
                        std::to_string(tf.horizon().millis()) + ",";
      out += input(tf.input());
      out += ")";
      return out;
    }
    case LogicalNode::Kind::kWindow: {
      const auto& w = static_cast<const WindowNode&>(node);
      std::string out = std::string("window(") +
                        WindowKindToString(w.window_kind()) + ",#" +
                        std::to_string(w.timecol()) + ",dur=" +
                        std::to_string(w.dur().millis()) + ",hop=" +
                        std::to_string(w.hop().millis()) + ",off=" +
                        std::to_string(w.offset().millis());
      if (w.session_key().has_value()) {
        out += ",key=#" + std::to_string(*w.session_key());
      }
      out += ",";
      out += input(w.input());
      out += ")";
      return out;
    }
    case LogicalNode::Kind::kAggregate: {
      const auto& agg = static_cast<const AggregateNode&>(node);
      // Key order and call order both decide output column order and flush
      // order, so they stay order-sensitive.
      std::string out = "agg(keys=[";
      for (size_t i = 0; i < agg.keys().size(); ++i) {
        if (i > 0) out += ",";
        AppendExpr(*agg.keys()[i], &out);
      }
      out += "],et=[";
      for (size_t i = 0; i < agg.event_time_key_indexes().size(); ++i) {
        if (i > 0) out += ",";
        out += std::to_string(agg.event_time_key_indexes()[i]);
      }
      out += "],calls=[";
      for (size_t i = 0; i < agg.aggs().size(); ++i) {
        const AggregateCall& call = agg.aggs()[i];
        if (i > 0) out += ",";
        out += AggFnToString(call.fn);
        if (call.distinct) out += " distinct";
        out += "(";
        if (call.arg != nullptr) AppendExpr(*call.arg, &out);
        out += ")<";
        out += DataTypeToString(call.result_type);
        out += ">";
      }
      out += "],";
      out += input(agg.input());
      out += ")";
      return out;
    }
    case LogicalNode::Kind::kJoin: {
      const auto& join = static_cast<const JoinNode&>(node);
      // The residual condition keeps source order (short-circuit evaluation
      // order is not observable, but equi-key extraction order decides probe
      // key layout, so the conservative choice is to keep everything).
      std::string out =
          "join(type=" + std::to_string(static_cast<int>(join.join_type()));
      out += ",cond=";
      if (join.condition() != nullptr) {
        AppendExpr(*join.condition(), &out);
      } else {
        out += "-";
      }
      out += ",keys=[";
      for (size_t i = 0; i < join.equi_keys().size(); ++i) {
        if (i > 0) out += ",";
        out += std::to_string(join.equi_keys()[i].first) + "=" +
               std::to_string(join.equi_keys()[i].second);
      }
      out += "]";
      auto purge = [&](const char* side,
                       const std::optional<JoinPurgeSpec>& spec) {
        out += ",";
        out += side;
        if (spec.has_value()) {
          out += "#" + std::to_string(spec->et_col) + "+" +
                 std::to_string(spec->slack.millis());
        } else {
          out += "-";
        }
      };
      purge("lp=", join.left_purge());
      purge("rp=", join.right_purge());
      out += ",";
      out += input(join.left());
      out += ",";
      out += input(join.right());
      out += ")";
      return out;
    }
  }
  return "?";
}

/// Post-order walk: inputs first, so RenderNode finds their texts.
void Canonicalize(const LogicalNode& node, SubtreeCanon* out) {
  for (const LogicalNode* input : Inputs(node)) Canonicalize(*input, out);
  std::string text = RenderNode(node, *out);
  (*out)[&node] = std::move(text);
}

/// FNV-1a 64 of `data` under two seeds (0 and the golden-ratio constant),
/// in one pass: the two multiply chains are independent, so they overlap.
void Fnv1a64Pair(const std::string& data, uint64_t* hi, uint64_t* lo) {
  uint64_t h = 1469598103934665603ULL;
  uint64_t l = 1469598103934665603ULL ^ 0x9E3779B97F4A7C15ULL;
  for (unsigned char c : data) {
    h = (h ^ c) * 1099511628211ULL;
    l = (l ^ c) * 1099511628211ULL;
  }
  *hi = h;
  *lo = l;
}

}  // namespace

std::string PlanFingerprint::ToHex() const {
  static const char* kHex = "0123456789abcdef";
  std::string out(32, '0');
  for (int i = 0; i < 16; ++i) {
    const uint64_t word = i < 8 ? hi : lo;
    const int shift = 60 - 8 * (i % 8);
    out[static_cast<size_t>(2 * i)] = kHex[(word >> shift) & 0xF];
    out[static_cast<size_t>(2 * i + 1)] = kHex[(word >> (shift - 4)) & 0xF];
  }
  return out;
}

SubtreeCanon CanonicalizeSubtrees(const LogicalNode& root) {
  SubtreeCanon canon;
  Canonicalize(root, &canon);
  return canon;
}

PlanFingerprint FingerprintPlan(const QueryPlan& plan) {
  return FingerprintPlan(plan, CanonicalizeSubtrees(*plan.root));
}

PlanFingerprint FingerprintPlan(const QueryPlan& plan,
                                const SubtreeCanon& canon) {
  const std::string& root = canon.at(plan.root.get());
  std::string text;
  text.reserve(root.size() + 96);
  text += "v1;";
  text += root;
  text += ";emit=";
  if (plan.emit.has_value()) {
    if (plan.emit->stream) text += "S";
    if (plan.emit->after_watermark) text += "W";
    if (plan.emit->delay.has_value()) {
      text += "D" + std::to_string(plan.emit->delay->millis());
    }
  } else {
    text += "-";
  }
  text += ";order=[";
  for (size_t i = 0; i < plan.order_by.size(); ++i) {
    if (i > 0) text += ",";
    AppendExpr(*plan.order_by[i].first, &text);
    text += plan.order_by[i].second ? " desc" : " asc";
  }
  text += "];limit=";
  text += plan.limit.has_value() ? std::to_string(*plan.limit) : "-";
  text += ";lateness=" + std::to_string(plan.allowed_lateness.millis());
  text += ";complete=";
  text += plan.completeness_column.has_value()
              ? std::to_string(*plan.completeness_column)
              : "-";
  text += ";verkey=[";
  for (size_t i = 0; i < plan.version_key_columns.size(); ++i) {
    if (i > 0) text += ",";
    text += std::to_string(plan.version_key_columns[i]);
  }
  text += "]";

  PlanFingerprint fp;
  fp.canonical = std::move(text);
  Fnv1a64Pair(fp.canonical, &fp.hi, &fp.lo);
  return fp;
}

}  // namespace plan
}  // namespace onesql
