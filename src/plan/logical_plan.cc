#include "plan/logical_plan.h"

namespace onesql {
namespace plan {

const char* WindowKindToString(WindowKind kind) {
  switch (kind) {
    case WindowKind::kTumble: return "Tumble";
    case WindowKind::kHop: return "Hop";
    case WindowKind::kSession: return "Session";
  }
  return "?";
}

std::string ScanNode::ToString(int indent) const {
  return Indent(indent) + "Scan(" + source_ + (unbounded_ ? ", stream" : ", table") +
         ") " + schema_.ToString() + "\n";
}

std::string FilterNode::ToString(int indent) const {
  return Indent(indent) + "Filter(" + predicate_->ToString() + ")\n" +
         input_->ToString(indent + 1);
}

std::string TemporalFilterNode::ToString(int indent) const {
  return Indent(indent) + "TemporalFilter(#" + std::to_string(et_col_) +
         " > CURRENT_TIME - " + horizon_.ToString() + ")\n" +
         input_->ToString(indent + 1);
}

std::string ProjectNode::ToString(int indent) const {
  std::string out = Indent(indent) + "Project(";
  for (size_t i = 0; i < exprs_.size(); ++i) {
    if (i > 0) out += ", ";
    out += schema_.field(i).name;
    out += "=";
    out += exprs_[i]->ToString();
  }
  out += ")\n";
  out += input_->ToString(indent + 1);
  return out;
}

std::string WindowNode::ToString(int indent) const {
  std::string out = Indent(indent);
  out += WindowKindToString(window_kind_);
  out += "(timecol=#" + std::to_string(timecol_);
  out += window_kind_ == WindowKind::kSession ? ", gap=" : ", dur=";
  out += dur_.ToString();
  if (window_kind_ == WindowKind::kHop) {
    out += ", hop=" + hop_.ToString();
  }
  if (offset_.millis() != 0) {
    out += ", offset=" + offset_.ToString();
  }
  if (session_key_.has_value()) {
    out += ", key=#" + std::to_string(*session_key_);
  }
  out += ")\n";
  out += input_->ToString(indent + 1);
  return out;
}

std::string AggregateNode::ToString(int indent) const {
  std::string out = Indent(indent) + "Aggregate(keys=[";
  for (size_t i = 0; i < keys_.size(); ++i) {
    if (i > 0) out += ", ";
    out += keys_[i]->ToString();
  }
  out += "], aggs=[";
  for (size_t i = 0; i < aggs_.size(); ++i) {
    if (i > 0) out += ", ";
    out += aggs_[i].ToString();
  }
  out += "]";
  if (!event_time_key_indexes_.empty()) {
    out += ", event_time_keys=[";
    for (size_t i = 0; i < event_time_key_indexes_.size(); ++i) {
      if (i > 0) out += ", ";
      out += std::to_string(event_time_key_indexes_[i]);
    }
    out += "]";
  }
  out += ")\n";
  out += input_->ToString(indent + 1);
  return out;
}

std::string JoinPurgeSpec::ToString() const {
  return "purge(#" + std::to_string(et_col) + " + " + slack.ToString() +
         " <= wm)";
}

std::string JoinNode::ToString(int indent) const {
  std::string out = Indent(indent) + "Join(";
  out += JoinTypeToString(join_type_);
  if (condition_) {
    out += ", on=" + condition_->ToString();
  }
  if (!equi_keys_.empty()) {
    out += ", equi=[";
    for (size_t i = 0; i < equi_keys_.size(); ++i) {
      if (i > 0) out += ", ";
      out += "#" + std::to_string(equi_keys_[i].first) + "=#" +
             std::to_string(equi_keys_[i].second);
    }
    out += "]";
  }
  if (left_purge_.has_value()) out += ", left_" + left_purge_->ToString();
  if (right_purge_.has_value()) out += ", right_" + right_purge_->ToString();
  out += ")\n";
  out += left_->ToString(indent + 1);
  out += right_->ToString(indent + 1);
  return out;
}

std::vector<const LogicalNode*> Inputs(const LogicalNode& node) {
  switch (node.kind()) {
    case LogicalNode::Kind::kScan:
      return {};
    case LogicalNode::Kind::kFilter:
      return {&static_cast<const FilterNode&>(node).input()};
    case LogicalNode::Kind::kProject:
      return {&static_cast<const ProjectNode&>(node).input()};
    case LogicalNode::Kind::kWindow:
      return {&static_cast<const WindowNode&>(node).input()};
    case LogicalNode::Kind::kAggregate:
      return {&static_cast<const AggregateNode&>(node).input()};
    case LogicalNode::Kind::kTemporalFilter:
      return {&static_cast<const TemporalFilterNode&>(node).input()};
    case LogicalNode::Kind::kJoin: {
      const auto& join = static_cast<const JoinNode&>(node);
      return {&join.left(), &join.right()};
    }
  }
  return {};
}

void CollectSources(const LogicalNode& node, std::set<std::string>* out) {
  if (node.kind() == LogicalNode::Kind::kScan) {
    out->insert(ToLower(static_cast<const ScanNode&>(node).source()));
    return;
  }
  for (const LogicalNode* input : Inputs(node)) CollectSources(*input, out);
}

std::string QueryPlan::ToString() const {
  std::string out;
  if (emit.has_value()) {
    out += emit->ToString();
    out += "\n";
  }
  if (completeness_column.has_value()) {
    out += "completeness_column=#" + std::to_string(*completeness_column) +
           "\n";
  }
  if (!version_key_columns.empty()) {
    out += "version_key=[";
    for (size_t i = 0; i < version_key_columns.size(); ++i) {
      if (i > 0) out += ", ";
      out += "#" + std::to_string(version_key_columns[i]);
    }
    out += "]\n";
  }
  out += root->ToString(0);
  return out;
}

}  // namespace plan
}  // namespace onesql
