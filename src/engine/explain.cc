// EXPLAIN ANALYZE: renders a running query's logical plan annotated with its
// live metrics. Every plan node reads the instrument bundle of the operator
// the runtime compiled it to, under the label the chain gave that operator
// (exec::CompiledChain::labels). A later occurrence of a shared subtree names the operator it shares and is
// not counted again.

#include <sstream>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "obs/metrics.h"
#include "plan/logical_plan.h"

namespace onesql {
namespace {

struct NodeEntry {
  const plan::LogicalNode* node = nullptr;
  std::string op;  ///< Metric `op` label of the node's operator.
  bool shared = false;  ///< A later occurrence of a shared subtree.
  int depth = 0;
  std::vector<size_t> children;  ///< Indexes into the entry vector.
};

/// Pre-order walk of the plan. A shared subtree's later occurrence is one
/// entry with no children: its operators are the first occurrence's.
size_t Walk(const plan::LogicalNode& node, int depth,
            const exec::CompiledChain& chain, std::vector<NodeEntry>* out) {
  const size_t index = out->size();
  out->emplace_back();
  const exec::CompiledChain::NodeOperator& op = chain.nodes.at(&node);
  (*out)[index].node = &node;
  (*out)[index].depth = depth;
  (*out)[index].op = chain.labels[op.op];
  (*out)[index].shared = op.shared;
  if (op.shared) return index;
  std::vector<size_t> children;
  for (const plan::LogicalNode* input : plan::Inputs(node)) {
    children.push_back(Walk(*input, depth + 1, chain, out));
  }
  (*out)[index].children = std::move(children);
  return index;
}

/// The node's own EXPLAIN line (ToString prints itself, then its inputs).
std::string Headline(const plan::LogicalNode& node, int indent) {
  std::string s = node.ToString(indent);
  const size_t nl = s.find('\n');
  return nl == std::string::npos ? s : s.substr(0, nl);
}

/// Everything the annotations read for one operator, fetched in one place so
/// the text and JSON renderings cannot diverge.
struct OpStats {
  uint64_t rows_in = 0, rows_out = 0, late_drops = 0;
  int64_t state_bytes = 0;
  uint64_t batches = 0, elements = 0;
  const obs::HistogramData* batch_size = nullptr;
  const obs::HistogramData* wall_us = nullptr;
  int64_t rows_per_sec = 0;
  uint64_t vec_rows = 0, scalar_rows = 0;
  uint64_t vec_batches = 0, scalar_batches = 0;
  uint64_t fb_demoted = 0, fb_division = 0, fb_generic = 0, fb_unsupported = 0;
};

OpStats FetchOpStats(const obs::MetricsSnapshot& snap, const std::string& q,
                     const std::string& op) {
  const obs::Labels labels = {{"query", q}, {"op", op}};
  OpStats s;
  s.rows_in = snap.CounterValue("onesql_operator_rows_in_total", labels);
  s.rows_out = snap.CounterValue("onesql_operator_rows_out_total", labels);
  s.late_drops = snap.CounterValue("onesql_operator_late_drops_total", labels);
  s.state_bytes = snap.GaugeValue("onesql_operator_state_bytes", labels);
  s.batches = snap.CounterValue("onesql_profile_batches_total", labels);
  s.elements = snap.CounterValue("onesql_profile_elements_total", labels);
  s.batch_size = snap.HistogramOf("onesql_profile_batch_size", labels);
  s.wall_us = snap.HistogramOf("onesql_profile_batch_wall_us", labels);
  s.rows_per_sec = snap.GaugeValue("onesql_profile_rows_per_sec", labels);
  s.vec_rows = snap.CounterValue(
      "onesql_kernel_rows_total",
      {{"query", q}, {"op", op}, {"path", "vectorized"}});
  s.scalar_rows = snap.CounterValue(
      "onesql_kernel_rows_total", {{"query", q}, {"op", op}, {"path", "scalar"}});
  s.vec_batches = snap.CounterValue(
      "onesql_kernel_batches_total",
      {{"query", q}, {"op", op}, {"path", "vectorized"}});
  s.scalar_batches = snap.CounterValue(
      "onesql_kernel_batches_total",
      {{"query", q}, {"op", op}, {"path", "scalar"}});
  s.fb_demoted = snap.CounterValue(
      "onesql_kernel_fallback_rows_total",
      {{"query", q}, {"op", op}, {"reason", "demoted_lane"}});
  s.fb_division = snap.CounterValue(
      "onesql_kernel_fallback_rows_total",
      {{"query", q}, {"op", op}, {"reason", "division"}});
  s.fb_generic = snap.CounterValue(
      "onesql_kernel_fallback_rows_total",
      {{"query", q}, {"op", op}, {"reason", "generic_lane"}});
  s.fb_unsupported = snap.CounterValue(
      "onesql_kernel_fallback_rows_total",
      {{"query", q}, {"op", op}, {"reason", "unsupported"}});
  return s;
}

std::string HistText(const obs::HistogramData* h) {
  if (h == nullptr || h->TotalCount() == 0) return "n=0";
  std::ostringstream out;
  out << "n=" << h->TotalCount() << " p50=" << h->Percentile(50)
      << " p95=" << h->Percentile(95);
  return out.str();
}

void AppendJsonString(std::string* out, const std::string& s) {
  static const char* kHex = "0123456789abcdef";
  out->push_back('"');
  for (char ch : s) {
    const unsigned char c = static_cast<unsigned char>(ch);
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (c < 0x20) {
          *out += "\\u00";
          out->push_back(kHex[c >> 4]);
          out->push_back(kHex[c & 0xf]);
        } else {
          out->push_back(ch);
        }
    }
  }
  out->push_back('"');
}

void AppendHistJson(std::string* out, const obs::HistogramData* h) {
  if (h == nullptr) {
    *out += "{\"count\":0,\"sum\":0,\"p50\":0,\"p95\":0,\"p99\":0}";
    return;
  }
  *out += "{\"count\":" + std::to_string(h->TotalCount());
  *out += ",\"sum\":" + std::to_string(h->sum);
  *out += ",\"p50\":" + std::to_string(h->Percentile(50));
  *out += ",\"p95\":" + std::to_string(h->Percentile(95));
  *out += ",\"p99\":" + std::to_string(h->Percentile(99)) + "}";
}

void AppendNodeJson(const std::vector<NodeEntry>& entries, size_t i,
                    const obs::MetricsSnapshot& snap, const std::string& q,
                    bool profiling, std::string* out) {
  const NodeEntry& e = entries[i];
  // A shared occurrence reports zeros: its counts are the first one's.
  const OpStats s = e.shared ? OpStats{} : FetchOpStats(snap, q, e.op);
  *out += "{\"op\":";
  AppendJsonString(out, e.op);
  *out += ",\"node\":";
  AppendJsonString(out, Headline(*e.node, 0));
  if (e.shared) {
    *out += ",\"shared_with\":";
    AppendJsonString(out, e.op);
  }
  *out += ",\"rows_in\":" + std::to_string(s.rows_in);
  *out += ",\"rows_out\":" + std::to_string(s.rows_out);
  *out += ",\"late_drops\":" + std::to_string(s.late_drops);
  *out += ",\"state_bytes\":" + std::to_string(s.state_bytes);
  if (profiling) {
    *out += ",\"profile\":{\"batches\":" + std::to_string(s.batches);
    *out += ",\"elements\":" + std::to_string(s.elements);
    *out += ",\"batch_size\":";
    AppendHistJson(out, s.batch_size);
    *out += ",\"wall_us\":";
    AppendHistJson(out, s.wall_us);
    *out += ",\"rows_per_sec\":" + std::to_string(s.rows_per_sec);
    *out += ",\"kernel\":{\"vectorized_rows\":" + std::to_string(s.vec_rows);
    *out += ",\"scalar_rows\":" + std::to_string(s.scalar_rows);
    *out += ",\"vectorized_batches\":" + std::to_string(s.vec_batches);
    *out += ",\"scalar_batches\":" + std::to_string(s.scalar_batches);
    *out += ",\"fallbacks\":{\"demoted_lane\":" + std::to_string(s.fb_demoted);
    *out += ",\"division\":" + std::to_string(s.fb_division);
    *out += ",\"generic_lane\":" + std::to_string(s.fb_generic);
    *out += ",\"unsupported\":" + std::to_string(s.fb_unsupported) + "}}}";
  }
  *out += ",\"inputs\":[";
  for (size_t c = 0; c < e.children.size(); ++c) {
    if (c > 0) *out += ",";
    AppendNodeJson(entries, e.children[c], snap, q, profiling, out);
  }
  *out += "]}";
}

}  // namespace

Result<ExplainAnalysis> Engine::ExplainAnalyze(const ContinuousQuery* query) {
  bool running = false;
  for (const auto& q : queries_) {
    if (q.get() == query) {
      running = true;
      break;
    }
  }
  if (!running) {
    return Status::NotFound("query is not running on this engine");
  }
  if (obs_ == nullptr || obs_->registry() == nullptr) {
    return Status::InvalidArgument(
        "EXPLAIN ANALYZE reads live metrics; enable observability with "
        "metrics first");
  }
  // Samples the gauges first, so state bytes / queue depths / rows-per-sec
  // are coherent at the current feed position.
  const obs::MetricsSnapshot snap = MetricsSnapshot();
  const std::string qlabel = "q" + std::to_string(query->obs_label_);
  const bool profiling = obs_->profiling_enabled();
  // Always 1 (one chain); the key stays because readers of the JSON expect
  // it.
  const int shards = query->flow_->shard_count();

  std::vector<NodeEntry> entries;
  Walk(*query->plan().root, 0, query->flow_->chain(), &entries);

  // -- Text rendering -------------------------------------------------------
  std::ostringstream text;
  text << "EXPLAIN ANALYZE " << qlabel << " (shards=" << shards
       << ", profiling=" << (profiling ? "on" : "off") << ")\n";
  if (!query->sql_.empty()) text << "SQL: " << query->sql_ << "\n";
  for (const NodeEntry& e : entries) {
    if (e.shared) {
      text << Headline(*e.node, e.depth) << " (shared with " << e.op
           << ")\n";
      continue;
    }
    const OpStats s = FetchOpStats(snap, qlabel, e.op);
    const std::string pad(static_cast<size_t>(e.depth) * 2 + 2, ' ');
    text << Headline(*e.node, e.depth) << "\n";
    text << pad << "[op=" << e.op << " rows in=" << s.rows_in
         << " out=" << s.rows_out << " late_drops=" << s.late_drops
         << " state_bytes=" << s.state_bytes << "]\n";
    if (profiling) {
      text << pad << "[batches=" << s.batches << " elements=" << s.elements
           << " size " << HistText(s.batch_size) << " | sampled wall_us "
           << HistText(s.wall_us) << " | " << s.rows_per_sec << " rows/s]\n";
      if (s.vec_batches + s.scalar_batches > 0) {
        text << pad << "[kernel vectorized=" << s.vec_rows << " rows/"
             << s.vec_batches << " batches, scalar=" << s.scalar_rows
             << " rows/" << s.scalar_batches
             << " batches; fallbacks: demoted_lane=" << s.fb_demoted
             << " division=" << s.fb_division
             << " generic_lane=" << s.fb_generic
             << " unsupported=" << s.fb_unsupported << "]\n";
      }
    }
  }
  const obs::Labels ql = {{"query", qlabel}};
  const uint64_t emissions =
      snap.CounterValue("onesql_sink_emissions_total", ql);
  const uint64_t inserts = snap.CounterValue("onesql_sink_inserts_total", ql);
  const uint64_t retractions =
      snap.CounterValue("onesql_sink_retractions_total", ql);
  const uint64_t sink_late =
      snap.CounterValue("onesql_sink_late_drops_total", ql);
  const uint64_t panes_early = snap.CounterValue(
      "onesql_sink_panes_total", {{"query", qlabel}, {"kind", "early"}});
  const uint64_t panes_on_time = snap.CounterValue(
      "onesql_sink_panes_total", {{"query", qlabel}, {"kind", "on_time"}});
  const uint64_t panes_late = snap.CounterValue(
      "onesql_sink_panes_total", {{"query", qlabel}, {"kind", "late"}});
  const obs::HistogramData* emit_latency =
      snap.HistogramOf("onesql_sink_emit_latency_ms", ql);
  text << "sink: emissions=" << emissions << " (+" << inserts << "/-"
       << retractions << ") late_drops=" << sink_late << " panes early/on_time/late="
       << panes_early << "/" << panes_on_time << "/" << panes_late
       << " emit_latency_ms " << HistText(emit_latency)
       << " snapshot_rows=" << snap.GaugeValue("onesql_sink_snapshot_rows", ql)
       << " pending_panes=" << snap.GaugeValue("onesql_sink_pending_panes", ql)
       << " timer_queue=" << snap.GaugeValue("onesql_sink_timer_queue_depth", ql)
       << "\n";
  const obs::HistogramData* wal_stall =
      snap.HistogramOf("onesql_profile_feed_wal_stall_us");
  const obs::HistogramData* dispatch =
      snap.HistogramOf("onesql_profile_feed_dispatch_us");
  if (profiling) {
    text << "engine: feed_wal_stall_us " << HistText(wal_stall)
         << " | feed_dispatch_us " << HistText(dispatch) << "\n";
  }

  // -- JSON rendering -------------------------------------------------------
  std::string json = "{\"query\":";
  AppendJsonString(&json, qlabel);
  json += ",\"sql\":";
  AppendJsonString(&json, query->sql_);
  json += ",\"shards\":" + std::to_string(shards);
  json += std::string(",\"profiling\":") + (profiling ? "true" : "false");
  json += ",\"plan\":";
  AppendNodeJson(entries, 0, snap, qlabel, profiling, &json);
  json += ",\"sink\":{\"emissions\":" + std::to_string(emissions);
  json += ",\"inserts\":" + std::to_string(inserts);
  json += ",\"retractions\":" + std::to_string(retractions);
  json += ",\"late_drops\":" + std::to_string(sink_late);
  json += ",\"panes\":{\"early\":" + std::to_string(panes_early);
  json += ",\"on_time\":" + std::to_string(panes_on_time);
  json += ",\"late\":" + std::to_string(panes_late) + "}";
  json += ",\"emit_latency_ms\":";
  AppendHistJson(&json, emit_latency);
  json += ",\"snapshot_rows\":" +
          std::to_string(snap.GaugeValue("onesql_sink_snapshot_rows", ql));
  json += ",\"pending_panes\":" +
          std::to_string(snap.GaugeValue("onesql_sink_pending_panes", ql));
  json += ",\"timer_queue_depth\":" +
          std::to_string(snap.GaugeValue("onesql_sink_timer_queue_depth", ql));
  json += "}";
  if (profiling) {
    json += ",\"engine\":{\"feed_wal_stall_us\":";
    AppendHistJson(&json, wal_stall);
    json += ",\"feed_dispatch_us\":";
    AppendHistJson(&json, dispatch);
    json += "}";
  }
  json += "}";

  ExplainAnalysis result;
  result.query = qlabel;
  result.text = text.str();
  result.json = std::move(json);
  return result;
}

}  // namespace onesql
