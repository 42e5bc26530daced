#include "obs/instruments.h"

namespace onesql {
namespace obs {

// The metric catalog. Every metric the engine exports is named here, in one
// place, following the `onesql_<subsystem>_<name>{labels}` convention
// documented in DESIGN.md §11.

const OperatorMetrics* ObsContext::ForOperator(const std::string& query,
                                               const std::string& op) {
  if (registry_ == nullptr) return nullptr;
  const std::string key = query + '\0' + op;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [k, bundle] : operator_bundles_) {
    if (k == key) return bundle.get();
  }
  Labels labels = {{"query", query}, {"op", op}};
  auto bundle = std::make_unique<OperatorMetrics>();
  bundle->rows_in = registry_->GetCounter("onesql_operator_rows_in_total",
                                          labels);
  bundle->rows_out = registry_->GetCounter("onesql_operator_rows_out_total",
                                           labels);
  bundle->late_drops =
      registry_->GetCounter("onesql_operator_late_drops_total", labels);
  bundle->state_bytes =
      registry_->GetGauge("onesql_operator_state_bytes", labels);
  operator_bundles_.emplace_back(key, std::move(bundle));
  return operator_bundles_.back().second.get();
}

const OperatorProfileMetrics* ObsContext::ForOperatorProfile(
    const std::string& query, const std::string& op) {
  if (!profiling_enabled()) return nullptr;
  const std::string key = query + '\0' + op;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [k, bundle] : operator_profile_bundles_) {
    if (k == key) return bundle.get();
  }
  Labels labels = {{"query", query}, {"op", op}};
  auto bundle = std::make_unique<OperatorProfileMetrics>();
  bundle->wall_us =
      registry_->GetHistogram("onesql_profile_batch_wall_us", labels);
  bundle->rows_per_sec =
      registry_->GetGauge("onesql_profile_rows_per_sec", labels);
  operator_profile_bundles_.emplace_back(key, std::move(bundle));
  return operator_profile_bundles_.back().second.get();
}

const EngineProfileMetrics* ObsContext::ForEngineProfile() {
  if (!profiling_enabled()) return nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  if (engine_profile_bundle_ == nullptr) {
    engine_profile_bundle_ = std::make_unique<EngineProfileMetrics>();
    engine_profile_bundle_->feed_wal_stall_us =
        registry_->GetHistogram("onesql_profile_feed_wal_stall_us");
    engine_profile_bundle_->feed_dispatch_us =
        registry_->GetHistogram("onesql_profile_feed_dispatch_us");
  }
  return engine_profile_bundle_.get();
}

const ServerProfileMetrics* ObsContext::ForServerProfile() {
  if (!profiling_enabled()) return nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  if (server_profile_bundle_ == nullptr) {
    server_profile_bundle_ = std::make_unique<ServerProfileMetrics>();
    server_profile_bundle_->fanout_us =
        registry_->GetHistogram("onesql_profile_server_fanout_us");
  }
  return server_profile_bundle_.get();
}

const SinkMetrics* ObsContext::ForSink(const std::string& query) {
  if (registry_ == nullptr) return nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [k, bundle] : sink_bundles_) {
    if (k == query) return bundle.get();
  }
  Labels labels = {{"query", query}};
  auto bundle = std::make_unique<SinkMetrics>();
  bundle->emissions =
      registry_->GetCounter("onesql_sink_emissions_total", labels);
  bundle->inserts = registry_->GetCounter("onesql_sink_inserts_total", labels);
  bundle->retractions =
      registry_->GetCounter("onesql_sink_retractions_total", labels);
  bundle->late_drops =
      registry_->GetCounter("onesql_sink_late_drops_total", labels);
  bundle->panes_early = registry_->GetCounter(
      "onesql_sink_panes_total", {{"query", query}, {"kind", "early"}});
  bundle->panes_on_time = registry_->GetCounter(
      "onesql_sink_panes_total", {{"query", query}, {"kind", "on_time"}});
  bundle->panes_late = registry_->GetCounter(
      "onesql_sink_panes_total", {{"query", query}, {"kind", "late"}});
  bundle->emit_latency_ms =
      registry_->GetHistogram("onesql_sink_emit_latency_ms", labels);
  bundle->timer_queue_depth =
      registry_->GetGauge("onesql_sink_timer_queue_depth", labels);
  bundle->pending_panes =
      registry_->GetGauge("onesql_sink_pending_panes", labels);
  bundle->snapshot_rows =
      registry_->GetGauge("onesql_sink_snapshot_rows", labels);
  sink_bundles_.emplace_back(query, std::move(bundle));
  return sink_bundles_.back().second.get();
}

const SourceMetrics* ObsContext::ForSource(const std::string& source) {
  if (registry_ == nullptr) return nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [k, bundle] : source_bundles_) {
    if (k == source) return bundle.get();
  }
  Labels labels = {{"source", source}};
  auto bundle = std::make_unique<SourceMetrics>();
  bundle->rows = registry_->GetCounter("onesql_source_rows_total", labels);
  bundle->watermarks =
      registry_->GetCounter("onesql_source_watermarks_total", labels);
  bundle->watermark_lag_ms =
      registry_->GetHistogram("onesql_source_watermark_lag_ms", labels);
  bundle->watermark_lag_current_ms =
      registry_->GetGauge("onesql_source_watermark_lag_current_ms", labels);
  source_bundles_.emplace_back(source, std::move(bundle));
  return source_bundles_.back().second.get();
}

const WalMetrics* ObsContext::ForWal() {
  if (registry_ == nullptr) return nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  if (wal_bundle_ == nullptr) {
    wal_bundle_ = std::make_unique<WalMetrics>();
    wal_bundle_->appends = registry_->GetCounter("onesql_wal_appends_total");
    wal_bundle_->syncs = registry_->GetCounter("onesql_wal_syncs_total");
    wal_bundle_->bytes_written =
        registry_->GetCounter("onesql_wal_bytes_written_total");
    wal_bundle_->append_latency_us =
        registry_->GetHistogram("onesql_wal_append_latency_us");
    wal_bundle_->sync_latency_us =
        registry_->GetHistogram("onesql_wal_sync_latency_us");
    wal_bundle_->group_size =
        registry_->GetHistogram("onesql_wal_group_size");
  }
  return wal_bundle_.get();
}

const EngineMetrics* ObsContext::ForEngine() {
  if (registry_ == nullptr) return nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  if (engine_bundle_ == nullptr) {
    engine_bundle_ = std::make_unique<EngineMetrics>();
    engine_bundle_->feed_inserts = registry_->GetCounter(
        "onesql_engine_feed_events_total", {{"kind", "insert"}});
    engine_bundle_->feed_deletes = registry_->GetCounter(
        "onesql_engine_feed_events_total", {{"kind", "delete"}});
    engine_bundle_->feed_watermarks = registry_->GetCounter(
        "onesql_engine_feed_events_total", {{"kind", "watermark"}});
    engine_bundle_->checkpoint_saves =
        registry_->GetCounter("onesql_checkpoint_saves_total");
    engine_bundle_->checkpoint_restores =
        registry_->GetCounter("onesql_checkpoint_restores_total");
    engine_bundle_->checkpoint_save_ms =
        registry_->GetHistogram("onesql_checkpoint_save_duration_ms");
    engine_bundle_->checkpoint_restore_ms =
        registry_->GetHistogram("onesql_checkpoint_restore_duration_ms");
    engine_bundle_->restore_checkpoint_load_us = registry_->GetHistogram(
        "onesql_restore_phase_duration_us", {{"phase", "checkpoint_load"}});
    engine_bundle_->restore_log_read_us = registry_->GetHistogram(
        "onesql_restore_phase_duration_us", {{"phase", "log_read"}});
    engine_bundle_->restore_replay_us = registry_->GetHistogram(
        "onesql_restore_phase_duration_us", {{"phase", "replay"}});
    engine_bundle_->checkpoint_bytes =
        registry_->GetGauge("onesql_checkpoint_bytes");
    engine_bundle_->queries = registry_->GetGauge("onesql_engine_queries");
    engine_bundle_->operators = registry_->GetGauge("onesql_engine_operators");
  }
  return engine_bundle_.get();
}

const ServerMetrics* ObsContext::ForServer() {
  if (registry_ == nullptr) return nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  if (server_bundle_ == nullptr) {
    server_bundle_ = std::make_unique<ServerMetrics>();
    server_bundle_->sessions = registry_->GetGauge("onesql_server_sessions");
    server_bundle_->standing_queries =
        registry_->GetGauge("onesql_server_standing_queries");
    server_bundle_->subscriptions =
        registry_->GetGauge("onesql_server_subscriptions");
    server_bundle_->commands =
        registry_->GetCounter("onesql_server_commands_total");
    server_bundle_->command_errors =
        registry_->GetCounter("onesql_server_command_errors_total");
    server_bundle_->deltas_pushed =
        registry_->GetCounter("onesql_server_deltas_pushed_total");
    server_bundle_->shared_hits =
        registry_->GetCounter("onesql_server_shared_plan_hits_total");
    server_bundle_->sessions_opened =
        registry_->GetCounter("onesql_server_sessions_opened_total");
    server_bundle_->sessions_overflowed =
        registry_->GetCounter("onesql_server_sessions_overflowed_total");
  }
  return server_bundle_.get();
}

const SessionMetrics* ObsContext::ForSession(const std::string& session) {
  if (registry_ == nullptr) return nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [k, bundle] : session_bundles_) {
    if (k == session) return bundle.get();
  }
  Labels labels = {{"session", session}};
  auto bundle = std::make_unique<SessionMetrics>();
  bundle->commands =
      registry_->GetCounter("onesql_session_commands_total", labels);
  bundle->deltas_pushed =
      registry_->GetCounter("onesql_session_deltas_pushed_total", labels);
  bundle->queue_depth =
      registry_->GetGauge("onesql_session_queue_depth", labels);
  session_bundles_.emplace_back(session, std::move(bundle));
  return session_bundles_.back().second.get();
}

const SharedPlanMetrics* ObsContext::ForSharedPlan(const std::string& plan) {
  if (registry_ == nullptr) return nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [k, bundle] : shared_plan_bundles_) {
    if (k == plan) return bundle.get();
  }
  Labels labels = {{"plan", plan}};
  auto bundle = std::make_unique<SharedPlanMetrics>();
  bundle->subscribers =
      registry_->GetGauge("onesql_shared_plan_subscribers", labels);
  bundle->deltas_pushed =
      registry_->GetCounter("onesql_shared_plan_deltas_pushed_total", labels);
  shared_plan_bundles_.emplace_back(plan, std::move(bundle));
  return shared_plan_bundles_.back().second.get();
}

}  // namespace obs
}  // namespace onesql
