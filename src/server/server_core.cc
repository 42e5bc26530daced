#include "server/server_core.h"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "plan/fingerprint.h"

namespace onesql {
namespace server {

namespace {

constexpr int kProtocolVersion = 1;

Result<int64_t> GetInt(const Json& request, const char* key,
                       int64_t fallback) {
  const Json* j = request.Find(key);
  if (j == nullptr) return fallback;
  if (!j->is_int()) {
    return Status::InvalidArgument(std::string("\"") + key +
                                   "\" must be an integer");
  }
  return j->AsInt();
}

Result<bool> GetBool(const Json& request, const char* key, bool fallback) {
  const Json* j = request.Find(key);
  if (j == nullptr) return fallback;
  if (!j->is_bool()) {
    return Status::InvalidArgument(std::string("\"") + key +
                                   "\" must be a boolean");
  }
  return j->AsBool();
}

Result<std::string> GetString(const Json& request, const char* key) {
  const Json* j = request.Find(key);
  if (j == nullptr || !j->is_string()) {
    return Status::InvalidArgument(std::string("request needs string \"") +
                                   key + "\"");
  }
  return j->AsString();
}

}  // namespace

ServerCore::ServerCore(const ServerOptions& options,
                       std::unique_ptr<Engine> engine)
    : options_(options), engine_(std::move(engine)) {}

Result<std::unique_ptr<ServerCore>> ServerCore::Create(
    const ServerOptions& options) {
  return Create(options, std::make_unique<Engine>());
}

Result<std::unique_ptr<ServerCore>> ServerCore::Create(
    const ServerOptions& options, std::unique_ptr<Engine> engine) {
  if (engine == nullptr) {
    return Status::InvalidArgument("ServerCore needs an engine");
  }
  auto core = std::unique_ptr<ServerCore>(
      new ServerCore(options, std::move(engine)));
  ONESQL_RETURN_NOT_OK(core->Init());
  return core;
}

Status ServerCore::Init() {
  if (options_.metrics && !engine_->observability_enabled()) {
    obs::ObsOptions obs;
    obs.metrics = true;
    obs.profiling = options_.profiling;
    ONESQL_RETURN_NOT_OK(engine_->EnableObservability(obs));
  }
  if (engine_->obs() != nullptr) {
    metrics_ = engine_->obs()->ForServer();
    // Null unless the engine's observability has profiling on (either via
    // options_.profiling above or pre-enabled on an injected engine).
    profile_ = engine_->obs()->ForServerProfile();
  }
  if (!options_.durable_dir.empty()) {
    // Restore first (standing queries come back from the checkpoint with
    // their operator state and the WAL suffix replayed). Restoring a run
    // that was durable re-attaches its feed log; a first boot on an empty
    // directory does not, so attach one here.
    ONESQL_RETURN_NOT_OK(engine_->Restore(options_.durable_dir));
    if (!engine_->durable()) {
      ONESQL_RETURN_NOT_OK(engine_->EnableDurability(options_.durable_dir));
    }
  }
  AdoptEngineQueries();
  UpdateGauges();
  return Status::OK();
}

void ServerCore::AdoptEngineQueries() {
  for (size_t i = 0; i < engine_->num_queries(); ++i) {
    ContinuousQuery* query = engine_->query(i);
    bool known = false;
    for (const auto& [id, entry] : plans_) {
      if (entry.query == query) {
        known = true;
        break;
      }
    }
    if (known) continue;
    PlanEntry entry;
    entry.id = next_plan_id_++;
    entry.query = query;
    entry.fp_hex = query->plan_fingerprint().ToHex();
    entry.canonical = query->plan_fingerprint().canonical;
    entry.handles = 0;
    // Restored (or pre-executed) queries are resident: they survive with
    // zero subscribers and are checkpointed for the next restart.
    entry.resident = true;
    if (engine_->obs() != nullptr) {
      entry.metrics =
          engine_->obs()->ForSharedPlan("p" + std::to_string(entry.id));
    }
    plans_.emplace(entry.id, std::move(entry));
  }
}

ServerCore::~ServerCore() {
  std::vector<uint64_t> open;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [id, session] : sessions_) open.push_back(id);
  }
  for (uint64_t id : open) CloseSession(id);
}

Result<uint64_t> ServerCore::OpenSession() {
  std::lock_guard<std::mutex> lock(mu_);
  if (sessions_.size() >= static_cast<size_t>(options_.max_sessions)) {
    return Status::OutOfRange(
        "session limit reached (" + std::to_string(options_.max_sessions) +
        " open sessions)");
  }
  auto session = std::make_shared<Session>();
  session->id = next_session_id_++;
  if (engine_->obs() != nullptr) {
    session->metrics =
        engine_->obs()->ForSession("s" + std::to_string(session->id));
  }
  const uint64_t id = session->id;
  sessions_.emplace(id, std::move(session));
  if (metrics_ != nullptr) metrics_->sessions_opened->Increment();
  UpdateGauges();
  return id;
}

ServerCore::Session* ServerCore::FindSession(uint64_t id) {
  auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : it->second.get();
}

ServerCore::PlanEntry* ServerCore::FindPlanByName(const std::string& name) {
  if (name.size() < 2 || name[0] != 'p') return nullptr;
  uint64_t id = 0;
  for (size_t i = 1; i < name.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') return nullptr;
    id = id * 10 + static_cast<uint64_t>(name[i] - '0');
  }
  auto it = plans_.find(id);
  return it == plans_.end() ? nullptr : &it->second;
}

Status ServerCore::ReleaseHandle(Session* session, uint64_t plan_id) {
  auto plan_it = plans_.find(plan_id);
  if (plan_it == plans_.end()) {
    return Status::NotFound("unknown query handle");
  }
  PlanEntry& entry = plan_it->second;
  auto handle_it = session->handles.find(plan_id);
  if (handle_it == session->handles.end() || handle_it->second <= 0) {
    return Status::NotFound("session holds no handle on this query");
  }
  if (--handle_it->second == 0) {
    session->handles.erase(handle_it);
    // No handle left in this session: its subscriptions on the plan die too.
    for (auto it = subs_.begin(); it != subs_.end();) {
      if (it->second.session == session->id && it->second.plan == plan_id) {
        it = EraseSub(it);
      } else {
        ++it;
      }
    }
  }
  if (--entry.handles == 0 && !entry.resident) {
    // Last subscriber of a non-resident plan: stop the query, then retire
    // the cache entry and every remaining subscription riding it.
    ONESQL_RETURN_NOT_OK(engine_->DropQuery(entry.query));
    if (entry.metrics != nullptr) entry.metrics->subscribers->Set(0);
    for (auto it = subs_.begin(); it != subs_.end();) {
      if (it->second.plan == plan_id) {
        it = EraseSub(it);
      } else {
        ++it;
      }
    }
    plans_.erase(plan_it);
  }
  return Status::OK();
}

void ServerCore::CloseSession(uint64_t id) {
  std::shared_ptr<Session> session;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sessions_.find(id);
    if (it == sessions_.end()) return;
    session = it->second;
    // Cancel the session's subscriptions before releasing handles, so the
    // handle release does not double-erase them.
    for (auto sub = subs_.begin(); sub != subs_.end();) {
      if (sub->second.session == id) {
        sub = EraseSub(sub);
      } else {
        ++sub;
      }
    }
    // Release every handle (a handle held N times releases N references).
    std::vector<std::pair<uint64_t, int>> handles(session->handles.begin(),
                                                  session->handles.end());
    for (const auto& [plan_id, count] : handles) {
      for (int i = 0; i < count; ++i) {
        (void)ReleaseHandle(session.get(), plan_id);
      }
    }
    sessions_.erase(it);
    UpdateGauges();
  }
  {
    std::lock_guard<std::mutex> lock(session->mu);
    session->closed = true;
  }
  session->cv.notify_all();
}

bool ServerCore::SessionOpen(uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  Session* session = FindSession(id);
  if (session == nullptr) return false;
  std::lock_guard<std::mutex> qlock(session->mu);
  return !session->closed && !session->overflowed;
}

// ---------------------------------------------------------------------------
// Outbound queues
// ---------------------------------------------------------------------------

void ServerCore::PushLine(Session* session,
                          std::shared_ptr<const std::string> line) {
  bool overflowed_now = false;
  {
    std::lock_guard<std::mutex> lock(session->mu);
    if (session->closed || session->overflowed) return;
    if (session->outbound.size() >= options_.max_session_queue) {
      // The subscriber cannot keep up. Drop it cleanly: replace the queue
      // tail with an error push and mark the session failed; the writer
      // flushes what is buffered and closes. The changelog itself is
      // replayable (subscribe {"from_seq": N}), so nothing is lost for a
      // client that reconnects.
      session->overflowed = true;
      session->outbound.push_back(std::make_shared<const std::string>(
          "{\"push\":\"error\",\"error\":\"subscriber too slow: outbound "
          "queue overflow (" +
          std::to_string(options_.max_session_queue) +
          " lines); resubscribe with from_seq to resume\"}"));
      overflowed_now = true;
    } else {
      session->outbound.push_back(std::move(line));
    }
    if (session->metrics != nullptr) {
      session->metrics->queue_depth->Set(
          static_cast<int64_t>(session->outbound.size()));
    }
  }
  session->cv.notify_all();
  if (overflowed_now && metrics_ != nullptr) {
    metrics_->sessions_overflowed->Increment();
  }
}

std::vector<std::shared_ptr<const std::string>> ServerCore::DrainOutbound(
    uint64_t id) {
  std::shared_ptr<Session> session;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sessions_.find(id);
    if (it == sessions_.end()) return {};
    session = it->second;
  }
  std::lock_guard<std::mutex> lock(session->mu);
  std::vector<std::shared_ptr<const std::string>> out(
      session->outbound.begin(), session->outbound.end());
  session->outbound.clear();
  if (session->metrics != nullptr) session->metrics->queue_depth->Set(0);
  return out;
}

bool ServerCore::WaitOutbound(
    uint64_t id, std::vector<std::shared_ptr<const std::string>>* out) {
  out->clear();
  std::shared_ptr<Session> session;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sessions_.find(id);
    if (it == sessions_.end()) return false;
    session = it->second;
  }
  std::unique_lock<std::mutex> lock(session->mu);
  session->cv.wait(lock, [&] {
    return !session->outbound.empty() || session->closed ||
           session->overflowed;
  });
  out->assign(session->outbound.begin(), session->outbound.end());
  session->outbound.clear();
  if (session->metrics != nullptr) session->metrics->queue_depth->Set(0);
  // An overflowed session delivers its final error line and then reports
  // closed, so the writer flushes and exits.
  return !out->empty() || !(session->closed || session->overflowed);
}

// ---------------------------------------------------------------------------
// Command dispatch
// ---------------------------------------------------------------------------

Json ServerCore::Error(const Json& request, const Status& status) {
  Json out = Json::Object();
  const Json* id = request.Find("id");
  if (id != nullptr) out.Set("id", *id);
  out.Set("ok", Json::Bool(false));
  out.Set("error", Json::Str(status.message()));
  out.Set("code", Json::Str(StatusCodeToString(status.code())));
  return out;
}

Json ServerCore::Ok(const Json& request) {
  Json out = Json::Object();
  const Json* id = request.Find("id");
  if (id != nullptr) out.Set("id", *id);
  out.Set("ok", Json::Bool(true));
  return out;
}

std::string ServerCore::HandleLine(uint64_t session_id,
                                   const std::string& line) {
  std::lock_guard<std::mutex> lock(mu_);
  Result<Json> parsed = Json::Parse(line);
  if (!parsed.ok()) {
    return Error(Json::Object(), parsed.status()).Serialize();
  }
  const Json& request = parsed.value();
  Session* session = FindSession(session_id);
  if (session == nullptr) {
    return Error(request, Status::NotFound("unknown session")).Serialize();
  }
  if (metrics_ != nullptr) metrics_->commands->Increment();
  if (session->metrics != nullptr) session->metrics->commands->Increment();
  Json response = Dispatch(session, request);
  const Json* ok = response.Find("ok");
  if (metrics_ != nullptr && ok != nullptr && !ok->AsBool()) {
    metrics_->command_errors->Increment();
  }
  return response.Serialize();
}

Json ServerCore::Dispatch(Session* session, const Json& request) {
  if (!request.is_object()) {
    return Error(request,
                 Status::InvalidArgument("request must be a JSON object"));
  }
  Result<std::string> cmd = GetString(request, "cmd");
  if (!cmd.ok()) return Error(request, cmd.status());
  const std::string& name = cmd.value();
  if (name == "hello") return CmdHello(session, request);
  if (name == "register_stream") return CmdRegisterStream(session, request);
  if (name == "register_table") return CmdRegisterTable(session, request);
  if (name == "submit") return CmdSubmit(session, request);
  if (name == "feed") return CmdFeed(session, request);
  if (name == "advance") return CmdAdvance(session, request);
  if (name == "snapshot") return CmdSnapshot(session, request);
  if (name == "subscribe") return CmdSubscribe(session, request);
  if (name == "unsubscribe") return CmdUnsubscribe(session, request);
  if (name == "drop") return CmdDrop(session, request);
  if (name == "checkpoint") return CmdCheckpoint(session, request);
  if (name == "stats") return CmdStats(session, request);
  if (name == "metrics") return CmdMetrics(session, request);
  if (name == "explain") return CmdExplain(session, request);
  return Error(request,
               Status::InvalidArgument("unknown command '" + name + "'"));
}

Json ServerCore::CmdHello(Session* session, const Json& request) {
  (void)session;
  Json out = Ok(request);
  out.Set("server", Json::Str("onesql"));
  out.Set("protocol", Json::Int(kProtocolVersion));
  out.Set("durable", Json::Bool(!options_.durable_dir.empty()));
  return out;
}

Json ServerCore::CmdRegisterStream(Session* session, const Json& request) {
  (void)session;
  Result<std::string> name = GetString(request, "name");
  if (!name.ok()) return Error(request, name.status());
  const Json* schema_json = request.Find("schema");
  if (schema_json == nullptr) {
    return Error(request, Status::InvalidArgument("request needs \"schema\""));
  }
  Result<Schema> schema = DecodeSchema(*schema_json);
  if (!schema.ok()) return Error(request, schema.status());
  Status status = engine_->RegisterStream(name.value(), schema.value());
  if (!status.ok()) return Error(request, status);
  return Ok(request);
}

Json ServerCore::CmdRegisterTable(Session* session, const Json& request) {
  (void)session;
  Result<std::string> name = GetString(request, "name");
  if (!name.ok()) return Error(request, name.status());
  const Json* schema_json = request.Find("schema");
  if (schema_json == nullptr) {
    return Error(request, Status::InvalidArgument("request needs \"schema\""));
  }
  Result<Schema> schema = DecodeSchema(*schema_json);
  if (!schema.ok()) return Error(request, schema.status());
  std::vector<Row> rows;
  const Json* rows_json = request.Find("rows");
  if (rows_json != nullptr) {
    if (!rows_json->is_array()) {
      return Error(request,
                   Status::InvalidArgument("\"rows\" must be an array"));
    }
    rows.reserve(rows_json->items().size());
    for (const Json& r : rows_json->items()) {
      Result<Row> row = DecodeRow(r, schema.value());
      if (!row.ok()) return Error(request, row.status());
      rows.push_back(std::move(row).value());
    }
  }
  Status status =
      engine_->RegisterTable(name.value(), schema.value(), std::move(rows));
  if (!status.ok()) return Error(request, status);
  return Ok(request);
}

Json ServerCore::CmdSubmit(Session* session, const Json& request) {
  Result<std::string> sql = GetString(request, "sql");
  if (!sql.ok()) return Error(request, sql.status());
  Result<int64_t> lateness = GetInt(request, "lateness_ms", 0);
  if (!lateness.ok()) return Error(request, lateness.status());
  Result<int64_t> shards =
      GetInt(request, "shards", options_.default_shards);
  if (!shards.ok()) return Error(request, shards.status());
  if (shards.value() < 1 || shards.value() > exec::kMaxShards) {
    return Error(request, Status::InvalidArgument(
                              "\"shards\" must be between 1 and " +
                              std::to_string(exec::kMaxShards) + ", got " +
                              std::to_string(shards.value())));
  }
  Result<bool> share = GetBool(request, "share", false);
  if (!share.ok()) return Error(request, share.status());

  ExecutionOptions opts;
  opts.allowed_lateness = Interval(lateness.value());
  opts.shards = static_cast<int>(shards.value());

  auto attach = [&](PlanEntry& entry) -> Json {
    ++entry.handles;
    ++session->handles[entry.id];
    if (metrics_ != nullptr) metrics_->shared_hits->Increment();
    UpdateGauges();
    Json out = Ok(request);
    out.Set("query", Json::Str("p" + std::to_string(entry.id)));
    out.Set("fingerprint", Json::Str(entry.fp_hex));
    out.Set("shared", Json::Bool(true));
    out.Set("seq", Json::Int(static_cast<int64_t>(
                       entry.query->Emissions().size())));
    return out;
  };

  if (share.value()) {
    // Fingerprint the canonicalized plan and route onto the earliest running
    // identical query, if any — the multi-tenant sharing fast path. The
    // scan is bounded by max_queries.
    Result<plan::QueryPlan> planned = engine_->Plan(sql.value());
    if (!planned.ok()) return Error(request, planned.status());
    plan::QueryPlan plan = std::move(planned).value();
    plan.allowed_lateness = opts.allowed_lateness;
    const plan::PlanFingerprint fp = plan::FingerprintPlan(plan);
    for (auto& [id, entry] : plans_) {
      if (entry.canonical == fp.canonical) return attach(entry);
    }
  }

  if (plans_.size() >= static_cast<size_t>(options_.max_queries)) {
    return Error(request,
                 Status::OutOfRange("standing-query limit reached (" +
                                    std::to_string(options_.max_queries) +
                                    " live queries)"));
  }
  Result<ContinuousQuery*> executed = engine_->Execute(sql.value(), opts);
  if (!executed.ok()) return Error(request, executed.status());

  ContinuousQuery* query = executed.value();
  PlanEntry entry;
  entry.id = next_plan_id_++;
  entry.query = query;
  entry.fp_hex = query->plan_fingerprint().ToHex();
  entry.canonical = query->plan_fingerprint().canonical;
  entry.handles = 1;
  if (engine_->obs() != nullptr) {
    entry.metrics =
        engine_->obs()->ForSharedPlan("p" + std::to_string(entry.id));
  }
  ++session->handles[entry.id];
  Json out = Ok(request);
  out.Set("query", Json::Str("p" + std::to_string(entry.id)));
  out.Set("fingerprint", Json::Str(entry.fp_hex));
  out.Set("shared", Json::Bool(false));
  out.Set("seq",
          Json::Int(static_cast<int64_t>(query->Emissions().size())));
  plans_.emplace(entry.id, std::move(entry));
  UpdateGauges();
  return out;
}

Json ServerCore::CmdFeed(Session* session, const Json& request) {
  (void)session;
  const Json* events_json = request.Find("events");
  if (events_json == nullptr || !events_json->is_array()) {
    return Error(request,
                 Status::InvalidArgument("request needs array \"events\""));
  }
  std::vector<FeedEvent> events;
  events.reserve(events_json->items().size());
  for (const Json& e : events_json->items()) {
    Result<FeedEvent> event = DecodeFeedEvent(e, engine_->catalog());
    if (!event.ok()) return Error(request, event.status());
    events.push_back(std::move(event).value());
  }
  Status status = engine_->Feed(events);
  // Even a partial feed (validation error mid-batch) dispatched its valid
  // prefix; push those deltas before reporting the error.
  Pump();
  if (!status.ok()) return Error(request, status);
  Json out = Ok(request);
  out.Set("accepted", Json::Int(static_cast<int64_t>(events.size())));
  return out;
}

Json ServerCore::CmdAdvance(Session* session, const Json& request) {
  (void)session;
  Result<int64_t> ptime = GetInt(request, "ptime", -1);
  if (!ptime.ok()) return Error(request, ptime.status());
  const Json* p = request.Find("ptime");
  if (p == nullptr) {
    return Error(request,
                 Status::InvalidArgument("request needs int \"ptime\""));
  }
  Status status = engine_->AdvanceTo(Timestamp(ptime.value()));
  Pump();
  if (!status.ok()) return Error(request, status);
  return Ok(request);
}

Json ServerCore::CmdSnapshot(Session* session, const Json& request) {
  Result<std::string> name = GetString(request, "query");
  if (!name.ok()) return Error(request, name.status());
  PlanEntry* entry = FindPlanByName(name.value());
  if (entry == nullptr) {
    return Error(request,
                 Status::NotFound("unknown query '" + name.value() + "'"));
  }
  if (session->handles.find(entry->id) == session->handles.end()) {
    return Error(request, Status::InvalidArgument(
                              "session holds no handle on '" + name.value() +
                              "' (submit it first, with \"share\": true to "
                              "attach to the running instance)"));
  }
  const Json* ptime = request.Find("ptime");
  Result<std::vector<Row>> rows =
      ptime != nullptr && ptime->is_int()
          ? entry->query->SnapshotAt(Timestamp(ptime->AsInt()))
          : entry->query->CurrentSnapshot();
  if (!rows.ok()) return Error(request, rows.status());
  Json out = Ok(request);
  out.Set("schema", EncodeSchema(entry->query->output_schema()));
  Json rendered = Json::Array();
  for (const Row& row : rows.value()) rendered.Add(EncodeRow(row));
  out.Set("rows", std::move(rendered));
  return out;
}

Json ServerCore::CmdSubscribe(Session* session, const Json& request) {
  Result<std::string> name = GetString(request, "query");
  if (!name.ok()) return Error(request, name.status());
  PlanEntry* entry = FindPlanByName(name.value());
  if (entry == nullptr) {
    return Error(request,
                 Status::NotFound("unknown query '" + name.value() + "'"));
  }
  if (session->handles.find(entry->id) == session->handles.end()) {
    return Error(request,
                 Status::InvalidArgument("session holds no handle on '" +
                                         name.value() + "'"));
  }
  const uint64_t end = entry->query->Emissions().size();
  // Default: push only deltas materialized from now on. from_seq rewinds
  // into the changelog — 0 replays it all; a reconnecting client passes the
  // last seq it saw plus one to receive exactly the missed suffix.
  Result<int64_t> from = GetInt(request, "from_seq",
                                static_cast<int64_t>(end));
  if (!from.ok()) return Error(request, from.status());
  if (from.value() < 0 || from.value() > static_cast<int64_t>(end)) {
    return Error(request, Status::OutOfRange(
                              "from_seq " + std::to_string(from.value()) +
                              " outside changelog [0, " +
                              std::to_string(end) + "]"));
  }
  Subscription sub;
  sub.id = next_sub_id_++;
  sub.session = session->id;
  sub.plan = entry->id;
  sub.next_seq = static_cast<uint64_t>(from.value());
  const uint64_t sub_id = sub.id;
  auto [sub_it, inserted] = subs_.emplace(sub_id, sub);
  (void)inserted;
  plan_subs_[entry->id].insert(sub_id);
  UpdateGauges();
  Json out = Ok(request);
  out.Set("sub", Json::Int(static_cast<int64_t>(sub_id)));
  out.Set("seq", Json::Int(static_cast<int64_t>(end)));
  // Deliver any backlog requested via from_seq to this subscriber alone —
  // every other subscription already sits at its plan's fanned_out cursor,
  // so a full Pump here would re-scan them for nothing (quadratic over a
  // burst of subscribes).
  PayloadCache payloads;
  const bool overflowed = PushDeltas(*entry, sub_it->second, &payloads);
  entry->fanned_out = entry->query->Emissions().size();
  // Tear-down last: it may retire the plan (releasing this session's final
  // handle), invalidating `entry`.
  if (overflowed) TearDownOverflowed({session->id});
  return out;
}

Json ServerCore::CmdUnsubscribe(Session* session, const Json& request) {
  Result<int64_t> sub = GetInt(request, "sub", -1);
  if (!sub.ok()) return Error(request, sub.status());
  auto it = subs_.find(static_cast<uint64_t>(sub.value()));
  if (it == subs_.end() || it->second.session != session->id) {
    return Error(request, Status::NotFound("unknown subscription"));
  }
  EraseSub(it);
  UpdateGauges();
  return Ok(request);
}

Json ServerCore::CmdDrop(Session* session, const Json& request) {
  Result<std::string> name = GetString(request, "query");
  if (!name.ok()) return Error(request, name.status());
  PlanEntry* entry = FindPlanByName(name.value());
  if (entry == nullptr) {
    return Error(request,
                 Status::NotFound("unknown query '" + name.value() + "'"));
  }
  Status status = ReleaseHandle(session, entry->id);
  if (!status.ok()) return Error(request, status);
  UpdateGauges();
  return Ok(request);
}

Json ServerCore::CmdCheckpoint(Session* session, const Json& request) {
  (void)session;
  if (options_.durable_dir.empty()) {
    return Error(request, Status::InvalidArgument(
                              "server is not durable (no durable_dir)"));
  }
  Status status = engine_->Checkpoint(options_.durable_dir);
  if (!status.ok()) return Error(request, status);
  return Ok(request);
}

Json ServerCore::CmdStats(Session* session, const Json& request) {
  (void)session;
  Json out = Ok(request);
  out.Set("sessions", Json::Int(static_cast<int64_t>(sessions_.size())));
  out.Set("queries", Json::Int(static_cast<int64_t>(plans_.size())));
  out.Set("subscriptions", Json::Int(static_cast<int64_t>(subs_.size())));
  int64_t handles = 0;
  for (const auto& [id, entry] : plans_) handles += entry.handles;
  out.Set("handles", Json::Int(handles));
  out.Set("engine_queries",
          Json::Int(static_cast<int64_t>(engine_->num_queries())));
  return out;
}

Json ServerCore::CmdMetrics(Session* session, const Json& request) {
  (void)session;
  if (engine_->obs() == nullptr || engine_->obs()->registry() == nullptr) {
    return Error(request,
                 Status::InvalidArgument("metrics are disabled on this "
                                         "server"));
  }
  const Json* format = request.Find("format");
  const bool as_json =
      format != nullptr && format->is_string() && format->AsString() == "json";
  UpdateGauges();
  obs::MetricsSnapshot snapshot = engine_->MetricsSnapshot();
  Json out = Ok(request);
  out.Set("format", Json::Str(as_json ? "json" : "prometheus"));
  out.Set("body",
          Json::Str(as_json ? snapshot.ToJson() : snapshot.ToPrometheus()));
  return out;
}

Json ServerCore::CmdExplain(Session* session, const Json& request) {
  (void)session;
  Result<std::string> name = GetString(request, "query");
  if (!name.ok()) return Error(request, name.status());
  PlanEntry* entry = FindPlanByName(name.value());
  if (entry == nullptr) {
    return Error(request,
                 Status::NotFound("unknown query '" + name.value() + "'"));
  }
  // Read-only diagnostics (like `metrics`): no plan handle required.
  Result<ExplainAnalysis> analysis = engine_->ExplainAnalyze(entry->query);
  if (!analysis.ok()) return Error(request, analysis.status());
  Result<Json> encoded = EncodeExplainAnalysis(analysis.value());
  if (!encoded.ok()) return Error(request, encoded.status());
  Json out = Ok(request);
  out.Set("query", Json::Str("p" + std::to_string(entry->id)));
  out.Set("text", Json::Str(analysis.value().text));
  out.Set("analysis", std::move(encoded).value());
  return out;
}

// ---------------------------------------------------------------------------
// Subscription fan-out
// ---------------------------------------------------------------------------

bool ServerCore::PushDeltas(PlanEntry& entry, Subscription& sub,
                            PayloadCache* payloads) {
  const auto& emissions = entry.query->Emissions();
  const uint64_t end = emissions.size();
  Session* session = FindSession(sub.session);
  if (session == nullptr) {
    sub.next_seq = end;
    return false;
  }
  uint64_t pushed = 0;
  for (uint64_t seq = sub.next_seq; seq < end; ++seq) {
    // Payload cache filled lazily: subscribers may sit at different cursors
    // (a fresh from_seq=0 subscriber next to a live one).
    auto cached = payloads->find(seq);
    if (cached == payloads->end()) {
      cached =
          payloads
              ->emplace(seq, EncodeDeltaPayload(
                                 emissions[static_cast<size_t>(seq)]))
              .first;
    }
    PushLine(session, std::make_shared<const std::string>(
                          EncodeDeltaLine(sub.id, seq, *cached->second)));
    ++pushed;
  }
  sub.next_seq = end;
  if (pushed > 0) {
    if (metrics_ != nullptr) metrics_->deltas_pushed->Add(pushed);
    if (session->metrics != nullptr) {
      session->metrics->deltas_pushed->Add(pushed);
    }
    if (entry.metrics != nullptr) entry.metrics->deltas_pushed->Add(pushed);
  }
  std::lock_guard<std::mutex> qlock(session->mu);
  return session->overflowed;
}

void ServerCore::Pump() {
  // Group cursor advancement by plan so each new emission's payload is
  // encoded exactly once and fanned out to every subscriber by pointer.
  // Between commands every live subscription sits at its plan's fanned_out
  // cursor, so a plan whose changelog has not grown is skipped without
  // touching its subscribers — a feed that moves one shared plan costs
  // O(its subscribers), not O(all subscriptions on the server).
  std::vector<uint64_t> overflowed;
  bool fanned = false;
  const uint64_t t0 =
      profile_ != nullptr ? obs::TraceRecorder::NowMicros() : 0;
  for (auto& [plan_id, sub_ids] : plan_subs_) {
    auto plan_it = plans_.find(plan_id);
    if (plan_it == plans_.end()) continue;
    PlanEntry& entry = plan_it->second;
    if (entry.query->Emissions().size() == entry.fanned_out) continue;
    fanned = true;
    PayloadCache payloads;
    for (uint64_t sub_id : sub_ids) {
      if (PushDeltas(entry, subs_.at(sub_id), &payloads)) {
        overflowed.push_back(subs_.at(sub_id).session);
      }
    }
    entry.fanned_out = entry.query->Emissions().size();
  }
  // One sample per pump that actually fanned out: time spent encoding and
  // queueing deltas is the sink-side backpressure a slow subscriber causes.
  if (profile_ != nullptr && fanned) {
    profile_->fanout_us->Record(obs::TraceRecorder::NowMicros() - t0);
  }
  TearDownOverflowed(overflowed);
}

void ServerCore::TearDownOverflowed(
    const std::vector<uint64_t>& session_ids) {
  // Tearing down mutates the subscription and handle maps the fan-out loop
  // iterates, so it runs strictly after it. The torn-down session keeps its
  // buffered lines plus the error push until the transport (or test)
  // observes the failure and calls CloseSession; WaitOutbound flushes the
  // tail once, then reports end-of-session.
  for (uint64_t session_id : session_ids) {
    auto it = sessions_.find(session_id);
    if (it == sessions_.end()) continue;
    Session* session = it->second.get();
    for (auto sub = subs_.begin(); sub != subs_.end();) {
      if (sub->second.session == session_id) {
        sub = EraseSub(sub);
      } else {
        ++sub;
      }
    }
    std::vector<std::pair<uint64_t, int>> handles(session->handles.begin(),
                                                  session->handles.end());
    for (const auto& [plan_id, count] : handles) {
      for (int i = 0; i < count; ++i) {
        (void)ReleaseHandle(session, plan_id);
      }
    }
    session->cv.notify_all();
  }
  if (!session_ids.empty()) UpdateGauges();
}

std::map<uint64_t, ServerCore::Subscription>::iterator ServerCore::EraseSub(
    std::map<uint64_t, Subscription>::iterator it) {
  auto ps = plan_subs_.find(it->second.plan);
  if (ps != plan_subs_.end()) {
    ps->second.erase(it->first);
    if (ps->second.empty()) plan_subs_.erase(ps);
  }
  return subs_.erase(it);
}

void ServerCore::UpdateGauges() {
  if (metrics_ != nullptr) {
    metrics_->sessions->Set(static_cast<int64_t>(sessions_.size()));
    metrics_->standing_queries->Set(static_cast<int64_t>(plans_.size()));
    metrics_->subscriptions->Set(static_cast<int64_t>(subs_.size()));
  }
  for (auto& [id, entry] : plans_) {
    if (entry.metrics != nullptr) {
      auto it = plan_subs_.find(id);
      entry.metrics->subscribers->Set(
          it == plan_subs_.end() ? 0
                                 : static_cast<int64_t>(it->second.size()));
    }
  }
}

size_t ServerCore::num_sessions() {
  std::lock_guard<std::mutex> lock(mu_);
  return sessions_.size();
}

size_t ServerCore::num_plans() {
  std::lock_guard<std::mutex> lock(mu_);
  return plans_.size();
}

size_t ServerCore::num_subscriptions() {
  std::lock_guard<std::mutex> lock(mu_);
  return subs_.size();
}

}  // namespace server
}  // namespace onesql
