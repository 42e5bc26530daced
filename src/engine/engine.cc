#include "engine/engine.h"

#include <algorithm>
#include <chrono>
#include <unordered_map>

#include "exec/expr_eval.h"
#include "plan/binder.h"
#include "plan/optimizer.h"
#include "sql/parser.h"
#include "state/checkpoint.h"
#include "state/frame.h"
#include "tvr/tvr.h"

namespace onesql {

// ---------------------------------------------------------------------------
// ContinuousQuery
// ---------------------------------------------------------------------------

Schema ContinuousQuery::StreamSchema() const {
  Schema schema = output_schema();
  schema.AddField(Field{"undo", DataType::kVarchar, false});
  schema.AddField(Field{"ptime", DataType::kTimestamp, false});
  schema.AddField(Field{"ver", DataType::kBigint, false});
  return schema;
}

std::vector<Row> ContinuousQuery::StreamRows() const {
  std::vector<Row> rows;
  rows.reserve(Emissions().size());
  for (const exec::Emission& e : Emissions()) {
    Row row = e.row;
    row.push_back(e.undo ? Value::String("undo") : Value::String(""));
    row.push_back(Value::Time(e.ptime));
    row.push_back(Value::Int64(e.ver));
    rows.push_back(std::move(row));
  }
  return rows;
}

Result<std::vector<Change>> ContinuousQuery::UpsertStream() const {
  const auto& keys = flow_->plan().version_key_columns;
  if (keys.empty()) {
    return Status::InvalidArgument(
        "the upsert rendering requires a grouping key (aggregate or "
        "windowed query)");
  }
  Changelog retractions;
  retractions.reserve(Emissions().size());
  for (const exec::Emission& e : Emissions()) {
    retractions.push_back(Change{
        e.undo ? ChangeKind::kDelete : ChangeKind::kInsert, e.row, e.ptime});
  }
  return tvr::EncodeUpsertStream(retractions, keys);
}

Result<std::vector<Row>> ContinuousQuery::Present(
    std::vector<Row> rows) const {
  const plan::QueryPlan& qp = flow_->plan();
  if (!qp.order_by.empty()) {
    // Precompute sort keys.
    std::vector<std::pair<Row, Row>> keyed;  // (sort key, row)
    keyed.reserve(rows.size());
    for (Row& row : rows) {
      Row key;
      key.reserve(qp.order_by.size());
      for (const auto& [expr, desc] : qp.order_by) {
        (void)desc;
        ONESQL_ASSIGN_OR_RETURN(Value v, exec::EvalExpr(*expr, row));
        key.push_back(std::move(v));
      }
      keyed.emplace_back(std::move(key), std::move(row));
    }
    std::stable_sort(keyed.begin(), keyed.end(),
                     [&](const auto& a, const auto& b) {
                       for (size_t i = 0; i < qp.order_by.size(); ++i) {
                         const int c = a.first[i].Compare(b.first[i]);
                         if (c == 0) continue;
                         return qp.order_by[i].second ? c > 0 : c < 0;
                       }
                       return false;
                     });
    rows.clear();
    for (auto& [key, row] : keyed) {
      (void)key;
      rows.push_back(std::move(row));
    }
  }
  if (qp.limit.has_value() &&
      rows.size() > static_cast<size_t>(*qp.limit)) {
    rows.resize(static_cast<size_t>(*qp.limit));
  }
  return rows;
}

Result<std::vector<Row>> ContinuousQuery::SnapshotAt(Timestamp ptime) {
  ONESQL_RETURN_NOT_OK(flow_->AdvanceTo(ptime));
  return Present(flow_->sink().SnapshotAt(ptime));
}

Result<std::vector<Row>> ContinuousQuery::CurrentSnapshot() {
  ONESQL_RETURN_NOT_OK(flow_->AdvanceTo(last_ptime_));
  return Present(flow_->sink().CurrentSnapshot());
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

namespace {

/// Wall-clock source for durability latencies (checkpoint save/restore).
/// Event-time metrics never use this — they run on the logical feed clock.
uint64_t MonotonicMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// -- Durable encodings -------------------------------------------------------

constexpr const char kCheckpointFile[] = "/checkpoint.osql";
constexpr const char kWalFile[] = "/feed.wal";

/// Sorted (deterministic) view of an unordered name-keyed map.
template <typename Map>
std::vector<typename Map::const_iterator> SortedByName(const Map& map) {
  std::vector<typename Map::const_iterator> its;
  its.reserve(map.size());
  for (auto it = map.begin(); it != map.end(); ++it) its.push_back(it);
  std::sort(its.begin(), its.end(),
            [](const auto& a, const auto& b) { return a->first < b->first; });
  return its;
}

/// Pointers to `chunks[begin, end)`, the shape Dataflow::PushChunks takes.
std::vector<const exec::InputChunk*> ChunkRefs(
    const std::vector<exec::InputChunk>& chunks, size_t begin, size_t end) {
  std::vector<const exec::InputChunk*> refs;
  refs.reserve(end - begin);
  for (size_t i = begin; i < end; ++i) refs.push_back(&chunks[i]);
  return refs;
}

/// The feed event at `row` of `chunk` (see exec::ForEachEventInSeqOrder).
FeedEvent EventAt(const exec::InputChunk& chunk, size_t row) {
  FeedEvent event;
  event.source = chunk.source;
  switch (chunk.kind) {
    case exec::InputChunk::Kind::kRows:
      event.kind = chunk.batch.weights[row] < 0 ? FeedEvent::Kind::kDelete
                                                : FeedEvent::Kind::kInsert;
      event.ptime = chunk.batch.ptimes[row];
      event.row = chunk.batch.RowAt(row);
      break;
    case exec::InputChunk::Kind::kWatermark:
      event.kind = FeedEvent::Kind::kWatermark;
      event.ptime = chunk.ptime;
      event.watermark = chunk.watermark;
      break;
  }
  return event;
}

/// The sequence number of the event at `row` of `chunk`.
uint64_t SeqAt(const exec::InputChunk& chunk, size_t row) {
  return chunk.kind == exec::InputChunk::Kind::kRows ? chunk.batch.seqs[row]
                                                     : chunk.seq;
}

/// Appends `event` to `builder` at its own sequence number `seq`.
void AddEventAt(exec::ChunkBuilder* builder, uint64_t seq,
                const FeedEvent& event) {
  switch (event.kind) {
    case FeedEvent::Kind::kInsert:
      builder->AddElementAt(seq, event.source, nullptr, event.row, +1,
                            event.ptime);
      break;
    case FeedEvent::Kind::kDelete:
      builder->AddElementAt(seq, event.source, nullptr, event.row, -1,
                            event.ptime);
      break;
    case FeedEvent::Kind::kWatermark:
      builder->AddWatermarkAt(seq, event.source, event.watermark, event.ptime);
      break;
  }
}

}  // namespace

Status Engine::RegisterStream(const std::string& name, Schema schema) {
  return catalog_.Register(
      plan::TableDef{name, std::move(schema), /*unbounded=*/true});
}

Status Engine::RegisterTable(const std::string& name, Schema schema,
                             std::vector<Row> rows) {
  const size_t width = schema.num_fields();
  for (const Row& row : rows) {
    if (row.size() != width) {
      return Status::InvalidArgument("table row arity mismatch for '" + name +
                                     "'");
    }
  }
  ONESQL_RETURN_NOT_OK(catalog_.Register(
      plan::TableDef{name, std::move(schema), /*unbounded=*/false}));
  table_rows_[ToLower(name)] = std::move(rows);
  return Status::OK();
}

Result<plan::QueryPlan> Engine::Plan(const std::string& sql) const {
  ONESQL_ASSIGN_OR_RETURN(std::unique_ptr<sql::SelectStmt> stmt,
                          sql::Parser::Parse(sql));
  plan::Binder binder(&catalog_);
  ONESQL_ASSIGN_OR_RETURN(plan::QueryPlan plan, binder.Bind(*stmt));
  ONESQL_RETURN_NOT_OK(plan::Optimizer::Optimize(&plan));
  return plan;
}

Result<ContinuousQuery*> Engine::Execute(const std::string& sql) {
  return Execute(sql, ExecutionOptions{});
}

Result<ContinuousQuery*> Engine::Execute(const std::string& sql,
                                         const ExecutionOptions& options) {
  ONESQL_ASSIGN_OR_RETURN(plan::QueryPlan plan, Plan(sql));
  if (options.allowed_lateness.millis() < 0) {
    return Status::InvalidArgument("allowed lateness must be non-negative");
  }
  // The shard count has no effect, but is still range-checked.
  if (options.shards < 1 || options.shards > exec::kMaxShards) {
    return Status::InvalidArgument("shard count must be between 1 and " +
                                   std::to_string(exec::kMaxShards) +
                                   ", got " + std::to_string(options.shards));
  }
  plan.allowed_lateness = options.allowed_lateness;
  // Building first costs little and yields the fingerprint from the same
  // subtree texts the chain was compiled by.
  ONESQL_ASSIGN_OR_RETURN(std::unique_ptr<exec::Dataflow> flow,
                          exec::Dataflow::Build(std::move(plan)));
  if (options.share && FindQuery(flow->fingerprint()) != nullptr) {
    // The caller opted into sharing: an identical standing query is already
    // running, so starting a second operator tree would be pure waste.
    // Attach to the running one via FindQuery + RefQuery instead.
    return Status::AlreadyExists(
        "an identical standing query is already running (fingerprint " +
        flow->fingerprint().ToHex() + ")");
  }

  auto query = std::unique_ptr<ContinuousQuery>(
      new ContinuousQuery(std::move(flow)));
  query->obs_label_ = next_query_label_++;
  // Attach instruments before the history replay, so the query's metrics
  // reflect everything its operators ever processed.
  if (obs_ != nullptr) AttachQueryObs(query.get());

  // Replay into the new query: static tables first — contents at the
  // beginning of time, then a +inf watermark, since a bounded relation is a
  // TVR that never changes again — followed by the retained history chunks
  // as they are, so the result reflects all data so far. Tables iterate in
  // sorted order: replay bytes must not depend on hash-map iteration order,
  // or two engines with identical registrations could interleave multi-table
  // replays differently (observable through join emission order).
  std::vector<exec::InputChunk> tables;
  exec::ChunkBuilder builder(&tables, 0);
  for (const auto& it : SortedByName(table_rows_)) {
    const std::string& name = it->first;
    if (!query->flow_->ReadsSource(name)) continue;
    for (const Row& row : it->second) {
      builder.AddElement(name, row, +1, Timestamp::Min());
    }
    builder.AddWatermark(name, Timestamp::Max(), Timestamp::Min());
  }
  builder.CloseAll();
  ONESQL_RETURN_NOT_OK(
      query->flow_->PushChunks(ChunkRefs(tables, 0, tables.size())));
  ONESQL_RETURN_NOT_OK(query->flow_->PushChunks(HistoryChunks()));
  query->last_ptime_ = last_ptime_;
  query->sql_ = sql;

  ContinuousQuery* out = query.get();
  queries_.push_back(std::move(query));
  return out;
}

ContinuousQuery* Engine::FindQuery(const plan::PlanFingerprint& fingerprint) {
  for (auto& query : queries_) {
    if (query->plan_fingerprint() == fingerprint) return query.get();
  }
  return nullptr;
}

Status Engine::RefQuery(ContinuousQuery* query) {
  for (auto& q : queries_) {
    if (q.get() == query) {
      ++query->refs_;
      return Status::OK();
    }
  }
  return Status::NotFound("query is not running on this engine");
}

Status Engine::DropQuery(ContinuousQuery* query) {
  for (auto it = queries_.begin(); it != queries_.end(); ++it) {
    if (it->get() == query) {
      if (--query->refs_ > 0) return Status::OK();
      // Zero the sampled gauges before destruction, or the exposition would
      // keep reporting the dead tree's last state bytes and queue depths
      // forever (counters stay — totals are cumulative by design).
      if (obs_ != nullptr && obs_->registry() != nullptr) {
        query->flow_->ZeroObsGauges();
      }
      queries_.erase(it);
      return Status::OK();
    }
  }
  return Status::NotFound("query is not running on this engine");
}

Result<std::unique_ptr<Engine>> Engine::CloneRegistrations() const {
  auto clone = std::make_unique<Engine>();
  // catalog_.tables() is a std::map, so registration order is already
  // canonical (sorted by lower-cased name) regardless of the order the
  // original registrations happened in.
  for (const auto& [key, def] : catalog_.tables()) {
    if (def.unbounded) {
      ONESQL_RETURN_NOT_OK(clone->RegisterStream(def.name, def.schema));
    } else {
      auto rows = table_rows_.find(key);
      ONESQL_RETURN_NOT_OK(clone->RegisterTable(
          def.name, def.schema,
          rows != table_rows_.end() ? rows->second : std::vector<Row>{}));
    }
  }
  return clone;
}

Status Engine::AppendWal(const FeedEvent& event) {
  if (replaying_wal_ || wal_ == nullptr) return Status::OK();
  return wal_->Append(state::WalRecord{feed_seq_, event});
}

Status Engine::Insert(const std::string& stream, Timestamp ptime, Row row) {
  FeedEvent event;
  event.kind = FeedEvent::Kind::kInsert;
  event.source = stream;
  event.ptime = ptime;
  event.row = std::move(row);
  std::vector<FeedEvent> events;
  events.push_back(std::move(event));
  return Feed(events);
}

Status Engine::Delete(const std::string& stream, Timestamp ptime, Row row) {
  FeedEvent event;
  event.kind = FeedEvent::Kind::kDelete;
  event.source = stream;
  event.ptime = ptime;
  event.row = std::move(row);
  std::vector<FeedEvent> events;
  events.push_back(std::move(event));
  return Feed(events);
}

Status Engine::AdvanceWatermark(const std::string& stream, Timestamp ptime,
                                Timestamp watermark) {
  FeedEvent event;
  event.kind = FeedEvent::Kind::kWatermark;
  event.source = stream;
  event.ptime = ptime;
  event.watermark = watermark;
  std::vector<FeedEvent> events;
  events.push_back(std::move(event));
  return Feed(events);
}

Status Engine::Feed(const std::vector<FeedEvent>& events) {
  obs::Span span(obs_ != nullptr ? obs_->trace() : nullptr, "feed", "engine");
  span.set_aux(events.size());
  // Feed calls serialize on feed_mu_. When durable the lock is dropped for
  // the durability wait (below), so N feeder threads interleave
  // validate/enqueue and share fsyncs; otherwise the lock is held end to end
  // and concurrent Feed degenerates to strict turn-taking.
  FeedSync& sync = *feed_sync_;
  std::unique_lock<std::mutex> lock(sync.mu);
  if (sync.feeds_in_flight == 0) sync.dispatch_next_seq = feed_seq_;
  ++sync.feeds_in_flight;
  const uint64_t base_seq = feed_seq_;
  // One fused pass: validate, WAL-append, and record each event straight
  // into the chunked history (validation is order-sensitive — watermark
  // monotonicity and ptime ordering — so it stays event by event). The new
  // chunks are then dispatched to every query wholesale: rows were
  // columnarized exactly once, on the way into the history.
  const size_t first_chunk = history_.size();
  exec::ChunkBuilder builder(&history_, feed_seq_);
  // Per-call validation cache, keyed by the source's exact spelling: the
  // catalog lookup (lower-casing + map walk) happens once per source.
  std::unordered_map<std::string, SourceFeedState> sources;
  auto source_state = [&](const std::string& name) -> Result<SourceFeedState*> {
    auto it = sources.find(name);
    if (it != sources.end()) return &it->second;
    ONESQL_ASSIGN_OR_RETURN(const plan::TableDef* def, catalog_.Lookup(name));
    SourceFeedState state;
    state.def = def;
    state.decl.reserve(def->schema.num_fields());
    for (size_t i = 0; i < def->schema.num_fields(); ++i) {
      state.decl.push_back(def->schema.field(i).type);
    }
    return &sources.emplace(name, std::move(state)).first->second;
  };

  Status deferred = Status::OK();
  size_t accepted = 0;
  Timestamp batch_ptime = last_ptime_;
  // Backpressure attribution (profiling only): total time this Feed call
  // spent blocked on the feed log — every append plus the sync barrier —
  // recorded as one sample so the histogram is per-feed-call stall time.
  const bool durable_feed = wal_ != nullptr && !replaying_wal_;
  const bool profile_wal = engine_profile_ != nullptr && durable_feed;
  uint64_t wal_stall_us = 0;
  for (const FeedEvent& event : events) {
    Status status = Status::OK();
    SourceFeedState* state = nullptr;
    {
      auto state_or = source_state(event.source);
      if (state_or.ok()) {
        state = state_or.value();
      } else {
        status = state_or.status();
      }
    }
    if (status.ok()) {
      switch (event.kind) {
        case FeedEvent::Kind::kInsert:
        case FeedEvent::Kind::kDelete: {
          const plan::TableDef* def = state->def;
          if (!def->unbounded) {
            status = Status::InvalidArgument(
                "cannot feed events into static table '" + event.source + "'");
            break;
          }
          if (event.row.size() != def->schema.num_fields()) {
            status = Status::InvalidArgument("row arity mismatch for stream '" +
                                             event.source + "'");
            break;
          }
          for (size_t i = 0; i < event.row.size(); ++i) {
            if (!IsImplicitlyCoercible(event.row[i].type(),
                                       def->schema.field(i).type)) {
              status = Status::InvalidArgument(
                  "type mismatch for column '" + def->schema.field(i).name +
                  "' of '" + event.source + "': expected " +
                  DataTypeToString(def->schema.field(i).type) + ", got " +
                  DataTypeToString(event.row[i].type()));
              break;
            }
          }
          break;
        }
        case FeedEvent::Kind::kWatermark: {
          if (!state->def->unbounded) {
            status = Status::InvalidArgument("static table '" + event.source +
                                             "' has no watermark to advance");
            break;
          }
          if (state->watermark == nullptr) {
            state->watermark = &stream_watermarks_[ToLower(event.source)];
          }
          if (event.watermark < *state->watermark) {
            status = Status::InvalidArgument("watermark for '" + event.source +
                                             "' must be monotonic");
            break;
          }
          *state->watermark = event.watermark;
          break;
        }
      }
    }
    if (status.ok() && event.ptime < last_ptime_) {
      status = Status::InvalidArgument(
          "feed events must arrive in processing-time order (got " +
          event.ptime.ToString() + " after " + last_ptime_.ToString() + ")");
    }
    // Log before mutating engine state: an event the WAL never saw must not
    // become part of the replayable history.
    if (status.ok()) {
      if (profile_wal) {
        const uint64_t t0 = obs::TraceRecorder::NowMicros();
        status = AppendWal(event);
        wal_stall_us += obs::TraceRecorder::NowMicros() - t0;
      } else {
        status = AppendWal(event);
      }
    }
    if (!status.ok()) {
      deferred = std::move(status);
      break;
    }
    ++feed_seq_;
    last_ptime_ = event.ptime;
    batch_ptime = event.ptime;
    switch (event.kind) {
      case FeedEvent::Kind::kInsert:
        builder.AddElementTyped(event.source, &state->decl, event.row, +1,
                                event.ptime);
        break;
      case FeedEvent::Kind::kDelete:
        builder.AddElementTyped(event.source, &state->decl, event.row, -1,
                                event.ptime);
        break;
      case FeedEvent::Kind::kWatermark:
        builder.AddWatermark(event.source, event.watermark, event.ptime);
        break;
    }
    ++accepted;
    // Feed metrics run on the logical feed clock (event ptimes), so they are
    // exact and deterministic. WAL-suffix replay during
    // Restore() goes through here too: a restored engine counts the replayed
    // suffix as processing (which it is) and nothing before the checkpoint.
    if (engine_metrics_ != nullptr) {
      const obs::SourceMetrics* src = SourceObs(event.source);
      switch (event.kind) {
        case FeedEvent::Kind::kInsert:
          engine_metrics_->feed_inserts->Increment();
          src->rows->Increment();
          break;
        case FeedEvent::Kind::kDelete:
          engine_metrics_->feed_deletes->Increment();
          src->rows->Increment();
          break;
        case FeedEvent::Kind::kWatermark: {
          engine_metrics_->feed_watermarks->Increment();
          src->watermarks->Increment();
          // Watermark lag: how far the source's watermark trails the
          // processing time at which it was advanced.
          int64_t lag_ms = (event.ptime - event.watermark).millis();
          if (lag_ms < 0) lag_ms = 0;
          src->watermark_lag_ms->Record(static_cast<uint64_t>(lag_ms));
          src->watermark_lag_current_ms->Set(lag_ms);
          break;
        }
      }
    }
  }
  builder.CloseAll();
  history_events_ += accepted;
  if (accepted == 0) {
    --sync.feeds_in_flight;
    return deferred;
  }
  const size_t chunk_end = history_.size();
  const uint64_t end_seq = base_seq + accepted;
  // One durability barrier for the whole batch: every recorded event is on
  // disk before any query observes any of them.
  Status durable_status;
  const uint64_t sync_t0 = profile_wal ? obs::TraceRecorder::NowMicros() : 0;
  if (durable_feed) {
    // Drop the engine lock for the wait: feeders arriving while this group's
    // fsync is in flight validate and enqueue into the *next* group, which
    // is exactly how group commit amortizes the sync cost.
    lock.unlock();
    durable_status = wal_->WaitDurable(end_seq);
    lock.lock();
    // Dispatch turnstile: a shared group fsync wakes every member at once,
    // but queries must observe feeds in seq order — park until every earlier
    // feed has dispatched.
    sync.dispatch_cv.wait(lock,
                          [&] { return sync.dispatch_next_seq == base_seq; });
  }
  if (profile_wal) {
    wal_stall_us += obs::TraceRecorder::NowMicros() - sync_t0;
    engine_profile_->feed_wal_stall_us->Record(wal_stall_us);
  }
  Status dispatch_status = durable_status;
  if (dispatch_status.ok()) {
    // Chunk pointers are resolved only now, under the lock: while a group
    // wait was in flight other feeders may have grown (and reallocated)
    // history_. The [first_chunk, chunk_end) index range stays valid; raw
    // pointers taken before the wait would not.
    const std::vector<const exec::InputChunk*> chunks =
        ChunkRefs(history_, first_chunk, chunk_end);
    const uint64_t dispatch_t0 =
        engine_profile_ != nullptr ? obs::TraceRecorder::NowMicros() : 0;
    for (auto& query : queries_) {
      query->last_ptime_ = batch_ptime;
      dispatch_status = query->flow_->PushChunks(chunks);
      if (!dispatch_status.ok()) break;
    }
    if (engine_profile_ != nullptr) {
      engine_profile_->feed_dispatch_us->Record(
          obs::TraceRecorder::NowMicros() - dispatch_t0);
    }
  }
  // Open the turnstile on every path, including failures: a feeder waiting
  // behind this one must not deadlock because this one errored out.
  sync.dispatch_next_seq = end_seq;
  sync.dispatch_cv.notify_all();
  --sync.feeds_in_flight;
  ONESQL_RETURN_NOT_OK(dispatch_status);
  // Compaction rebuilds history_, so it must not run while another feeder
  // still holds chunk indices into it.
  if (sync.feeds_in_flight == 0) MaybeCompactHistory();
  return deferred;
}

std::vector<const exec::InputChunk*> Engine::HistoryChunks() const {
  return ChunkRefs(history_, 0, history_.size());
}

void Engine::MaybeCompactHistory() {
  if (history_events_ < compact_at_) return;
  CompactHistory();
  // Doubling schedule keeps the amortized compaction cost linear in the
  // feed while guaranteeing the history stops growing once watermarks
  // advance: the next attempt happens only after the retained tail doubles.
  compact_at_ = std::max<size_t>(4096, history_events_ * 2);
}

void Engine::CompactHistory() {
  if (queries_.empty()) return;  // late-executed queries need the full feed
  // The compaction floor: every running query has seen its watermark pass
  // `floor + allowed_lateness`, so groupings at or below the floor are
  // frozen for all of them. Events at or below the floor can only matter to
  // a query executed later, and for watermark-gated results a replay of the
  // compacted feed produces the same post-floor emissions (pre-floor inputs
  // would be late once the retained watermark is replayed).
  Timestamp floor = Timestamp::Max();
  for (const auto& query : queries_) {
    const Timestamp f = query->flow_->sink().watermark() -
                        query->flow_->plan().allowed_lateness;
    if (f < floor) floor = f;
  }
  if (floor == Timestamp::Min()) return;  // a query has seen no watermark yet

  // Keep the last dominated watermark event per source so a replay still
  // re-establishes the watermark position the running queries reached.
  // Retractions kept past the floor may target inserts dropped below it;
  // collect their rows so the second pass can drop such orphans too, or a
  // replay would retract rows it never inserted.
  const std::vector<const exec::InputChunk*> chunks = HistoryChunks();
  auto ptime_at = [](const exec::InputChunk& chunk, size_t row) {
    return chunk.kind == exec::InputChunk::Kind::kRows ? chunk.batch.ptimes[row]
                                                       : chunk.ptime;
  };
  std::unordered_map<std::string, uint64_t> last_dominated;  // source -> seq
  // source -> row -> dropped inserts not yet matched by a retraction.
  std::unordered_map<std::string,
                     std::unordered_map<Row, int64_t, RowHash, RowEq>>
      dropped_inserts;
  (void)exec::ForEachEventInSeqOrder(
      chunks, [&](size_t i, size_t row) {
        const exec::InputChunk& chunk = *chunks[i];
        if (chunk.kind == exec::InputChunk::Kind::kWatermark) {
          if (chunk.watermark <= floor) {
            last_dominated[chunk.source_lower] = chunk.seq;
          }
        } else if (ptime_at(chunk, row) > floor) {
          const FeedEvent event = EventAt(chunk, row);
          if (event.kind == FeedEvent::Kind::kDelete) {
            dropped_inserts[chunk.source_lower][event.row] = 0;
          }
        }
        return Status::OK();
      });

  // Rebuild the chunk list from the kept events, preserving their original
  // sequence numbers so cross-source merge order is unchanged.
  std::vector<exec::InputChunk> kept;
  exec::ChunkBuilder builder(&kept, 0);
  size_t kept_events = 0;
  (void)exec::ForEachEventInSeqOrder(
      chunks, [&](size_t i, size_t row) {
        const exec::InputChunk& chunk = *chunks[i];
        const uint64_t seq = SeqAt(chunk, row);
        if (chunk.kind == exec::InputChunk::Kind::kWatermark) {
          auto it = last_dominated.find(chunk.source_lower);
          if (chunk.watermark > floor ||
              (it != last_dominated.end() && it->second == seq)) {
            AddEventAt(&builder, seq, EventAt(chunk, row));
            ++kept_events;
          }
          return Status::OK();
        }
        const bool below = ptime_at(chunk, row) <= floor;
        auto source = dropped_inserts.find(chunk.source_lower);
        if (below && source == dropped_inserts.end()) return Status::OK();
        const FeedEvent event = EventAt(chunk, row);
        int64_t* dropped = nullptr;
        if (source != dropped_inserts.end()) {
          auto it = source->second.find(event.row);
          if (it != source->second.end()) dropped = &it->second;
        }
        const bool retraction = event.kind == FeedEvent::Kind::kDelete;
        if (below) {
          if (dropped != nullptr) {
            if (!retraction) ++*dropped;
            if (retraction && *dropped > 0) --*dropped;
          }
          return Status::OK();
        }
        if (retraction && dropped != nullptr && *dropped > 0) {
          --*dropped;  // an orphan: its insert was dropped
          return Status::OK();
        }
        AddEventAt(&builder, seq, event);
        ++kept_events;
        return Status::OK();
      });
  builder.CloseAll();
  history_ = std::move(kept);
  history_events_ = kept_events;
}

// ---------------------------------------------------------------------------
// Durability: EnableDurability / Checkpoint / Restore
// ---------------------------------------------------------------------------

Status Engine::EnableDurability(const std::string& dir) {
  if (durable()) {
    return Status::InvalidArgument("durability is already enabled (log at '" +
                                   wal_->path() + "')");
  }
  ONESQL_RETURN_NOT_OK(state::EnsureDirectory(dir));
  ONESQL_ASSIGN_OR_RETURN(std::unique_ptr<state::GroupCommitLog> log,
                          state::GroupCommitLog::Open(dir + kWalFile));
  if (log->next_seq() != feed_seq_) {
    const Status mismatch = Status::InvalidArgument(
        "feed log at '" + log->path() + "' holds " +
        std::to_string(log->next_seq()) + " events but the engine has fed " +
        std::to_string(feed_seq_) +
        " — Restore() from this directory first (or start a fresh one)");
    (void)log->Close();
    return mismatch;
  }
  wal_ = std::move(log);
  if (obs_ != nullptr && obs_->registry() != nullptr) {
    wal_->AttachMetrics(obs_->ForWal());
  }
  return Status::OK();
}

void Engine::SaveEngineSection(state::Writer* w, uint64_t* num_queries) const {
  w->PutTimestamp(last_ptime_);
  w->PutVarint(feed_seq_);
  w->PutVarint(compact_at_);
  w->PutBool(durable());

  // Catalog (std::map — already deterministic order).
  w->PutVarint(catalog_.tables().size());
  for (const auto& [key, def] : catalog_.tables()) {
    (void)key;
    w->PutString(def.name);
    w->PutSchema(def.schema);
    w->PutBool(def.unbounded);
  }

  // Static table contents, sorted by name for canonical bytes.
  w->PutVarint(table_rows_.size());
  for (const auto& it : SortedByName(table_rows_)) {
    w->PutString(it->first);
    w->PutVarint(it->second.size());
    for (const Row& row : it->second) w->PutRow(row);
  }

  // Per-stream watermark positions (feed validation state).
  w->PutVarint(stream_watermarks_.size());
  for (const auto& it : SortedByName(stream_watermarks_)) {
    w->PutString(it->first);
    w->PutTimestamp(it->second);
  }

  // Retained (possibly compacted) history, replayed into queries executed
  // after the restore. Serialized as the scalar event stream, in global
  // sequence order, with the feed-event codec the WAL records share.
  w->PutVarint(history_events_);
  const std::vector<const exec::InputChunk*> chunks = HistoryChunks();
  (void)exec::ForEachEventInSeqOrder(chunks, [&](size_t i, size_t row) {
    w->PutFeedEvent(EventAt(*chunks[i], row));
    return Status::OK();
  });

  *num_queries = queries_.size();
  w->PutVarint(queries_.size());
}

Status Engine::Checkpoint(const std::string& dir) {
  obs::Span span(obs_ != nullptr ? obs_->trace() : nullptr, "checkpoint",
                 "engine");
  const uint64_t start_us = engine_metrics_ != nullptr ? MonotonicMicros() : 0;
  // Never let a checkpoint run ahead of the feed log: everything the
  // checkpoint captures must be re-derivable from log replay too.
  if (wal_ != nullptr) ONESQL_RETURN_NOT_OK(wal_->Sync());
  ONESQL_RETURN_NOT_OK(state::EnsureDirectory(dir));

  state::CheckpointWriter ckpt;
  {
    state::Writer w;
    uint64_t num_queries = 0;
    SaveEngineSection(&w, &num_queries);
    (void)num_queries;
    ckpt.AddSection(std::move(w).TakeBuffer());
  }
  for (const auto& query : queries_) {
    state::Writer w;
    w.PutString(query->sql_);
    w.PutInterval(query->plan().allowed_lateness);
    // The shard count the older N-chain runtime recorded; always 1 now.
    w.PutVarint(1);
    state::Writer runtime;
    ONESQL_RETURN_NOT_OK(query->flow_->SaveState(&runtime));
    w.PutBlob(runtime);
    ckpt.AddSection(std::move(w).TakeBuffer());
  }
  const size_t payload_bytes = ckpt.payload_bytes();
  ONESQL_RETURN_NOT_OK(ckpt.WriteTo(dir + kCheckpointFile));
  if (engine_metrics_ != nullptr) {
    engine_metrics_->checkpoint_saves->Increment();
    engine_metrics_->checkpoint_save_ms->Record(
        (MonotonicMicros() - start_us) / 1000);
    engine_metrics_->checkpoint_bytes->Set(
        static_cast<int64_t>(payload_bytes));
  }
  span.set_aux(payload_bytes);
  return Status::OK();
}

Status Engine::LoadEngineSection(state::Reader* r, uint64_t* num_queries,
                                 bool* was_durable) {
  ONESQL_ASSIGN_OR_RETURN(last_ptime_, r->ReadTimestamp());
  ONESQL_ASSIGN_OR_RETURN(feed_seq_, r->ReadVarint());
  ONESQL_ASSIGN_OR_RETURN(uint64_t compact_at, r->ReadVarint());
  compact_at_ = static_cast<size_t>(compact_at);
  ONESQL_ASSIGN_OR_RETURN(*was_durable, r->ReadBool());

  ONESQL_ASSIGN_OR_RETURN(uint64_t ntables, r->ReadVarint());
  if (ntables > r->remaining()) {
    return Status::DataLoss("impossible catalog size in checkpoint");
  }
  for (uint64_t i = 0; i < ntables; ++i) {
    plan::TableDef def;
    ONESQL_ASSIGN_OR_RETURN(def.name, r->ReadString());
    ONESQL_ASSIGN_OR_RETURN(def.schema, r->ReadSchema());
    ONESQL_ASSIGN_OR_RETURN(def.unbounded, r->ReadBool());
    ONESQL_RETURN_NOT_OK(catalog_.Register(std::move(def)));
  }

  ONESQL_ASSIGN_OR_RETURN(uint64_t ntable_rows, r->ReadVarint());
  if (ntable_rows > r->remaining()) {
    return Status::DataLoss("impossible table count in checkpoint");
  }
  for (uint64_t i = 0; i < ntable_rows; ++i) {
    ONESQL_ASSIGN_OR_RETURN(std::string name, r->ReadString());
    ONESQL_ASSIGN_OR_RETURN(uint64_t nrows, r->ReadVarint());
    if (nrows > r->remaining()) {
      return Status::DataLoss("impossible row count in checkpoint");
    }
    std::vector<Row>& rows = table_rows_[name];
    rows.reserve(nrows);
    for (uint64_t j = 0; j < nrows; ++j) {
      ONESQL_ASSIGN_OR_RETURN(Row row, r->ReadRow());
      rows.push_back(std::move(row));
    }
  }

  ONESQL_ASSIGN_OR_RETURN(uint64_t nmarks, r->ReadVarint());
  if (nmarks > r->remaining()) {
    return Status::DataLoss("impossible watermark count in checkpoint");
  }
  for (uint64_t i = 0; i < nmarks; ++i) {
    ONESQL_ASSIGN_OR_RETURN(std::string name, r->ReadString());
    ONESQL_ASSIGN_OR_RETURN(stream_watermarks_[name], r->ReadTimestamp());
  }

  ONESQL_ASSIGN_OR_RETURN(uint64_t nhistory, r->ReadVarint());
  if (nhistory > r->remaining()) {
    return Status::DataLoss("impossible history size in checkpoint");
  }
  // Re-chunk the decoded event stream. Synthetic sequence numbers 0..H-1
  // preserve the serialized order; they stay below feed_seq_ (compaction
  // only shrinks the history), so post-restore feeds keep seqs ascending.
  exec::ChunkBuilder builder(&history_, 0);
  for (uint64_t i = 0; i < nhistory; ++i) {
    ONESQL_ASSIGN_OR_RETURN(FeedEvent event, r->ReadFeedEvent());
    AddEventAt(&builder, i, event);
  }
  builder.CloseAll();
  history_events_ = nhistory;

  ONESQL_ASSIGN_OR_RETURN(*num_queries, r->ReadVarint());
  return r->ExpectEnd();
}

Status Engine::RestoreQuerySection(state::Reader* r) {
  ONESQL_ASSIGN_OR_RETURN(std::string sql, r->ReadString());
  ONESQL_ASSIGN_OR_RETURN(Interval lateness, r->ReadInterval());
  // A checkpoint of the older N-chain runtime records N here; its N chain
  // sections all load into the one chain.
  ONESQL_ASSIGN_OR_RETURN(uint64_t shards, r->ReadVarint());
  if (shards == 0 || shards > static_cast<uint64_t>(exec::kMaxShards)) {
    return Status::DataLoss("impossible shard count " +
                            std::to_string(shards) + " in checkpoint");
  }

  // Rebuild the runtime exactly as Execute() did, but load its operator
  // state from the checkpoint instead of replaying history.
  ONESQL_ASSIGN_OR_RETURN(plan::QueryPlan plan, Plan(sql));
  plan.allowed_lateness = lateness;
  ONESQL_ASSIGN_OR_RETURN(std::unique_ptr<exec::Dataflow> flow,
                          exec::Dataflow::Build(std::move(plan)));

  ONESQL_ASSIGN_OR_RETURN(state::Reader runtime, r->ReadBlob());
  ONESQL_RETURN_NOT_OK(flow->LoadState(&runtime));
  ONESQL_RETURN_NOT_OK(r->ExpectEnd());

  auto query =
      std::unique_ptr<ContinuousQuery>(new ContinuousQuery(std::move(flow)));
  query->last_ptime_ = last_ptime_;
  query->sql_ = std::move(sql);
  query->obs_label_ = next_query_label_++;
  // Restored operator state is not counted (it was processed by the
  // checkpointed run); the WAL-suffix replay that follows is.
  if (obs_ != nullptr) AttachQueryObs(query.get());
  queries_.push_back(std::move(query));
  return Status::OK();
}

Status Engine::Restore(const std::string& dir) {
  if (feed_seq_ != 0 || !history_.empty() || !queries_.empty() || durable()) {
    return Status::InvalidArgument(
        "Restore() requires an engine that has not fed events or started "
        "queries yet");
  }
  obs::Span span(obs_ != nullptr ? obs_->trace() : nullptr, "restore",
                 "engine");
  const uint64_t start_us = engine_metrics_ != nullptr ? MonotonicMicros() : 0;

  // Load the checkpoint, if one exists.
  bool ckpt_durable = false;
  const std::string ckpt_path = dir + kCheckpointFile;
  auto ckpt_or = state::CheckpointReader::Open(ckpt_path);
  if (ckpt_or.ok()) {
    if (!catalog_.tables().empty()) {
      return Status::InvalidArgument(
          "the checkpoint carries the catalog; restore into an engine with "
          "no registered streams or tables");
    }
    const state::CheckpointReader& ckpt = ckpt_or.value();
    if (ckpt.num_sections() == 0) {
      return Status::DataLoss("checkpoint holds no engine section");
    }
    uint64_t num_queries = 0;
    {
      state::Reader r(ckpt.section(0));
      ONESQL_RETURN_NOT_OK(LoadEngineSection(&r, &num_queries, &ckpt_durable));
    }
    if (ckpt.num_sections() != 1 + num_queries) {
      return Status::DataLoss(
          "checkpoint section count does not match its query count (" +
          std::to_string(ckpt.num_sections()) + " sections, " +
          std::to_string(num_queries) + " queries)");
    }
    for (uint64_t i = 0; i < num_queries; ++i) {
      state::Reader r(ckpt.section(1 + i));
      ONESQL_RETURN_NOT_OK(RestoreQuerySection(&r));
    }
  } else if (ckpt_or.status().code() != StatusCode::kNotFound) {
    return ckpt_or.status();
  }
  // No checkpoint: cold start from the feed log alone. The catalog is not
  // in the log, so the caller must have re-registered its streams.

  // Replay the log suffix past the checkpoint's feed position.
  const std::string wal_path = dir + kWalFile;
  bool have_wal = true;
  std::vector<state::WalRecord> records;
  {
    auto records_or = state::FeedLog::ReadAll(wal_path);
    if (records_or.ok()) {
      records = std::move(records_or).value();
    } else if (records_or.status().code() == StatusCode::kNotFound) {
      have_wal = false;
    } else {
      return records_or.status();
    }
  }
  if (!have_wal && ckpt_durable) {
    // The checkpointed engine had a feed log; its absence now is corruption,
    // not a cold start.
    return Status::DataLoss("checkpoint was taken with durability enabled "
                            "but feed log '" +
                            wal_path + "' is missing");
  }
  if (have_wal && records.size() < feed_seq_) {
    return Status::DataLoss(
        "feed log at '" + wal_path + "' holds " +
        std::to_string(records.size()) +
        " events but the checkpoint was taken at feed position " +
        std::to_string(feed_seq_) + " (log truncated or from another run)");
  }
  if (records.size() > feed_seq_) {
    std::vector<FeedEvent> suffix;
    suffix.reserve(records.size() - feed_seq_);
    for (size_t i = feed_seq_; i < records.size(); ++i) {
      suffix.push_back(std::move(records[i].event));
    }
    replaying_wal_ = true;
    Status replayed = Feed(suffix);
    replaying_wal_ = false;
    ONESQL_RETURN_NOT_OK(replayed);
  }

  // Re-attach the log so the restored engine keeps appending where the
  // crashed run left off.
  if (have_wal) {
    ONESQL_ASSIGN_OR_RETURN(std::unique_ptr<state::GroupCommitLog> log,
                            state::GroupCommitLog::Open(wal_path));
    if (log->next_seq() != feed_seq_) {
      (void)log->Close();
      return Status::Internal("feed log position diverged during restore");
    }
    wal_ = std::move(log);
    if (obs_ != nullptr && obs_->registry() != nullptr) {
      wal_->AttachMetrics(obs_->ForWal());
    }
  }
  if (engine_metrics_ != nullptr) {
    engine_metrics_->checkpoint_restores->Increment();
    engine_metrics_->checkpoint_restore_ms->Record(
        (MonotonicMicros() - start_us) / 1000);
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Observability
// ---------------------------------------------------------------------------

Status Engine::EnableObservability(const obs::ObsOptions& options) {
  if (obs_ != nullptr) {
    return Status::InvalidArgument("observability is already enabled");
  }
  if (!options.metrics && !options.tracing) {
    return Status::InvalidArgument(
        "observability options enable neither metrics nor tracing");
  }
  if (options.profiling && !options.metrics) {
    return Status::InvalidArgument(
        "profiling publishes through the metrics registry; enable metrics");
  }
  obs_ = std::make_unique<obs::ObsContext>(options);
  if (obs_->registry() != nullptr) {
    engine_metrics_ = obs_->ForEngine();
    engine_profile_ = obs_->ForEngineProfile();
    if (wal_ != nullptr) wal_->AttachMetrics(obs_->ForWal());
  }
  for (auto& query : queries_) AttachQueryObs(query.get());
  return Status::OK();
}

void Engine::AttachQueryObs(ContinuousQuery* query) {
  // The label is the query's monotonic birth number, not its position in
  // `queries_`: positions shift when a query is dropped, and reusing a
  // label would conflate a new query's counters with a dead one's.
  query->flow_->AttachObs(obs_.get(),
                          "q" + std::to_string(query->obs_label_),
                          static_cast<int>(query->obs_label_));
}

const obs::SourceMetrics* Engine::SourceObs(const std::string& stream) {
  const std::string key = ToLower(stream);
  auto it = source_obs_.find(key);
  if (it != source_obs_.end()) return it->second;
  const obs::SourceMetrics* bundle = obs_->ForSource(key);
  source_obs_.emplace(key, bundle);
  return bundle;
}

obs::MetricsSnapshot Engine::MetricsSnapshot() {
  if (obs_ == nullptr || obs_->registry() == nullptr) {
    return obs::MetricsSnapshot{};
  }
  // Publish the sampled gauges (operator state bytes, sink queue depths,
  // snapshot sizes) so the snapshot is coherent at the current position.
  size_t operators = 0;
  for (auto& query : queries_) {
    query->flow_->SampleObsGauges();
    operators += query->flow_->NumOperators();
  }
  engine_metrics_->queries->Set(static_cast<int64_t>(queries_.size()));
  engine_metrics_->operators->Set(static_cast<int64_t>(operators));
  if (obs_->trace() != nullptr) {
    // Ring saturation visibility: a truncated trace shows up as a nonzero
    // dropped gauge in both expositions instead of a silently partial dump.
    obs_->registry()
        ->GetGauge("onesql_trace_spans_recorded")
        ->Set(static_cast<int64_t>(obs_->trace()->recorded()));
    obs_->registry()
        ->GetGauge("onesql_trace_spans_dropped")
        ->Set(static_cast<int64_t>(obs_->trace()->dropped()));
  }
  return obs_->registry()->Snapshot();
}

std::string Engine::DumpTraceJson() const {
  if (obs_ == nullptr || obs_->trace() == nullptr) return "[]";
  return obs_->trace()->DumpChromeJson();
}

Status Engine::AdvanceTo(Timestamp ptime) {
  if (ptime < last_ptime_) {
    return Status::InvalidArgument("cannot advance the clock backwards");
  }
  last_ptime_ = ptime;
  for (auto& query : queries_) {
    query->last_ptime_ = ptime;
    ONESQL_RETURN_NOT_OK(query->flow_->AdvanceTo(ptime));
  }
  return Status::OK();
}

}  // namespace onesql
