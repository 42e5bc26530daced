#include "engine/engine.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <system_error>
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

Result<std::vector<Row>> ContinuousQuery::SnapshotAt(Timestamp ptime) const {
  return Present(flow_->sink().SnapshotAt(ptime));
}

Result<std::vector<Row>> ContinuousQuery::CurrentSnapshot() const {
  return Present(flow_->sink().SnapshotAt(last_ptime_));
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

/// The feed event at `row` of `chunk`.
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
    case exec::InputChunk::Kind::kClock:
      event.kind = FeedEvent::Kind::kClock;
      event.ptime = chunk.ptime;
      break;
  }
  return event;
}

/// Appends `event` to `builder`.
void AddEvent(exec::ChunkBuilder* builder, const FeedEvent& event) {
  switch (event.kind) {
    case FeedEvent::Kind::kInsert:
      builder->AddElement(event.source, event.row, +1, event.ptime);
      break;
    case FeedEvent::Kind::kDelete:
      builder->AddElement(event.source, event.row, -1, event.ptime);
      break;
    case FeedEvent::Kind::kWatermark:
      builder->AddWatermark(event.source, event.watermark, event.ptime);
      break;
    case FeedEvent::Kind::kClock:
      builder->AddClock(event.ptime);
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
  // After a failed feed log write the history holds events that never
  // became durable; replaying them would run ahead of the log, so the log's
  // sticky error refuses the query as it refuses Feed and Checkpoint.
  if (durable()) ONESQL_RETURN_NOT_OK(wal_.Sync());
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
  ONESQL_ASSIGN_OR_RETURN(std::unique_ptr<exec::Dataflow> flow,
                          exec::Dataflow::Build(std::move(plan)));
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
  exec::ChunkBuilder builder(&tables);
  for (const auto& it : SortedByName(table_rows_)) {
    const std::string& name = it->first;
    if (!query->flow_->ReadsSource(name)) continue;
    for (const Row& row : it->second) {
      builder.AddElement(name, row, +1, Timestamp::Min());
    }
    builder.AddWatermark(name, Timestamp::Max(), Timestamp::Min());
  }
  ONESQL_RETURN_NOT_OK(
      query->flow_->PushChunks(ChunkRefs(tables, 0, tables.size())));
  ONESQL_RETURN_NOT_OK(query->flow_->PushChunks(HistoryChunks()));
  query->last_ptime_ = last_ptime_;
  query->sql_ = sql;

  ContinuousQuery* out = query.get();
  queries_.push_back(std::move(query));
  return out;
}

Status Engine::DropQuery(ContinuousQuery* query) {
  for (auto it = queries_.begin(); it != queries_.end(); ++it) {
    if (it->get() == query) {
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

Status Engine::AdvanceTo(Timestamp ptime) {
  FeedEvent event;
  event.kind = FeedEvent::Kind::kClock;
  event.ptime = ptime;
  return Feed({event});
}

Status Engine::Feed(const std::vector<FeedEvent>& events) {
  obs::Span span(obs_ != nullptr ? obs_->trace() : nullptr, "feed", "engine");
  span.set_aux(events.size());
  // One fused pass: validate, WAL-append, and record each event straight
  // into the chunked history (validation is order-sensitive — watermark
  // monotonicity and ptime ordering — so it stays event by event). The new
  // chunks are then dispatched to every query wholesale: rows were
  // columnarized exactly once, on the way into the history.
  const size_t first_chunk = history_.size();
  exec::ChunkBuilder builder(&history_);
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
  const bool profile_wal = engine_profile_ != nullptr && durable();
  uint64_t wal_stall_us = 0;
  for (const FeedEvent& event : events) {
    Status status = Status::OK();
    SourceFeedState* state = nullptr;
    if (event.kind != FeedEvent::Kind::kClock) {  // a clock move has no source
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
        case FeedEvent::Kind::kClock:
          break;
      }
    }
    if (status.ok() && event.ptime < last_ptime_) {
      status = Status::InvalidArgument(
          "feed events must arrive in processing-time order (got " +
          event.ptime.ToString() + " after " + last_ptime_.ToString() + ")");
    }
    // Log before mutating engine state: an event the WAL never saw must not
    // become part of the replayable history.
    if (status.ok() && durable()) {
      const uint64_t t0 = profile_wal ? obs::TraceRecorder::NowMicros() : 0;
      status = wal_.Append(feed_seq_, event);
      if (profile_wal) wal_stall_us += obs::TraceRecorder::NowMicros() - t0;
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
      case FeedEvent::Kind::kClock:
        builder.AddClock(event.ptime);
        break;
    }
    ++accepted;
    // Feed metrics run on the logical feed clock (event ptimes), so they are
    // exact and deterministic. WAL-suffix replay during
    // Restore() goes through here too: a restored engine counts the replayed
    // suffix as processing (which it is) and nothing before the checkpoint.
    if (engine_metrics_ != nullptr && state != nullptr) {
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
        case FeedEvent::Kind::kClock:
          break;
      }
    }
  }
  history_events_ += accepted;
  if (accepted == 0) return deferred;
  // One durability barrier for the whole batch: every recorded event is on
  // disk before any query observes any of them.
  Status dispatch_status;
  if (durable()) {
    const uint64_t sync_t0 = profile_wal ? obs::TraceRecorder::NowMicros() : 0;
    dispatch_status = wal_.Sync();
    if (profile_wal) {
      wal_stall_us += obs::TraceRecorder::NowMicros() - sync_t0;
      engine_profile_->feed_wal_stall_us->Record(wal_stall_us);
    }
  }
  if (dispatch_status.ok()) {
    const std::vector<const exec::InputChunk*> chunks =
        ChunkRefs(history_, first_chunk, history_.size());
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
  ONESQL_RETURN_NOT_OK(dispatch_status);
  MaybeCompactHistory();
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
  std::unordered_map<std::string, const exec::InputChunk*> last_dominated;
  // source -> row -> dropped inserts not yet matched by a retraction.
  std::unordered_map<std::string,
                     std::unordered_map<Row, int64_t, RowHash, RowEq>>
      dropped_inserts;
  for (const exec::InputChunk& chunk : history_) {
    if (chunk.kind == exec::InputChunk::Kind::kWatermark) {
      if (chunk.watermark <= floor) last_dominated[chunk.source_lower] = &chunk;
      continue;
    }
    if (chunk.kind == exec::InputChunk::Kind::kClock) continue;
    for (size_t row = 0; row < chunk.batch.num_rows; ++row) {
      if (chunk.batch.ptimes[row] > floor && chunk.batch.weights[row] < 0) {
        dropped_inserts[chunk.source_lower][chunk.batch.RowAt(row)] = 0;
      }
    }
  }

  // Rebuild the chunk list from the kept events, in feed order.
  std::vector<exec::InputChunk> kept;
  exec::ChunkBuilder builder(&kept);
  size_t kept_events = 0;
  for (const exec::InputChunk& chunk : history_) {
    if (chunk.kind == exec::InputChunk::Kind::kWatermark) {
      if (chunk.watermark > floor ||
          last_dominated.at(chunk.source_lower) == &chunk) {
        AddEvent(&builder, EventAt(chunk, 0));
        ++kept_events;
      }
      continue;
    }
    if (chunk.kind == exec::InputChunk::Kind::kClock) {
      // Like the rows beside it: kept above the floor, dropped at or below.
      if (chunk.ptime > floor) {
        builder.AddClock(chunk.ptime);
        ++kept_events;
      }
      continue;
    }
    auto source = dropped_inserts.find(chunk.source_lower);
    for (size_t row = 0; row < chunk.batch.num_rows; ++row) {
      const bool below = chunk.batch.ptimes[row] <= floor;
      if (below && source == dropped_inserts.end()) continue;
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
        continue;
      }
      if (retraction && dropped != nullptr && *dropped > 0) {
        --*dropped;  // an orphan: its insert was dropped
        continue;
      }
      AddEvent(&builder, event);
      ++kept_events;
    }
  }
  history_ = std::move(kept);
  history_events_ = kept_events;
}

// ---------------------------------------------------------------------------
// Durability: EnableDurability / Checkpoint / Restore
// ---------------------------------------------------------------------------

Status Engine::EnableDurability(const std::string& dir) {
  if (durable()) {
    return Status::InvalidArgument("durability is already enabled (log at '" +
                                   wal_.path() + "')");
  }
  ONESQL_RETURN_NOT_OK(state::EnsureDirectory(dir));
  // Segments past seq 0 appear only once a checkpoint in the directory has
  // replaced the ones before them, so a directory with neither `feed.wal`
  // nor a checkpoint holds no log: a fresh one is set up without a listing.
  std::vector<state::WalSegment> segments;
  std::error_code ec;
  if (std::filesystem::exists(state::FeedLog::SegmentPath(dir, 0), ec) ||
      std::filesystem::exists(dir + kCheckpointFile, ec)) {
    ONESQL_ASSIGN_OR_RETURN(segments, state::FeedLog::ListSegments(dir));
  }
  // The tail segment alone is validated: its end is the log's position.
  state::FeedLog log;
  uint64_t logged = 0;
  if (!segments.empty()) {
    ONESQL_ASSIGN_OR_RETURN(log, state::FeedLog::Open(segments.back()));
    logged = log.next_seq();
  }
  if (logged != feed_seq_) {
    return Status::InvalidArgument(
        "feed log in '" + dir + "' holds " + std::to_string(logged) +
        " events but the engine has fed " + std::to_string(feed_seq_) +
        " — Restore() from this directory first (or start a fresh one)");
  }
  if (segments.empty()) {
    ONESQL_ASSIGN_OR_RETURN(log, state::FeedLog::Create(dir, 0));
  }
  wal_ = std::move(log);
  if (obs_ != nullptr && obs_->registry() != nullptr) {
    wal_.AttachMetrics(obs_->ForWal());
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
  // after the restore. Serialized as the scalar event stream, in feed
  // order, with the feed-event codec the WAL records share.
  w->PutVarint(history_events_);
  for (const exec::InputChunk& chunk : history_) {
    for (size_t row = 0; row < chunk.NumEvents(); ++row) {
      w->PutFeedEvent(EventAt(chunk, row));
    }
  }

  *num_queries = queries_.size();
  w->PutVarint(queries_.size());
}

Status Engine::Checkpoint(const std::string& dir) {
  obs::Span span(obs_ != nullptr ? obs_->trace() : nullptr, "checkpoint",
                 "engine");
  const uint64_t start_us = engine_metrics_ != nullptr ? MonotonicMicros() : 0;
  // Never let a checkpoint run ahead of the feed log: everything the
  // checkpoint captures must be re-derivable from log replay too.
  if (durable()) ONESQL_RETURN_NOT_OK(wal_.Sync());
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
    state::Writer runtime;
    ONESQL_RETURN_NOT_OK(query->flow_->SaveState(&runtime));
    w.PutBlob(runtime);
    ckpt.AddSection(std::move(w).TakeBuffer());
  }
  const size_t payload_bytes = ckpt.payload_bytes();
  ONESQL_RETURN_NOT_OK(ckpt.WriteTo(dir + kCheckpointFile));
  // The checkpoint — file, rename and directory entry — is durable now. In
  // the log's own directory it covers every record below feed_seq_, so the
  // log continues in a new segment and the segments before it go
  // (DESIGN.md §10). A checkpoint anywhere else deletes nothing.
  std::error_code ec;
  if (durable() && std::filesystem::equivalent(dir, wal_.dir(), ec)) {
    ONESQL_RETURN_NOT_OK(wal_.Roll());
    ONESQL_RETURN_NOT_OK(wal_.DropSegmentsBelow(feed_seq_));
  }
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
  // Re-chunk the decoded event stream, in its serialized (feed) order.
  exec::ChunkBuilder builder(&history_);
  for (uint64_t i = 0; i < nhistory; ++i) {
    ONESQL_ASSIGN_OR_RETURN(FeedEvent event, r->ReadFeedEvent());
    AddEvent(&builder, event);
  }
  history_events_ = nhistory;

  ONESQL_ASSIGN_OR_RETURN(*num_queries, r->ReadVarint());
  return r->ExpectEnd();
}

Status Engine::RestoreQuerySection(state::Reader* r) {
  ONESQL_ASSIGN_OR_RETURN(std::string sql, r->ReadString());
  ONESQL_ASSIGN_OR_RETURN(Interval lateness, r->ReadInterval());

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

Status Engine::LoadCheckpoint(const std::string& dir, bool* was_durable) {
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
      ONESQL_RETURN_NOT_OK(LoadEngineSection(&r, &num_queries, was_durable));
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
    return Status::OK();
  }
  if (ckpt_or.status().code() == StatusCode::kNotImplemented) {
    // An intact checkpoint of an older format: operator state is a cache of
    // a replay of the feed log, so the route back is a cold start from it.
    return Status::NotImplemented(
        "'" + ckpt_path + "': " + ckpt_or.status().message() +
        "; to recover, move it aside, register the streams, register each "
        "static table again with its rows (the feed log does not hold them), "
        "Restore() from the feed log (a cold start), then Execute() the "
        "queries again");
  }
  // No checkpoint: cold start from the feed log alone. The catalog is not
  // in the log, so the caller must have re-registered its streams.
  if (ckpt_or.status().code() == StatusCode::kNotFound) return Status::OK();
  return ckpt_or.status();
}

Status Engine::ReadLogSuffix(const std::string& dir, bool ckpt_durable,
                             std::vector<FeedEvent>* suffix,
                             std::optional<LogTail>* tail) {
  ONESQL_ASSIGN_OR_RETURN(std::vector<state::WalSegment> segments,
                          state::FeedLog::ListSegments(dir));
  if (segments.empty()) {
    if (!ckpt_durable) return Status::OK();
    // The checkpointed engine had a feed log; its absence now is
    // corruption, not a cold start.
    return Status::DataLoss(
        "checkpoint was taken with durability enabled but the feed log in '" +
        dir + "' is missing");
  }
  // The suffix starts in the last segment that starts at or below the feed
  // position; every segment before it holds only records the checkpoint
  // covers, so none of them is read.
  auto first = std::upper_bound(
      segments.begin(), segments.end(), feed_seq_,
      [](uint64_t seq, const state::WalSegment& s) {
        return seq < s.first_seq;
      });
  if (first == segments.begin()) {
    return Status::DataLoss(
        "feed log in '" + dir + "' starts at record " +
        std::to_string(first->first_seq) + " but the restore needs it from " +
        "record " + std::to_string(feed_seq_) +
        " (segments deleted or from another run)");
  }
  --first;
  state::SegmentEnd end;
  for (auto it = first; it != segments.end(); ++it) {
    if (it != first && it->first_seq != end.next_seq) {
      return Status::DataLoss(
          "feed log sequence gap: segment '" + it->path + "' starts at " +
          "record " + std::to_string(it->first_seq) + ", expected " +
          std::to_string(end.next_seq));
    }
    ONESQL_ASSIGN_OR_RETURN(
        end, state::FeedLog::ReadSegment(*it, feed_seq_, suffix));
  }
  if (end.next_seq < feed_seq_) {
    return Status::DataLoss(
        "feed log in '" + dir + "' holds " + std::to_string(end.next_seq) +
        " events but the checkpoint was taken at feed position " +
        std::to_string(feed_seq_) + " (log truncated or from another run)");
  }
  *tail = LogTail{segments.back(), end};
  return Status::OK();
}

Status Engine::Restore(const std::string& dir) {
  if (feed_seq_ != 0 || !history_.empty() || !queries_.empty() || durable()) {
    return Status::InvalidArgument(
        "Restore() requires an engine that has not fed events or started "
        "queries yet");
  }
  // A pristine engine holds nothing but its registrations, so on any error
  // putting them back and clearing the rest leaves it as it was found.
  plan::Catalog catalog = catalog_;
  auto table_rows = table_rows_;
  const Status status = RestorePhases(dir);
  if (!status.ok()) {
    if (obs_ != nullptr && obs_->registry() != nullptr) {
      for (auto& query : queries_) query->flow_->ZeroObsGauges();
    }
    queries_.clear();
    history_.clear();
    history_events_ = 0;
    stream_watermarks_.clear();
    last_ptime_ = Timestamp::Min();
    compact_at_ = 4096;
    feed_seq_ = 0;
    wal_ = state::FeedLog();
    catalog_ = std::move(catalog);
    table_rows_ = std::move(table_rows);
  }
  return status;
}

Status Engine::RestorePhases(const std::string& dir) {
  obs::TraceRecorder* trace = obs_ != nullptr ? obs_->trace() : nullptr;
  obs::Span span(trace, "restore", "engine");
  // Three back-to-back phases: checkpoint load, log read and decode, suffix
  // replay (with re-attaching the log). Each records its wall time.
  const bool timed = engine_metrics_ != nullptr;
  const uint64_t start_us = timed ? MonotonicMicros() : 0;
  uint64_t phase_start_us = start_us;
  auto end_phase = [&](obs::Histogram* obs::EngineMetrics::*phase_us) {
    if (!timed) return;
    const uint64_t now_us = MonotonicMicros();
    (engine_metrics_->*phase_us)->Record(now_us - phase_start_us);
    phase_start_us = now_us;
  };

  bool ckpt_durable = false;
  {
    obs::Span phase(trace, "restore_checkpoint_load", "engine");
    ONESQL_RETURN_NOT_OK(LoadCheckpoint(dir, &ckpt_durable));
  }
  end_phase(&obs::EngineMetrics::restore_checkpoint_load_us);

  // The log suffix past the checkpoint's feed position, decoded straight
  // into the batch the replay feeds.
  std::vector<FeedEvent> suffix;
  std::optional<LogTail> tail;
  {
    obs::Span phase(trace, "restore_log_read", "engine");
    ONESQL_RETURN_NOT_OK(ReadLogSuffix(dir, ckpt_durable, &suffix, &tail));
    phase.set_aux(suffix.size());
  }
  end_phase(&obs::EngineMetrics::restore_log_read_us);

  {
    obs::Span phase(trace, "restore_replay", "engine");
    phase.set_aux(suffix.size());
    // The log is attached only after this replay, so its events are not
    // appended to it a second time.
    if (!suffix.empty()) ONESQL_RETURN_NOT_OK(Feed(suffix));
    // Re-attach the tail segment where its read ended, so the restored
    // engine keeps appending where the crashed run left off.
    if (tail.has_value()) {
      if (tail->end.next_seq != feed_seq_) {
        return Status::Internal("feed log position diverged during restore");
      }
      ONESQL_ASSIGN_OR_RETURN(wal_,
                              state::FeedLog::Attach(tail->segment, tail->end));
      if (obs_ != nullptr && obs_->registry() != nullptr) {
        wal_.AttachMetrics(obs_->ForWal());
      }
    }
  }
  end_phase(&obs::EngineMetrics::restore_replay_us);
  if (timed) {
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
    if (durable()) wal_.AttachMetrics(obs_->ForWal());
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

}  // namespace onesql
