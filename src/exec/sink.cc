#include "exec/sink.h"

#include <algorithm>

namespace onesql {
namespace exec {

std::string Emission::ToString() const {
  std::string out = RowToString(row);
  if (undo) out += " undo";
  out += " ptime=" + ptime.ToString();
  out += " ver=" + std::to_string(ver);
  return out;
}

Row MaterializationSink::KeyOf(const Row& row) const {
  if (config_.version_key_columns.empty()) return row;
  Row key;
  key.reserve(config_.version_key_columns.size());
  for (size_t c : config_.version_key_columns) key.push_back(row[c]);
  return key;
}

void MaterializationSink::Fold(FlatRowMap<RowEntry>* rows, bool undo,
                               const Row& row, size_t hash) {
  if (!undo) {
    rows->FindOrInsert(row, hash)->count += 1;
    return;
  }
  RowEntry* entry = rows->Find(row, hash);
  if (entry == nullptr || entry->count == 0) return;
  if (--entry->count == 0 && entry->next_ver == 0) rows->Erase(row, hash);
}

void MaterializationSink::Materialize(const Row& row, bool undo,
                                      Timestamp ptime, int64_t ver,
                                      size_t hash) {
  if (sink_metrics_ != nullptr) {
    sink_metrics_->emissions->Increment();
    (undo ? sink_metrics_->retractions : sink_metrics_->inserts)->Increment();
  }
  emissions_.push_back(Emission{row, undo, ptime, ver});
  Fold(&rows_, undo, row, hash);
}

Status MaterializationSink::Flush(const Row& key, KeyState* state,
                                  Timestamp ptime, PaneKind pane) {
  obs::Span span(trace_, "sink_flush", "sink", query_tag_);
  const size_t emissions_before = emissions_.size();
  // Retractions first, then additions (Listing 14's undo-then-insert order).
  for (const auto& [row, last_count] : state->last) {
    auto it = state->current.find(row);
    const int64_t current_count = it == state->current.end() ? 0 : it->second;
    for (int64_t i = current_count; i < last_count; ++i) {
      Materialize(row, true, ptime, state->next_ver++, HashRow(row));
    }
  }
  for (const auto& [row, current_count] : state->current) {
    auto it = state->last.find(row);
    const int64_t last_count = it == state->last.end() ? 0 : it->second;
    for (int64_t i = last_count; i < current_count; ++i) {
      Materialize(row, false, ptime, state->next_ver++, HashRow(row));
    }
  }
  state->last = state->current;
  if (sink_metrics_ != nullptr && emissions_.size() > emissions_before) {
    switch (pane) {
      case PaneKind::kEarly:
        sink_metrics_->panes_early->Increment();
        break;
      case PaneKind::kOnTime:
        sink_metrics_->panes_on_time->Increment();
        break;
      case PaneKind::kLate:
        sink_metrics_->panes_late->Increment();
        break;
    }
    if (state->completeness.has_value()) {
      // Event-time emit latency: how long past the pane's completeness
      // timestamp the materialization happened. Both operands live on the
      // feed's logical clock, so the value is deterministic and identical
      // at any shard count.
      const int64_t lag_ms = (ptime - *state->completeness).millis();
      sink_metrics_->emit_latency_ms->Record(
          lag_ms > 0 ? static_cast<uint64_t>(lag_ms) : 0);
    }
  }
  (void)key;
  return Status::OK();
}

void MaterializationSink::MaybeReclaim(const Row& key) {
  // Only complete groupings are reclaimed: an idle-but-incomplete grouping
  // must keep its `ver` counter (e.g. between the DELETE and INSERT halves
  // of an aggregate update, the net state is momentarily empty).
  auto it = keys_.find(key);
  if (it == keys_.end()) return;
  KeyState& state = it->second;
  if (!state.complete) return;
  if (state.deadline.has_value()) timers_.erase(state.timer);
  keys_.erase(it);
}

Status MaterializationSink::ApplyInstant(bool is_delete, const Row& row,
                                         Timestamp ptime) {
  const size_t hash = HashRow(row);
  RowEntry& entry = *rows_.FindOrInsert(row, hash);
  if (is_delete && entry.count == 0) {
    return Status::ExecutionError(
        "sink received a DELETE for a row that is not in the result");
  }
  Materialize(row, is_delete, ptime, entry.next_ver++, hash);
  return Status::OK();
}

Status MaterializationSink::ProcessElement(int, const Change& change) {
  if (change.kind == ChangeKind::kUpsert) {
    return Status::ExecutionError("sink cannot consume UPSERT changes");
  }
  // Instant mode with whole-row version keys (the default view semantics):
  // the key state degenerates to the row map's (count, next_ver) entry, so
  // the row is hashed once for key state and table alike.
  if (instant_whole_row()) {
    return ApplyInstant(change.kind == ChangeKind::kDelete, change.row,
                        change.ptime);
  }
  // In AFTER WATERMARK mode a change whose completeness timestamp is already
  // below the watermark belongs to a grouping that was declared complete —
  // it is dropped, exactly as Extension 2 drops late aggregation inputs.
  if (config_.after_watermark && config_.completeness_column.has_value()) {
    const Value& cv = change.row[*config_.completeness_column];
    if (!cv.is_null() &&
        cv.AsTimestamp() + config_.allowed_lateness <= merger_.combined()) {
      ++late_drops_;
      if (sink_metrics_ != nullptr) sink_metrics_->late_drops->Increment();
      return Status::OK();
    }
  }

  const Row key = KeyOf(change.row);
  KeyState& state = keys_[key];

  if (state.complete) {
    ++late_drops_;
    if (sink_metrics_ != nullptr) sink_metrics_->late_drops->Increment();
    return Status::OK();
  }

  if (change.kind == ChangeKind::kInsert) {
    state.current[change.row] += 1;
  } else {
    auto it = state.current.find(change.row);
    if (it == state.current.end()) {
      return Status::ExecutionError(
          "sink received a DELETE for a row that is not in the result");
    }
    if (--it->second == 0) state.current.erase(it);
  }

  if (config_.after_watermark && config_.completeness_column.has_value() &&
      !state.completeness.has_value()) {
    const Value& cv = change.row[*config_.completeness_column];
    if (!cv.is_null()) {
      state.completeness = cv.AsTimestamp();
      pending_complete_.emplace(*state.completeness, key);
    }
  }

  if (instant()) {
    // Single-change fast path: the materialized diff is exactly this change,
    // so there is no need to diff the key's whole state (`last` mirrors
    // `current` and is not maintained in instant mode).
    Materialize(change.row, change.kind == ChangeKind::kDelete, change.ptime,
                state.next_ver++, HashRow(change.row));
    return Status::OK();
  }

  if (config_.delay.has_value()) {
    if (!state.deadline.has_value()) {
      state.deadline = change.ptime + *config_.delay;
      state.timer = timers_.emplace(*state.deadline, key);
    }
    return Status::OK();
  }

  // Pure AFTER WATERMARK with allowed lateness: once the on-time pane fired,
  // late corrections materialize immediately (the "late pane").
  if (state.on_time_fired) {
    ONESQL_RETURN_NOT_OK(Flush(key, &state, change.ptime, PaneKind::kLate));
  }
  return Status::OK();
}

Status MaterializationSink::ProcessBatch(int port, const ChangeBatch& batch) {
  // The scalar runtime advances the sink's processing-time clock before
  // delivering each event; a batch delivers that interleaving itself, so
  // AFTER DELAY timers fire at exactly the scalar instants.
  if (instant_whole_row()) {
    for (size_t i = 0; i < batch.num_rows; ++i) {
      ONESQL_RETURN_NOT_OK(AdvanceTo(batch.ptimes[i], false));
      batch.MaterializeRow(i, &row_scratch_);
      Status status =
          ApplyInstant(batch.weights[i] < 0, row_scratch_, batch.ptimes[i]);
      if (!status.ok()) {
        SetBatchFailure(i < batch.seqs.size() ? batch.seqs[i] : 0,
                        batch.ptimes[i]);
        return status;
      }
    }
    return Status::OK();
  }
  Change scratch;
  for (size_t i = 0; i < batch.num_rows; ++i) {
    ONESQL_RETURN_NOT_OK(AdvanceTo(batch.ptimes[i], false));
    batch.MaterializeChange(i, &scratch);
    Status status = ProcessElement(port, scratch);
    if (!status.ok()) {
      SetBatchFailure(i < batch.seqs.size() ? batch.seqs[i] : 0,
                      batch.ptimes[i]);
      return status;
    }
  }
  return Status::OK();
}

Status MaterializationSink::ProcessWatermark(int port, Timestamp watermark,
                                   Timestamp ptime) {
  if (!merger_.Update(port, watermark)) return Status::OK();
  if (!config_.after_watermark) return Status::OK();

  const Timestamp wm = merger_.combined();
  while (!pending_complete_.empty() && pending_complete_.begin()->first <= wm) {
    const Row key = pending_complete_.begin()->second;
    pending_complete_.erase(pending_complete_.begin());
    auto it = keys_.find(key);
    if (it == keys_.end()) continue;
    KeyState& state = it->second;
    if (!state.on_time_fired) {
      // On-time pane: materialize the result at the watermark's arrival
      // time (Listing 13: ptime is when the watermark passed the window
      // end).
      ONESQL_RETURN_NOT_OK(Flush(key, &state, ptime, PaneKind::kOnTime));
      state.on_time_fired = true;
      if (config_.allowed_lateness.millis() > 0) {
        // Stay open for late corrections until the lateness budget passes.
        pending_complete_.emplace(
            *state.completeness + config_.allowed_lateness, key);
        continue;
      }
    } else {
      // Lateness budget exhausted: flush any outstanding correction.
      ONESQL_RETURN_NOT_OK(Flush(key, &state, ptime, PaneKind::kLate));
    }
    state.complete = true;
    MaybeReclaim(key);
  }
  return Status::OK();
}

Status MaterializationSink::AdvanceTo(Timestamp now, bool inclusive) {
  if (now > now_) now_ = now;
  while (!timers_.empty()) {
    const Timestamp deadline = timers_.begin()->first;
    if (inclusive ? deadline > now : deadline >= now) break;
    const Row key = timers_.begin()->second;
    timers_.erase(timers_.begin());
    auto it = keys_.find(key);
    if (it == keys_.end()) continue;
    KeyState& state = it->second;
    state.deadline.reset();
    // Combined EMIT AFTER WATERMARK + AFTER DELAY: the delay timer produces
    // the *early* panes of the early/on-time/late pattern, but it must still
    // respect the completeness gate. A grouping whose completeness timestamp
    // is unknown (NULL so far) has no gate to fire against — in pure
    // AFTER WATERMARK mode it would stay pending, so the timer must not
    // materialize it either. (Previously the timer flushed it, leaking an
    // ungated emission and silently suppressing the eventual on-time flush,
    // because Flush had already advanced `last` to `current`.)
    if (config_.after_watermark && !state.on_time_fired &&
        !state.completeness.has_value()) {
      continue;
    }
    // Materialize the coalesced net change at the deadline instant. Under a
    // completeness gate the timer pane is speculative (early) until the
    // on-time pane fires and a late correction afterwards; in pure AFTER
    // DELAY mode it is the only pane and counts as on-time.
    const PaneKind pane = !config_.after_watermark ? PaneKind::kOnTime
                          : state.on_time_fired    ? PaneKind::kLate
                                                   : PaneKind::kEarly;
    ONESQL_RETURN_NOT_OK(Flush(key, &state, deadline, pane));
    MaybeReclaim(key);
  }
  return Status::OK();
}

void MaterializationSink::SampleObs() const {
  if (sink_metrics_ == nullptr) return;
  sink_metrics_->timer_queue_depth->Set(static_cast<int64_t>(timers_.size()));
  sink_metrics_->pending_panes->Set(
      static_cast<int64_t>(pending_complete_.size()));
  int64_t live = 0;
  for (const auto& slot : rows_.slots()) live += slot.value.count > 0;
  sink_metrics_->snapshot_rows->Set(live);
}

void MaterializationSink::ZeroObs() const {
  if (sink_metrics_ == nullptr) return;
  sink_metrics_->timer_queue_depth->Set(0);
  sink_metrics_->pending_panes->Set(0);
  sink_metrics_->snapshot_rows->Set(0);
}

std::vector<Row> MaterializationSink::SnapshotAt(Timestamp ptime) const {
  // At or past the latest emission the table is the incrementally
  // maintained row map. Only genuinely historical queries fold the log's
  // prefix with ptime <= `ptime` (appends are non-decreasing in ptime).
  const FlatRowMap<RowEntry>* rows = &rows_;
  FlatRowMap<RowEntry> history;
  if (!emissions_.empty() && ptime < emissions_.back().ptime) {
    const auto end = std::upper_bound(
        emissions_.begin(), emissions_.end(), ptime,
        [](Timestamp t, const Emission& e) { return t < e.ptime; });
    changelog_entries_scanned_ +=
        static_cast<int64_t>(std::distance(emissions_.begin(), end));
    for (auto it = emissions_.begin(); it != end; ++it) {
      Fold(&history, it->undo, it->row, HashRow(it->row));
    }
    rows = &history;
  }
  // The flat map iterates in insertion-perturbed order; sort slot pointers
  // to reproduce SnapshotOf's canonical RowLess order.
  std::vector<const FlatRowMap<RowEntry>::Slot*> sorted;
  sorted.reserve(rows->size());
  for (const auto& slot : rows->slots()) {
    if (slot.value.count > 0) sorted.push_back(&slot);
  }
  std::sort(sorted.begin(), sorted.end(), [](const auto* a, const auto* b) {
    return RowLess{}(a->key, b->key);
  });
  std::vector<Row> out;
  for (const auto* slot : sorted) {
    for (int64_t i = 0; i < slot->value.count; ++i) out.push_back(slot->key);
  }
  return out;
}

std::vector<Row> MaterializationSink::CurrentSnapshot() const {
  return SnapshotAt(Timestamp::Max());
}

namespace {

void SaveRowCountMap(const std::map<Row, int64_t, RowLess>& map,
                     state::Writer* w) {
  w->PutVarint(map.size());
  for (const auto& [row, count] : map) {
    w->PutRow(row);
    w->PutSigned(count);
  }
}

Status LoadRowCountMap(std::map<Row, int64_t, RowLess>* map,
                       state::Reader* r) {
  ONESQL_ASSIGN_OR_RETURN(uint64_t n, r->ReadVarint());
  if (n > r->remaining()) {
    return Status::DataLoss("impossible row-count map size in checkpoint");
  }
  for (uint64_t i = 0; i < n; ++i) {
    ONESQL_ASSIGN_OR_RETURN(Row row, r->ReadRow());
    ONESQL_ASSIGN_OR_RETURN(int64_t count, r->ReadSigned());
    (*map)[std::move(row)] += count;
  }
  return Status::OK();
}

void SaveOptionalTimestamp(const std::optional<Timestamp>& t,
                           state::Writer* w) {
  w->PutBool(t.has_value());
  if (t.has_value()) w->PutTimestamp(*t);
}

Result<std::optional<Timestamp>> LoadOptionalTimestamp(state::Reader* r) {
  ONESQL_ASSIGN_OR_RETURN(bool has, r->ReadBool());
  if (!has) return std::optional<Timestamp>();
  ONESQL_ASSIGN_OR_RETURN(Timestamp t, r->ReadTimestamp());
  return std::optional<Timestamp>(t);
}

void SaveTimerQueue(const std::multimap<Timestamp, Row>& timers,
                    state::Writer* w) {
  // Multimap order (timestamp, then insertion order) is deterministic and
  // reload preserves it, so restored timers fire in the original order.
  w->PutVarint(timers.size());
  for (const auto& [at, key] : timers) {
    w->PutTimestamp(at);
    w->PutRow(key);
  }
}

Status LoadTimerQueue(std::multimap<Timestamp, Row>* timers,
                      state::Reader* r) {
  ONESQL_ASSIGN_OR_RETURN(uint64_t n, r->ReadVarint());
  if (n > r->remaining()) {
    return Status::DataLoss("impossible timer queue size in checkpoint");
  }
  for (uint64_t i = 0; i < n; ++i) {
    ONESQL_ASSIGN_OR_RETURN(Timestamp at, r->ReadTimestamp());
    ONESQL_ASSIGN_OR_RETURN(Row key, r->ReadRow());
    timers->emplace(at, std::move(key));
  }
  return Status::OK();
}

}  // namespace

Status MaterializationSink::SaveState(state::Writer* w) const {
  merger_.SaveState(w);
  w->PutTimestamp(now_);
  w->PutSigned(late_drops_);

  if (instant_whole_row()) {
    // Synthesize the KeyState layout from the row map's entries, zero-count
    // ones included, so the checkpoint format is identical in every mode:
    // key = the row, `last` empty (never flushed), `current` = {row: count}
    // when live, no deadline/completeness, flags false.
    std::vector<const FlatRowMap<RowEntry>::Slot*> entries;
    entries.reserve(rows_.size());
    for (const auto& slot : rows_.slots()) entries.push_back(&slot);
    std::sort(entries.begin(), entries.end(),
              [](const auto* a, const auto* b) {
                return RowLess{}(a->key, b->key);
              });
    w->PutVarint(entries.size());
    for (const auto* entry : entries) {
      w->PutRow(entry->key);
      w->PutVarint(0);  // last
      if (entry->value.count > 0) {  // current
        w->PutVarint(1);
        w->PutRow(entry->key);
        w->PutSigned(entry->value.count);
      } else {
        w->PutVarint(0);
      }
      w->PutBool(false);  // deadline
      w->PutBool(false);  // completeness
      w->PutBool(false);  // on_time_fired
      w->PutBool(false);  // complete
      w->PutSigned(entry->value.next_ver);
    }
  } else {
    // Key states, sorted by key for a canonical byte stream.
    std::vector<const std::pair<const Row, KeyState>*> entries;
    entries.reserve(keys_.size());
    for (const auto& entry : keys_) entries.push_back(&entry);
    std::sort(entries.begin(), entries.end(),
              [](const auto* a, const auto* b) {
                return RowLess{}(a->first, b->first);
              });
    w->PutVarint(entries.size());
    for (const auto* entry : entries) {
      const KeyState& state = entry->second;
      w->PutRow(entry->first);
      SaveRowCountMap(state.last, w);
      SaveRowCountMap(state.current, w);
      SaveOptionalTimestamp(state.deadline, w);
      SaveOptionalTimestamp(state.completeness, w);
      w->PutBool(state.on_time_fired);
      w->PutBool(state.complete);
      w->PutSigned(state.next_ver);
    }
  }

  SaveTimerQueue(timers_, w);
  SaveTimerQueue(pending_complete_, w);

  w->PutVarint(emissions_.size());
  for (const Emission& e : emissions_) {
    w->PutRow(e.row);
    w->PutBool(e.undo);
    w->PutTimestamp(e.ptime);
    w->PutSigned(e.ver);
  }
  // The row map is not serialized: LoadState folds it from the emissions.
  return Status::OK();
}

Status MaterializationSink::LoadState(state::Reader* r,
                                      const StateKeyFilter* filter) {
  (void)filter;  // the sink is shared across shards; loaded exactly once
  ONESQL_RETURN_NOT_OK(merger_.LoadState(r));
  ONESQL_ASSIGN_OR_RETURN(Timestamp now, r->ReadTimestamp());
  now_ = std::max(now_, now);
  ONESQL_ASSIGN_OR_RETURN(int64_t drops, r->ReadSigned());
  late_drops_ += drops;

  ONESQL_ASSIGN_OR_RETURN(uint64_t nkeys, r->ReadVarint());
  if (nkeys > r->remaining()) {
    return Status::DataLoss("impossible sink key count in checkpoint");
  }
  for (uint64_t i = 0; i < nkeys; ++i) {
    ONESQL_ASSIGN_OR_RETURN(Row key, r->ReadRow());
    KeyState state;
    ONESQL_RETURN_NOT_OK(LoadRowCountMap(&state.last, r));
    ONESQL_RETURN_NOT_OK(LoadRowCountMap(&state.current, r));
    ONESQL_ASSIGN_OR_RETURN(state.deadline, LoadOptionalTimestamp(r));
    ONESQL_ASSIGN_OR_RETURN(state.completeness, LoadOptionalTimestamp(r));
    ONESQL_ASSIGN_OR_RETURN(state.on_time_fired, r->ReadBool());
    ONESQL_ASSIGN_OR_RETURN(state.complete, r->ReadBool());
    ONESQL_ASSIGN_OR_RETURN(state.next_ver, r->ReadSigned());
    if (instant_whole_row()) {
      // Fold the KeyState layout back into the row map's entry (the key is
      // the row; `current` holds at most that row).
      int64_t count = 0;
      for (const auto& [row, c] : state.current) {
        (void)row;
        count += c;
      }
      bool inserted = false;
      RowEntry* entry = rows_.FindOrInsert(key, HashRow(key), &inserted);
      if (!inserted) {
        return Status::DataLoss("duplicate sink key state in checkpoint");
      }
      *entry = RowEntry{count, state.next_ver};
      continue;
    }
    const bool inserted =
        keys_.emplace(std::move(key), std::move(state)).second;
    if (!inserted) {
      return Status::DataLoss("duplicate sink key state in checkpoint");
    }
  }

  ONESQL_RETURN_NOT_OK(LoadTimerQueue(&timers_, r));
  ONESQL_RETURN_NOT_OK(LinkTimers());
  ONESQL_RETURN_NOT_OK(LoadTimerQueue(&pending_complete_, r));

  ONESQL_ASSIGN_OR_RETURN(uint64_t nemissions, r->ReadVarint());
  if (nemissions > r->remaining()) {
    return Status::DataLoss("impossible emission count in checkpoint");
  }
  const size_t first = emissions_.size();
  emissions_.reserve(first + static_cast<size_t>(nemissions));
  // Rebuild the table by folding the restored emissions, so the two cannot
  // diverge. In instant whole-row mode the key states built the row map,
  // and their counts must equal the fold.
  FlatRowMap<RowEntry> folded;
  FlatRowMap<RowEntry>* table = instant_whole_row() ? &folded : &rows_;
  for (uint64_t i = 0; i < nemissions; ++i) {
    Emission e;
    ONESQL_ASSIGN_OR_RETURN(e.row, r->ReadRow());
    ONESQL_ASSIGN_OR_RETURN(e.undo, r->ReadBool());
    ONESQL_ASSIGN_OR_RETURN(e.ptime, r->ReadTimestamp());
    ONESQL_ASSIGN_OR_RETURN(e.ver, r->ReadSigned());
    Fold(table, e.undo, e.row, HashRow(e.row));
    emissions_.push_back(std::move(e));
  }
  if (instant_whole_row()) {
    size_t live = 0;
    bool agree = true;
    for (const auto& slot : rows_.slots()) {
      if (slot.value.count == 0) continue;
      ++live;
      const RowEntry* entry = folded.Find(slot.key, slot.hash);
      agree = agree && entry != nullptr && entry->count == slot.value.count;
    }
    if (!agree || live != folded.size()) {
      return Status::DataLoss("sink key states disagree with the emissions");
    }
  }
  // The blob is length-framed: bytes after the emissions are the result
  // changelog of the layout that stored the log twice. It must be exactly
  // the emissions' projection, and is dropped.
  if (r->AtEnd()) return Status::OK();
  const Status disagrees = Status::DataLoss(
      "sink changelog disagrees with the emissions in checkpoint");
  ONESQL_ASSIGN_OR_RETURN(uint64_t nchanges, r->ReadVarint());
  if (nchanges != nemissions) return disagrees;
  for (size_t i = first; i < emissions_.size(); ++i) {
    ONESQL_ASSIGN_OR_RETURN(Change change, r->ReadChange());
    const Emission& e = emissions_[i];
    if (change.kind != (e.undo ? ChangeKind::kDelete : ChangeKind::kInsert) ||
        change.ptime != e.ptime || !RowsEqual(change.row, e.row)) {
      return disagrees;
    }
  }
  return Status::OK();
}

Status MaterializationSink::LinkTimers() {
  // Every key with a deadline owns exactly one timer at that deadline, and
  // every timer belongs to such a key: anything else is a damaged
  // checkpoint, and a key left unlinked could not erase its timer later.
  size_t with_deadline = 0;
  for (auto& [key, state] : keys_) {
    (void)key;
    state.timer = timers_.end();  // not linked yet
    if (state.deadline.has_value()) ++with_deadline;
  }
  if (with_deadline != timers_.size()) {
    return Status::DataLoss("sink timers disagree with key deadlines");
  }
  for (auto timer = timers_.begin(); timer != timers_.end(); ++timer) {
    auto it = keys_.find(timer->second);
    if (it == keys_.end() || it->second.deadline != timer->first ||
        it->second.timer != timers_.end()) {
      return Status::DataLoss("sink timer without a matching key deadline");
    }
    it->second.timer = timer;
  }
  return Status::OK();
}

size_t MaterializationSink::StateBytes() const {
  size_t total = 0;
  if (instant_whole_row()) {
    // The same formula the generic path charges: 64 bytes per key entry plus
    // 48 per live `current` row (`last` is never maintained in instant mode).
    for (const auto& slot : rows_.slots()) {
      total += slot.key.size() * sizeof(Value) + 64;
      if (slot.value.count > 0) {
        total += slot.key.size() * sizeof(Value) + 48;
      }
    }
    return total;
  }
  for (const auto& [key, state] : keys_) {
    total += key.size() * sizeof(Value) + 64;
    for (const auto& [row, count] : state.last) {
      (void)count;
      total += row.size() * sizeof(Value) + 48;
    }
    for (const auto& [row, count] : state.current) {
      (void)count;
      total += row.size() * sizeof(Value) + 48;
    }
  }
  return total;
}

}  // namespace exec
}  // namespace onesql
