#include "exec/sink.h"

#include <algorithm>
#include <limits>

namespace onesql {
namespace exec {

namespace {

Status DeleteNotInResult() {
  return Status::ExecutionError(
      "sink received a DELETE for a row that is not in the result");
}

}  // namespace

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

Status MaterializationSink::Flush(KeyState* state, Timestamp ptime,
                                  PaneKind pane) {
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
      // feed's logical clock, so the value is deterministic.
      const int64_t lag_ms = (ptime - *state->completeness).millis();
      sink_metrics_->emit_latency_ms->Record(
          lag_ms > 0 ? static_cast<uint64_t>(lag_ms) : 0);
    }
  }
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
  // Look up before creating anything, so a rejected DELETE leaves no entry.
  RowEntry* entry =
      is_delete ? rows_.Find(row, hash) : rows_.FindOrInsert(row, hash);
  if (entry == nullptr || (is_delete && entry->count == 0)) {
    return DeleteNotInResult();
  }
  int64_t* ver = config_.version_key_columns.empty() ? &entry->next_ver
                                                     : VerCounter(row, hash);
  Materialize(row, is_delete, ptime, (*ver)++, hash);
  return Status::OK();
}

Status MaterializationSink::ProcessElement(int, const Change& change) {
  if (change.kind == ChangeKind::kUpsert) {
    return Status::ExecutionError("sink cannot consume UPSERT changes");
  }
  if (instant()) {
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
  auto it = keys_.find(key);
  if (it != keys_.end() && it->second.complete) {
    ++late_drops_;
    if (sink_metrics_ != nullptr) sink_metrics_->late_drops->Increment();
    return Status::OK();
  }

  if (it == keys_.end()) {
    if (change.kind == ChangeKind::kDelete) return DeleteNotInResult();
    it = keys_.emplace(key, KeyState{}).first;
  }
  KeyState& state = it->second;
  if (change.kind == ChangeKind::kInsert) {
    state.current[change.row] += 1;
  } else {
    auto row = state.current.find(change.row);
    if (row == state.current.end()) return DeleteNotInResult();
    if (--row->second == 0) state.current.erase(row);
  }

  if (config_.after_watermark && config_.completeness_column.has_value() &&
      !state.completeness.has_value()) {
    const Value& cv = change.row[*config_.completeness_column];
    if (!cv.is_null()) {
      state.completeness = cv.AsTimestamp();
      pending_complete_.emplace(*state.completeness, key);
    }
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
    ONESQL_RETURN_NOT_OK(Flush(&state, change.ptime, PaneKind::kLate));
  }
  return Status::OK();
}

Status MaterializationSink::ProcessBatch(int port, const ChangeBatch& batch) {
  // The scalar runtime advances the sink's processing-time clock before
  // delivering each event; a batch delivers that interleaving itself, so
  // AFTER DELAY timers fire at exactly the scalar instants.
  for (size_t i = 0; i < batch.num_rows; ++i) {
    ONESQL_RETURN_NOT_OK(AdvanceTo(batch.ptimes[i], false));
    batch.MaterializeChange(i, &change_scratch_);
    Status status = ProcessElement(port, change_scratch_);
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
      ONESQL_RETURN_NOT_OK(Flush(&state, ptime, PaneKind::kOnTime));
      state.on_time_fired = true;
      if (config_.allowed_lateness.millis() > 0) {
        // Stay open for late corrections until the lateness budget passes.
        pending_complete_.emplace(
            *state.completeness + config_.allowed_lateness, key);
        continue;
      }
    } else {
      // Lateness budget exhausted: flush any outstanding correction.
      ONESQL_RETURN_NOT_OK(Flush(&state, ptime, PaneKind::kLate));
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
    ONESQL_RETURN_NOT_OK(Flush(&state, deadline, pane));
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

  // Key states, sorted by key for a canonical byte stream. Instant modes
  // keep none: their row counts and `ver` counters are the emissions' fold.
  std::vector<const std::pair<const Row, KeyState>*> entries;
  entries.reserve(keys_.size());
  for (const auto& entry : keys_) entries.push_back(&entry);
  std::sort(entries.begin(), entries.end(), [](const auto* a, const auto* b) {
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

Status MaterializationSink::LoadState(state::Reader* r) {
  ONESQL_RETURN_NOT_OK(merger_.LoadState(r));
  ONESQL_ASSIGN_OR_RETURN(Timestamp now, r->ReadTimestamp());
  now_ = std::max(now_, now);
  ONESQL_ASSIGN_OR_RETURN(int64_t drops, r->ReadSigned());
  late_drops_ += drops;

  ONESQL_ASSIGN_OR_RETURN(uint64_t nkeys, r->ReadVarint());
  if (nkeys > r->remaining()) {
    return Status::DataLoss("impossible sink key count in checkpoint");
  }
  // In instant modes key states are the older layout: they are checked
  // against the emissions' fold below and dropped.
  std::vector<std::pair<Row, KeyState>> old_keys;
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
    if (instant()) {
      // Saved in strictly increasing key order, so no key repeats.
      if (!old_keys.empty() && !RowLess{}(old_keys.back().first, key)) {
        return Status::DataLoss("sink key states out of order in checkpoint");
      }
      old_keys.emplace_back(std::move(key), std::move(state));
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
  // diverge. In instant modes every change of a key materializes at once
  // with the key's next `ver`, and no key is ever reclaimed, so each `ver`
  // counter is the key's last emitted `ver` + 1. Consecutive emissions of
  // one version key (an update's DELETE+INSERT) share one counter lookup:
  // the fold never touches vers_, so the pointer stays valid. A whole-row
  // counter lives in rows_, which the fold may grow, so it is looked up
  // every time.
  const bool whole_row = config_.version_key_columns.empty();
  int64_t* ver = nullptr;
  for (uint64_t i = 0; i < nemissions; ++i) {
    Emission e;
    ONESQL_ASSIGN_OR_RETURN(e.row, r->ReadRow());
    ONESQL_ASSIGN_OR_RETURN(e.undo, r->ReadBool());
    ONESQL_ASSIGN_OR_RETURN(e.ptime, r->ReadTimestamp());
    ONESQL_ASSIGN_OR_RETURN(e.ver, r->ReadSigned());
    const size_t hash = HashRow(e.row);
    if (instant()) {
      if (e.ver < 0 || e.ver == std::numeric_limits<int64_t>::max()) {
        return Status::DataLoss("impossible emission ver in checkpoint");
      }
      if (whole_row || ver == nullptr ||
          !SameVersionKey(emissions_.back().row, e.row)) {
        ver = VerCounter(e.row, hash);
      }
      *ver = e.ver + 1;
    }
    Fold(&rows_, e.undo, e.row, hash);
    emissions_.push_back(std::move(e));
  }
  if (!old_keys.empty()) ONESQL_RETURN_NOT_OK(CheckOldKeyStates(old_keys));
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

int64_t* MaterializationSink::VerCounter(const Row& row, size_t hash) {
  const std::vector<size_t>& columns = config_.version_key_columns;
  if (columns.empty()) return &rows_.FindOrInsert(row, hash)->next_ver;
  // Project into a reused row: a known key costs no allocation, on the hot
  // path and for every emission LoadState folds.
  key_scratch_.resize(columns.size());
  for (size_t i = 0; i < columns.size(); ++i) key_scratch_[i] = row[columns[i]];
  return vers_.FindOrInsert(key_scratch_, HashRow(key_scratch_));
}

bool MaterializationSink::SameVersionKey(const Row& a, const Row& b) const {
  for (size_t c : config_.version_key_columns) {
    if (!(a[c] == b[c])) return false;
  }
  return true;
}

Status MaterializationSink::CheckOldKeyStates(
    const std::vector<std::pair<Row, KeyState>>& old_keys) const {
  // Each saved key was never flushed, timed or completed, carries its
  // derived `ver` counter (0 for a key never emitted) and names its live
  // rows at their folded counts; together they name every counter and row.
  const Status disagree =
      Status::DataLoss("sink key states disagree with the emissions");
  const bool whole_row = config_.version_key_columns.empty();
  size_t counters = 0;
  size_t live = 0;
  for (const auto& [key, state] : old_keys) {
    const size_t hash = HashRow(key);
    const RowEntry* entry = whole_row ? rows_.Find(key, hash) : nullptr;
    const int64_t* counter =
        !whole_row ? vers_.Find(key, hash)
                   : entry != nullptr ? &entry->next_ver : nullptr;
    const int64_t next_ver = counter != nullptr ? *counter : 0;
    if (!state.last.empty() || state.deadline.has_value() ||
        state.completeness.has_value() || state.on_time_fired ||
        state.complete || state.next_ver != next_ver) {
      return disagree;
    }
    counters += next_ver != 0;
    live += state.current.size();
    for (const auto& [row, count] : state.current) {
      const RowEntry* folded = rows_.Find(row, HashRow(row));
      if (count <= 0 || folded == nullptr || folded->count != count ||
          !RowsEqual(KeyOf(row), key)) {
        return disagree;
      }
    }
  }
  size_t live_rows = 0;
  for (const auto& slot : rows_.slots()) live_rows += slot.value.count > 0;
  if (live != live_rows ||
      counters != (whole_row ? rows_.size() : vers_.size())) {
    return disagree;
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
  // 64 bytes per key plus 48 per live row of it. In instant modes the keys
  // are the `ver` counters (a whole-row entry holds its own, and may be at
  // count zero) and the live rows are the row map's entries.
  const auto bytes = [](const Row& row) { return row.size() * sizeof(Value); };
  size_t total = 0;
  for (const auto& [key, state] : keys_) {
    total += bytes(key) + 64;
    for (const auto& entry : state.last) total += bytes(entry.first) + 48;
    for (const auto& entry : state.current) total += bytes(entry.first) + 48;
  }
  if (!instant()) return total;
  const bool whole_row = config_.version_key_columns.empty();
  for (const auto& slot : rows_.slots()) {
    if (whole_row) total += bytes(slot.key) + 64;
    if (!whole_row || slot.value.count > 0) total += bytes(slot.key) + 48;
  }
  for (const auto& slot : vers_.slots()) total += bytes(slot.key) + 64;
  return total;
}

}  // namespace exec
}  // namespace onesql
