#include "exec/operators.h"

#include <algorithm>

#include "exec/expr_eval.h"
#include "exec/vector_kernels.h"

namespace onesql {
namespace exec {

namespace {

/// Maps a kernel fallback reason onto the matching profile counter (null
/// bundle handled by the caller).
obs::Counter* FallbackCounterFor(const obs::OperatorProfileMetrics* p,
                                 KernelFallback why) {
  if (p == nullptr) return nullptr;
  switch (why) {
    case KernelFallback::kDemotedLane:
      return p->fallback_demoted_lane;
    case KernelFallback::kDivision:
      return p->fallback_division;
    case KernelFallback::kGenericLane:
      return p->fallback_generic_lane;
    case KernelFallback::kNone:
    case KernelFallback::kUnsupported:
      return p->fallback_unsupported;
  }
  return p->fallback_unsupported;
}

}  // namespace

// ---------------------------------------------------------------------------
// Source
// ---------------------------------------------------------------------------

Status SourceOperator::ProcessElement(int, const Change& change) {
  return EmitElement(change);
}

Status SourceOperator::ProcessBatch(int, const ChangeBatch& batch) {
  return EmitBatch(batch);
}

Status SourceOperator::ProcessWatermark(int, Timestamp watermark,
                                   Timestamp ptime) {
  return EmitWatermark(watermark, ptime);
}

// ---------------------------------------------------------------------------
// Filter
// ---------------------------------------------------------------------------

Status FilterOperator::ProcessElement(int, const Change& change) {
  ONESQL_ASSIGN_OR_RETURN(bool pass, EvalPredicate(*predicate_, change.row));
  if (pass) return EmitElement(change);
  return Status::OK();
}

Status FilterOperator::ProcessBatch(int, const ChangeBatch& batch) {
  if (batch.num_rows == 0) return Status::OK();
  KernelFallback why = KernelFallback::kNone;
  if (EvalPredicateBatch(*predicate_, batch, &keep_, &why)) {
    CountVectorizedRows(batch.num_rows);
    size_t kept = 0;
    for (size_t i = 0; i < batch.num_rows; ++i) kept += keep_[i];
    if (kept == batch.num_rows) return EmitBatch(batch);
    if (kept == 0) return Status::OK();
    out_batch_.ResetLike(batch);
    out_batch_.Reserve(kept);
    for (size_t i = 0; i < batch.num_rows; ++i) {
      if (keep_[i]) out_batch_.AppendRowFrom(batch, i);
    }
    return EmitBatch(out_batch_);
  }
  // The predicate is outside the vectorizable subset for this batch: gather
  // passing rows with the scalar evaluator. On error, the passing prefix is
  // still emitted (exactly the rows the scalar path would have emitted).
  CountScalarRows(batch.num_rows, FallbackCounterFor(profile(), why));
  out_batch_.ResetLike(batch);
  for (size_t i = 0; i < batch.num_rows; ++i) {
    batch.MaterializeRow(i, &scratch_row_);
    Result<bool> pass = EvalPredicate(*predicate_, scratch_row_);
    if (!pass.ok()) {
      ONESQL_RETURN_NOT_OK(EmitBatch(out_batch_));
      SetBatchFailure(i < batch.seqs.size() ? batch.seqs[i] : 0,
                      batch.ptimes[i]);
      return pass.status();
    }
    if (*pass) out_batch_.AppendRowFrom(batch, i);
  }
  return EmitBatch(out_batch_);
}

Status FilterOperator::ProcessWatermark(int, Timestamp watermark,
                                   Timestamp ptime) {
  return EmitWatermark(watermark, ptime);
}

// ---------------------------------------------------------------------------
// Project
// ---------------------------------------------------------------------------

Status ProjectOperator::ProcessElement(int, const Change& change) {
  out_.kind = change.kind;
  out_.ptime = change.ptime;
  out_.row.clear();
  for (const auto& e : *exprs_) {
    ONESQL_ASSIGN_OR_RETURN(Value v, EvalExpr(*e, change.row));
    out_.row.push_back(std::move(v));
  }
  return EmitElement(out_);
}

Status ProjectOperator::ProcessBatch(int, const ChangeBatch& batch) {
  if (batch.num_rows == 0) return Status::OK();
  const size_t nexprs = exprs_->size();
  out_batch_.Clear();
  out_batch_.columns.resize(nexprs);
  // Vectorize each output column independently; columns outside the subset
  // fall back to the scalar evaluator row by row below. Kernel-path counters
  // are per (row, expression): each output column contributes the batch
  // cardinality to exactly one path, so mixed batches attribute per column.
  std::vector<size_t> fallback;
  for (size_t j = 0; j < nexprs; ++j) {
    KernelFallback why = KernelFallback::kNone;
    if (!EvalExprBatch(*(*exprs_)[j], batch, &out_batch_.columns[j], &why)) {
      CountScalarRows(batch.num_rows, FallbackCounterFor(profile(), why));
      out_batch_.columns[j].Reset((*exprs_)[j]->type);
      out_batch_.columns[j].Reserve(batch.num_rows);
      fallback.push_back(j);
    } else {
      CountVectorizedRows(batch.num_rows);
    }
  }
  if (!fallback.empty()) {
    for (size_t i = 0; i < batch.num_rows; ++i) {
      batch.MaterializeRow(i, &scratch_row_);
      for (size_t j : fallback) {
        Result<Value> v = EvalExpr(*(*exprs_)[j], scratch_row_);
        if (!v.ok()) {
          // Truncate every column to the `i` complete rows and emit that
          // prefix — the rows the scalar path would have emitted.
          for (ColumnVector& col : out_batch_.columns) {
            if (col.size() > i) col.Truncate(i);
          }
          FillMetaPrefix(batch, i);
          ONESQL_RETURN_NOT_OK(EmitBatch(out_batch_));
          SetBatchFailure(i < batch.seqs.size() ? batch.seqs[i] : 0,
                          batch.ptimes[i]);
          return v.status();
        }
        out_batch_.columns[j].Append(*v);
      }
    }
  }
  FillMetaPrefix(batch, batch.num_rows);
  return EmitBatch(out_batch_);
}

void ProjectOperator::FillMetaPrefix(const ChangeBatch& batch, size_t n) {
  out_batch_.weights.assign(batch.weights.begin(), batch.weights.begin() + n);
  out_batch_.ptimes.assign(batch.ptimes.begin(), batch.ptimes.begin() + n);
  if (batch.seqs.size() >= n) {
    out_batch_.seqs.assign(batch.seqs.begin(), batch.seqs.begin() + n);
  } else {
    out_batch_.seqs.clear();
  }
  out_batch_.num_rows = n;
}

Status ProjectOperator::ProcessWatermark(int, Timestamp watermark,
                                   Timestamp ptime) {
  return EmitWatermark(watermark, ptime);
}

// ---------------------------------------------------------------------------
// Window
// ---------------------------------------------------------------------------

namespace {

// Largest multiple of `step` (shifted by `offset`) that is <= t.
int64_t FloorAlign(int64_t t, int64_t step, int64_t offset) {
  const int64_t shifted = t - offset;
  int64_t q = shifted / step;
  if (shifted % step != 0 && shifted < 0) --q;
  return q * step + offset;
}

}  // namespace

void WindowOperator::AssignWindowsInto(Timestamp t, Interval dur, Interval hop,
                                       Interval offset,
                                       std::vector<int64_t>* out) {
  out->clear();
  const int64_t last_start =
      FloorAlign(t.millis(), hop.millis(), offset.millis());
  // Walk backwards over hop-aligned starts whose window still covers t.
  for (int64_t s = last_start; s + dur.millis() > t.millis();
       s -= hop.millis()) {
    out->push_back(s);
  }
  std::reverse(out->begin(), out->end());
}

std::vector<Timestamp> WindowOperator::AssignWindows(Timestamp t, Interval dur,
                                                     Interval hop,
                                                     Interval offset) {
  std::vector<int64_t> raw;
  AssignWindowsInto(t, dur, hop, offset, &raw);
  std::vector<Timestamp> starts;
  starts.reserve(raw.size());
  for (int64_t s : raw) starts.push_back(Timestamp(s));
  return starts;
}

Status WindowOperator::ProcessElement(int, const Change& change) {
  const Value& tv = change.row[node_->timecol()];
  if (tv.is_null()) {
    return Status::ExecutionError(
        "NULL event timestamp in windowing column '" +
        node_->input().schema().field(node_->timecol()).name + "'");
  }
  const Timestamp t = tv.AsTimestamp();
  AssignWindowsInto(t, node_->dur(), node_->hop(), node_->offset(),
                    &starts_scratch_);
  out_.kind = change.kind;
  out_.ptime = change.ptime;
  for (int64_t s : starts_scratch_) {
    const Timestamp start(s);
    out_.row.assign(change.row.begin(), change.row.end());
    out_.row.push_back(Value::Time(start));
    out_.row.push_back(Value::Time(start + node_->dur()));
    ONESQL_RETURN_NOT_OK(EmitElement(out_));
  }
  return Status::OK();
}

Status WindowOperator::ProcessBatch(int, const ChangeBatch& batch) {
  if (batch.num_rows == 0) return Status::OK();
  const size_t tcol = node_->timecol();
  const size_t arity = batch.columns.size();
  const ColumnVector& tc = batch.columns[tcol];

  // Output layout: the input columns plus wstart/wend.
  out_batch_.ResetLike(batch);
  out_batch_.columns.resize(arity + 2);
  out_batch_.columns[arity].Reset(DataType::kTimestamp);
  out_batch_.columns[arity + 1].Reset(DataType::kTimestamp);

  const Interval dur = node_->dur();
  const Interval hop = node_->hop();
  const Interval offset = node_->offset();

  // Tumbling fast path: exactly one window per row, the timestamp column is
  // in its typed lane, and every timestamp is non-NULL — wstart/wend compute
  // in a tight loop and the other columns copy through wholesale.
  if (dur.millis() == hop.millis() && tc.lane() == ColumnVector::Lane::kI64 &&
      std::find(tc.valid().begin(), tc.valid().end(), 0) == tc.valid().end()) {
    for (size_t c = 0; c < arity; ++c) out_batch_.columns[c] = batch.columns[c];
    ColumnVector& ws = out_batch_.columns[arity];
    ColumnVector& we = out_batch_.columns[arity + 1];
    std::vector<int64_t>& wsv = *ws.mutable_i64();
    std::vector<int64_t>& wev = *we.mutable_i64();
    wsv.resize(batch.num_rows);
    wev.resize(batch.num_rows);
    ws.mutable_valid()->assign(batch.num_rows, 1);
    we.mutable_valid()->assign(batch.num_rows, 1);
    const int64_t step = hop.millis();
    const int64_t off = offset.millis();
    const std::vector<int64_t>& ts = tc.i64();
    for (size_t i = 0; i < batch.num_rows; ++i) {
      const int64_t start = FloorAlign(ts[i], step, off);
      wsv[i] = start;
      wev[i] = (Timestamp(start) + dur).millis();
    }
    out_batch_.weights = batch.weights;
    out_batch_.ptimes = batch.ptimes;
    out_batch_.seqs = batch.seqs;
    out_batch_.num_rows = batch.num_rows;
    return EmitBatch(out_batch_);
  }

  // General path (hopping windows, NULL timestamps, demoted column): expand
  // row by row. On a NULL timestamp the complete prefix is emitted before
  // the error, exactly as the scalar path would have.
  for (size_t i = 0; i < batch.num_rows; ++i) {
    const Value tv = tc.ValueAt(i);
    if (tv.is_null()) {
      ONESQL_RETURN_NOT_OK(EmitBatch(out_batch_));
      SetBatchFailure(i < batch.seqs.size() ? batch.seqs[i] : 0,
                      batch.ptimes[i]);
      return Status::ExecutionError(
          "NULL event timestamp in windowing column '" +
          node_->input().schema().field(node_->timecol()).name + "'");
    }
    AssignWindowsInto(tv.AsTimestamp(), dur, hop, offset, &starts_scratch_);
    for (int64_t s : starts_scratch_) {
      const Timestamp start(s);
      for (size_t c = 0; c < arity; ++c) {
        out_batch_.columns[c].Append(batch.columns[c].ValueAt(i));
      }
      out_batch_.columns[arity].Append(Value::Time(start));
      out_batch_.columns[arity + 1].Append(Value::Time(start + dur));
      out_batch_.weights.push_back(batch.weights[i]);
      out_batch_.ptimes.push_back(batch.ptimes[i]);
      if (i < batch.seqs.size()) out_batch_.seqs.push_back(batch.seqs[i]);
      ++out_batch_.num_rows;
    }
  }
  return EmitBatch(out_batch_);
}

Status WindowOperator::ProcessWatermark(int, Timestamp watermark,
                                   Timestamp ptime) {
  return EmitWatermark(watermark, ptime);
}

// ---------------------------------------------------------------------------
// Temporal filter (time-progressing predicate)
// ---------------------------------------------------------------------------

Status TemporalFilterOperator::ProcessElement(int, const Change& change) {
  if (change.kind == ChangeKind::kUpsert) {
    return Status::ExecutionError("temporal filter cannot consume UPSERTs");
  }
  const Value& tv = change.row[node_->et_col()];
  if (tv.is_null()) {
    return Status::ExecutionError(
        "NULL event timestamp in CURRENT_TIME predicate column");
  }
  const Timestamp t = tv.AsTimestamp();
  // Rows already outside the horizon never enter the output; matching
  // DELETEs for rows expired earlier are swallowed the same way (the output
  // already retracted them).
  if (t + node_->horizon() <= watermark_) {
    return Status::OK();
  }
  if (change.kind == ChangeKind::kInsert) {
    live_.emplace(t.millis(), change.row);
    return EmitElement(change);
  }
  auto range = live_.equal_range(t.millis());
  for (auto it = range.first; it != range.second; ++it) {
    if (RowsEqual(it->second, change.row)) {
      live_.erase(it);
      return EmitElement(change);
    }
  }
  return Status::ExecutionError(
      "temporal filter received a DELETE for a row that was never inserted");
}

Status TemporalFilterOperator::ProcessWatermark(int, Timestamp watermark,
                                           Timestamp ptime) {
  if (watermark > watermark_) {
    watermark_ = watermark;
    // CURRENT_TIME progressed: retract rows that fell out of the horizon.
    const int64_t cutoff = watermark_.millis() - node_->horizon().millis();
    while (!live_.empty() && live_.begin()->first <= cutoff) {
      Change retract;
      retract.kind = ChangeKind::kDelete;
      retract.row = std::move(live_.begin()->second);
      retract.ptime = ptime;
      live_.erase(live_.begin());
      ++expired_;
      ONESQL_RETURN_NOT_OK(EmitElement(retract));
    }
  }
  return EmitWatermark(watermark, ptime);
}

size_t TemporalFilterOperator::StateBytes() const {
  size_t total = 0;
  for (const auto& [t, row] : live_) {
    (void)t;
    total += row.size() * sizeof(Value) + 48;
  }
  return total;
}

Status TemporalFilterOperator::SaveState(state::Writer* w) const {
  w->PutTimestamp(watermark_);
  w->PutSigned(expired_);
  w->PutVarint(live_.size());
  // std::multimap iterates in key order with stable same-key order, so the
  // encoding is canonical and reload preserves retraction order.
  for (const auto& [t, row] : live_) {
    w->PutSigned(t);
    w->PutRow(row);
  }
  return Status::OK();
}

Status TemporalFilterOperator::LoadState(state::Reader* r) {
  ONESQL_ASSIGN_OR_RETURN(Timestamp wm, r->ReadTimestamp());
  watermark_ = std::max(watermark_, wm);
  ONESQL_ASSIGN_OR_RETURN(int64_t expired, r->ReadSigned());
  expired_ += expired;
  ONESQL_ASSIGN_OR_RETURN(uint64_t n, r->ReadVarint());
  if (n > r->remaining()) {
    return Status::DataLoss("impossible live-row count in checkpoint");
  }
  for (uint64_t i = 0; i < n; ++i) {
    ONESQL_ASSIGN_OR_RETURN(int64_t t, r->ReadSigned());
    ONESQL_ASSIGN_OR_RETURN(Row row, r->ReadRow());
    live_.emplace(t, std::move(row));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Session windows
// ---------------------------------------------------------------------------

Row SessionOperator::KeyOf(const Row& row) const {
  if (!node_->session_key().has_value()) return Row{};
  return Row{row[*node_->session_key()]};
}

Status SessionOperator::EmitRow(ChangeKind kind, const Row& row,
                                Timestamp wstart, Timestamp wend,
                                Timestamp ptime) {
  Change out;
  out.kind = kind;
  out.ptime = ptime;
  out.row = row;
  out.row.push_back(Value::Time(wstart));
  out.row.push_back(Value::Time(wend));
  return EmitElement(out);
}

Status SessionOperator::HandleInsert(KeyState* ks, const Row& row,
                                     Timestamp t, Timestamp ptime) {
  const Interval gap = node_->dur();
  Timestamp new_start = t;
  Timestamp new_end = t + gap;

  // Absorb every existing session whose interval overlaps [t, t + gap),
  // growing the merged interval as we go (absorbing one session can bring
  // later sessions into range). Keep each absorbed session intact so its
  // rows can be retracted under their old bounds.
  std::vector<Session> absorbed;
  auto it = ks->sessions.lower_bound(new_start);
  if (it != ks->sessions.begin()) {
    auto prev = std::prev(it);
    if (prev->second.end > t) it = prev;
  }
  while (it != ks->sessions.end() && it->second.start < new_end) {
    if (it->second.end <= new_start) {
      ++it;
      continue;
    }
    new_start = std::min(new_start, it->second.start);
    new_end = std::max(new_end, it->second.end);
    absorbed.push_back(std::move(it->second));
    it = ks->sessions.erase(it);
  }

  Session merged;
  merged.start = new_start;
  merged.end = new_end;
  for (Session& old : absorbed) {
    const bool bounds_changed =
        !(old.start == new_start && old.end == new_end);
    for (auto& [rt, r] : old.rows) {
      if (bounds_changed) {
        ONESQL_RETURN_NOT_OK(
            EmitRow(ChangeKind::kDelete, r, old.start, old.end, ptime));
        ONESQL_RETURN_NOT_OK(
            EmitRow(ChangeKind::kInsert, r, new_start, new_end, ptime));
      }
      merged.rows.emplace(rt, std::move(r));
    }
  }
  merged.rows.emplace(t, row);
  ks->sessions.emplace(merged.start, std::move(merged));
  return EmitRow(ChangeKind::kInsert, row, new_start, new_end, ptime);
}

Status SessionOperator::HandleDelete(KeyState* ks, const Row& row,
                                     Timestamp t, Timestamp ptime) {
  const Interval gap = node_->dur();
  // Locate the session containing t.
  auto it = ks->sessions.upper_bound(t);
  if (it != ks->sessions.begin()) --it;
  if (it == ks->sessions.end() || it->second.start > t ||
      it->second.end <= t) {
    return Status::ExecutionError(
        "session window received a DELETE for a row that was never inserted");
  }
  Session session = std::move(it->second);
  ks->sessions.erase(it);

  // Remove one occurrence of the row.
  bool removed = false;
  auto range = session.rows.equal_range(t);
  for (auto rit = range.first; rit != range.second; ++rit) {
    if (RowsEqual(rit->second, row)) {
      session.rows.erase(rit);
      removed = true;
      break;
    }
  }
  if (!removed) {
    return Status::ExecutionError(
        "session window received a DELETE for a row that was never inserted");
  }
  ONESQL_RETURN_NOT_OK(
      EmitRow(ChangeKind::kDelete, row, session.start, session.end, ptime));
  if (session.rows.empty()) return Status::OK();

  // Re-partition the survivors into gap-connected runs (the deletion may
  // have split the session or shrunk its bounds).
  std::vector<Session> runs;
  for (auto& [rt, r] : session.rows) {
    if (runs.empty() || rt >= runs.back().end) {
      Session s;
      s.start = rt;
      s.end = rt + gap;
      runs.push_back(std::move(s));
    } else {
      runs.back().end = std::max(runs.back().end, rt + gap);
    }
    runs.back().rows.emplace(rt, std::move(r));
  }
  for (Session& run : runs) {
    if (!(run.start == session.start && run.end == session.end)) {
      // Bounds changed: retract and re-emit every member.
      for (const auto& [rt, r] : run.rows) {
        (void)rt;
        ONESQL_RETURN_NOT_OK(EmitRow(ChangeKind::kDelete, r, session.start,
                                     session.end, ptime));
        ONESQL_RETURN_NOT_OK(
            EmitRow(ChangeKind::kInsert, r, run.start, run.end, ptime));
      }
    }
    const Timestamp start = run.start;
    ks->sessions.emplace(start, std::move(run));
  }
  return Status::OK();
}

Status SessionOperator::ProcessElement(int, const Change& change) {
  const Value& tv = change.row[node_->timecol()];
  if (tv.is_null()) {
    return Status::ExecutionError(
        "NULL event timestamp in session windowing column");
  }
  const Timestamp t = tv.AsTimestamp();
  // A row that cannot connect to any live session (its candidate interval
  // lies entirely below the watermark, minus the allowed lateness) is late:
  // its session was finalized.
  if (t + node_->dur() + allowed_lateness_ <= watermark_) {
    ++late_drops_;
    CountLateDrop();
    return Status::OK();
  }
  KeyState& ks = keys_[KeyOf(change.row)];
  if (change.kind == ChangeKind::kInsert) {
    return HandleInsert(&ks, change.row, t, change.ptime);
  }
  if (change.kind == ChangeKind::kDelete) {
    return HandleDelete(&ks, change.row, t, change.ptime);
  }
  return Status::ExecutionError("session window cannot consume UPSERTs");
}

Status SessionOperator::ProcessWatermark(int, Timestamp watermark,
                                   Timestamp ptime) {
  if (watermark > watermark_) {
    watermark_ = watermark;
    // Sessions ending at or below the watermark (minus allowed lateness)
    // are final: any future event time is > watermark >= end, so no merge
    // can reach them.
    for (auto& [key, ks] : keys_) {
      (void)key;
      for (auto it = ks.sessions.begin(); it != ks.sessions.end();) {
        if (it->second.end + allowed_lateness_ <= watermark_) {
          it = ks.sessions.erase(it);
        } else {
          ++it;
        }
      }
    }
  }
  return EmitWatermark(watermark, ptime);
}

size_t SessionOperator::NumSessions() const {
  size_t n = 0;
  for (const auto& [key, ks] : keys_) {
    (void)key;
    n += ks.sessions.size();
  }
  return n;
}

Status SessionOperator::SaveState(state::Writer* w) const {
  w->PutTimestamp(watermark_);
  w->PutSigned(late_drops_);
  // Canonical order: keys sorted by row comparison (the unordered_map's
  // iteration order must not leak into the bytes). Keys whose session map
  // emptied are semantically absent and are skipped.
  std::vector<const std::pair<const Row, KeyState>*> entries;
  entries.reserve(keys_.size());
  for (const auto& entry : keys_) {
    if (!entry.second.sessions.empty()) entries.push_back(&entry);
  }
  std::sort(entries.begin(), entries.end(),
            [](const auto* a, const auto* b) {
              return RowLess{}(a->first, b->first);
            });
  w->PutVarint(entries.size());
  for (const auto* entry : entries) {
    w->PutRow(entry->first);
    w->PutVarint(entry->second.sessions.size());
    for (const auto& [start, session] : entry->second.sessions) {
      (void)start;  // == session.start
      w->PutTimestamp(session.start);
      w->PutTimestamp(session.end);
      w->PutVarint(session.rows.size());
      for (const auto& [rt, row] : session.rows) {
        w->PutTimestamp(rt);
        w->PutRow(row);
      }
    }
  }
  return Status::OK();
}

Status SessionOperator::LoadState(state::Reader* r) {
  ONESQL_ASSIGN_OR_RETURN(Timestamp wm, r->ReadTimestamp());
  watermark_ = std::max(watermark_, wm);
  ONESQL_ASSIGN_OR_RETURN(int64_t drops, r->ReadSigned());
  late_drops_ += drops;
  ONESQL_ASSIGN_OR_RETURN(uint64_t nkeys, r->ReadVarint());
  if (nkeys > r->remaining()) {
    return Status::DataLoss("impossible session key count in checkpoint");
  }
  for (uint64_t i = 0; i < nkeys; ++i) {
    ONESQL_ASSIGN_OR_RETURN(Row key, r->ReadRow());
    ONESQL_ASSIGN_OR_RETURN(uint64_t nsessions, r->ReadVarint());
    if (nsessions > r->remaining()) {
      return Status::DataLoss("impossible session count in checkpoint");
    }
    KeyState& ks = keys_[key];
    for (uint64_t s = 0; s < nsessions; ++s) {
      Session session;
      ONESQL_ASSIGN_OR_RETURN(session.start, r->ReadTimestamp());
      ONESQL_ASSIGN_OR_RETURN(session.end, r->ReadTimestamp());
      ONESQL_ASSIGN_OR_RETURN(uint64_t nrows, r->ReadVarint());
      if (nrows > r->remaining()) {
        return Status::DataLoss("impossible session row count in checkpoint");
      }
      for (uint64_t j = 0; j < nrows; ++j) {
        ONESQL_ASSIGN_OR_RETURN(Timestamp rt, r->ReadTimestamp());
        ONESQL_ASSIGN_OR_RETURN(Row row, r->ReadRow());
        session.rows.emplace(rt, std::move(row));
      }
      const Timestamp start = session.start;
      ks.sessions.emplace(start, std::move(session));
    }
  }
  return Status::OK();
}

size_t SessionOperator::StateBytes() const {
  size_t total = 0;
  for (const auto& [key, ks] : keys_) {
    total += key.size() * sizeof(Value) + 64;
    for (const auto& [start, session] : ks.sessions) {
      (void)start;
      total += 2 * sizeof(Timestamp) + 48;
      for (const auto& [rt, r] : session.rows) {
        (void)rt;
        total += r.size() * sizeof(Value) + 48;
      }
    }
  }
  return total;
}

// ---------------------------------------------------------------------------
// Aggregate
// ---------------------------------------------------------------------------

AggregateOperator::AggregateOperator(const plan::AggregateNode* node,
                                     Interval allowed_lateness)
    : node_(node), allowed_lateness_(allowed_lateness) {}

Status AggregateOperator::EvalKey(const Row& input) {
  key_scratch_.clear();
  for (const auto& k : node_->keys()) {
    ONESQL_ASSIGN_OR_RETURN(Value v, EvalExpr(*k, input));
    key_scratch_.push_back(std::move(v));
  }
  return Status::OK();
}

int64_t AggregateOperator::CompletionMillis(const Row& key) const {
  int64_t at = Timestamp::Min().millis();
  for (size_t i : node_->event_time_key_indexes()) {
    const Value& v = key[i];
    if (!v.is_null()) at = std::max(at, v.AsTimestamp().millis());
  }
  return at;
}

bool AggregateOperator::IsComplete(const Row& key, Timestamp watermark) const {
  // With allowed lateness, a group stays open (correctable) until the
  // watermark passes its event-time key by the lateness budget.
  return tracks_completion() &&
         CompletionMillis(key) <= (watermark - allowed_lateness_).millis();
}

Status AggregateOperator::EmitGroupUpdate(GroupState* state, const Row& key,
                                          Timestamp ptime) {
  // Build the new output row (or none when the group emptied).
  const bool has_new = state->row_count > 0;
  next_output_.clear();
  if (has_new) {
    next_output_.assign(key.begin(), key.end());
    for (const auto& acc : state->accumulators) {
      next_output_.push_back(acc->Current());
    }
  }
  const bool unchanged =
      state->has_output == has_new &&
      (!has_new || RowsEqual(state->last_output, next_output_));
  if (unchanged) return Status::OK();

  // Both rows travel through out_ by swap, not copy. Each swaps back before
  // a downstream error returns, so a failed emission leaves the group's
  // last output as it was.
  out_.ptime = ptime;
  if (state->has_output) {
    out_.kind = ChangeKind::kDelete;
    out_.row.swap(state->last_output);
    const Status status = EmitElement(out_);
    out_.row.swap(state->last_output);
    ONESQL_RETURN_NOT_OK(status);
  }
  if (has_new) {
    out_.kind = ChangeKind::kInsert;
    out_.row.swap(next_output_);
    const Status status = EmitElement(out_);
    out_.row.swap(next_output_);
    ONESQL_RETURN_NOT_OK(status);
  }
  state->has_output = has_new;
  // The old output's buffer becomes the next update's scratch.
  state->last_output.swap(next_output_);
  return Status::OK();
}

Status AggregateOperator::MakeGroup(GroupState* state) {
  state->accumulators.reserve(node_->aggs().size());
  for (const auto& call : node_->aggs()) {
    ONESQL_ASSIGN_OR_RETURN(AccumulatorPtr acc, MakeAccumulator(call));
    state->accumulators.push_back(std::move(acc));
  }
  return Status::OK();
}

Result<AggregateOperator::GroupState*> AggregateOperator::FindOrCreateGroup(
    const Row& key, size_t hash) {
  GroupState* state = groups_.Find(key, hash);
  if (state != nullptr) return state;
  // Build the accumulators before inserting, so a MakeAccumulator failure
  // leaves no empty group behind.
  GroupState fresh;
  ONESQL_RETURN_NOT_OK(MakeGroup(&fresh));
  if (tracks_completion()) {
    fresh.completion = completion_.emplace(CompletionMillis(key), hash);
  }
  state = groups_.FindOrInsert(key, hash);
  *state = std::move(fresh);
  return state;
}

void AggregateOperator::EraseGroup(const Row& key, size_t hash,
                                   const GroupState& state) {
  if (tracks_completion()) completion_.erase(state.completion);
  groups_.Erase(key, hash);
}

Status AggregateOperator::ProcessElement(int, const Change& change) {
  if (change.kind == ChangeKind::kUpsert) {
    return Status::ExecutionError("aggregate cannot consume UPSERT changes");
  }
  ONESQL_RETURN_NOT_OK(EvalKey(change.row));
  const Row& key = key_scratch_;

  // Extension 2: inputs for already-complete groups are dropped.
  if (IsComplete(key, watermark_)) {
    ++late_drops_;
    CountLateDrop();
    return Status::OK();
  }

  const size_t hash = HashRow(key);
  ONESQL_ASSIGN_OR_RETURN(GroupState * state, FindOrCreateGroup(key, hash));

  for (size_t i = 0; i < node_->aggs().size(); ++i) {
    const plan::AggregateCall& call = node_->aggs()[i];
    Value arg;  // NULL placeholder for COUNT(*)
    if (call.arg != nullptr) {
      ONESQL_ASSIGN_OR_RETURN(arg, EvalExpr(*call.arg, change.row));
    }
    if (change.kind == ChangeKind::kInsert) {
      ONESQL_RETURN_NOT_OK(state->accumulators[i]->Add(arg));
    } else {
      ONESQL_RETURN_NOT_OK(state->accumulators[i]->Retract(arg));
    }
  }
  state->row_count += change.kind == ChangeKind::kInsert ? 1 : -1;
  if (state->row_count < 0) {
    return Status::ExecutionError(
        "aggregate received a DELETE for a row that was never inserted");
  }

  ONESQL_RETURN_NOT_OK(EmitGroupUpdate(state, key, change.ptime));

  if (state->row_count == 0) EraseGroup(key, hash, *state);
  return Status::OK();
}

Status AggregateOperator::ApplyRow(ChangeKind kind, const Row& key,
                                   size_t hash, const Value* args,
                                   Timestamp ptime) {
  if (IsComplete(key, watermark_)) {
    ++late_drops_;
    CountLateDrop();
    return Status::OK();
  }
  ONESQL_ASSIGN_OR_RETURN(GroupState * state, FindOrCreateGroup(key, hash));
  const size_t naggs = node_->aggs().size();
  for (size_t i = 0; i < naggs; ++i) {
    if (kind == ChangeKind::kInsert) {
      ONESQL_RETURN_NOT_OK(state->accumulators[i]->Add(args[i]));
    } else {
      ONESQL_RETURN_NOT_OK(state->accumulators[i]->Retract(args[i]));
    }
  }
  state->row_count += kind == ChangeKind::kInsert ? 1 : -1;
  if (state->row_count < 0) {
    return Status::ExecutionError(
        "aggregate received a DELETE for a row that was never inserted");
  }
  ONESQL_RETURN_NOT_OK(EmitGroupUpdate(state, key, ptime));
  if (state->row_count == 0) EraseGroup(key, hash, *state);
  return Status::OK();
}

Status AggregateOperator::ProcessBatch(int port, const ChangeBatch& batch) {
  if (batch.num_rows == 0) return Status::OK();
  const auto& keys = node_->keys();
  const auto& aggs = node_->aggs();

  // Vectorize every key and argument expression, or decompose the whole
  // batch row by row (pre-evaluating args would reorder errors otherwise).
  bool vectorized = true;
  KernelFallback why = KernelFallback::kNone;
  key_cols_.resize(keys.size());
  for (size_t k = 0; k < keys.size() && vectorized; ++k) {
    vectorized = EvalExprBatch(*keys[k], batch, &key_cols_[k], &why);
  }
  arg_cols_.resize(aggs.size());
  for (size_t a = 0; a < aggs.size() && vectorized; ++a) {
    if (aggs[a].arg == nullptr) continue;  // COUNT(*): NULL placeholder
    vectorized = EvalExprBatch(*aggs[a].arg, batch, &arg_cols_[a], &why);
  }
  if (!vectorized) {
    CountScalarRows(batch.num_rows, FallbackCounterFor(profile(), why));
    return Operator::ProcessBatch(port, batch);
  }
  CountVectorizedRows(batch.num_rows);

  HashRowsBatch(batch, key_cols_, &hash_scratch_);

  key_scratch_.resize(keys.size());
  arg_scratch_.resize(aggs.size());
  for (size_t i = 0; i < batch.num_rows; ++i) {
    for (size_t k = 0; k < keys.size(); ++k) {
      key_scratch_[k] = key_cols_[k].ValueAt(i);
    }
    for (size_t a = 0; a < aggs.size(); ++a) {
      arg_scratch_[a] = aggs[a].arg != nullptr ? arg_cols_[a].ValueAt(i)
                                               : Value();
    }
    const ChangeKind kind =
        batch.weights[i] < 0 ? ChangeKind::kDelete : ChangeKind::kInsert;
    Status status = ApplyRow(kind, key_scratch_, hash_scratch_[i],
                             arg_scratch_.data(), batch.ptimes[i]);
    if (!status.ok()) {
      SetBatchFailure(i < batch.seqs.size() ? batch.seqs[i] : 0,
                      batch.ptimes[i]);
      return status;
    }
  }
  return Status::OK();
}

Status AggregateOperator::ProcessWatermark(int, Timestamp watermark,
                                   Timestamp ptime) {
  if (watermark > watermark_) {
    watermark_ = watermark;
    // Extension 2: groups whose event-time keys are below the watermark are
    // complete — their results are final, so state can be released. The
    // completion index yields exactly those groups, earliest first.
    const int64_t horizon = (watermark_ - allowed_lateness_).millis();
    while (!completion_.empty() && completion_.begin()->first <= horizon) {
      const CompletionIndex::iterator done = completion_.begin();
      groups_.EraseMatching(done->second, [done](const auto& slot) {
        return slot.value.completion == done;
      });
      completion_.erase(done);
    }
  }
  return EmitWatermark(watermark, ptime);
}

size_t AggregateOperator::StateBytes() const {
  size_t total = 0;
  for (const auto& slot : groups_.slots()) {
    total += slot.key.size() * sizeof(Value) + 64;
    total += slot.value.last_output.size() * sizeof(Value);
    for (const auto& acc : slot.value.accumulators) total += acc->StateBytes();
  }
  return total;
}

Status AggregateOperator::SaveState(state::Writer* w) const {
  w->PutTimestamp(watermark_);
  w->PutSigned(late_drops_);
  // Canonical order: groups sorted by key so the bytes do not depend on the
  // hash map's iteration order.
  std::vector<const FlatRowMap<GroupState>::Slot*> entries;
  entries.reserve(groups_.size());
  for (const auto& slot : groups_.slots()) entries.push_back(&slot);
  std::sort(entries.begin(), entries.end(),
            [](const auto* a, const auto* b) {
              return RowLess{}(a->key, b->key);
            });
  w->PutVarint(entries.size());
  for (const auto* entry : entries) {
    const GroupState& state = entry->value;
    w->PutRow(entry->key);
    w->PutSigned(state.row_count);
    w->PutBool(state.has_output);
    w->PutRow(state.last_output);
    w->PutVarint(state.accumulators.size());
    for (const auto& acc : state.accumulators) {
      state::Writer nested;
      acc->SaveState(&nested);
      w->PutBlob(nested);
    }
  }
  return Status::OK();
}

Status AggregateOperator::LoadState(state::Reader* r) {
  ONESQL_ASSIGN_OR_RETURN(Timestamp wm, r->ReadTimestamp());
  watermark_ = std::max(watermark_, wm);
  ONESQL_ASSIGN_OR_RETURN(int64_t drops, r->ReadSigned());
  late_drops_ += drops;
  ONESQL_ASSIGN_OR_RETURN(uint64_t ngroups, r->ReadVarint());
  if (ngroups > r->remaining()) {
    return Status::DataLoss("impossible group count in checkpoint");
  }
  for (uint64_t i = 0; i < ngroups; ++i) {
    ONESQL_ASSIGN_OR_RETURN(Row key, r->ReadRow());
    GroupState state;
    ONESQL_ASSIGN_OR_RETURN(state.row_count, r->ReadSigned());
    if (state.row_count < 0) {
      return Status::DataLoss("negative group row count in checkpoint");
    }
    ONESQL_ASSIGN_OR_RETURN(state.has_output, r->ReadBool());
    ONESQL_ASSIGN_OR_RETURN(state.last_output, r->ReadRow());
    ONESQL_ASSIGN_OR_RETURN(uint64_t naccs, r->ReadVarint());
    if (naccs != node_->aggs().size()) {
      return Status::DataLoss(
          "checkpointed group has " + std::to_string(naccs) +
          " accumulators, plan expects " +
          std::to_string(node_->aggs().size()));
    }
    for (uint64_t j = 0; j < naccs; ++j) {
      ONESQL_ASSIGN_OR_RETURN(state::Reader nested, r->ReadBlob());
      ONESQL_ASSIGN_OR_RETURN(AccumulatorPtr acc,
                              MakeAccumulator(node_->aggs()[j]));
      ONESQL_RETURN_NOT_OK(acc->LoadState(&nested));
      ONESQL_RETURN_NOT_OK(nested.ExpectEnd());
      state.accumulators.push_back(std::move(acc));
    }
    const size_t hash = HashRow(key);
    bool inserted = false;
    GroupState* slot = groups_.FindOrInsert(key, hash, &inserted);
    if (!inserted) {
      return Status::DataLoss("duplicate aggregation group in checkpoint");
    }
    // The completion index is not saved; it is rebuilt from the group keys.
    if (tracks_completion()) {
      state.completion = completion_.emplace(CompletionMillis(key), hash);
    }
    *slot = std::move(state);
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Join
// ---------------------------------------------------------------------------

JoinOperator::JoinOperator(const plan::JoinNode* node) : node_(node) {}

namespace {

/// Event time (ms) under which a join row is purge-tracked, or nullopt when
/// its side has no purge spec or the row's event time is NULL.
std::optional<int64_t> PurgeMillis(
    const Row& row, const std::optional<plan::JoinPurgeSpec>& purge) {
  if (!purge.has_value()) return std::nullopt;
  const Value& et = row[purge->et_col];
  if (et.is_null()) return std::nullopt;
  return et.AsTimestamp().millis();
}

}  // namespace

void JoinOperator::EvalKey(const Row& row, bool left) {
  key_.clear();
  for (const auto& [l, r] : node_->equi_keys()) {
    key_.push_back(row[left ? l : r]);
  }
}

Status JoinOperator::Probe(const Change& change, const Row& key,
                           bool from_left) {
  const SideState& other = from_left ? right_ : left_;
  auto bucket = other.buckets.find(key);
  if (bucket == other.buckets.end()) return Status::OK();

  out_.kind = change.kind;
  out_.ptime = change.ptime;
  Row& joined = out_.row;
  for (const auto& [other_row, row_state] : bucket->second) {
    const Row& left_row = from_left ? change.row : other_row;
    const Row& right_row = from_left ? other_row : change.row;
    joined.assign(left_row.begin(), left_row.end());
    joined.insert(joined.end(), right_row.begin(), right_row.end());
    if (node_->condition() != nullptr) {
      ONESQL_ASSIGN_OR_RETURN(bool pass,
                              EvalPredicate(*node_->condition(), joined));
      if (!pass) continue;
    }
    for (int64_t i = 0; i < row_state.count; ++i) {
      ONESQL_RETURN_NOT_OK(EmitElement(out_));
    }
  }
  return Status::OK();
}

Status JoinOperator::ApplyToState(
    SideState* side, const Change& change, const Row& key,
    const std::optional<plan::JoinPurgeSpec>& purge) {
  if (change.kind == ChangeKind::kInsert) {
    auto& bucket = *side->buckets.try_emplace(key).first;
    auto [row_it, fresh] = bucket.second.try_emplace(change.row);
    row_it->second.count += 1;
    side->size += 1;
    if (fresh) {
      if (const auto et = PurgeMillis(change.row, purge)) {
        row_it->second.purge =
            side->purge_index.emplace(*et, PurgeEntry{&bucket, &*row_it});
      }
    }
    return Status::OK();
  }
  // DELETE
  auto bucket = side->buckets.find(key);
  if (bucket == side->buckets.end()) {
    return Status::ExecutionError(
        "join received a DELETE for a row that was never inserted");
  }
  auto row_it = bucket->second.find(change.row);
  if (row_it == bucket->second.end()) {
    return Status::ExecutionError(
        "join received a DELETE for a row that was never inserted");
  }
  side->size -= 1;
  if (--row_it->second.count == 0) {
    if (PurgeMillis(change.row, purge).has_value()) {
      side->purge_index.erase(row_it->second.purge);
    }
    bucket->second.erase(row_it);
    if (bucket->second.empty()) side->buckets.erase(bucket);
  }
  return Status::OK();
}

Status JoinOperator::ProcessElement(int port, const Change& change) {
  if (change.kind == ChangeKind::kUpsert) {
    return Status::ExecutionError("join cannot consume UPSERT changes");
  }
  const bool from_left = port == 0;
  EvalKey(change.row, from_left);
  // SQL equality: a NULL key never matches anything, and since inner join
  // output cannot include it, the row need not be retained.
  for (const Value& v : key_) {
    if (v.is_null()) return Status::OK();
  }
  ONESQL_RETURN_NOT_OK(Probe(change, key_, from_left));
  return ApplyToState(from_left ? &left_ : &right_, change, key_,
                      from_left ? node_->left_purge() : node_->right_purge());
}

void JoinOperator::PurgeSide(SideState* side,
                             const std::optional<plan::JoinPurgeSpec>& purge,
                             Timestamp watermark) {
  if (!purge.has_value()) return;
  // Rows with et + slack <= watermark can never match future rows of the
  // other side, and (by the optimizer's safety analysis) will never be
  // retracted — release them, every instance at once.
  const int64_t cutoff = watermark.millis() - purge->slack.millis();
  while (!side->purge_index.empty() &&
         side->purge_index.begin()->first <= cutoff) {
    const auto entry = side->purge_index.begin();
    auto& [key, bucket] = *entry->second.bucket;
    const Row& row = entry->second.row->first;
    side->size -= static_cast<size_t>(entry->second.row->second.count);
    side->purge_index.erase(entry);
    bucket.erase(bucket.find(row));
    if (bucket.empty()) side->buckets.erase(side->buckets.find(key));
  }
}

Status JoinOperator::ProcessWatermark(int port, Timestamp watermark,
                                   Timestamp ptime) {
  if (merger_.Update(port, watermark)) {
    const Timestamp combined = merger_.combined();
    PurgeSide(&left_, node_->left_purge(), combined);
    PurgeSide(&right_, node_->right_purge(), combined);
    return EmitWatermark(combined, ptime);
  }
  return Status::OK();
}

size_t JoinOperator::StateBytes() const {
  size_t total = 0;
  for (const SideState* side : {&left_, &right_}) {
    for (const auto& [key, bucket] : side->buckets) {
      total += key.size() * sizeof(Value) + 64;
      for (const auto& [row, row_state] : bucket) {
        (void)row_state;
        total += row.size() * sizeof(Value) + 48;
      }
    }
  }
  return total;
}

void JoinOperator::SaveSide(const SideState& side,
                            const std::optional<plan::JoinPurgeSpec>& purge,
                            state::Writer* w) {
  // Canonical order: key buckets sorted by the equi-key tuple; rows within a
  // bucket are already ordered (std::map with RowLess).
  std::vector<const BucketMap::value_type*> entries;
  entries.reserve(side.buckets.size());
  for (const auto& entry : side.buckets) entries.push_back(&entry);
  std::sort(entries.begin(), entries.end(),
            [](const auto* a, const auto* b) {
              return RowLess{}(a->first, b->first);
            });
  struct Pending {
    int64_t et;
    const Row* key;
    const Row* row;
    int64_t count;
  };
  std::vector<Pending> pending;
  size_t npending = 0;
  w->PutVarint(entries.size());
  for (const auto* entry : entries) {
    w->PutRow(entry->first);
    w->PutVarint(entry->second.size());
    for (const auto& [row, row_state] : entry->second) {
      w->PutRow(row);
      w->PutSigned(row_state.count);
      if (const auto et = PurgeMillis(row, purge)) {
        pending.push_back(Pending{*et, &entry->first, &row, row_state.count});
        npending += static_cast<size_t>(row_state.count);
      }
    }
  }
  // The purge index, one entry per row instance, in (event time, key, row)
  // order: a function of the side's rows alone, whatever order they arrived
  // in.
  std::stable_sort(pending.begin(), pending.end(),
                   [](const Pending& a, const Pending& b) {
                     return a.et < b.et;
                   });
  w->PutVarint(npending);
  for (const Pending& p : pending) {
    for (int64_t i = 0; i < p.count; ++i) {
      w->PutSigned(p.et);
      w->PutRow(*p.key);
      w->PutRow(*p.row);
    }
  }
}

Status JoinOperator::LoadSide(SideState* side,
                              const std::optional<plan::JoinPurgeSpec>& purge,
                              state::Reader* r) {
  ONESQL_ASSIGN_OR_RETURN(uint64_t nbuckets, r->ReadVarint());
  if (nbuckets > r->remaining()) {
    return Status::DataLoss("impossible join bucket count in checkpoint");
  }
  uint64_t tracked = 0;  // purge-tracked row instances loaded
  for (uint64_t i = 0; i < nbuckets; ++i) {
    ONESQL_ASSIGN_OR_RETURN(Row key, r->ReadRow());
    ONESQL_ASSIGN_OR_RETURN(uint64_t nrows, r->ReadVarint());
    if (nrows > r->remaining()) {
      return Status::DataLoss("impossible join row count in checkpoint");
    }
    for (uint64_t j = 0; j < nrows; ++j) {
      ONESQL_ASSIGN_OR_RETURN(Row row, r->ReadRow());
      ONESQL_ASSIGN_OR_RETURN(int64_t mult, r->ReadSigned());
      if (mult <= 0) {
        return Status::DataLoss("non-positive join multiplicity in checkpoint");
      }
      auto& bucket = *side->buckets.try_emplace(key).first;
      auto [row_it, fresh] = bucket.second.try_emplace(std::move(row));
      row_it->second.count += mult;
      side->size += static_cast<size_t>(mult);
      if (const auto et = PurgeMillis(row_it->first, purge)) {
        tracked += static_cast<uint64_t>(mult);
        if (fresh) {
          row_it->second.purge =
              side->purge_index.emplace(*et, PurgeEntry{&bucket, &*row_it});
        }
      }
    }
  }
  // The saved purge index is derivable from the rows (one entry per tracked
  // instance), so the index is rebuilt above; the saved entries are only
  // checked against it.
  ONESQL_ASSIGN_OR_RETURN(uint64_t npurge, r->ReadVarint());
  if (npurge > r->remaining()) {
    return Status::DataLoss("impossible purge index size in checkpoint");
  }
  for (uint64_t i = 0; i < npurge; ++i) {
    ONESQL_RETURN_NOT_OK(r->ReadSigned().status());
    ONESQL_RETURN_NOT_OK(r->ReadRow().status());
    ONESQL_RETURN_NOT_OK(r->ReadRow().status());
  }
  if (npurge != tracked) {
    return Status::DataLoss("join purge index disagrees with the join rows");
  }
  return Status::OK();
}

Status JoinOperator::SaveState(state::Writer* w) const {
  merger_.SaveState(w);
  SaveSide(left_, node_->left_purge(), w);
  SaveSide(right_, node_->right_purge(), w);
  return Status::OK();
}

Status JoinOperator::LoadState(state::Reader* r) {
  ONESQL_RETURN_NOT_OK(merger_.LoadState(r));
  ONESQL_RETURN_NOT_OK(LoadSide(&left_, node_->left_purge(), r));
  return LoadSide(&right_, node_->right_purge(), r);
}

}  // namespace exec
}  // namespace onesql
