#include "testing/reference.h"

#include <algorithm>
#include <map>
#include <set>

#include "cql/cql.h"

namespace onesql {
namespace testing {

namespace {

// Column positions in FuzzStreamSchema.
constexpr size_t kTs = 0, kK = 1, kV = 2, kD = 3, kItem = 4;

/// Folds the feed into the final net multiset of one stream's rows.
Result<std::map<Row, int64_t, RowLess>> NetRows(
    const std::vector<FeedEvent>& events, const std::string& source) {
  std::map<Row, int64_t, RowLess> bag;
  for (const FeedEvent& event : events) {
    if (event.source != source) continue;
    if (event.kind == FeedEvent::Kind::kInsert) {
      bag[event.row] += 1;
    } else if (event.kind == FeedEvent::Kind::kDelete) {
      auto it = bag.find(event.row);
      if (it == bag.end()) {
        return Status::Internal("fuzz feed deletes a row it never inserted: " +
                                RowToString(event.row));
      }
      if (--it->second == 0) bag.erase(it);
    }
  }
  return bag;
}

std::vector<Row> Expand(const std::map<Row, int64_t, RowLess>& bag) {
  std::vector<Row> rows;
  for (const auto& [row, count] : bag) {
    for (int64_t i = 0; i < count; ++i) rows.push_back(row);
  }
  return rows;
}

bool PassesFilter(const QuerySpec& query, const Row& row) {
  if (!query.has_filter) return true;
  // SQL three-valued logic collapses at the WHERE: NULL is not TRUE.
  return !row[kV].is_null() && row[kV].AsInt64() >= query.filter_min_v;
}

/// Floored division — the alignment the engine must use so pre-epoch rows
/// land in the window below, not the truncation artifact above.
int64_t FloorDiv(int64_t a, int64_t b) {
  const int64_t q = a / b;
  return (a % b != 0 && (a < 0) != (b < 0)) ? q - 1 : q;
}

std::vector<int64_t> WindowStarts(int64_t t, int64_t dur, int64_t hop) {
  std::vector<int64_t> starts;
  for (int64_t s = FloorDiv(t, hop) * hop; s + dur > t; s -= hop) {
    starts.push_back(s);
  }
  std::reverse(starts.begin(), starts.end());
  return starts;
}

Value EvalAgg(AggKind kind, const std::vector<Row>& rows) {
  switch (kind) {
    case AggKind::kCountStar:
      return Value::Int64(static_cast<int64_t>(rows.size()));
    case AggKind::kCountV: {
      int64_t n = 0;
      for (const Row& r : rows) n += r[kV].is_null() ? 0 : 1;
      return Value::Int64(n);
    }
    case AggKind::kSumV: {
      int64_t sum = 0, n = 0;
      for (const Row& r : rows) {
        if (r[kV].is_null()) continue;
        sum += r[kV].AsInt64();
        ++n;
      }
      return n == 0 ? Value::Null() : Value::Int64(sum);
    }
    case AggKind::kSumD:
    case AggKind::kAvgD: {
      double sum = 0.0;
      int64_t n = 0;
      for (const Row& r : rows) {
        if (r[kD].is_null()) continue;
        sum += r[kD].AsDouble();
        ++n;
      }
      if (n == 0) return Value::Null();
      return Value::Double(kind == AggKind::kAvgD
                               ? sum / static_cast<double>(n)
                               : sum);
    }
    case AggKind::kMinV:
    case AggKind::kMaxV:
    case AggKind::kMinItem:
    case AggKind::kMaxItem: {
      const size_t col =
          (kind == AggKind::kMinV || kind == AggKind::kMaxV) ? kV : kItem;
      const bool is_min =
          kind == AggKind::kMinV || kind == AggKind::kMinItem;
      Value best;
      for (const Row& r : rows) {
        if (r[col].is_null()) continue;
        if (best.is_null() || (is_min ? r[col].Compare(best) < 0
                                      : r[col].Compare(best) > 0)) {
          best = r[col];
        }
      }
      return best;
    }
    case AggKind::kCountDistinctV: {
      std::set<int64_t> distinct;
      for (const Row& r : rows) {
        if (!r[kV].is_null()) distinct.insert(r[kV].AsInt64());
      }
      return Value::Int64(static_cast<int64_t>(distinct.size()));
    }
  }
  return Value::Null();
}

std::vector<Row> EvalFilterProject(const QuerySpec& query,
                                   const std::vector<Row>& rows) {
  std::vector<Row> out;
  for (const Row& row : rows) {
    if (!PassesFilter(query, row)) continue;
    Row projected = row;
    if (query.extra_proj) {
      projected.push_back(row[kV].is_null() || row[kK].is_null()
                              ? Value::Null()
                              : Value::Int64(row[kV].AsInt64() +
                                             row[kK].AsInt64()));
    }
    out.push_back(std::move(projected));
  }
  return out;
}

/// Shared by Tumble/Hop reference and the CQL path: groups pre-windowed
/// rows by the (optional) key, evaluates the aggregate list, and renders
/// output rows as [k,] wend, a0, a1, ...
std::vector<Row> AggregateGroups(
    const QuerySpec& query,
    const std::map<Row, std::vector<Row>, RowLess>& groups) {
  std::vector<Row> out;
  for (const auto& [key, members] : groups) {
    Row result = key;
    for (AggKind agg : query.aggs) {
      result.push_back(EvalAgg(agg, members));
    }
    out.push_back(std::move(result));
  }
  return out;
}

std::vector<Row> EvalWindowedAgg(const QuerySpec& query,
                                 const std::vector<Row>& rows) {
  const int64_t hop =
      query.shape == QueryShape::kHopAgg ? query.hop_ms : query.dur_ms;
  std::map<Row, std::vector<Row>, RowLess> groups;
  for (const Row& row : rows) {
    if (!PassesFilter(query, row)) continue;
    const int64_t t = row[kTs].AsTimestamp().millis();
    for (int64_t wstart : WindowStarts(t, query.dur_ms, hop)) {
      Row key;
      if (query.keyed) key.push_back(row[kK]);
      key.push_back(Value::Time(Timestamp(wstart + query.dur_ms)));
      groups[key].push_back(row);
    }
  }
  return AggregateGroups(query, groups);
}

std::vector<Row> EvalSession(const QuerySpec& query,
                             const std::vector<Row>& rows) {
  std::map<Row, std::vector<Row>, RowLess> by_key;
  for (const Row& row : rows) {
    by_key[{row[kK]}].push_back(row);
  }
  std::vector<Row> out;
  for (auto& [key, members] : by_key) {
    std::sort(members.begin(), members.end(), [](const Row& a, const Row& b) {
      return a[kTs].AsTimestamp() < b[kTs].AsTimestamp();
    });
    // Offline sessionization: a row merges only while strictly inside the
    // open session's [min_t, max_t + gap) — a row at exactly max_t + gap
    // starts a new session.
    size_t begin = 0;
    while (begin < members.size()) {
      Timestamp min_t = members[begin][kTs].AsTimestamp();
      Timestamp max_t = min_t;
      size_t end = begin + 1;
      while (end < members.size()) {
        const Timestamp t = members[end][kTs].AsTimestamp();
        if (t >= max_t + Interval::Millis(query.gap_ms)) break;
        max_t = std::max(max_t, t);
        ++end;
      }
      const Value wstart = Value::Time(min_t);
      const Value wend =
          Value::Time(max_t + Interval::Millis(query.gap_ms));
      for (size_t i = begin; i < end; ++i) {
        Row row = members[i];
        row.push_back(wstart);
        row.push_back(wend);
        out.push_back(std::move(row));
      }
      begin = end;
    }
  }
  return out;
}

std::vector<Row> EvalJoin(const QuerySpec& query, const std::vector<Row>& s,
                          const std::vector<Row>& r) {
  std::vector<Row> out;
  for (const Row& a : s) {
    if (a[kK].is_null()) continue;  // NULL keys never match
    for (const Row& b : r) {
      if (b[kK].is_null() || a[kK].Compare(b[kK]) != 0) continue;
      if (query.extra_join_cond) {
        if (a[kV].is_null() || b[kV].is_null() ||
            a[kV].AsInt64() > b[kV].AsInt64()) {
          continue;
        }
      }
      if (query.ts_join && (a[kTs].is_null() || b[kTs].is_null() ||
                            a[kTs].Compare(b[kTs]) != 0)) {
        continue;
      }
      out.push_back({a[kTs], a[kK], a[kV], b[kTs], b[kV]});
    }
  }
  return out;
}

/// Two identical keyed Hop aggregates joined on (k, wend): each group with a
/// non-NULL key meets its own copy, giving [k, wend, aggs..., aggs...].
std::vector<Row> EvalSharedAggJoin(const QuerySpec& query,
                                   const std::vector<Row>& rows) {
  QuerySpec agg = query;
  agg.shape = QueryShape::kHopAgg;
  std::vector<Row> out;
  for (Row& group : EvalWindowedAgg(agg, rows)) {
    if (group[0].is_null()) continue;  // NULL keys never match
    for (size_t i = 0; i < query.aggs.size(); ++i) {
      group.push_back(group[2 + i]);
    }
    out.push_back(std::move(group));
  }
  return out;
}

}  // namespace

Result<std::vector<Row>> ReferenceFinalSnapshot(
    const QuerySpec& query, const std::vector<FeedEvent>& events) {
  ONESQL_ASSIGN_OR_RETURN(auto s_bag, NetRows(events, kFuzzStreamS));
  const std::vector<Row> s_rows = Expand(s_bag);
  switch (query.shape) {
    case QueryShape::kFilterProject:
      return EvalFilterProject(query, s_rows);
    case QueryShape::kTumbleAgg:
    case QueryShape::kHopAgg:
      return EvalWindowedAgg(query, s_rows);
    case QueryShape::kSession:
      return EvalSession(query, s_rows);
    case QueryShape::kJoin: {
      ONESQL_ASSIGN_OR_RETURN(auto r_bag, NetRows(events, kFuzzStreamR));
      return EvalJoin(query, s_rows, Expand(r_bag));
    }
    case QueryShape::kSharedAggJoin:
      return EvalSharedAggJoin(query, s_rows);
  }
  return Status::Internal("unknown query shape");
}

Result<std::vector<Row>> CqlTumbleSnapshot(
    const QuerySpec& query, const std::vector<FeedEvent>& events) {
  if (query.shape != QueryShape::kTumbleAgg) {
    return Status::Internal("CQL oracle only covers tumbling aggregates");
  }
  // Release rows in timestamp order through the heartbeat buffer, driving
  // heartbeats from the feed's own watermark schedule.
  cql::HeartbeatBuffer buffer;
  std::vector<cql::TimestampedRow> ordered;
  for (const FeedEvent& event : events) {
    if (event.source != kFuzzStreamS) continue;
    if (event.kind == FeedEvent::Kind::kInsert) {
      buffer.Add(event.row[kTs].AsTimestamp(), event.row);
    } else if (event.kind == FeedEvent::Kind::kDelete) {
      return Status::Internal("CQL oracle requires an insert-only feed");
    } else if (event.watermark > buffer.heartbeat()) {
      for (cql::TimestampedRow& released :
           buffer.AdvanceHeartbeat(event.watermark)) {
        ordered.push_back(std::move(released));
      }
    }
  }
  if (Timestamp::Max() > buffer.heartbeat()) {
    for (cql::TimestampedRow& released :
         buffer.AdvanceHeartbeat(Timestamp::Max())) {
      ordered.push_back(std::move(released));
    }
  }

  std::vector<cql::TimestampedRow> filtered;
  for (cql::TimestampedRow& tr : ordered) {
    if (PassesFilter(query, tr.row)) filtered.push_back(std::move(tr));
  }
  if (filtered.empty()) return std::vector<Row>{};

  // RANGE = SLIDE = dur turns CQL's sliding window into the tumble: each
  // boundary tau renders exactly the window [tau - dur, tau).
  const Timestamp end =
      filtered.back().ts + Interval::Millis(query.dur_ms);
  const auto relations =
      cql::SlidingWindow(filtered, Interval::Millis(query.dur_ms),
                         Interval::Millis(query.dur_ms), end);
  std::vector<Row> out;
  for (const cql::InstantRelation& rel : relations) {
    std::map<Row, std::vector<Row>, RowLess> groups;
    for (const Row& row : rel.rows) {
      Row key;
      if (query.keyed) key.push_back(row[kK]);
      key.push_back(Value::Time(rel.tau));
      groups[key].push_back(row);
    }
    for (Row& row : AggregateGroups(query, groups)) {
      out.push_back(std::move(row));
    }
  }
  return out;
}

std::vector<Row> SortedRows(std::vector<Row> rows) {
  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return CompareRows(a, b) < 0; });
  return rows;
}

std::string DiffRowMultisets(const std::vector<Row>& got,
                             const std::vector<Row>& want) {
  const std::vector<Row> a = SortedRows(got);
  const std::vector<Row> b = SortedRows(want);
  if (a.size() == b.size()) {
    size_t i = 0;
    while (i < a.size() && RowsEqual(a[i], b[i])) ++i;
    if (i == a.size()) return "";
    return "row " + std::to_string(i) + ": got " + RowToString(a[i]) +
           ", want " + RowToString(b[i]);
  }
  std::string diff = "got " + std::to_string(a.size()) + " rows, want " +
                     std::to_string(b.size());
  const size_t show = std::min<size_t>(3, std::max(a.size(), b.size()));
  for (size_t i = 0; i < show; ++i) {
    diff += "\n  got:  " + (i < a.size() ? RowToString(a[i]) : "(none)");
    diff += "\n  want: " + (i < b.size() ? RowToString(b[i]) : "(none)");
  }
  return diff;
}

}  // namespace testing
}  // namespace onesql
