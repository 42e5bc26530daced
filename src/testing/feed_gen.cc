#include "testing/feed_gen.h"

#include <algorithm>
#include <map>
#include <set>

namespace onesql {
namespace testing {

namespace {

/// Self-contained splitmix64: the standard library's distributions are not
/// specified bit-for-bit across implementations, and a corpus seed must
/// reproduce the same case on every toolchain.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

  /// Uniform in [lo, hi], inclusive.
  int64_t Range(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(
                    Next() % static_cast<uint64_t>(hi - lo + 1));
  }

  bool Chance(int percent) { return Range(0, 99) < percent; }

  template <typename T>
  T Pick(std::initializer_list<T> options) {
    auto it = options.begin();
    std::advance(it, Range(0, static_cast<int64_t>(options.size()) - 1));
    return *it;
  }

 private:
  uint64_t state_;
};

const char* kItems[] = {"alpha", "beta", "gamma", "delta", ""};

std::string AggExpr(AggKind kind, size_t i) {
  std::string expr;
  switch (kind) {
    case AggKind::kCountStar:      expr = "COUNT(*)"; break;
    case AggKind::kCountV:         expr = "COUNT(v)"; break;
    case AggKind::kSumV:           expr = "SUM(v)"; break;
    case AggKind::kSumD:           expr = "SUM(d)"; break;
    case AggKind::kAvgD:           expr = "AVG(d)"; break;
    case AggKind::kMinV:           expr = "MIN(v)"; break;
    case AggKind::kMaxV:           expr = "MAX(v)"; break;
    case AggKind::kMinItem:        expr = "MIN(item)"; break;
    case AggKind::kMaxItem:        expr = "MAX(item)"; break;
    case AggKind::kCountDistinctV: expr = "COUNT(DISTINCT v)"; break;
  }
  return expr + " AS a" + std::to_string(i);
}

std::string IntervalMs(int64_t ms) {
  return "INTERVAL '" + std::to_string(ms) + "' MILLISECONDS";
}

QuerySpec GenerateQuerySpec(Rng* rng) {
  QuerySpec spec;
  const int64_t roll = rng->Range(0, 99);
  if (roll < 20) {
    spec.shape = QueryShape::kFilterProject;
  } else if (roll < 45) {
    spec.shape = QueryShape::kTumbleAgg;
  } else if (roll < 65) {
    spec.shape = QueryShape::kHopAgg;
  } else if (roll < 80) {
    spec.shape = QueryShape::kSession;
  } else {
    spec.shape = QueryShape::kJoin;
  }

  switch (spec.shape) {
    case QueryShape::kFilterProject:
      spec.extra_proj = rng->Chance(50);
      spec.has_filter = rng->Chance(60);
      // Non-negative constants only: the fuzz grammar stays inside the
      // subset every version of the parser accepts.
      spec.filter_min_v = rng->Range(0, 60);
      break;
    case QueryShape::kTumbleAgg:
    case QueryShape::kHopAgg: {
      spec.dur_ms = rng->Pick<int64_t>(
          {60'000, 120'000, 300'000, 450'000, 600'000, 900'000});
      if (spec.shape == QueryShape::kHopAgg) {
        // Dividing, non-dividing, and gap-producing (hop > dur) periods.
        spec.hop_ms = rng->Pick<int64_t>(
            {spec.dur_ms / 2, spec.dur_ms / 3, spec.dur_ms / 4,
             (spec.dur_ms * 3) / 4, spec.dur_ms * 2});
      }
      spec.keyed = rng->Chance(70);
      spec.gated = rng->Chance(40);
      spec.has_filter = rng->Chance(40);
      spec.filter_min_v = rng->Range(0, 60);
      const int64_t num_aggs = rng->Range(1, 3);
      for (int64_t i = 0; i < num_aggs; ++i) {
        spec.aggs.push_back(rng->Pick<AggKind>(
            {AggKind::kCountStar, AggKind::kCountV, AggKind::kSumV,
             AggKind::kSumD, AggKind::kAvgD, AggKind::kMinV, AggKind::kMaxV,
             AggKind::kMinItem, AggKind::kMaxItem,
             AggKind::kCountDistinctV}));
      }
      // Feed ptimes step by 0-5 s, so these delays coalesce anywhere from
      // a couple of updates to most of the feed into one pane.
      if (rng->Chance(30)) {
        spec.delay_ms = rng->Pick<int64_t>({1'000, 4'000, 15'000, 60'000});
      }
      break;
    }
    case QueryShape::kSession:
      spec.gap_ms = rng->Pick<int64_t>(
          {30'000, 60'000, 120'000, 300'000, 600'000});
      break;
    case QueryShape::kJoin:
      spec.extra_join_cond = rng->Chance(50);
      break;
    case QueryShape::kSharedAggJoin:
      break;
  }
  spec.sql = RenderSql(spec);
  return spec;
}

/// A kSharedAggJoin spec: Hop periods and aggregate calls drawn like the
/// windowed shapes', always keyed, never gated.
QuerySpec GenerateSharedAggJoinSpec(Rng* rng) {
  QuerySpec spec;
  spec.shape = QueryShape::kSharedAggJoin;
  spec.keyed = true;
  spec.dur_ms = rng->Pick<int64_t>({60'000, 300'000, 600'000, 900'000});
  spec.hop_ms = rng->Pick<int64_t>(
      {spec.dur_ms / 2, spec.dur_ms / 3, (spec.dur_ms * 3) / 4,
       spec.dur_ms * 2});
  spec.has_filter = rng->Chance(40);
  spec.filter_min_v = rng->Range(0, 60);
  const int64_t num_aggs = rng->Range(1, 2);
  for (int64_t i = 0; i < num_aggs; ++i) {
    spec.aggs.push_back(rng->Pick<AggKind>(
        {AggKind::kCountStar, AggKind::kSumV, AggKind::kSumD, AggKind::kMinV,
         AggKind::kMaxItem, AggKind::kCountDistinctV}));
  }
  spec.sql = RenderSql(spec);
  return spec;
}

Value RandomK(Rng* rng, bool need_k, int null_pct = 10) {
  if (!need_k && rng->Chance(null_pct)) return Value::Null();
  return Value::Int64(rng->Range(0, 4));
}

Value RandomV(Rng* rng, int null_pct = 8) {
  if (rng->Chance(null_pct)) return Value::Null();
  return Value::Int64(rng->Range(-100, 100));
}

Value RandomD(Rng* rng, int null_pct = 8) {
  if (rng->Chance(null_pct)) return Value::Null();
  // Dyadic: n/64 with |n| <= 4096, so every sum of <= 48 values is exactly
  // representable and independent of accumulation order.
  return Value::Double(static_cast<double>(rng->Range(-4096, 4096)) / 64.0);
}

Value RandomItem(Rng* rng, int null_pct = 8) {
  if (rng->Chance(null_pct)) return Value::Null();
  return Value::String(kItems[rng->Range(0, 4)]);
}

/// Draws 1–2 query specs, each validated against a prototype engine's
/// planner with the trivial-projection fallback (shared by GenerateCase and
/// the boundary templates).
void GenerateQueries(Rng* rng, FuzzCase* fuzz) {
  Engine prototype;
  (void)prototype.RegisterStream(kFuzzStreamS, FuzzStreamSchema());
  (void)prototype.RegisterStream(kFuzzStreamR, FuzzStreamSchema());
  const int64_t num_queries = rng->Chance(35) ? 2 : 1;
  for (int64_t i = 0; i < num_queries; ++i) {
    QuerySpec spec = GenerateQuerySpec(rng);
    if (!prototype.Plan(spec.sql).ok()) {
      spec = QuerySpec{};
      spec.sql = RenderSql(spec);
    }
    fuzz->queries.push_back(std::move(spec));
  }
}

bool HasShape(const FuzzCase& fuzz, QueryShape shape) {
  return std::any_of(
      fuzz.queries.begin(), fuzz.queries.end(),
      [shape](const QuerySpec& q) { return q.shape == shape; });
}

bool NeedsK(const FuzzCase& fuzz) {
  return std::any_of(
      fuzz.queries.begin(), fuzz.queries.end(), [](const QuerySpec& q) {
        return q.shape == QueryShape::kJoin || q.shape == QueryShape::kSession;
      });
}


/// Draws clock moves (Engine::AdvanceTo) into the feed of a case with an
/// AFTER DELAY query, so every oracle replays timers fired by the clock as
/// well as by events. Before about one event in five the clock moves to
/// that event's ptime or to a point since the event before, and half those
/// moves go to the due time of a pane an earlier row may have opened, with
/// the event then arriving at that same ptime half the time (a clock move
/// fires the pane first). One in five of the other events that have such a
/// due time ahead of them lands on it with no clock move before it, so the
/// pane is still pending there and a table read at that prefix (RunCase
/// reads at every due time an event reaches) must fold it in. Half the
/// cases end with a move past the last event. Its own random stream leaves
/// the rest of the case as the seed drew it.
void DrawClockMoves(uint64_t salt, FuzzCase* fuzz) {
  std::vector<int64_t> delays;
  for (const QuerySpec& spec : fuzz->queries) {
    if (spec.delay_ms > 0) delays.push_back(spec.delay_ms);
  }
  if (delays.empty() || fuzz->events.empty()) return;
  Rng rng(salt);
  auto clock = [](int64_t ptime_ms) {
    FeedEvent event;
    event.kind = FeedEvent::Kind::kClock;
    event.ptime = Timestamp(ptime_ms);
    return event;
  };
  std::set<int64_t> due;  // ptime + delay of every row so far
  std::vector<FeedEvent> events;
  int64_t prev_ms = 0;
  for (FeedEvent& event : fuzz->events) {
    int64_t at_ms = event.ptime.millis();
    const auto pane = due.lower_bound(prev_ms);
    const bool pane_ahead = pane != due.end() && *pane <= at_ms;
    if (rng.Chance(20)) {
      int64_t move_ms = rng.Chance(50) ? at_ms : rng.Range(prev_ms, at_ms);
      if (pane_ahead && rng.Chance(50)) {
        move_ms = *pane;
        if (rng.Chance(50)) at_ms = move_ms;
      }
      events.push_back(clock(move_ms));
    } else if (pane_ahead && rng.Chance(20)) {
      at_ms = *pane;
    }
    event.ptime = Timestamp(at_ms);
    if (event.kind != FeedEvent::Kind::kWatermark) {
      const int64_t last = static_cast<int64_t>(delays.size()) - 1;
      due.insert(at_ms + delays[static_cast<size_t>(rng.Range(0, last))]);
    }
    prev_ms = at_ms;
    events.push_back(std::move(event));
  }
  if (rng.Chance(50)) events.push_back(clock(prev_ms + rng.Range(0, 60'000)));
  fuzz->events = std::move(events);
}

}  // namespace

const char* QueryShapeToString(QueryShape shape) {
  switch (shape) {
    case QueryShape::kFilterProject: return "filter_project";
    case QueryShape::kTumbleAgg:     return "tumble_agg";
    case QueryShape::kHopAgg:        return "hop_agg";
    case QueryShape::kSession:       return "session";
    case QueryShape::kJoin:          return "join";
    case QueryShape::kSharedAggJoin: return "shared_agg_join";
  }
  return "unknown";
}

const char* AggKindToString(AggKind kind) {
  switch (kind) {
    case AggKind::kCountStar:      return "count_star";
    case AggKind::kCountV:         return "count_v";
    case AggKind::kSumV:           return "sum_v";
    case AggKind::kSumD:           return "sum_d";
    case AggKind::kAvgD:           return "avg_d";
    case AggKind::kMinV:           return "min_v";
    case AggKind::kMaxV:           return "max_v";
    case AggKind::kMinItem:        return "min_item";
    case AggKind::kMaxItem:        return "max_item";
    case AggKind::kCountDistinctV: return "count_distinct_v";
  }
  return "unknown";
}

const char* FeedModeToString(FeedMode mode) {
  switch (mode) {
    case FeedMode::kDeletesPerfect:   return "deletes_perfect";
    case FeedMode::kInsertOnlyPerfect: return "insert_only_perfect";
    case FeedMode::kInsertOnlySloppy:  return "insert_only_sloppy";
  }
  return "unknown";
}

Schema FuzzStreamSchema() {
  return Schema({{"ts", DataType::kTimestamp, /*is_event_time=*/true},
                 {"k", DataType::kBigint},
                 {"v", DataType::kBigint},
                 {"d", DataType::kDouble},
                 {"item", DataType::kVarchar}});
}

std::string RenderSql(const QuerySpec& spec) {
  const std::string filter =
      spec.has_filter ? " WHERE v >= " + std::to_string(spec.filter_min_v)
                      : "";
  switch (spec.shape) {
    case QueryShape::kFilterProject: {
      std::string sql = "SELECT ts, k, v, d, item";
      if (spec.extra_proj) sql += ", v + k AS x";
      return sql + " FROM S" + filter;
    }
    case QueryShape::kTumbleAgg:
    case QueryShape::kHopAgg: {
      std::string sql = "SELECT ";
      if (spec.keyed) sql += "k, ";
      sql += "wend";
      for (size_t i = 0; i < spec.aggs.size(); ++i) {
        sql += ", " + AggExpr(spec.aggs[i], i);
      }
      if (spec.shape == QueryShape::kTumbleAgg) {
        sql += " FROM Tumble(data => TABLE(S), timecol => DESCRIPTOR(ts), "
               "dur => " + IntervalMs(spec.dur_ms) + ") t";
      } else {
        sql += " FROM Hop(data => TABLE(S), timecol => DESCRIPTOR(ts), "
               "dur => " + IntervalMs(spec.dur_ms) +
               ", hopsize => " + IntervalMs(spec.hop_ms) + ") t";
      }
      sql += filter + " GROUP BY ";
      if (spec.keyed) sql += "k, ";
      sql += "wend";
      if (spec.delay_ms > 0) {
        sql += " EMIT AFTER DELAY " + IntervalMs(spec.delay_ms);
        if (spec.gated) sql += " AND AFTER WATERMARK";
      } else if (spec.gated) {
        sql += " EMIT AFTER WATERMARK";
      }
      return sql;
    }
    case QueryShape::kSession:
      return "SELECT * FROM Session(data => TABLE(S), "
             "timecol => DESCRIPTOR(ts), gap => " + IntervalMs(spec.gap_ms) +
             ", key => DESCRIPTOR(k)) s";
    case QueryShape::kJoin: {
      std::string sql =
          "SELECT a.ts AS ats, a.k AS k, a.v AS av, b.ts AS bts, b.v AS bv "
          "FROM S a, R b WHERE a.k = b.k";
      if (spec.extra_join_cond) sql += " AND a.v <= b.v";
      if (spec.ts_join) sql += " AND a.ts = b.ts";
      return sql;
    }
    case QueryShape::kSharedAggJoin: {
      // Two copies of one keyed Hop aggregate that differ only in aliases,
      // so they canonicalize alike and compile once.
      auto copy = [&](const char* alias) {
        std::string sub = "(SELECT k, wend";
        for (size_t i = 0; i < spec.aggs.size(); ++i) {
          sub += ", " + AggExpr(spec.aggs[i], i);
        }
        sub += " FROM Hop(data => TABLE(S), timecol => DESCRIPTOR(ts), "
               "dur => " + IntervalMs(spec.dur_ms) +
               ", hopsize => " + IntervalMs(spec.hop_ms) + ") " + alias +
               filter + " GROUP BY k, wend)";
        return sub;
      };
      std::string sql = "SELECT a.k AS k, a.wend AS wend";
      for (const char* side : {"a", "b"}) {
        for (size_t i = 0; i < spec.aggs.size(); ++i) {
          const std::string col = std::to_string(i);
          sql += std::string(", ") + side + ".a" + col + " AS " + side + col;
        }
      }
      return sql + " FROM " + copy("t") + " a, " + copy("u") +
             " b WHERE a.k = b.k AND a.wend = b.wend";
    }
  }
  return "SELECT ts, k, v, d, item FROM S";
}

FuzzCase GenerateCase(uint64_t seed) {
  Rng rng(seed);
  FuzzCase fuzz;
  fuzz.seed = seed;

  const int64_t mode_roll = rng.Range(0, 9);
  if (mode_roll < 4) {
    fuzz.mode = FeedMode::kDeletesPerfect;
  } else if (mode_roll < 7) {
    fuzz.mode = FeedMode::kInsertOnlyPerfect;
  } else {
    fuzz.mode = FeedMode::kInsertOnlySloppy;
  }

  // Queries: one or two specs, validated against the planner. A spec the
  // planner rejects falls back to a trivial projection; the fuzz smoke test
  // asserts the fallback stays rare, so grammar drift is caught.
  GenerateQueries(&rng, &fuzz);
  const bool has_join = HasShape(fuzz, QueryShape::kJoin);
  const bool need_k = NeedsK(fuzz);

  // Base feed: inserts and (mode-dependent) deletes of live rows, with
  // non-decreasing processing times. Event times are drawn from a window
  // straddling the epoch so negative-timestamp alignment is exercised —
  // except in the CQL-compared mode, whose baseline windowing is defined
  // only for the paper's non-negative times.
  const int64_t num_events = rng.Range(8, 48);
  const int64_t ts_lo =
      fuzz.mode == FeedMode::kInsertOnlyPerfect ? 0 : -3'600'000;
  const int64_t ts_hi =
      fuzz.mode == FeedMode::kInsertOnlyPerfect ? 7'200'000 : 3'600'000;
  int64_t ptime = 0;
  std::map<std::string, std::vector<Row>> live;
  for (int64_t i = 0; i < num_events; ++i) {
    ptime += rng.Range(0, 5'000);
    const std::string source =
        has_join ? (rng.Chance(50) ? kFuzzStreamR : kFuzzStreamS)
                 : (rng.Chance(20) ? kFuzzStreamR : kFuzzStreamS);
    FeedEvent event;
    event.source = source;
    event.ptime = Timestamp(ptime);
    std::vector<Row>& pool = live[source];
    if (fuzz.mode == FeedMode::kDeletesPerfect && !pool.empty() &&
        rng.Chance(25)) {
      const size_t idx = static_cast<size_t>(
          rng.Range(0, static_cast<int64_t>(pool.size()) - 1));
      event.kind = FeedEvent::Kind::kDelete;
      event.row = pool[idx];
      pool.erase(pool.begin() + static_cast<int64_t>(idx));
    } else {
      event.kind = FeedEvent::Kind::kInsert;
      event.row = {Value::Time(Timestamp(rng.Range(ts_lo, ts_hi))),
                   RandomK(&rng, need_k), RandomV(&rng), RandomD(&rng),
                   RandomItem(&rng)};
      pool.push_back(event.row);
    }
    fuzz.events.push_back(std::move(event));
  }

  if (fuzz.perfect_watermarks()) {
    RegeneratePerfectWatermarks(&fuzz.events);
  } else {
    // Sloppy schedule: watermarks wander anywhere within the event-time
    // domain (monotone per stream), so rows genuinely arrive late and drop.
    std::vector<FeedEvent> with_marks;
    std::map<std::string, Timestamp> last_wm;
    for (FeedEvent& event : fuzz.events) {
      const std::string source = event.source;
      const Timestamp at = event.ptime;
      with_marks.push_back(std::move(event));
      if (!rng.Chance(33)) continue;
      const Timestamp wm(rng.Range(ts_lo - 10'000, ts_hi + 10'000));
      auto it = last_wm.find(source);
      if (it != last_wm.end() && wm <= it->second) continue;
      last_wm[source] = wm;
      FeedEvent mark;
      mark.kind = FeedEvent::Kind::kWatermark;
      mark.source = source;
      mark.ptime = at;
      mark.watermark = wm;
      with_marks.push_back(std::move(mark));
    }
    fuzz.events = std::move(with_marks);
    // Input complete: every window closes, gated queries flush.
    Timestamp final_ptime =
        fuzz.events.empty() ? Timestamp(0) : fuzz.events.back().ptime;
    for (const char* source : {kFuzzStreamS, kFuzzStreamR}) {
      FeedEvent mark;
      mark.kind = FeedEvent::Kind::kWatermark;
      mark.source = source;
      mark.ptime = final_ptime;
      mark.watermark = Timestamp::Max();
      fuzz.events.push_back(std::move(mark));
    }
  }
  DrawClockMoves(seed * 0xD1B54A32D192ED03ULL + 0xC10C, &fuzz);
  return fuzz;
}

void RegeneratePerfectWatermarks(std::vector<FeedEvent>* events) {
  std::vector<FeedEvent> base;
  base.reserve(events->size());
  for (FeedEvent& event : *events) {
    if (event.kind != FeedEvent::Kind::kWatermark) {
      base.push_back(std::move(event));
    }
  }
  const size_t n = base.size();
  // min_future[i][source]: minimum row event time among base[i..] of that
  // source. A watermark placed after event i at min_future - 1ms is
  // "perfect": it is as tight as possible while provably never declaring a
  // still-outstanding row (insert or its later delete) late.
  std::map<std::string, Timestamp> running_min;
  std::vector<std::map<std::string, Timestamp>> min_future(n + 1);
  for (size_t i = n; i-- > 0;) {
    min_future[i + 1] = running_min;
    const Value& ts = base[i].row.empty() ? Value::Null() : base[i].row[0];
    if (!ts.is_null()) {
      auto [it, inserted] =
          running_min.emplace(base[i].source, ts.AsTimestamp());
      if (!inserted) it->second = std::min(it->second, ts.AsTimestamp());
    }
    if (i == 0) min_future[0] = running_min;
  }

  std::vector<FeedEvent> rebuilt;
  rebuilt.reserve(n * 2 + 2);
  std::map<std::string, Timestamp> last_wm;
  for (size_t i = 0; i < n; ++i) {
    const std::string source = base[i].source;
    const Timestamp at = base[i].ptime;
    rebuilt.push_back(std::move(base[i]));
    auto future = min_future[i + 1].find(source);
    if (future == min_future[i + 1].end()) continue;  // no more rows: wait
    const Timestamp wm = future->second - Interval::Millis(1);
    auto it = last_wm.find(source);
    if (it != last_wm.end() && wm <= it->second) continue;
    last_wm[source] = wm;
    FeedEvent mark;
    mark.kind = FeedEvent::Kind::kWatermark;
    mark.source = source;
    mark.ptime = at;
    mark.watermark = wm;
    rebuilt.push_back(std::move(mark));
  }
  const Timestamp final_ptime =
      rebuilt.empty() ? Timestamp(0) : rebuilt.back().ptime;
  for (const char* source : {kFuzzStreamS, kFuzzStreamR}) {
    FeedEvent mark;
    mark.kind = FeedEvent::Kind::kWatermark;
    mark.source = source;
    mark.ptime = final_ptime;
    mark.watermark = Timestamp::Max();
    rebuilt.push_back(std::move(mark));
  }
  *events = std::move(rebuilt);
}

const char* BoundaryTemplateToString(BoundaryTemplate t) {
  switch (t) {
    case BoundaryTemplate::kOneEventBatches: return "singleton_batches";
    case BoundaryTemplate::kOddRuns:          return "odd_runs";
    case BoundaryTemplate::kNullHeavy:        return "null_heavy";
    case BoundaryTemplate::kRetractionDense:  return "retraction_dense";
    case BoundaryTemplate::kSharedEventTimes: return "shared_event_times";
    case BoundaryTemplate::kSharedSubtrees:   return "shared_subtrees";
  }
  return "unknown";
}

FuzzCase GenerateBoundaryCase(uint64_t seed, BoundaryTemplate t) {
  // Decorrelated from GenerateCase(seed): the template tag perturbs the
  // splitmix64 state, so boundary cases explore their own corner of the
  // space without disturbing the frozen seed-to-case mapping.
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + static_cast<uint64_t>(t) + 1);
  FuzzCase fuzz;
  fuzz.seed = seed;

  switch (t) {
    case BoundaryTemplate::kOneEventBatches: {
      // Insert-only with strictly ascending event times per stream: the
      // perfect watermark schedule then advances after every single row, so
      // every rows-chunk the engine builds holds exactly one row.
      fuzz.mode = FeedMode::kInsertOnlyPerfect;
      GenerateQueries(&rng, &fuzz);
      const bool has_join = HasShape(fuzz, QueryShape::kJoin);
      const bool need_k = NeedsK(fuzz);
      const int64_t num_events = rng.Range(8, 32);
      int64_t ptime = 0;
      std::map<std::string, int64_t> next_ts;
      for (int64_t i = 0; i < num_events; ++i) {
        ptime += rng.Range(0, 5'000);
        const std::string source =
            has_join ? (rng.Chance(50) ? kFuzzStreamR : kFuzzStreamS)
                     : (rng.Chance(20) ? kFuzzStreamR : kFuzzStreamS);
        auto [it, inserted] = next_ts.emplace(source, rng.Range(0, 60'000));
        if (!inserted) it->second += rng.Range(1, 60'000);
        FeedEvent event;
        event.kind = FeedEvent::Kind::kInsert;
        event.source = source;
        event.ptime = Timestamp(ptime);
        event.row = {Value::Time(Timestamp(it->second)),
                     RandomK(&rng, need_k), RandomV(&rng), RandomD(&rng),
                     RandomItem(&rng)};
        fuzz.events.push_back(std::move(event));
      }
      break;
    }
    case BoundaryTemplate::kOddRuns: {
      // Insert-only runs of odd length, one stream per run, event times
      // descending inside the run and jumping up between runs. The perfect
      // watermark for a stream is min-future-minus-1ms, which equals the
      // run's own minimum until its last row lands — so the schedule only
      // advances at run boundaries and every chunk has an odd row count.
      fuzz.mode = FeedMode::kInsertOnlyPerfect;
      GenerateQueries(&rng, &fuzz);
      const bool has_join = HasShape(fuzz, QueryShape::kJoin);
      const bool need_k = NeedsK(fuzz);
      const int64_t num_runs = rng.Range(3, 8);
      int64_t ptime = 0;
      int64_t base_ts = rng.Range(0, 60'000);
      std::map<std::string, bool> seen;
      for (int64_t r = 0; r < num_runs; ++r) {
        int64_t len = rng.Pick<int64_t>({1, 3, 5, 7, 9});
        const std::string source =
            has_join ? (rng.Chance(50) ? kFuzzStreamR : kFuzzStreamS)
                     : (rng.Chance(30) ? kFuzzStreamR : kFuzzStreamS);
        // A stream's very first row has no prior watermark, so the perfect
        // schedule marks right after it regardless of the run shape; keep
        // that forced boundary odd by making the first run a singleton.
        if (!seen[source]) {
          seen[source] = true;
          len = 1;
        }
        for (int64_t j = 0; j < len; ++j) {
          ptime += rng.Range(0, 2'000);
          FeedEvent event;
          event.kind = FeedEvent::Kind::kInsert;
          event.source = source;
          event.ptime = Timestamp(ptime);
          event.row = {Value::Time(Timestamp(base_ts + (len - 1 - j) * 1'000)),
                       RandomK(&rng, need_k), RandomV(&rng), RandomD(&rng),
                       RandomItem(&rng)};
          fuzz.events.push_back(std::move(event));
        }
        // Next run sits strictly above every timestamp of this one.
        base_ts += len * 1'000 + rng.Range(60'000, 120'000);
      }
      break;
    }
    case BoundaryTemplate::kNullHeavy:
    case BoundaryTemplate::kRetractionDense:
    case BoundaryTemplate::kSharedSubtrees: {
      // Same feed skeleton as GenerateCase, with one probability cranked:
      // NULLs dominate every nullable column, or deletes dominate the event
      // mix (pool permitting). The shared-subtrees template keeps the
      // ordinary mix and makes its first query a kSharedAggJoin.
      const bool null_heavy = t == BoundaryTemplate::kNullHeavy;
      fuzz.mode = null_heavy && rng.Chance(50) ? FeedMode::kInsertOnlyPerfect
                                               : FeedMode::kDeletesPerfect;
      GenerateQueries(&rng, &fuzz);
      if (t == BoundaryTemplate::kSharedSubtrees) {
        fuzz.queries[0] = GenerateSharedAggJoinSpec(&rng);
      }
      const bool has_join = HasShape(fuzz, QueryShape::kJoin);
      const bool need_k = NeedsK(fuzz);
      const int null_pct = null_heavy ? 60 : 8;
      const int delete_pct =
          null_heavy ? 25 : t == BoundaryTemplate::kRetractionDense ? 65 : 25;
      const int64_t num_events = rng.Range(16, 48);
      const int64_t ts_lo =
          fuzz.mode == FeedMode::kInsertOnlyPerfect ? 0 : -3'600'000;
      const int64_t ts_hi =
          fuzz.mode == FeedMode::kInsertOnlyPerfect ? 7'200'000 : 3'600'000;
      int64_t ptime = 0;
      std::map<std::string, std::vector<Row>> live;
      for (int64_t i = 0; i < num_events; ++i) {
        ptime += rng.Range(0, 5'000);
        const std::string source =
            has_join ? (rng.Chance(50) ? kFuzzStreamR : kFuzzStreamS)
                     : (rng.Chance(20) ? kFuzzStreamR : kFuzzStreamS);
        FeedEvent event;
        event.source = source;
        event.ptime = Timestamp(ptime);
        std::vector<Row>& pool = live[source];
        if (fuzz.mode == FeedMode::kDeletesPerfect && !pool.empty() &&
            rng.Chance(delete_pct)) {
          const size_t idx = static_cast<size_t>(
              rng.Range(0, static_cast<int64_t>(pool.size()) - 1));
          event.kind = FeedEvent::Kind::kDelete;
          event.row = pool[idx];
          pool.erase(pool.begin() + static_cast<int64_t>(idx));
        } else {
          event.kind = FeedEvent::Kind::kInsert;
          event.row = {Value::Time(Timestamp(rng.Range(ts_lo, ts_hi))),
                       RandomK(&rng, need_k, null_heavy ? 60 : 10),
                       RandomV(&rng, null_pct), RandomD(&rng, null_pct),
                       RandomItem(&rng, null_pct)};
          pool.push_back(event.row);
        }
        fuzz.events.push_back(std::move(event));
      }
      break;
    }
    case BoundaryTemplate::kSharedEventTimes: {
      // Rows pile onto three event times drawn from a small vocabulary, so
      // identical rows repeat and deletes (~55%) empty groups and join
      // buckets that later re-form. Equating the join's event times gives
      // both join sides a purge index keyed on those same three instants.
      fuzz.mode = FeedMode::kDeletesPerfect;
      GenerateQueries(&rng, &fuzz);
      for (QuerySpec& spec : fuzz.queries) {
        if (spec.shape != QueryShape::kJoin) continue;
        spec.ts_join = true;
        spec.sql = RenderSql(spec);
      }
      const bool has_join = HasShape(fuzz, QueryShape::kJoin);
      const bool need_k = NeedsK(fuzz);
      const int64_t base = rng.Range(-3'600'000, 3'600'000);
      const std::vector<int64_t> instants = {
          base, base + rng.Range(1, 600'000),
          base + rng.Range(600'001, 1'800'000)};
      const int64_t num_events = rng.Range(24, 64);
      int64_t ptime = 0;
      std::map<std::string, std::vector<Row>> live;
      for (int64_t i = 0; i < num_events; ++i) {
        ptime += rng.Range(0, 5'000);
        const std::string source =
            has_join ? (rng.Chance(50) ? kFuzzStreamR : kFuzzStreamS)
                     : (rng.Chance(20) ? kFuzzStreamR : kFuzzStreamS);
        FeedEvent event;
        event.source = source;
        event.ptime = Timestamp(ptime);
        std::vector<Row>& pool = live[source];
        if (!pool.empty() && rng.Chance(55)) {
          const size_t idx = static_cast<size_t>(
              rng.Range(0, static_cast<int64_t>(pool.size()) - 1));
          event.kind = FeedEvent::Kind::kDelete;
          event.row = pool[idx];
          pool.erase(pool.begin() + static_cast<int64_t>(idx));
        } else {
          event.kind = FeedEvent::Kind::kInsert;
          const int64_t ts = instants[static_cast<size_t>(rng.Range(0, 2))];
          event.row = {Value::Time(Timestamp(ts)), RandomK(&rng, need_k),
                       Value::Int64(rng.Range(0, 2)), Value::Double(0.5),
                       Value::String(kItems[rng.Range(0, 1)])};
          pool.push_back(event.row);
        }
        fuzz.events.push_back(std::move(event));
      }
      break;
    }
  }

  RegeneratePerfectWatermarks(&fuzz.events);
  return fuzz;
}

void RepairFeed(std::vector<FeedEvent>* events) {
  std::vector<FeedEvent> kept;
  kept.reserve(events->size());
  std::map<std::string, std::map<Row, int64_t, RowLess>> live;
  std::map<std::string, Timestamp> last_wm;
  Timestamp last_ptime = Timestamp::Min();
  for (FeedEvent& event : *events) {
    switch (event.kind) {
      case FeedEvent::Kind::kInsert:
        live[event.source][event.row] += 1;
        break;
      case FeedEvent::Kind::kDelete: {
        auto& pool = live[event.source];
        auto it = pool.find(event.row);
        if (it == pool.end()) continue;  // orphaned by a removed insert
        if (--it->second == 0) pool.erase(it);
        break;
      }
      case FeedEvent::Kind::kWatermark: {
        auto it = last_wm.find(event.source);
        if (it != last_wm.end() && event.watermark <= it->second) continue;
        last_wm[event.source] = event.watermark;
        break;
      }
      case FeedEvent::Kind::kClock:
        break;
    }
    if (event.ptime < last_ptime) event.ptime = last_ptime;
    last_ptime = event.ptime;
    kept.push_back(std::move(event));
  }
  *events = std::move(kept);
}

}  // namespace testing
}  // namespace onesql
