// The traced run: where a workload's time goes, layer by layer, measured
// from outside the program. Two sources:
//  - spans the benchmark records around calls into each module's public API
//    (written as a Chrome trace when the run ends), and
//  - a waterfall: the same batches fed through configurations that differ
//    by one layer (no queries vs. queries, one query at a time, memory vs.
//    durable, in-process ServerCore vs. TCP, 1 vs. 2 shards); the
//    difference is that layer's cost.
// Counters come from Engine::MetricsSnapshot(); nothing is added to src/.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <fstream>
#include <map>
#include <memory>

#include "server/json.h"
#include "server/server_core.h"
#include "server/wire.h"
#include "sql/parser.h"
#include "workloads.h"

namespace perfbench {

using onesql::ContinuousQuery;
using onesql::Engine;
using onesql::server::Json;

namespace {

constexpr int kReps = 3;             // timed configurations: best of >= kReps
constexpr int kMaxReps = 20;
constexpr int64_t kMinConfigNs = 500'000'000;
constexpr int kParseReps = 20;       // sql/plan micro-timings per query
constexpr double kConservationTolerance = 0.25;

using Queries = std::vector<std::pair<std::string, std::string>>;

/// Feeds every batch through `engine`, one span per Feed call; returns the
/// nanoseconds spent inside Feed.
int64_t FeedAll(Engine* engine, const std::vector<Batch>& batches,
                Tracer* tracer, const std::string& span, Report* report,
                const std::function<void()>& after_batch = nullptr) {
  int64_t total = 0;
  for (size_t b = 0; b < batches.size(); ++b) {
    tracer->SetBatch(b);
    const int64_t t0 = NowNs();
    bool ok;
    {
      Scope s(tracer, span);
      ok = engine->Feed(batches[b]).ok();
    }
    total += NowNs() - t0;
    report->Op(ok, span);
    if (after_batch) after_batch();
  }
  return total;
}

/// A fresh engine running `queries` at `shards`.
std::unique_ptr<Engine> Build(const Workload& w, const Queries& queries,
                              int shards, Report* report) {
  auto engine = std::make_unique<Engine>();
  report->Op(Register(engine.get(), w).ok(), "register");
  onesql::ExecutionOptions options;
  options.shards = shards;
  for (const auto& [label, sql] : queries) {
    report->Op(engine->Execute(sql, options).ok(), "execute " + label);
  }
  return engine;
}

/// Best Feed time of `queries` over the workload's batches, out of at least
/// kReps passes and enough passes to spend kMinConfigNs: short
/// configurations get more passes, so their best is as trustworthy as the
/// long ones'.
int64_t TimeConfig(const Workload& w, const Queries& queries, int shards,
                   Tracer* tracer, const std::string& span, Report* report) {
  int64_t best = 0;
  int64_t spent = 0;
  for (int rep = 0; rep < kMaxReps && (rep < kReps || spent < kMinConfigNs);
       ++rep) {
    auto engine = Build(w, queries, shards, report);
    const int64_t t = FeedAll(engine.get(), w.batches, tracer, span, report);
    best = rep == 0 ? t : std::min(best, t);
    spent += t;
  }
  return best;
}

uint64_t SumCounter(const onesql::obs::MetricsSnapshot& snap,
                    const std::string& name, const std::string& label = "",
                    const std::string& value = "") {
  uint64_t sum = 0;
  for (const auto& c : snap.counters) {
    if (c.name != name) continue;
    bool match = label.empty();
    for (const auto& [k, v] : c.labels) match = match || (k == label && v == value);
    if (match) sum += c.value;
  }
  return sum;
}

onesql::obs::HistogramData MergedHistogram(
    const onesql::obs::MetricsSnapshot& snap, const std::string& name) {
  onesql::obs::HistogramData d;
  for (const auto& h : snap.histograms) {
    if (h.name == name) d.Merge(h.data);
  }
  return d;
}

int64_t MaxGauge(const onesql::obs::MetricsSnapshot& snap,
                 const std::string& name) {
  int64_t m = 0;
  for (const auto& g : snap.gauges) {
    if (g.name == name) m = std::max(m, g.value);
  }
  return m;
}

double Mean(const onesql::obs::HistogramData& d) {
  const uint64_t n = d.TotalCount();
  return n == 0 ? 0.0 : static_cast<double>(d.sum) / static_cast<double>(n);
}

double PerEvent(int64_t ns, uint64_t events) {
  return events == 0 ? 0.0 : static_cast<double>(ns) / static_cast<double>(events);
}

/// The workload's queries on one shard count, counted by the engine's own
/// metrics (metrics + profiling on, so untimed).
void CountersLayer(const Workload& w, Report* report) {
  auto engine = std::make_unique<Engine>();
  onesql::obs::ObsOptions obs;
  obs.metrics = true;
  obs.profiling = true;
  report->Op(engine->EnableObservability(obs).ok(), "observability");
  report->Op(Register(engine.get(), w).ok(), "register");
  std::vector<ContinuousQuery*> qs;
  report->Op(ExecuteAll(engine.get(), w, &qs).ok(), "execute");
  size_t history_max = 0;
  size_t state_max = 0;
  Tracer off(false);
  FeedAll(engine.get(), w.batches, &off, "feed", report, [&] {
    history_max = std::max(history_max, engine->history_size());
    size_t state = 0;
    for (ContinuousQuery* q : qs) state += q->StateBytes();
    state_max = std::max(state_max, state);
  });
  const auto snap = engine->MetricsSnapshot();
  const double events = static_cast<double>(w.events);
  const uint64_t vec = SumCounter(snap, "onesql_kernel_rows_total", "path",
                                  "vectorized");
  const uint64_t all = SumCounter(snap, "onesql_kernel_rows_total");
  const uint64_t emissions = SumCounter(snap, "onesql_sink_emissions_total");
  const uint64_t retractions =
      SumCounter(snap, "onesql_sink_retractions_total");
  size_t changelog = 0;
  for (ContinuousQuery* q : qs) changelog += q->Emissions().size();
  report->Metric("engine.history_events", static_cast<double>(history_max),
                 "count");
  report->Metric("exec.vectorized_row_share",
                 all == 0 ? 0.0 : static_cast<double>(vec) / all, "ratio");
  // Rows per operator dispatch: onesql_profile_batch_size records a batch
  // dispatch's rows and 1 for each scalar element dispatch.
  report->Metric("exec.mean_batch_rows",
                 Mean(MergedHistogram(snap, "onesql_profile_batch_size")),
                 "rows");
  report->Metric(
      "exec.rows_out_per_event",
      static_cast<double>(SumCounter(snap, "onesql_operator_rows_out_total")) /
          events,
      "rows");
  report->Metric("exec.state_bytes", static_cast<double>(state_max), "B");
  report->Metric("sink.emissions_per_kevent",
                 static_cast<double>(emissions) * 1000.0 / events, "count");
  report->Metric("sink.retractions_share",
                 emissions == 0 ? 0.0
                                : static_cast<double>(retractions) / emissions,
                 "ratio");
  report->Metric("sink.changelog_len", static_cast<double>(changelog),
                 "count");
}

/// The write-ahead log and checkpoint layer: the workload's queries with
/// durability on, a checkpoint halfway through, and a restore.
void StateLayer(const Workload& w, const std::string& dir, Tracer* tracer,
                Report* report) {
  RemoveTree(dir);
  MakeDirs(dir);
  auto engine = std::make_unique<Engine>();
  onesql::obs::ObsOptions obs;
  obs.metrics = true;
  report->Op(engine->EnableObservability(obs).ok(), "observability");
  report->Op(engine->EnableDurability(dir).ok(), "durability");
  report->Op(Register(engine.get(), w).ok(), "register");
  std::vector<ContinuousQuery*> qs;
  report->Op(ExecuteAll(engine.get(), w, &qs).ok(), "execute");
  const size_t half = w.batches.size() / 2;
  std::vector<Batch> first(w.batches.begin(), w.batches.begin() + half);
  std::vector<Batch> second(w.batches.begin() + half, w.batches.end());
  FeedAll(engine.get(), first, tracer, "engine.feed[durable]", report);
  const int64_t c0 = NowNs();
  {
    Scope s(tracer, "engine.checkpoint");
    report->Op(engine->Checkpoint(dir).ok(), "checkpoint");
  }
  const int64_t checkpoint_ns = NowNs() - c0;
  const uint64_t seq_at_checkpoint = engine->feed_seq();
  FeedAll(engine.get(), second, tracer, "engine.feed[durable]", report);
  const auto snap = engine->MetricsSnapshot();
  const uint64_t suffix = engine->feed_seq() - seq_at_checkpoint;
  engine.reset();
  {
    Scope s(tracer, "engine.restore");
    Engine restored;
    report->Op(restored.Restore(dir).ok(), "restore");
  }
  RemoveTree(dir);
  // The mean, not the p50: the histogram's power-of-two buckets would make
  // a p50 read the same bucket edge run after run; its sum is exact.
  report->Metric("state.wal_sync_us_mean",
                 Mean(MergedHistogram(snap, "onesql_wal_sync_latency_us")),
                 "us");
  report->Metric("state.wal_group_size",
                 Mean(MergedHistogram(snap, "onesql_wal_group_size")),
                 "events");
  report->Metric(
      "state.wal_bytes_per_event",
      static_cast<double>(SumCounter(snap, "onesql_wal_bytes_written_total")) /
          static_cast<double>(w.events),
      "B");
  report->Metric("state.checkpoint_ms", static_cast<double>(checkpoint_ns) / 1e6,
                 "ms");
  report->Metric("state.wal_suffix_events", static_cast<double>(suffix),
                 "count");
}

/// A profiled engine running `w`'s queries at two shards; `sharded` tells
/// whether any of them could be key-partitioned.
std::unique_ptr<Engine> ProfiledAtTwoShards(const Workload& w, Report* report,
                                            bool* sharded) {
  auto engine = std::make_unique<Engine>();
  onesql::obs::ObsOptions obs;
  obs.metrics = true;
  obs.profiling = true;
  report->Op(engine->EnableObservability(obs).ok(), "observability");
  report->Op(Register(engine.get(), w).ok(), "register");
  onesql::ExecutionOptions options;
  options.shards = 2;
  *sharded = false;
  for (const auto& [label, sql] : w.queries) {
    auto q = engine->Execute(sql, options);
    report->Op(q.ok(), "execute " + label);
    *sharded = *sharded || (q.ok() && q.value()->dataflow().shard_count() > 1);
  }
  return engine;
}

/// The sharded runtime: the same batches at one and at two shards. When
/// none of the workload's queries can be key-partitioned (nexmark-recover's
/// Q4 and Q7 run unsharded at any shard count), the layer is measured on
/// the seed's keyed-agg-sharded feed instead.
void ShardLayer(const Workload& own, uint32_t seed, Tracer* tracer,
                Report* report) {
  bool sharded = false;
  auto engine = ProfiledAtTwoShards(own, report, &sharded);
  Workload keyed;
  const Workload* w = &own;
  if (!sharded) {
    MakeWorkload("keyed-agg-sharded", seed, 1.0, &keyed);
    w = &keyed;
    engine = ProfiledAtTwoShards(keyed, report, &sharded);
    report->Note(own.name + ": no query is key-partitionable; the shard "
                            "layer runs keyed-agg-sharded's feed");
  }
  Tracer off(false);
  FeedAll(engine.get(), w->batches, &off, "feed", report);
  const auto snap = engine->MetricsSnapshot();
  const int64_t one = TimeConfig(*w, w->queries, 1, tracer,
                                 "engine.feed[shards=1]", report);
  const int64_t two = TimeConfig(*w, w->queries, 2, tracer,
                                 "engine.feed[shards=2]", report);
  const double kevents = static_cast<double>(w->events) / 1000.0;
  report->Metric("exec.shard_speedup",
                 two == 0 ? 0.0 : static_cast<double>(one) / two, "ratio");
  report->Metric(
      "exec.shard_wait_us_per_kevent",
      static_cast<double>(MergedHistogram(snap, "onesql_profile_shard_wait_us").sum) /
          kevents,
      "us");
  report->Metric(
      "exec.merge_us_per_kevent",
      static_cast<double>(MergedHistogram(snap, "onesql_profile_merge_us").sum) /
          kevents,
      "us");
  report->Metric(
      "exec.shard_queue_high_water",
      static_cast<double>(MaxGauge(snap, "onesql_profile_shard_queue_high_water")),
      "count");
}

/// The server layer in process: the same feed lines through
/// ServerCore::HandleLine, with one subscriber session per query.
double ServerLayer(const Workload& w, const std::vector<std::string>& lines,
                   const std::string& dir, Tracer* tracer, Report* report) {
  onesql::server::ServerOptions options;
  options.default_shards = w.shards;
  options.max_session_queue = kSessionQueueLines;
  if (w.durable) {
    RemoveTree(dir);
    MakeDirs(dir);
    options.durable_dir = dir;
  }
  auto created = onesql::server::ServerCore::Create(options);
  report->Op(created.ok(), "ServerCore::Create");
  if (!created.ok()) return 0;
  auto core = std::move(created).value();
  const uint64_t feeder = core->OpenSession().value();
  auto call = [&](uint64_t session, const Json& req) {
    auto resp = Json::Parse(core->HandleLine(session, req.Serialize()));
    const Json* ok = resp.ok() ? resp.value().Find("ok") : nullptr;
    report->Op(ok != nullptr && ok->AsBool(), "server command");
    return resp.ok() ? resp.value() : Json();
  };
  Engine catalog_source;
  report->Op(Register(&catalog_source, w).ok(), "register");
  for (const auto& [name, def] : catalog_source.catalog().tables()) {
    if (!def.unbounded) continue;
    Json req = Json::Object();
    req.Set("cmd", Json::Str("register_stream"));
    req.Set("name", Json::Str(def.name));
    req.Set("schema", onesql::server::EncodeSchema(def.schema));
    call(feeder, req);
  }
  std::vector<uint64_t> subs;
  for (const auto& [label, sql] : w.queries) {
    const uint64_t s = core->OpenSession().value();
    Json submit = Json::Object();
    submit.Set("cmd", Json::Str("submit"));
    submit.Set("sql", Json::Str(sql));
    submit.Set("share", Json::Bool(true));
    const Json resp = call(s, submit);
    const Json* name = resp.Find("query");
    Json sub = Json::Object();
    sub.Set("cmd", Json::Str("subscribe"));
    sub.Set("query", Json::Str(name != nullptr ? name->AsString() : ""));
    call(s, sub);
    subs.push_back(s);
  }
  std::vector<double> handle_us;
  std::vector<double> drain_us;
  uint64_t deltas = 0;
  for (size_t i = 0; i < lines.size(); ++i) {
    tracer->SetBatch(i);
    int64_t t0 = NowNs();
    std::string resp;
    {
      Scope s(tracer, "server.handle_line[feed]");
      resp = core->HandleLine(feeder, lines[i]);
    }
    handle_us.push_back(NsToUs(NowNs() - t0));
    report->Op(resp.find("\"ok\":true") != std::string::npos, "feed line");
    std::vector<std::vector<std::shared_ptr<const std::string>>> drained;
    t0 = NowNs();
    {
      Scope s(tracer, "server.drain_outbound");
      for (uint64_t sub : subs) drained.push_back(core->DrainOutbound(sub));
    }
    drain_us.push_back(NsToUs(NowNs() - t0));
    for (const auto& pushed : drained) {
      for (const auto& line : pushed) {
        const bool delta = line->rfind("{\"push\":\"delta\"", 0) == 0;
        if (!delta) report->Op(false, "push: " + line->substr(0, 200));
        deltas += delta ? 1 : 0;
      }
    }
  }

  // Codec micro-timings over the same lines and the resulting changelogs.
  int64_t parse_ns = 0;
  int64_t decode_ns = 0;
  for (const std::string& line : lines) {
    int64_t t0 = NowNs();
    auto parsed = Json::Parse(line);
    parse_ns += NowNs() - t0;
    if (!parsed.ok()) continue;
    const Json* events = parsed.value().Find("events");
    if (events == nullptr) continue;
    t0 = NowNs();
    for (const Json& e : events->items()) {
      auto ev = onesql::server::DecodeFeedEvent(e, core->engine()->catalog());
      if (!ev.ok()) report->Op(false, "decode");
    }
    decode_ns += NowNs() - t0;
  }
  int64_t encode_ns = 0;
  uint64_t encoded = 0;
  for (size_t q = 0; q < core->engine()->num_queries(); ++q) {
    const auto& em = core->engine()->query(q)->Emissions();
    const int64_t t0 = NowNs();
    for (const auto& e : em) {
      auto payload = onesql::server::EncodeDeltaPayload(e);
      encoded += payload->empty() ? 0 : 1;
    }
    encode_ns += NowNs() - t0;
  }
  for (uint64_t s : subs) core->CloseSession(s);
  core->CloseSession(feeder);
  core.reset();
  RemoveTree(dir);

  const Tail handle = Summarize(handle_us);
  report->Metric("server.json_parse_ns_per_event", PerEvent(parse_ns, w.events),
                 "ns");
  report->Metric("server.decode_ns_per_event", PerEvent(decode_ns, w.events),
                 "ns");
  report->Metric("server.handle_feed_us", handle.p50, "us");
  report->Metric("server.encode_ns_per_delta", PerEvent(encode_ns, encoded),
                 "ns");
  report->Metric("server.drain_us", Summarize(drain_us).p50, "us");
  report->Metric("server.deltas_per_feed",
                 lines.empty() ? 0.0
                               : static_cast<double>(deltas) / lines.size(),
                 "count");
  return handle.p50;
}

/// sql / plan / execute micro-timings (set-up cost).
void SetupLayer(const Workload& w, Tracer* tracer, Report* report) {
  std::vector<double> parse_us, plan_us, execute_us;
  Engine engine;
  report->Op(Register(&engine, w).ok(), "register");
  for (int rep = 0; rep < kParseReps; ++rep) {
    for (const auto& [label, sql] : w.queries) {
      int64_t t0 = NowNs();
      {
        Scope s(tracer, "sql.parse");
        report->Op(onesql::sql::Parser::Parse(sql).ok(), "parse " + label);
      }
      parse_us.push_back(NsToUs(NowNs() - t0));
      t0 = NowNs();
      {
        Scope s(tracer, "plan.plan");
        report->Op(engine.Plan(sql).ok(), "plan " + label);
      }
      plan_us.push_back(NsToUs(NowNs() - t0));
    }
  }
  for (int rep = 0; rep < kParseReps / 4; ++rep) {
    Engine fresh;
    report->Op(Register(&fresh, w).ok(), "register");
    onesql::ExecutionOptions options;
    options.shards = w.shards;
    for (const auto& [label, sql] : w.queries) {
      const int64_t t0 = NowNs();
      {
        Scope s(tracer, "engine.execute");
        report->Op(fresh.Execute(sql, options).ok(), "execute " + label);
      }
      execute_us.push_back(NsToUs(NowNs() - t0));
    }
  }
  report->Metric("sql.parse_us", Median(parse_us), "us");
  report->Metric("plan.plan_us", Median(plan_us), "us");
  report->Metric("engine.execute_us", Median(execute_us), "us");
}

/// The in-process closed loop of the end-to-end run (feed + fold), with
/// and without spans, alternated until the run's seconds are used up.
double TraceOverhead(const Workload& w, double seconds, Tracer* tracer,
                     Report* report) {
  std::vector<double> plain, traced;
  Tracer off(false);
  const int64_t begin = NowNs();
  while (plain.size() < 2 || NsToS(NowNs() - begin) < seconds) {
    for (Tracer* t : {&off, tracer}) {
      auto engine = Build(w, w.queries, w.shards, report);
      std::vector<Fold> folds(engine->num_queries());
      std::vector<size_t> cursors(folds.size(), 0);
      int64_t total = 0;
      for (size_t b = 0; b < w.batches.size(); ++b) {
        t->SetBatch(b);
        const int64_t t0 = NowNs();
        {
          Scope feed(t, "engine.feed");
          report->Op(engine->Feed(w.batches[b]).ok(), "feed");
        }
        {
          Scope fold(t, "subscriber.fold");
          for (size_t i = 0; i < folds.size(); ++i) {
            const auto& em = engine->query(i)->Emissions();
            for (; cursors[i] < em.size(); ++cursors[i]) {
              folds[i].Apply(em[cursors[i]]);
            }
          }
        }
        total += NowNs() - t0;
      }
      (t == &off ? plain : traced).push_back(static_cast<double>(total));
    }
  }
  return Median(traced) / Median(plain) - 1.0;
}

}  // namespace

void RunLayers(const Workload& w, const RunConfig& cfg, Report* report) {
  Tracer tracer(true);
  const std::vector<std::string> lines = FeedLines(w);

  SetupLayer(w, &tracer, report);

  // Waterfall over the engine: validation alone, all queries, each query.
  Engine registered;
  report->Op(Register(&registered, w).ok(), "register");
  int64_t validate = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    auto clone = registered.CloneRegistrations();
    report->Op(clone.ok(), "CloneRegistrations");
    if (!clone.ok()) return;
    const int64_t t = FeedAll(clone.value().get(), w.batches, &tracer,
                              "engine.feed[no queries]", report);
    validate = rep == 0 ? t : std::min(validate, t);
    if (rep + 1 == kReps) {
      // Late queries over the retained history: the replay path.
      int64_t replay_ns = 0;
      uint64_t replayed = 0;
      onesql::ExecutionOptions options;
      options.shards = w.shards;
      for (const auto& [label, sql] : w.queries) {
        replayed += clone.value()->history_size();
        const int64_t t0 = NowNs();
        Scope s(&tracer, "engine.execute[late]");
        report->Op(clone.value()->Execute(sql, options).ok(), "late " + label);
        replay_ns += NowNs() - t0;
      }
      report->Metric("engine.replay_eps",
                     static_cast<double>(replayed) / NsToS(replay_ns), "1/s");
    }
  }
  const int64_t full =
      TimeConfig(w, w.queries, w.shards, &tracer, "engine.feed[all queries]",
                 report);
  report->Metric("engine.validate_ns_per_event", PerEvent(validate, w.events),
                 "ns");
  report->Metric("engine.feed_ns_per_event", PerEvent(full, w.events), "ns");

  // Per-query exec cost: one-query engine minus validation. The six NEXMark
  // queries run on a NEXMark feed (this workload's, or the seed's default
  // NEXMark feed for the keyed workload).
  Workload nexmark_feed;
  const Workload* qfeed = &w;
  if (w.keyed) {
    MakeWorkload("nexmark-join", cfg.seed, 1.0, &nexmark_feed);
    qfeed = &nexmark_feed;
  }
  int64_t qfeed_validate = validate;
  if (w.keyed) {
    Engine base;
    report->Op(Register(&base, *qfeed).ok(), "register");
    auto clone = base.CloneRegistrations();
    report->Op(clone.ok(), "CloneRegistrations");
    if (!clone.ok()) return;
    qfeed_validate = FeedAll(clone.value().get(), qfeed->batches, &tracer,
                             "engine.feed[no queries]", report);
  }
  std::map<std::string, int64_t> alone;  // this workload's one-query times
  for (const auto& q : NexmarkQueries()) {
    const int64_t t = TimeConfig(*qfeed, {q}, 1, &tracer,
                                 "engine.feed[" + q.first + "]", report);
    if (qfeed == &w && w.shards == 1) alone[q.first] = t;
    report->Metric("exec." + q.first + ".ns_per_event",
                   PerEvent(t - qfeed_validate, qfeed->events), "ns");
  }
  // Conservation: validation plus each of this workload's queries alone
  // should add up to the feed time of all of them together.
  int64_t attributed = validate;
  for (const auto& q : w.queries) {
    auto it = alone.find(q.first);
    attributed += (it != alone.end()
                       ? it->second
                       : TimeConfig(w, {q}, w.shards, &tracer,
                                    "engine.feed[" + q.first + "]", report)) -
                  validate;
  }
  const double residual =
      full == 0 ? 0.0 : 1.0 - static_cast<double>(attributed) / full;
  report->Metric("engine.unattributed_share", residual, "ratio");
  char line[256];
  std::snprintf(line, sizeof(line),
                "conservation: validate %.0f ns/ev + per-query increments "
                "%.0f ns/ev vs. feed %.0f ns/ev: residual %+.1f%% (tolerance "
                "+-%.0f%%) %s",
                PerEvent(validate, w.events),
                PerEvent(attributed - validate, w.events),
                PerEvent(full, w.events), residual * 100,
                kConservationTolerance * 100,
                std::abs(residual) <= kConservationTolerance ? "within"
                                                             : "OUTSIDE");
  report->Note(line);

  CountersLayer(w, report);
  StateLayer(w, cfg.work_dir + "/state", &tracer, report);
  ShardLayer(w, cfg.seed, &tracer, report);
  const double handle_p50 =
      ServerLayer(w, lines, cfg.work_dir + "/server", &tracer, report);

  // TCP: the same lines through an onesql_serve child.
  WireEpoch tcp;
  if (ServeEpoch(w, lines, cfg, false, &tcp, report)) {
    report->Metric("tcp.feed_overhead_us",
                   Summarize(tcp.feed_us).p50 - handle_p50, "us");
    report->Metric("tcp.bytes_per_event",
                   static_cast<double>(tcp.wire_bytes) /
                       static_cast<double>(tcp.events),
                   "B");
  } else {
    report->Check(false, w.name + ": TCP layer ran");
  }

  report->Metric("obs.trace_overhead",
                 TraceOverhead(w, cfg.seconds / 2, &tracer, report), "ratio");

  // Self time per span name, then the trace itself.
  for (const auto& [name, agg] : tracer.Aggregate()) {
    std::snprintf(line, sizeof(line),
                  "span %-34s n=%-7llu total %10.3f ms  self %10.3f ms",
                  name.c_str(), static_cast<unsigned long long>(agg.count),
                  static_cast<double>(agg.total_ns) / 1e6,
                  static_cast<double>(agg.self_ns) / 1e6);
    report->Note(line);
  }
  std::ofstream(cfg.trace_path) << tracer.ChromeJson();
  report->Note("trace: " + std::to_string(tracer.size()) + " spans -> " +
               cfg.trace_path);
}

}  // namespace perfbench
