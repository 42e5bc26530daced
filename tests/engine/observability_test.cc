// End-to-end observability: metrics on the paper's Section 4 dataset must be
// exact — event-time metrics (watermark lag, emit latency) run on the logical
// feed clock, so their values are fully determined by the dataset. Also:
// tracing spans cover feed -> push -> sink, observability is off by default,
// and counters stay coherent across Checkpoint/Restore (process-lifetime
// counters, no double-counting after the WAL-suffix replay).

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "obs/instruments.h"
#include "tests/state/temp_dir.h"

namespace onesql {
namespace {

using state::NewTempDir;

Timestamp T(int h, int m) { return Timestamp::FromHMS(h, m); }

Schema BidSchema() {
  return Schema({{"bidtime", DataType::kTimestamp, true},
                 {"price", DataType::kBigint},
                 {"item", DataType::kVarchar}});
}

FeedEvent BidInsert(Timestamp ptime, Timestamp bidtime, int64_t price,
                    const std::string& item) {
  FeedEvent e;
  e.kind = FeedEvent::Kind::kInsert;
  e.source = "Bid";
  e.ptime = ptime;
  e.row = {Value::Time(bidtime), Value::Int64(price), Value::String(item)};
  return e;
}

FeedEvent BidWatermark(Timestamp ptime, Timestamp mark) {
  FeedEvent e;
  e.kind = FeedEvent::Kind::kWatermark;
  e.source = "Bid";
  e.ptime = ptime;
  e.watermark = mark;
  return e;
}

/// The paper's Section 4 dataset. Watermark lags (ptime minus watermark):
/// 2, 6, 4, 1 minutes -> histogram count 4, sum 780000 ms, final lag 60000.
std::vector<FeedEvent> PaperFeed() {
  return {
      BidWatermark(T(8, 7), T(8, 5)),
      BidInsert(T(8, 8), T(8, 7), 2, "A"),
      BidInsert(T(8, 12), T(8, 11), 3, "B"),
      BidInsert(T(8, 13), T(8, 5), 4, "C"),
      BidWatermark(T(8, 14), T(8, 8)),
      BidInsert(T(8, 15), T(8, 9), 5, "D"),
      BidWatermark(T(8, 16), T(8, 12)),
      BidInsert(T(8, 17), T(8, 13), 1, "E"),
      BidInsert(T(8, 18), T(8, 17), 6, "F"),
      BidWatermark(T(8, 21), T(8, 20)),
  };
}

/// Key-partitionable aggregation (GROUP BY includes `item`), gated on the
/// watermark. Panes are versioned per window (the completeness column), so
/// each window fires exactly one on-time pane carrying its three group rows:
/// window [8:00,8:10) completes at the 8:16 watermark event (emit latency
/// 360000 ms), window [8:10,8:20) at 8:21 (60000 ms).
constexpr const char* kKeyedAggAfterWatermark =
    "SELECT item, wstart, wend, SUM(price) AS total "
    "FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime), "
    "dur => INTERVAL '10' MINUTES) t GROUP BY item, wend "
    "EMIT STREAM AFTER WATERMARK";

obs::ObsOptions MetricsAndTracing() {
  obs::ObsOptions options;
  options.metrics = true;
  options.tracing = true;
  return options;
}

TEST(ObservabilityTest, MetricsAreExact) {
  Engine engine;
  ASSERT_TRUE(engine.RegisterStream("Bid", BidSchema()).ok());
  ASSERT_TRUE(engine.EnableObservability(MetricsAndTracing()).ok());
  auto q = engine.Execute(kKeyedAggAfterWatermark);
  ASSERT_TRUE(q.ok()) << q.status().ToString();

  std::vector<FeedEvent> feed = PaperFeed();
  // One late bid past window end + lateness: dropped at the aggregate.
  feed.push_back(BidInsert(T(8, 22), T(8, 1), 99, "A"));
  ASSERT_TRUE(engine.Feed(feed).ok());

  const obs::MetricsSnapshot snap = engine.MetricsSnapshot();

  // Feed-level event counts.
  EXPECT_EQ(snap.CounterValue("onesql_engine_feed_events_total",
                              {{"kind", "insert"}}),
            7u);
  EXPECT_EQ(snap.CounterValue("onesql_engine_feed_events_total",
                              {{"kind", "watermark"}}),
            4u);
  EXPECT_EQ(snap.GaugeValue("onesql_engine_queries"), 1);

  // Per-source watermark lag on the logical feed clock: exactly
  // 2 + 6 + 4 + 1 minutes across the four watermark events.
  EXPECT_EQ(
      snap.CounterValue("onesql_source_rows_total", {{"source", "bid"}}),
      7u);
  EXPECT_EQ(snap.CounterValue("onesql_source_watermarks_total",
                              {{"source", "bid"}}),
            4u);
  const obs::HistogramData* lag =
      snap.HistogramOf("onesql_source_watermark_lag_ms", {{"source", "bid"}});
  ASSERT_NE(lag, nullptr);
  EXPECT_EQ(lag->TotalCount(), 4u);
  EXPECT_EQ(lag->sum, 780000u);
  EXPECT_EQ(snap.GaugeValue("onesql_source_watermark_lag_current_ms",
                            {{"source", "bid"}}),
            60000);

  // Operator-level counts: every bid reaches the source operator exactly
  // once regardless of routing; the late bid dies at the aggregate.
  EXPECT_EQ(snap.CounterValue("onesql_operator_rows_in_total",
                              {{"query", "q0"}, {"op", "source"}}),
            7u);
  EXPECT_EQ(snap.CounterValue("onesql_operator_late_drops_total",
                              {{"query", "q0"}, {"op", "aggregate"}}),
            1u);

  // Sink: six group rows across two on-time panes (one per window), no
  // retractions.
  EXPECT_EQ(
      snap.CounterValue("onesql_sink_emissions_total", {{"query", "q0"}}),
      6u);
  EXPECT_EQ(
      snap.CounterValue("onesql_sink_inserts_total", {{"query", "q0"}}),
      6u);
  EXPECT_EQ(
      snap.CounterValue("onesql_sink_retractions_total", {{"query", "q0"}}),
      0u);
  EXPECT_EQ(snap.CounterValue("onesql_sink_panes_total",
                              {{"query", "q0"}, {"kind", "on_time"}}),
            2u);
  EXPECT_EQ(snap.CounterValue("onesql_sink_panes_total",
                              {{"query", "q0"}, {"kind", "early"}}),
            0u);
  EXPECT_EQ(snap.CounterValue("onesql_sink_panes_total",
                              {{"query", "q0"}, {"kind", "late"}}),
            0u);

  // Emit latency under EMIT AFTER WATERMARK, on the logical clock:
  // one pane at 360000 ms, one at 60000 ms.
  const obs::HistogramData* latency =
      snap.HistogramOf("onesql_sink_emit_latency_ms", {{"query", "q0"}});
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->TotalCount(), 2u);
  EXPECT_EQ(latency->sum, 360000u + 60000u);

  // Sampled gauges: the materialized snapshot holds the six group rows.
  EXPECT_EQ(snap.GaugeValue("onesql_sink_snapshot_rows", {{"query", "q0"}}),
            6);

  // Both exposition formats carry these exact values.
  const std::string prom = snap.ToPrometheus();
  EXPECT_NE(
      prom.find(
          "onesql_source_watermark_lag_ms_sum{source=\"bid\"} 780000"),
      std::string::npos);
  EXPECT_NE(
      prom.find("onesql_sink_emit_latency_ms_count{query=\"q0\"} 2"),
      std::string::npos);
  const std::string json = snap.ToJson();
  EXPECT_NE(json.find("\"sum\":780000"), std::string::npos);
  EXPECT_NE(json.find("\"sum\":420000"), std::string::npos);
}

TEST(ObservabilityTest, ProfileRowCountersAreExact) {
  // The profiling determinism contract (DESIGN.md §15): operator row
  // counters are a function of the plan and the data, never of how the feed
  // was cut into Feed calls. Time-valued profile metrics carry no such
  // guarantee and are deliberately not compared here.
  const auto run = [](bool one_event_per_feed) {
    Engine engine;
    EXPECT_TRUE(engine.RegisterStream("Bid", BidSchema()).ok());
    obs::ObsOptions options = MetricsAndTracing();
    options.profiling = true;
    EXPECT_TRUE(engine.EnableObservability(options).ok());
    auto q = engine.Execute(
        "SELECT item, price * 2 AS p2, price / price AS unit FROM Bid "
        "WHERE price >= 2");
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    if (one_event_per_feed) {
      for (const FeedEvent& e : PaperFeed()) {
        EXPECT_TRUE(engine.Feed({e}).ok());
      }
    } else {
      EXPECT_TRUE(engine.Feed(PaperFeed()).ok());
    }
    return engine.MetricsSnapshot();
  };
  const obs::MetricsSnapshot whole = run(false);
  const obs::MetricsSnapshot single = run(true);
  // source, filter and project, rows in and out each.
  size_t compared = 0;
  for (const obs::CounterSample& c : whole.counters) {
    if (c.name != "onesql_operator_rows_in_total" &&
        c.name != "onesql_operator_rows_out_total") {
      continue;
    }
    EXPECT_EQ(single.CounterValue(c.name, c.labels), c.value)
        << c.name << obs::RenderLabels(c.labels);
    ++compared;
  }
  EXPECT_EQ(compared, 6u);
  // All six bids reach the filter; price 1 fails the predicate.
  const auto rows = [&](const std::string& name, const std::string& op) {
    return whole.CounterValue(name, {{"query", "q0"}, {"op", op}});
  };
  EXPECT_EQ(rows("onesql_operator_rows_in_total", "filter"), 6u);
  EXPECT_EQ(rows("onesql_operator_rows_out_total", "filter"), 5u);
  EXPECT_EQ(rows("onesql_operator_rows_in_total", "project"), 5u);
  EXPECT_EQ(rows("onesql_operator_rows_out_total", "project"), 5u);
}

TEST(ObservabilityTest, TraceSpansCoverFeedRouteOperatorSink) {
  Engine engine;
  ASSERT_TRUE(engine.RegisterStream("Bid", BidSchema()).ok());
  ASSERT_TRUE(engine.EnableObservability(MetricsAndTracing()).ok());
  auto q = engine.Execute(kKeyedAggAfterWatermark);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_TRUE(engine.Feed(PaperFeed()).ok());

  const std::string trace = engine.DumpTraceJson();
  for (const char* span : {"\"feed\"", "\"push_batch\"", "\"sink_flush\""}) {
    EXPECT_NE(trace.find(span), std::string::npos)
        << "missing span " << span << " in " << trace;
  }
  EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos);
}

TEST(ObservabilityTest, OffByDefault) {
  Engine engine;
  ASSERT_TRUE(engine.RegisterStream("Bid", BidSchema()).ok());
  auto q = engine.Execute(kKeyedAggAfterWatermark);
  ASSERT_TRUE(q.ok());
  ASSERT_TRUE(engine.Feed(PaperFeed()).ok());
  EXPECT_FALSE(engine.observability_enabled());
  const obs::MetricsSnapshot snap = engine.MetricsSnapshot();
  EXPECT_TRUE(snap.counters.empty());
  EXPECT_TRUE(snap.gauges.empty());
  EXPECT_TRUE(snap.histograms.empty());
  EXPECT_EQ(engine.DumpTraceJson(), "[]");

  obs::ObsOptions neither;
  EXPECT_FALSE(engine.EnableObservability(neither).ok());
}

TEST(ObservabilityTest, CountersAreCoherentAcrossCheckpointRestore) {
  const std::string dir = NewTempDir("obs_coherence");
  const std::vector<FeedEvent> feed = PaperFeed();
  const std::vector<FeedEvent> prefix(feed.begin(), feed.begin() + 5);
  const std::vector<FeedEvent> suffix(feed.begin() + 5, feed.end());

  std::vector<Row> stream_a;
  {
    Engine a;
    ASSERT_TRUE(a.RegisterStream("Bid", BidSchema()).ok());
    ExecutionOptions options;
    options.shards = 2;
    auto q = a.Execute(kKeyedAggAfterWatermark, options);
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    ASSERT_TRUE(a.EnableDurability(dir).ok());
    ASSERT_TRUE(a.EnableObservability(MetricsAndTracing()).ok());

    ASSERT_TRUE(a.Feed(prefix).ok());
    ASSERT_TRUE(a.Checkpoint(dir).ok());
    ASSERT_TRUE(a.Feed(suffix).ok());
    // Calls that accept no event log nothing and pay no fsync.
    ASSERT_TRUE(a.Feed({}).ok());
    EXPECT_FALSE(a.Feed({BidInsert(T(8, 1), T(8, 0), 1, "late")}).ok());

    const obs::MetricsSnapshot snap = a.MetricsSnapshot();
    // All ten events hit the WAL, byte for byte (262 bytes of CRC-framed
    // records for this feed, a figure of the unchanged file format). Each of
    // the two Feed calls that accepted events pays exactly one fsync covering
    // all its records; the checkpoint finds nothing left to sync.
    EXPECT_EQ(snap.CounterValue("onesql_wal_appends_total"), 10u);
    EXPECT_EQ(snap.CounterValue("onesql_wal_bytes_written_total"),
              262u);
    EXPECT_EQ(snap.CounterValue("onesql_wal_syncs_total"), 2u);
    const obs::HistogramData* sync_lat =
        snap.HistogramOf("onesql_wal_sync_latency_us");
    ASSERT_NE(sync_lat, nullptr);
    EXPECT_EQ(sync_lat->TotalCount(), 2u);
    const obs::HistogramData* group_size =
        snap.HistogramOf("onesql_wal_group_size");
    ASSERT_NE(group_size, nullptr);
    EXPECT_EQ(group_size->TotalCount(), 2u);
    EXPECT_EQ(group_size->sum, 10u);
    const obs::HistogramData* append_lat =
        snap.HistogramOf("onesql_wal_append_latency_us");
    ASSERT_NE(append_lat, nullptr);
    EXPECT_EQ(append_lat->TotalCount(), 10u);
    EXPECT_EQ(snap.CounterValue("onesql_checkpoint_saves_total"), 1u);
    EXPECT_GT(snap.GaugeValue("onesql_checkpoint_bytes"), 0);
    const obs::HistogramData* save_ms =
        snap.HistogramOf("onesql_checkpoint_save_duration_ms");
    ASSERT_NE(save_ms, nullptr);
    EXPECT_EQ(save_ms->TotalCount(), 1u);
    EXPECT_EQ(snap.CounterValue("onesql_engine_feed_events_total",
                                {{"kind", "insert"}}),
              6u);
    stream_a = (*q)->StreamRows();
  }

  // Restore into a fresh engine with observability pre-enabled: counters are
  // process-lifetime, so the restored engine counts exactly the WAL-suffix
  // replay — the five post-checkpoint events — and nothing twice.
  Engine b;
  ASSERT_TRUE(b.EnableObservability(MetricsAndTracing()).ok());
  ASSERT_TRUE(b.Restore(dir).ok());

  const obs::MetricsSnapshot snap = b.MetricsSnapshot();
  EXPECT_EQ(snap.CounterValue("onesql_engine_feed_events_total",
                              {{"kind", "insert"}}),
            3u);  // D, E, F
  EXPECT_EQ(snap.CounterValue("onesql_engine_feed_events_total",
                              {{"kind", "watermark"}}),
            2u);  // 8:16 and 8:21
  EXPECT_EQ(
      snap.CounterValue("onesql_source_rows_total", {{"source", "bid"}}), 3u);
  // Replayed events are not re-appended to the WAL, so durability counters
  // stay at zero until fresh events arrive.
  EXPECT_EQ(snap.CounterValue("onesql_wal_appends_total"), 0u);
  EXPECT_EQ(snap.CounterValue("onesql_wal_syncs_total"), 0u);
  EXPECT_EQ(snap.CounterValue("onesql_checkpoint_restores_total"), 1u);
  const obs::HistogramData* restore_ms =
      snap.HistogramOf("onesql_checkpoint_restore_duration_ms");
  ASSERT_NE(restore_ms, nullptr);
  EXPECT_EQ(restore_ms->TotalCount(), 1u);

  // Every pane flushes after the checkpoint, so the restored engine's sink
  // metrics match the uninterrupted run exactly — including emit latency on
  // the logical clock.
  EXPECT_EQ(
      snap.CounterValue("onesql_sink_emissions_total", {{"query", "q0"}}), 6u);
  const obs::HistogramData* latency =
      snap.HistogramOf("onesql_sink_emit_latency_ms", {{"query", "q0"}});
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->TotalCount(), 2u);
  EXPECT_EQ(latency->sum, 360000u + 60000u);

  // And the result itself is bit-identical to the uninterrupted run.
  ASSERT_EQ(b.num_queries(), 1u);
  const std::vector<Row> stream_b = b.query(0)->StreamRows();
  ASSERT_EQ(stream_b.size(), stream_a.size());
  for (size_t i = 0; i < stream_a.size(); ++i) {
    EXPECT_TRUE(RowsEqual(stream_b[i], stream_a[i]))
        << "row " << i << ": " << RowToString(stream_b[i]) << " vs "
        << RowToString(stream_a[i]);
  }

  // Fresh (non-replayed) events append and count again.
  ASSERT_TRUE(
      b.Insert("Bid", T(8, 22), {Value::Time(T(8, 21)), Value::Int64(7),
                                 Value::String("G")})
          .ok());
  const obs::MetricsSnapshot after = b.MetricsSnapshot();
  EXPECT_EQ(after.CounterValue("onesql_wal_appends_total"), 1u);
  EXPECT_EQ(after.CounterValue("onesql_source_rows_total",
                               {{"source", "bid"}}),
            4u);
}

TEST(ObservabilityTest, RestorePhasesAddUpToTheRestore) {
  // Checkpoint load, log read and decode, and suffix replay run back to
  // back: their histograms and their child spans of `restore` each account
  // for the whole restore, within 15%.
  const std::string dir = NewTempDir("obs_restore_phases");
  std::vector<FeedEvent> feed;
  for (int i = 0; i < 3000; ++i) {
    const Timestamp ptime = T(9, 0) + Interval::Seconds(i);
    feed.push_back(BidInsert(ptime, ptime - Interval::Seconds(i % 97), i % 50,
                             "item" + std::to_string(i % 41)));
  }
  {
    Engine a;
    ASSERT_TRUE(a.RegisterStream("Bid", BidSchema()).ok());
    ASSERT_TRUE(a.EnableDurability(dir).ok());
    ASSERT_TRUE(
        a.Execute("SELECT item, wend, SUM(price) AS total "
                  "FROM Tumble(data => TABLE(Bid), timecol => "
                  "DESCRIPTOR(bidtime), dur => INTERVAL '10' MINUTES) t "
                  "GROUP BY item, wend")
            .ok());
    ASSERT_TRUE(
        a.Feed(std::vector<FeedEvent>(feed.begin(), feed.begin() + 1000)).ok());
    ASSERT_TRUE(a.Checkpoint(dir).ok());
    ASSERT_TRUE(
        a.Feed(std::vector<FeedEvent>(feed.begin() + 1000, feed.end())).ok());
  }
  Engine b;
  ASSERT_TRUE(b.EnableObservability(MetricsAndTracing()).ok());
  ASSERT_TRUE(b.Restore(dir).ok());
  EXPECT_EQ(b.feed_seq(), feed.size());

  uint64_t restore_us = 0;
  std::map<std::string, uint64_t> span_us;
  for (const obs::TraceEvent& event : b.obs()->trace()->Drain()) {
    const std::string name = event.name;
    if (name == "restore") restore_us = event.dur_us;
    if (name.rfind("restore_", 0) == 0) span_us[name] += event.dur_us;
  }
  ASSERT_GT(restore_us, 0u);
  ASSERT_EQ(span_us.size(), 3u);
  uint64_t spans_total = 0;
  for (const auto& [name, us] : span_us) spans_total += us;

  const obs::MetricsSnapshot snap = b.MetricsSnapshot();
  uint64_t phases_total = 0;
  for (const char* phase : {"checkpoint_load", "log_read", "replay"}) {
    const obs::HistogramData* h = snap.HistogramOf(
        "onesql_restore_phase_duration_us", {{"phase", phase}});
    ASSERT_NE(h, nullptr) << phase;
    EXPECT_EQ(h->TotalCount(), 1u) << phase;
    phases_total += h->sum;
  }
  for (uint64_t total : {phases_total, spans_total}) {
    EXPECT_LE(total, restore_us);
    EXPECT_GE(static_cast<double>(total),
              0.85 * static_cast<double>(restore_us))
        << "phases " << total << " us of a " << restore_us << " us restore";
  }
  // The replay feeds the suffix alone.
  EXPECT_EQ(snap.CounterValue("onesql_engine_feed_events_total",
                              {{"kind", "insert"}}),
            2000u);
}

}  // namespace
}  // namespace onesql
