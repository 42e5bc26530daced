// The in-process workloads. Each epoch builds a fresh engine (set-up, timed
// on its own), feeds the workload's whole feed in a closed loop (the timed
// phase), then checks the outputs and round-trips the engine through a
// checkpoint. Epochs repeat until the run's seconds are used up; every
// epoch sees the same seed-generated feed, so epochs must also agree with
// each other exactly.
#include <cstdio>
#include <memory>

#include "workloads.h"

namespace perfbench {

using onesql::ContinuousQuery;
using onesql::Engine;
using onesql::exec::Emission;

namespace {

constexpr int kSetupReps = 10;

/// One query's outputs, as the checks compare them.
struct Rendering {
  std::unordered_map<std::string, int64_t> table;  // CurrentSnapshot bag
  uint64_t changelog = 0;                          // DigestEmissions
  std::vector<Emission> emissions;                 // sharded reference only
};

bool RenderAll(const std::vector<ContinuousQuery*>& qs, bool keep_emissions,
               std::vector<Rendering>* out) {
  out->clear();
  for (ContinuousQuery* q : qs) {
    auto snap = q->CurrentSnapshot();
    if (!snap.ok()) return false;
    Rendering r;
    r.table = BagOf(snap.value());
    r.changelog = DigestEmissions(q->Emissions());
    if (keep_emissions) r.emissions = q->Emissions();
    out->push_back(std::move(r));
  }
  return true;
}

bool SameEmissions(const std::vector<Emission>& a,
                   const std::vector<Emission>& b) {
  if (a.size() != b.size()) return false;
  onesql::RowEq eq;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!eq(a[i].row, b[i].row) || a[i].undo != b[i].undo ||
        a[i].ptime != b[i].ptime || a[i].ver != b[i].ver) {
      return false;
    }
  }
  return true;
}

/// Stands in for a bad engine in the self-test: the expected side of every
/// comparison gets one extra row / a flipped digest.
void Corrupt(std::vector<Rendering>* expected) {
  for (Rendering& r : *expected) {
    r.table["(corrupted expected row)"] += 1;
    r.changelog ^= 1;
    if (!r.emissions.empty()) r.emissions.back().ver += 1;
  }
}

/// Builds the epoch's engine: engine, durability (into the empty `dir`),
/// registrations and (unless the workload replays history into late
/// queries) the standing queries.
std::unique_ptr<Engine> SetUp(const Workload& w, const std::string& dir,
                              std::vector<ContinuousQuery*>* qs,
                              Report* report) {
  auto engine = std::make_unique<Engine>();
  if (w.durable) {
    const onesql::Status st = engine->EnableDurability(dir);
    report->Op(st.ok(), "EnableDurability: " + st.ToString());
  }
  report->Op(Register(engine.get(), w).ok(), "register");
  qs->clear();
  if (w.history_batches == 0) {
    report->Op(ExecuteAll(engine.get(), w, qs).ok(), "execute");
  }
  return engine;
}

struct Samples {
  Measured m;
  std::vector<double> epoch_eps;  // live wall-clock throughput per epoch
  int64_t replay_ns = 0;
  uint64_t replay_events = 0;
  int epochs = 0;
};

/// One epoch; returns false when the engine failed so badly that more
/// epochs would only repeat the failure.
bool Epoch(const Workload& w, const RunConfig& cfg,
           const std::vector<Rendering>* reference,
           std::vector<Rendering>* first, Samples* s, Report* report) {
  const std::string dir = cfg.work_dir + "/epoch";
  std::vector<ContinuousQuery*> qs;
  std::unique_ptr<Engine> engine;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    engine.reset();
    if (w.durable) {
      RemoveTree(dir);
      MakeDirs(dir);
    }
    const int64_t cpu0 = ProcessCpuNs();
    const int64_t t0 = NowNs();
    engine = SetUp(w, dir, &qs, report);
    s->m.setup_wall_s.push_back(NsToS(NowNs() - t0));
    s->m.setup_s.push_back(NsToS(ProcessCpuNs() - cpu0));
  }

  // nexmark-recover: a long history with no query running, then the
  // queries arrive late and replay it.
  for (size_t b = 0; b < w.history_batches; ++b) {
    report->Op(engine->Feed(w.batches[b]).ok(), "history feed");
  }
  if (w.history_batches > 0) {
    onesql::ExecutionOptions options;
    options.shards = w.shards;
    for (const auto& [label, sql] : w.queries) {
      const size_t replayed = engine->history_size();
      const int64_t t0 = NowNs();
      auto q = engine->Execute(sql, options);
      s->replay_ns += NowNs() - t0;
      s->replay_events += replayed;
      report->Op(q.ok(), "late execute " + label);
      if (!q.ok()) return false;
      qs.push_back(q.value());
    }
  }
  if (qs.size() != w.queries.size()) return false;

  // The timed live phase: closed loop of feed calls, each followed by the
  // in-process subscriber folding every query's new changelog suffix.
  std::vector<Fold> folds(qs.size());
  std::vector<size_t> cursors(qs.size(), 0);
  const size_t live_begin = w.history_batches;
  const size_t mid = live_begin + (w.batches.size() - live_begin) / 2;
  int64_t paused_ns = 0;
  uint64_t live_events = 0;
  Measured& m = s->m;
  for (auto* series : {&m.feed_us, &m.deliver_us, &m.feed_cpu_us,
                       &m.deliver_cpu_us}) {
    series->emplace_back();
  }
  const int64_t start = NowNs();
  for (size_t b = live_begin; b < w.batches.size(); ++b) {
    if (w.durable && b == mid) {
      // Checkpoint mid-phase; the rest of the phase is the WAL suffix that
      // Restore replays. Not part of the live throughput.
      const int64_t c0 = NowNs();
      const onesql::Status st = engine->Checkpoint(dir);
      report->Op(st.ok(), "checkpoint: " + st.ToString());
      paused_ns += NowNs() - c0;
    }
    const int64_t cpu0 = ProcessCpuNs();
    const int64_t t0 = NowNs();
    const bool ok = engine->Feed(w.batches[b]).ok();
    const int64_t t1 = NowNs();
    const int64_t cpu1 = ProcessCpuNs();
    for (size_t i = 0; i < qs.size(); ++i) {
      const auto& em = qs[i]->Emissions();
      for (; cursors[i] < em.size(); ++cursors[i]) {
        folds[i].Apply(em[cursors[i]]);
      }
    }
    const int64_t t2 = NowNs();
    const int64_t cpu2 = ProcessCpuNs();
    report->Op(ok, "feed");
    m.feed_us.back().push_back(NsToUs(t1 - t0));
    m.deliver_us.back().push_back(NsToUs(t2 - t0));
    m.feed_cpu_us.back().push_back(NsToUs(cpu1 - cpu0));
    m.deliver_cpu_us.back().push_back(NsToUs(cpu2 - cpu0));
    live_events += w.batches[b].size();
  }
  s->epoch_eps.push_back(static_cast<double>(live_events) /
                         NsToS(NowNs() - start - paused_ns));
  if (s->epochs == 0) m.peak_rss_mb = PeakRssMb();

  // Output checks.
  std::vector<Rendering> got;
  const bool rendered = RenderAll(qs, reference != nullptr, &got);
  report->Op(rendered, "render");
  if (!rendered) return false;
  std::vector<Rendering> expected_tables(got.size());
  for (size_t i = 0; i < got.size(); ++i) {
    expected_tables[i].table = got[i].table;
  }
  if (cfg.corrupt_expected) Corrupt(&expected_tables);
  for (size_t i = 0; i < qs.size(); ++i) {
    report->Check(!folds[i].underflow() &&
                      folds[i].bag() == expected_tables[i].table,
                  w.name + " " + w.queries[i].first +
                      ": folded changelog == CurrentSnapshot()");
  }
  if (reference != nullptr) {
    std::vector<Rendering> expected = *reference;
    if (cfg.corrupt_expected) Corrupt(&expected);
    for (size_t i = 0; i < qs.size(); ++i) {
      report->Check(SameEmissions(got[i].emissions, expected[i].emissions) &&
                        got[i].table == expected[i].table,
                    w.name + " " + w.queries[i].first + ": shards=" +
                        std::to_string(w.shards) +
                        " changelog == shards=1, bit for bit");
    }
  }
  if (s->epochs == 0) {
    *first = got;
  } else {
    bool same = true;
    for (size_t i = 0; i < got.size(); ++i) {
      same = same && got[i].changelog == (*first)[i].changelog &&
             got[i].table == (*first)[i].table;
    }
    report->Check(same, w.name + ": epoch " + std::to_string(s->epochs) +
                            " renders the same as epoch 0");
  }

  // Checkpoint (the durable workload already took its mid-phase one) and
  // restore into a fresh engine; it must render what the original did.
  if (!w.durable) {
    RemoveTree(dir);
    MakeDirs(dir);
    const onesql::Status st = engine->Checkpoint(dir);
    report->Op(st.ok(), "checkpoint: " + st.ToString());
  }
  m.checkpoint_mb.push_back(FileMb(dir + "/checkpoint.osql"));
  engine.reset();  // releases the feed log before Restore reopens it
  const int64_t rc0 = ProcessCpuNs();
  const int64_t r0 = NowNs();
  auto restored = std::make_unique<Engine>();
  const onesql::Status restore_status = restored->Restore(dir);
  m.restore_s.push_back(NsToS(NowNs() - r0));
  m.restore_cpu_s.push_back(NsToS(ProcessCpuNs() - rc0));
  const bool restore_ok = restore_status.ok();
  report->Op(restore_ok, "restore: " + restore_status.ToString());
  if (restore_ok && restored->num_queries() == qs.size()) {
    std::vector<ContinuousQuery*> rq;
    for (size_t i = 0; i < restored->num_queries(); ++i) {
      rq.push_back(restored->query(i));
    }
    std::vector<Rendering> after;
    std::vector<Rendering> expected = got;
    if (cfg.corrupt_expected) Corrupt(&expected);
    bool same = RenderAll(rq, false, &after);
    for (size_t i = 0; same && i < after.size(); ++i) {
      same = after[i].changelog == expected[i].changelog &&
             after[i].table == expected[i].table;
    }
    report->Check(same, w.name + ": restored engine renders the same as "
                                 "the uninterrupted one");
  } else {
    report->Check(false, w.name + ": restore rebuilt every query");
  }
  restored.reset();
  RemoveTree(dir);
  ++s->epochs;
  return true;
}

}  // namespace

void RunInProcess(const Workload& w, const RunConfig& cfg, Report* report) {
  // keyed-agg-sharded compares against the same feed at one shard, computed
  // once per run outside the timed epochs.
  std::vector<Rendering> reference;
  const bool sharded = w.shards > 1;
  if (sharded) {
    Workload one = w;
    one.shards = 1;
    Engine engine;
    std::vector<ContinuousQuery*> qs;
    report->Op(Register(&engine, one).ok(), "register");
    report->Op(ExecuteAll(&engine, one, &qs).ok(), "execute");
    for (const Batch& b : one.batches) {
      report->Op(engine.Feed(b).ok(), "reference feed");
    }
    report->Op(RenderAll(qs, true, &reference), "reference render");
  }

  Samples s;
  std::vector<Rendering> first;
  const int64_t begin = NowNs();
  while (s.epochs == 0 || NsToS(NowNs() - begin) < cfg.seconds) {
    if (!Epoch(w, cfg, sharded ? &reference : nullptr, &first, &s, report)) {
      report->Check(false, w.name + ": epoch ran to completion");
      break;
    }
  }

  size_t live = 0;
  for (size_t b = w.history_batches; b < w.batches.size(); ++b) {
    live += w.batches[b].size();
  }
  s.m.events = live;
  s.m.span_us = s.m.deliver_us;
  char line[256];
  std::snprintf(line, sizeof(line),
                "%s: %d epochs x %zu events (%zu live), %zu feed calls of "
                "%zu events per epoch",
                w.name.c_str(), s.epochs, w.events, live,
                s.m.feed_us.empty() ? size_t{0} : s.m.feed_us[0].size(),
                w.batch_events);
  report->Note(line);
  if (s.replay_events > 0) {
    std::snprintf(line, sizeof(line),
                  "replay_eps = %.6g 1/s (%llu history events replayed by "
                  "late Execute calls)",
                  static_cast<double>(s.replay_events) / NsToS(s.replay_ns),
                  static_cast<unsigned long long>(s.replay_events));
    report->Note(line);
  }
  report->Note("epoch throughputs (wall clock): " + Join(s.epoch_eps, "%.0f"));
  ReportEndToEnd(s.m, report);
}

void ReportEndToEnd(const Measured& m, Report* report) {
  const Tail feed = SummarizeCalls(m.feed_us);
  const Tail deliver = SummarizeCalls(m.deliver_us);
  const Tail feed_cpu = SummarizeCalls(m.feed_cpu_us);
  const Tail deliver_cpu = SummarizeCalls(m.deliver_cpu_us);
  const double events = static_cast<double>(m.events);
  char line[160];
  std::snprintf(line, sizeof(line),
                "tail percentile p%.1f over %zu calls (feed), p%.1f over %zu "
                "(deliver)",
                feed.tail_pct, feed.n, deliver.tail_pct, deliver.n);
  report->Note(line);
  // The wall-clock figures: what a caller waits, steal and device waits
  // included. Printed for reading; they are not part of the result.
  struct Figure {
    const char* name;
    double value;
    const char* unit;
  };
  const Figure wall[] = {
      {"throughput_eps", events / (SumOfCallMedians(m.span_us) / 1e6), "1/s"},
      {"feed_p50_us", feed.p50, "us"},
      {"feed_p99_us", feed.tail, "us"},
      {"deliver_p50_us", deliver.p50, "us"},
      {"deliver_p99_us", deliver.tail, "us"},
      {"restore_s", Median(m.restore_s), "s"},
      {"setup_s", Median(m.setup_wall_s), "s"},
  };
  for (const Figure& f : wall) {
    std::snprintf(line, sizeof(line), "%-36s %14.6g %s (wall clock)", f.name,
                  f.value, f.unit);
    report->Note(line);
  }
  // The gated figures: the same calls in CPU time of the process that
  // holds the engine.
  report->Metric("cpu_throughput_eps",
                 events / (SumOfCallMedians(m.deliver_cpu_us) / 1e6), "1/s");
  report->Metric("feed_cpu_p50_us", feed_cpu.p50, "us");
  report->Metric("feed_cpu_p99_us", feed_cpu.tail, "us");
  report->Metric("deliver_cpu_p50_us", deliver_cpu.p50, "us");
  report->Metric("deliver_cpu_p99_us", deliver_cpu.tail, "us");
  report->Metric("setup_s", Median(m.setup_s), "s");
  report->Metric("peak_rss_mb", m.peak_rss_mb, "MiB");
  report->Metric("restore_cpu_s", Median(m.restore_cpu_s), "s");
  report->Metric("checkpoint_mb", Median(m.checkpoint_mb), "MiB");
}

}  // namespace perfbench
