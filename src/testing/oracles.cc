#include "testing/oracles.h"

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <sstream>

#include "server/server_core.h"
#include "server/wire.h"
#include "testing/reference.h"

namespace onesql {
namespace testing {

namespace {

/// splitmix64 finalizer: derives deterministic per-oracle choices (batch
/// sizes, crash prefix) from the case seed without std::random.
uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

Result<std::unique_ptr<Engine>> MakeBaseEngine() {
  auto engine = std::make_unique<Engine>();
  ONESQL_RETURN_NOT_OK(engine->RegisterStream(kFuzzStreamS, FuzzStreamSchema()));
  ONESQL_RETURN_NOT_OK(engine->RegisterStream(kFuzzStreamR, FuzzStreamSchema()));
  return engine;
}

Result<std::vector<ContinuousQuery*>> ExecuteAll(
    Engine* engine, const std::vector<QuerySpec>& specs) {
  std::vector<ContinuousQuery*> queries;
  for (const QuerySpec& spec : specs) {
    ONESQL_ASSIGN_OR_RETURN(ContinuousQuery * q, engine->Execute(spec.sql));
    queries.push_back(q);
  }
  return queries;
}

Status ApplyEvent(Engine* engine, const FeedEvent& event) {
  switch (event.kind) {
    case FeedEvent::Kind::kInsert:
      return engine->Insert(event.source, event.ptime, event.row);
    case FeedEvent::Kind::kDelete:
      return engine->Delete(event.source, event.ptime, event.row);
    case FeedEvent::Kind::kWatermark:
      return engine->AdvanceWatermark(event.source, event.ptime,
                                      event.watermark);
    case FeedEvent::Kind::kClock:
      return engine->AdvanceTo(event.ptime);
  }
  return Status::Internal("unknown feed event kind");
}

/// Feeds `events[begin, end)` through Engine::Feed in deterministic
/// pseudo-random batches of 1-7 events, exercising the batch dispatch path.
Status FeedBatched(Engine* engine, const std::vector<FeedEvent>& events,
                   size_t begin, size_t end, uint64_t salt) {
  size_t i = begin;
  uint64_t state = salt;
  while (i < end) {
    state = Mix(state);
    const size_t take = std::min(end - i, 1 + state % 7);
    ONESQL_RETURN_NOT_OK(engine->Feed(std::vector<FeedEvent>(
        events.begin() + i, events.begin() + i + take)));
    i += take;
  }
  return Status::OK();
}

/// Folds a changelog into the relation it describes. Returns a diagnostic
/// when an undo arrives for a row the changelog never asserted — itself a
/// duality violation.
std::string AccumulateEmissions(const std::vector<exec::Emission>& emissions,
                                std::vector<Row>* out) {
  std::map<Row, int64_t, RowLess> bag;
  for (const exec::Emission& e : emissions) {
    if (e.undo) {
      auto it = bag.find(e.row);
      if (it == bag.end()) {
        return "changelog retracts a row it never emitted: " + e.ToString();
      }
      if (--it->second == 0) bag.erase(it);
    } else {
      bag[e.row] += 1;
    }
  }
  for (const auto& [row, count] : bag) {
    for (int64_t i = 0; i < count; ++i) out->push_back(row);
  }
  return "";
}

/// Bit-exact comparison of two changelogs, metadata included: same rows,
/// same undo flags, same processing times, same revision counters, same
/// order.
std::string CompareEmissions(const std::vector<exec::Emission>& got,
                             const std::vector<exec::Emission>& want) {
  if (got.size() != want.size()) {
    return "changelog length " + std::to_string(got.size()) + " vs " +
           std::to_string(want.size());
  }
  for (size_t i = 0; i < got.size(); ++i) {
    const exec::Emission& g = got[i];
    const exec::Emission& w = want[i];
    if (!RowsEqual(g.row, w.row) || g.undo != w.undo || g.ptime != w.ptime ||
        g.ver != w.ver) {
      return "changelog entry " + std::to_string(i) + ": " + g.ToString() +
             " vs " + w.ToString();
    }
  }
  return "";
}

std::string CompareRowSequences(const std::vector<Row>& got,
                                const std::vector<Row>& want) {
  if (got.size() != want.size()) {
    return "snapshot size " + std::to_string(got.size()) + " vs " +
           std::to_string(want.size());
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (!RowsEqual(got[i], want[i])) {
      return "snapshot row " + std::to_string(i) + ": " +
             RowToString(got[i]) + " vs " + RowToString(want[i]);
    }
  }
  return "";
}

struct QueryRendering {
  std::vector<exec::Emission> emissions;
  std::vector<Row> snapshot;
};

Result<QueryRendering> Render(ContinuousQuery* query) {
  QueryRendering r;
  r.emissions = query->Emissions();
  ONESQL_ASSIGN_OR_RETURN(r.snapshot, query->CurrentSnapshot());
  return r;
}

std::string QueryLabel(const FuzzCase& fuzz, size_t i) {
  return "query " + std::to_string(i) + " [" + fuzz.queries[i].sql + "]";
}

/// Issues one wire command against the server core and parses the response.
/// Returns a non-empty diagnostic when the command is rejected or the
/// response is malformed.
std::string ServerCall(server::ServerCore* core, uint64_t session,
                       const server::Json& request, server::Json* response) {
  Result<server::Json> parsed =
      server::Json::Parse(core->HandleLine(session, request.Serialize()));
  if (!parsed.ok()) {
    return "unparseable response to " + request.Serialize() + ": " +
           parsed.status().ToString();
  }
  *response = std::move(parsed).value();
  const server::Json* ok = response->Find("ok");
  if (ok == nullptr || !ok->is_bool() || !ok->AsBool()) {
    return "server rejected " + request.Serialize() + ": " +
           response->Serialize();
  }
  return "";
}

/// Oracle 5 (run_sharing): serves the case through a ServerCore wrapping a
/// CloneRegistrations() clone of the baseline engine. Two sessions submit
/// every query with {"share": true} — the second must attach to the first
/// session's operator tree — and both subscribe from seq 0. After feeding
/// the case over the wire, each subscription's pushed lines must be
/// byte-identical to EncodeDeltaLine over the dedicated baseline changelog,
/// and the served snapshots must match the baseline snapshots. Returns a
/// diagnostic, or "" on agreement.
std::string RunSharingOracle(const FuzzCase& fuzz, Engine* baseline_engine,
                             const std::vector<QueryRendering>& baseline) {
  auto clone = baseline_engine->CloneRegistrations();
  if (!clone.ok()) {
    return "CloneRegistrations: " + clone.status().ToString();
  }
  server::ServerOptions options;
  // The final watermark can flush every pane at once; keep a whole case's
  // pushed backlog inside the slow-subscriber overflow bound.
  options.max_session_queue = 1 << 20;
  auto created = server::ServerCore::Create(options, std::move(clone).value());
  if (!created.ok()) {
    return "ServerCore::Create: " + created.status().ToString();
  }
  std::unique_ptr<server::ServerCore> core = std::move(created).value();

  Result<uint64_t> first = core->OpenSession();
  Result<uint64_t> second = core->OpenSession();
  if (!first.ok() || !second.ok()) {
    return "OpenSession failed";
  }
  const uint64_t sessions[2] = {first.value(), second.value()};

  // Submit every query from both sessions (the second session's submit must
  // report it attached to a shared plan), then subscribe both from seq 0.
  std::vector<std::string> names(fuzz.queries.size());
  std::set<std::string> fingerprints;
  std::map<uint64_t, size_t> sub_query;      // subscription id -> query index
  std::map<uint64_t, uint64_t> sub_session;  // subscription id -> session
  for (int s = 0; s < 2; ++s) {
    for (size_t q = 0; q < fuzz.queries.size(); ++q) {
      server::Json submit = server::Json::Object();
      submit.Set("cmd", server::Json::Str("submit"));
      submit.Set("sql", server::Json::Str(fuzz.queries[q].sql));
      submit.Set("share", server::Json::Bool(true));
      server::Json response;
      std::string err = ServerCall(core.get(), sessions[s], submit, &response);
      if (!err.empty()) return QueryLabel(fuzz, q) + ": " + err;
      const server::Json* name = response.Find("query");
      const server::Json* fp = response.Find("fingerprint");
      const server::Json* shared = response.Find("shared");
      if (name == nullptr || !name->is_string() || fp == nullptr ||
          !fp->is_string() || shared == nullptr || !shared->is_bool()) {
        return QueryLabel(fuzz, q) + ": malformed submit response " +
               response.Serialize();
      }
      if (s == 0) {
        // Two generated queries can canonicalize identically, so the first
        // session's submit may itself land on a shared plan; only the
        // second session's must.
        names[q] = name->AsString();
        fingerprints.insert(fp->AsString());
      } else {
        if (!shared->AsBool()) {
          return QueryLabel(fuzz, q) +
                 ": second session was not routed onto the shared plan";
        }
        if (name->AsString() != names[q]) {
          return QueryLabel(fuzz, q) + ": shared submit named " +
                 name->AsString() + ", first session got " + names[q];
        }
      }

      server::Json subscribe = server::Json::Object();
      subscribe.Set("cmd", server::Json::Str("subscribe"));
      subscribe.Set("query", server::Json::Str(name->AsString()));
      subscribe.Set("from_seq", server::Json::Int(0));
      err = ServerCall(core.get(), sessions[s], subscribe, &response);
      if (!err.empty()) return QueryLabel(fuzz, q) + ": " + err;
      const server::Json* sub = response.Find("sub");
      if (sub == nullptr || !sub->is_int()) {
        return QueryLabel(fuzz, q) + ": malformed subscribe response " +
               response.Serialize();
      }
      sub_query[static_cast<uint64_t>(sub->AsInt())] = q;
      sub_session[static_cast<uint64_t>(sub->AsInt())] = sessions[s];
    }
  }
  // Distinct fingerprints must map one-to-one onto live operator trees: the
  // cache never duplicates a plan and never conflates two distinct ones.
  if (core->num_plans() != fingerprints.size()) {
    return "plan cache holds " + std::to_string(core->num_plans()) +
           " entries for " + std::to_string(fingerprints.size()) +
           " distinct fingerprints";
  }

  // Feed the case over the wire in deterministic batches, alternating the
  // submitting session and draining both push queues as we go.
  std::map<uint64_t, std::vector<std::string>> pushed;  // sub id -> lines
  auto drain = [&](uint64_t session) -> std::string {
    for (const auto& line : core->DrainOutbound(session)) {
      Result<server::Json> parsed = server::Json::Parse(*line);
      if (!parsed.ok()) return "unparseable push line: " + *line;
      const server::Json* kind = parsed.value().Find("push");
      const server::Json* sub = parsed.value().Find("sub");
      if (kind == nullptr || !kind->is_string() ||
          kind->AsString() != "delta" || sub == nullptr || !sub->is_int()) {
        return "unexpected push line: " + *line;
      }
      pushed[static_cast<uint64_t>(sub->AsInt())].push_back(*line);
    }
    return "";
  };
  size_t i = 0;
  uint64_t state = Mix(fuzz.seed ^ 0x5A1E5ULL);
  while (i < fuzz.events.size()) {
    state = Mix(state);
    const size_t take = std::min(fuzz.events.size() - i, 1 + state % 7);
    server::Json feed = server::Json::Object();
    feed.Set("cmd", server::Json::Str("feed"));
    server::Json events = server::Json::Array();
    for (size_t e = i; e < i + take; ++e) {
      events.Add(server::EncodeFeedEvent(fuzz.events[e]));
    }
    feed.Set("events", std::move(events));
    server::Json response;
    std::string err = ServerCall(core.get(), sessions[i % 2], feed, &response);
    if (!err.empty()) return "event " + std::to_string(i) + ": " + err;
    for (uint64_t session : sessions) {
      err = drain(session);
      if (!err.empty()) return err;
    }
    i += take;
  }

  // Every subscription must have received exactly the baseline changelog,
  // byte-for-byte in the shared wire encoding.
  for (const auto& [sub, q] : sub_query) {
    const std::vector<exec::Emission>& want = baseline[q].emissions;
    const std::vector<std::string>& got = pushed[sub];
    if (got.size() != want.size()) {
      return QueryLabel(fuzz, q) + " sub " + std::to_string(sub) +
             ": pushed " + std::to_string(got.size()) + " deltas, baseline " +
             std::to_string(want.size());
    }
    for (size_t e = 0; e < want.size(); ++e) {
      const std::string expect = server::EncodeDeltaLine(sub, e, want[e]);
      if (got[e] != expect) {
        return QueryLabel(fuzz, q) + " sub " + std::to_string(sub) +
               " delta " + std::to_string(e) + ": " + got[e] + " vs " + expect;
      }
    }
  }

  // And the served snapshot must match the baseline's, for both tenants.
  for (const auto& [sub, q] : sub_query) {
    server::Json snapshot = server::Json::Object();
    snapshot.Set("cmd", server::Json::Str("snapshot"));
    snapshot.Set("query", server::Json::Str(names[q]));
    server::Json response;
    std::string err =
        ServerCall(core.get(), sub_session[sub], snapshot, &response);
    if (!err.empty()) return QueryLabel(fuzz, q) + ": " + err;
    const server::Json* rows = response.Find("rows");
    if (rows == nullptr || !rows->is_array()) {
      return QueryLabel(fuzz, q) + ": malformed snapshot response " +
             response.Serialize();
    }
    server::Json expect = server::Json::Array();
    for (const Row& row : baseline[q].snapshot) {
      expect.Add(server::EncodeRow(row));
    }
    if (rows->Serialize() != expect.Serialize()) {
      return QueryLabel(fuzz, q) + " snapshot: " + rows->Serialize() +
             " vs " + expect.Serialize();
    }
  }
  return "";
}

}  // namespace

std::string CaseOutcome::ToString() const {
  if (failures.empty()) return "ok";
  std::ostringstream out;
  for (const CaseFailure& f : failures) {
    out << "[" << f.oracle << "] " << f.detail << "\n";
  }
  return out.str();
}

Result<CaseOutcome> RunCase(const FuzzCase& fuzz, const OracleOptions& opts) {
  CaseOutcome outcome;
  if (fuzz.queries.empty()) {
    return Status::InvalidArgument("fuzz case has no queries");
  }
  const size_t n = fuzz.events.size();

  // ---- Oracle 1: duality, over the sequential event-by-event baseline.
  ONESQL_ASSIGN_OR_RETURN(auto baseline_engine, MakeBaseEngine());
  ONESQL_ASSIGN_OR_RETURN(auto baseline_queries,
                          ExecuteAll(baseline_engine.get(), fuzz.queries));

  std::set<size_t> duality_at;
  for (int i = 1; i <= opts.duality_checks; ++i) {
    duality_at.insert(n * static_cast<size_t>(i) /
                      static_cast<size_t>(opts.duality_checks));
  }
  duality_at.insert(n);
  // Every prefix that ends on a due time of an AFTER DELAY pane some earlier
  // row may have opened is read too: a pane due then is still pending unless
  // a clock move fired it, and the read must fold it into the table.
  std::vector<int64_t> delays;
  for (const QuerySpec& spec : fuzz.queries) {
    if (spec.delay_ms > 0) delays.push_back(spec.delay_ms);
  }
  if (!delays.empty()) {
    std::set<int64_t> due;
    for (size_t i = 0; i < n; ++i) {
      const FeedEvent& event = fuzz.events[i];
      if (event.kind == FeedEvent::Kind::kClock) continue;
      const int64_t at_ms = event.ptime.millis();
      if (due.count(at_ms) > 0) duality_at.insert(i + 1);
      if (event.kind == FeedEvent::Kind::kWatermark) continue;
      for (int64_t delay : delays) due.insert(at_ms + delay);
    }
  }

  // The table read at each checked prefix, taken after the last event at
  // its ptime. A pane due at that ptime is in the table then, but enters
  // the stream only once the clock passes it, so each read is compared with
  // the stream when the feed is over.
  struct TableRead {
    size_t prefix;
    size_t query;
    Timestamp ptime;
    std::vector<Row> rows;
  };
  std::vector<TableRead> reads;
  for (size_t i = 0; i < n; ++i) {
    const Status fed = ApplyEvent(baseline_engine.get(), fuzz.events[i]);
    if (!fed.ok()) {
      outcome.failures.push_back(
          {"feed", "event " + std::to_string(i) + ": " + fed.ToString()});
      return outcome;
    }
    if (duality_at.count(i + 1) == 0) continue;
    if (i + 1 < n && fuzz.events[i + 1].ptime == fuzz.events[i].ptime) {
      duality_at.insert(i + 2);
      continue;
    }
    for (size_t q = 0; q < baseline_queries.size(); ++q) {
      ONESQL_ASSIGN_OR_RETURN(std::vector<Row> rows,
                              baseline_queries[q]->CurrentSnapshot());
      reads.push_back({i + 1, q, fuzz.events[i].ptime, std::move(rows)});
    }
  }

  std::vector<QueryRendering> baseline;
  for (ContinuousQuery* q : baseline_queries) {
    ONESQL_ASSIGN_OR_RETURN(QueryRendering r, Render(q));
    baseline.push_back(std::move(r));
  }

  // Every read must equal the integral of the stream's changes at or before
  // its ptime, once the clock has passed the end of the feed.
  if (n > 0) {
    ONESQL_RETURN_NOT_OK(baseline_engine->AdvanceTo(fuzz.events[n - 1].ptime));
  }
  for (TableRead& read : reads) {
    const std::vector<exec::Emission>& emissions =
        baseline_queries[read.query]->Emissions();
    const auto end = std::upper_bound(
        emissions.begin(), emissions.end(), read.ptime,
        [](Timestamp t, const exec::Emission& e) { return t < e.ptime; });
    std::vector<Row> from_changelog;
    std::string err = AccumulateEmissions(
        std::vector<exec::Emission>(emissions.begin(), end), &from_changelog);
    if (err.empty()) {
      err = DiffRowMultisets(SortedRows(std::move(from_changelog)),
                             SortedRows(std::move(read.rows)));
    }
    if (!err.empty()) {
      outcome.failures.push_back(
          {"duality", QueryLabel(fuzz, read.query) + " at prefix " +
                          std::to_string(read.prefix) + ": " + err});
    }
  }

  // ---- Oracle 2: batched feed and late execution. The same events
  // through Engine::Feed in pseudo-random batches, with the queries executed
  // only after a seed-chosen prefix, which they replay from the history: the
  // batched feed and the replay must emit exactly what event-by-event
  // delivery to queries running from the start emits.
  ONESQL_ASSIGN_OR_RETURN(auto batched_engine,
                          baseline_engine->CloneRegistrations());
  const size_t late_at = Mix(fuzz.seed ^ 0x1A7EULL) % (n + 1);
  Status fed = FeedBatched(batched_engine.get(), fuzz.events, 0, late_at,
                           Mix(fuzz.seed));
  ONESQL_ASSIGN_OR_RETURN(auto batched_queries,
                          ExecuteAll(batched_engine.get(), fuzz.queries));
  if (fed.ok()) {
    fed = FeedBatched(batched_engine.get(), fuzz.events, late_at, n,
                      Mix(fuzz.seed + 1));
  }
  if (!fed.ok()) {
    outcome.failures.push_back(
        {"batched", "batched feed rejected: " + fed.ToString()});
  } else {
    for (size_t q = 0; q < batched_queries.size(); ++q) {
      ONESQL_ASSIGN_OR_RETURN(QueryRendering r, Render(batched_queries[q]));
      std::string err = CompareEmissions(r.emissions, baseline[q].emissions);
      if (err.empty()) {
        err = CompareRowSequences(r.snapshot, baseline[q].snapshot);
      }
      if (!err.empty()) {
        outcome.failures.push_back(
            {"batched", QueryLabel(fuzz, q) + " executed after event " +
                            std::to_string(late_at) + ": " + err});
      }
    }
  }

  // ---- Oracle 3: crash equivalence at a seed-chosen prefix.
  if (opts.run_crash && !opts.temp_dir.empty() && n >= 2) {
    const size_t cut = 1 + Mix(fuzz.seed ^ 0xC4A54ULL) % (n - 1);
    const std::string dir =
        opts.temp_dir + "/fuzz_case_" + std::to_string(fuzz.seed);
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
      return Status::DataLoss("cannot create crash-oracle dir " + dir);
    }
    Status crash_status = Status::OK();
    {
      ONESQL_ASSIGN_OR_RETURN(auto crashing,
                              baseline_engine->CloneRegistrations());
      ONESQL_ASSIGN_OR_RETURN(auto ignored,
                              ExecuteAll(crashing.get(), fuzz.queries));
      (void)ignored;
      if (opts.crash_use_wal) {
        crash_status = crashing->EnableDurability(dir);
      }
      if (crash_status.ok()) {
        crash_status = crashing->Feed(std::vector<FeedEvent>(
            fuzz.events.begin(),
            fuzz.events.begin() + static_cast<int64_t>(cut)));
      }
      if (crash_status.ok()) crash_status = crashing->Checkpoint(dir);
      if (crash_status.ok() && opts.crash_use_wal) {
        // With a WAL attached the suffix is also logged before the "crash";
        // restore must replay it without our help.
        crash_status = crashing->Feed(std::vector<FeedEvent>(
            fuzz.events.begin() + static_cast<int64_t>(cut),
            fuzz.events.end()));
      }
      // Engine destroyed here with no shutdown handshake — the crash.
    }
    if (crash_status.ok()) {
      Engine restored;
      crash_status = restored.Restore(dir);
      if (crash_status.ok() && !opts.crash_use_wal) {
        crash_status = restored.Feed(std::vector<FeedEvent>(
            fuzz.events.begin() + static_cast<int64_t>(cut),
            fuzz.events.end()));
      }
      if (crash_status.ok()) {
        if (restored.num_queries() != fuzz.queries.size()) {
          outcome.failures.push_back(
              {"crash", "restore lost queries: " +
                            std::to_string(restored.num_queries()) + " of " +
                            std::to_string(fuzz.queries.size())});
        }
        for (size_t q = 0; q < restored.num_queries(); ++q) {
          ONESQL_ASSIGN_OR_RETURN(QueryRendering r,
                                  Render(restored.query(q)));
          std::string err =
              CompareEmissions(r.emissions, baseline[q].emissions);
          if (err.empty()) {
            err = CompareRowSequences(r.snapshot, baseline[q].snapshot);
          }
          if (!err.empty()) {
            outcome.failures.push_back(
                {"crash", QueryLabel(fuzz, q) + " prefix=" +
                              std::to_string(cut) +
                              (opts.crash_use_wal ? " (wal)" : "") + ": " +
                              err});
          }
        }
      }
    }
    if (!crash_status.ok()) {
      outcome.failures.push_back(
          {"crash", "prefix=" + std::to_string(cut) +
                        (opts.crash_use_wal ? " (wal)" : "") + ": " +
                        crash_status.ToString()});
    }
    std::filesystem::remove_all(dir, ec);
  }

  // ---- Oracle 4a: naive reference interpreter (perfect watermarks only).
  // Neither baseline models AFTER DELAY: panes whose deadline lies past the
  // last feed event are still pending in the final snapshot.
  if (opts.run_reference && fuzz.perfect_watermarks()) {
    for (size_t q = 0; q < fuzz.queries.size(); ++q) {
      if (fuzz.queries[q].delay_ms > 0) continue;
      ONESQL_ASSIGN_OR_RETURN(
          std::vector<Row> expected,
          ReferenceFinalSnapshot(fuzz.queries[q], fuzz.events));
      const std::string err =
          DiffRowMultisets(baseline[q].snapshot, expected);
      if (!err.empty()) {
        outcome.failures.push_back(
            {"reference", QueryLabel(fuzz, q) + ": " + err});
      }
    }
  }

  // ---- Oracle 4b: CQL baseline (insert-only, in-order tumbling subset).
  if (opts.run_cql && fuzz.mode == FeedMode::kInsertOnlyPerfect) {
    for (size_t q = 0; q < fuzz.queries.size(); ++q) {
      if (fuzz.queries[q].shape != QueryShape::kTumbleAgg ||
          fuzz.queries[q].delay_ms > 0) {
        continue;
      }
      ONESQL_ASSIGN_OR_RETURN(
          std::vector<Row> expected,
          CqlTumbleSnapshot(fuzz.queries[q], fuzz.events));
      const std::string err =
          DiffRowMultisets(baseline[q].snapshot, expected);
      if (!err.empty()) {
        outcome.failures.push_back({"cql", QueryLabel(fuzz, q) + ": " + err});
      }
    }
  }

  // ---- Oracle 5: multi-tenant plan sharing over the standing-query server.
  if (opts.run_sharing) {
    const std::string err =
        RunSharingOracle(fuzz, baseline_engine.get(), baseline);
    if (!err.empty()) outcome.failures.push_back({"sharing", err});
  }

  return outcome;
}

}  // namespace testing
}  // namespace onesql
