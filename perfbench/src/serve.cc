// nexmark-serve: the standing-query server as a client sees it. Each epoch
// starts an onesql_serve child (shipped defaults but for the session queue
// bound) on a fresh durable directory; one feeder connection sends `feed`
// lines and waits for each ack, and subscriber connections fold the pushed
// deltas. One thread drives every connection through a poll loop.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>

#include "server/json.h"
#include "server/wire.h"
#include "wire_client.h"
#include "workloads.h"

namespace perfbench {

using onesql::server::Json;

namespace {

constexpr int64_t kReplyTimeoutNs = 60'000'000'000;
constexpr size_t kMaxSubscriberConns = 2;
constexpr int64_t kQuietUs = 300;

Json Request(const std::string& cmd) {
  Json j = Json::Object();
  j.Set("cmd", Json::Str(cmd));
  return j;
}

/// The connections of one server run: conns_[0] feeds, the rest subscribe.
class Wire {
 public:
  Wire(size_t num_queries, Report* report)
      : folds_(num_queries), last_seq_(num_queries, -1), report_(report) {}

  bool Open(int port, size_t subscribers) {
    for (size_t i = 0; i <= subscribers; ++i) {
      conns_.push_back(std::make_unique<Conn>());
      responses_.emplace_back();
      if (!conns_.back()->Connect(port)) return false;
    }
    return true;
  }

  size_t subscribers() const { return conns_.size() - 1; }
  /// When the last Call's response had arrived (before the other
  /// connections were drained).
  int64_t replied_ns() const { return replied_ns_; }

  /// Sends one request line on connection `c` and waits for its response,
  /// folding pushes that arrive meanwhile. The response counts as one
  /// operation; `ok:false` or a timeout fails it.
  bool Call(size_t c, const std::string& line, Json* response,
            const std::string& what) {
    bool ok = conns_[c]->Send(line);
    const int64_t deadline = NowNs() + kReplyTimeoutNs;
    // Wait on this connection alone, then take whatever the others have
    // buffered without waiting. Waking for every pushed delta while the
    // server works on the request would put the client in competition with
    // the server's threads; on a machine whose free cores come and go that
    // made the throughput swing with the neighbours' load.
    while (ok && responses_[c].empty()) {
      ok = Pump(1'000'000, c) && NowNs() < deadline;
    }
    replied_ns_ = NowNs();
    ok = Pump(0) && ok;
    std::string text;
    if (ok) {
      text = std::move(responses_[c].front());
      responses_[c].pop_front();
      auto parsed = Json::Parse(text);
      ok = parsed.ok();
      if (ok) {
        *response = std::move(parsed).value();
        const Json* status = response->Find("ok");
        ok = status != nullptr && status->is_bool() && status->AsBool();
      }
    }
    report_->Op(ok, ok ? what : what + ": " + text.substr(0, 300));
    return ok;
  }

  bool Call(size_t c, const Json& request, Json* response,
            const std::string& what) {
    return Call(c, request.Serialize(), response, what);
  }

  /// Reads whatever arrived within `timeout_ms` on connection `only` (or on
  /// any of them) and dispatches it.
  bool Pump(int64_t timeout_us, size_t only = SIZE_MAX) {
    std::vector<Conn*> polled;
    for (size_t c = 0; c < conns_.size(); ++c) {
      if (only == SIZE_MAX || c == only) polled.push_back(conns_[c].get());
    }
    const bool ok = PollAll(polled, timeout_us);
    const int64_t now = NowNs();
    for (size_t c = 0; c < conns_.size(); ++c) {
      auto& lines = conns_[c]->lines();
      while (!lines.empty()) {
        if (lines.front().rfind("{\"push\":", 0) == 0) {
          OnPush(lines.front(), now);
        } else {
          responses_[c].push_back(std::move(lines.front()));
        }
        lines.pop_front();
      }
    }
    return ok;
  }

  void Subscribe(int64_t sub, size_t query) { sub_query_[sub] = query; }

  uint64_t Bytes() const {
    uint64_t n = 0;
    for (const auto& c : conns_) n += c->bytes_in() + c->bytes_out();
    return n;
  }

  std::vector<Fold> folds_;
  std::vector<int64_t> last_seq_;
  /// (ptime ms, receive ns) of every delta, for the delivery latency.
  std::vector<std::pair<int64_t, int64_t>> arrivals_;
  uint64_t deltas_ = 0;

 private:
  /// Integer after `key` at or past `from`; npos-safe.
  static bool IntAfter(const std::string& line, const char* key, size_t from,
                       int64_t* out, size_t* end) {
    const size_t at = line.find(key, from);
    if (at == std::string::npos) return false;
    const char* begin = line.c_str() + at + std::strlen(key);
    char* stop = nullptr;
    *out = std::strtoll(begin, &stop, 10);
    *end = static_cast<size_t>(stop - line.c_str());
    return stop != begin;
  }

  /// Folds a delta line without building a document: the subscriber loop
  /// shares the machine with the server, so it stays cheap. The layout is
  /// EncodeDeltaLine's: {"push":"delta","sub":N,"seq":N,"row":[...],
  /// "undo":b,"ptime":ms,"ver":N}. The row is everything between "row": and
  /// the last ,"undo": — found from the end, so row strings cannot fool it.
  bool FoldDelta(const std::string& line, int64_t now) {
    static constexpr char kUndo[] = ",\"undo\":";
    int64_t sub = 0, seq = 0, ptime = 0;
    size_t pos = 0;
    if (line.rfind("{\"push\":\"delta\",", 0) != 0 ||
        !IntAfter(line, "\"sub\":", 0, &sub, &pos) ||
        !IntAfter(line, "\"seq\":", pos, &seq, &pos) ||
        line.compare(pos, 7, ",\"row\":") != 0) {
      return false;
    }
    const size_t row = pos + 7;
    const size_t undo = line.rfind(kUndo);
    if (undo == std::string::npos || undo < row) return false;
    const bool retract = line.compare(undo + 8, 4, "true") == 0;
    size_t end = 0;
    if (!IntAfter(line, "\"ptime\":", undo, &ptime, &end)) return false;
    auto it = sub_query_.find(sub);
    if (it == sub_query_.end()) return false;
    folds_[it->second].ApplyKey(line.substr(row, undo - row), retract);
    last_seq_[it->second] = seq;
    arrivals_.push_back({ptime, now});
    ++deltas_;
    return true;
  }

  void OnPush(const std::string& line, int64_t now) {
    // Anything but a well-formed delta fails: an error push means the
    // server dropped a subscriber.
    if (!FoldDelta(line, now)) {
      report_->Op(false, "subscriber push: " + line.substr(0, 200));
    }
  }

  std::vector<std::unique_ptr<Conn>> conns_;
  std::vector<std::deque<std::string>> responses_;
  std::map<int64_t, size_t> sub_query_;
  Report* report_;
  int64_t replied_ns_ = 0;
};

std::unordered_map<std::string, int64_t> RowsBag(const Json& response) {
  std::unordered_map<std::string, int64_t> bag;
  const Json* rows = response.Find("rows");
  if (rows == nullptr) return bag;
  for (const Json& r : rows->items()) ++bag[r.Serialize()];
  return bag;
}

/// Submits (share:true) every query on its subscriber connection; returns
/// the server's query names.
bool SubmitAll(const Workload& w, Wire* wire, std::vector<std::string>* names,
               std::vector<int64_t>* seqs) {
  names->clear();
  seqs->clear();
  for (size_t q = 0; q < w.queries.size(); ++q) {
    Json req = Request("submit");
    req.Set("sql", Json::Str(w.queries[q].second));
    req.Set("share", Json::Bool(true));
    Json resp;
    if (!wire->Call(1 + q % wire->subscribers(), req, &resp,
                    "submit " + w.queries[q].first)) {
      return false;
    }
    const Json* name = resp.Find("query");
    const Json* seq = resp.Find("seq");
    if (name == nullptr || seq == nullptr) return false;
    names->push_back(name->AsString());
    seqs->push_back(seq->AsInt());
  }
  return true;
}

}  // namespace

std::vector<std::string> FeedLines(const Workload& w) {
  std::vector<std::string> lines;
  for (const Batch& b : w.batches) {
    Json events = Json::Array();
    for (const onesql::FeedEvent& e : b) {
      events.Add(onesql::server::EncodeFeedEvent(e));
    }
    Json req = Request("feed");
    req.Set("events", std::move(events));
    lines.push_back(req.Serialize());
  }
  return lines;
}

bool ServeEpoch(const Workload& w, const std::vector<std::string>& feed_lines,
                const RunConfig& cfg, bool full, WireEpoch* out,
                Report* report) {
  const std::string dir = cfg.work_dir + "/serve";
  RemoveTree(dir);
  MakeDirs(cfg.work_dir);
  std::vector<std::string> args = {
      "--port", "0", "--shards", std::to_string(w.shards),
      "--max-session-queue", std::to_string(kSessionQueueLines)};
  if (w.durable) {
    args.push_back("--durable-dir");
    args.push_back(dir);
  }
  const std::string log = cfg.work_dir + "/serve.log";
  const size_t subs = std::min(kMaxSubscriberConns, w.queries.size());

  // Set-up: server start, connections, registrations, submit + subscribe.
  const int64_t t0 = NowNs();
  auto child = std::make_unique<ServerChild>();
  const bool started = child->Start(cfg.server_bin, args, log);
  report->Op(started, "start onesql_serve");
  if (!started) return false;
  auto wire = std::make_unique<Wire>(w.queries.size(), report);
  if (!wire->Open(child->port(), subs)) {
    report->Op(false, "connect");
    return false;
  }
  onesql::Engine catalog_source;
  report->Op(Register(&catalog_source, w).ok(), "register");
  Json resp;
  for (const auto& [name, def] : catalog_source.catalog().tables()) {
    if (!def.unbounded) continue;
    Json req = Request("register_stream");
    req.Set("name", Json::Str(def.name));
    req.Set("schema", onesql::server::EncodeSchema(def.schema));
    if (!wire->Call(0, req, &resp, "register_stream " + def.name)) return false;
  }
  std::vector<std::string> names;
  std::vector<int64_t> seqs;
  if (!SubmitAll(w, wire.get(), &names, &seqs)) return false;
  for (size_t q = 0; q < names.size(); ++q) {
    Json req = Request("subscribe");
    req.Set("query", Json::Str(names[q]));
    if (!wire->Call(1 + q % subs, req, &resp, "subscribe " + names[q]) ||
        resp.Find("sub") == nullptr) {
      return false;
    }
    wire->Subscribe(resp.Find("sub")->AsInt(), q);
  }
  out->setup_s = NsToS(ProcessCpuNs(child->pid()));
  out->setup_wall_s = NsToS(NowNs() - t0);

  // Timed phase: closed loop, one feed line in flight. After each ack the
  // client reads the subscriber sockets until they stay quiet for
  // kQuietUs, so a line's deltas are normally all in before the next line
  // goes out and delivery time measures the fan-out, not the feed cycle.
  // The server's CPU time is read before each send and after each ack.
  const pid_t server = child->pid();
  std::vector<int64_t> sent(feed_lines.size(), 0);
  std::vector<int64_t> sent_cpu(feed_lines.size() + 1, 0);
  const uint64_t bytes0 = wire->Bytes();
  const int64_t start = NowNs();
  for (size_t i = 0; i < feed_lines.size(); ++i) {
    sent_cpu[i] = ProcessCpuNs(server);
    sent[i] = NowNs();
    const bool ok = wire->Call(0, feed_lines[i], &resp, "feed");
    out->feed_us.push_back(NsToUs(wire->replied_ns() - sent[i]));
    out->feed_cpu_us.push_back(NsToUs(ProcessCpuNs(server) - sent_cpu[i]));
    if (!ok) return false;
    out->events += w.batches[i].size();
    for (uint64_t seen = 0; seen != wire->Bytes();) {
      seen = wire->Bytes();
      if (!wire->Pump(kQuietUs)) return false;
    }
  }
  out->timed_ns = NowNs() - start;
  sent_cpu.back() = ProcessCpuNs(server);
  for (size_t i = 0; i < sent.size(); ++i) {
    const int64_t next = i + 1 < sent.size() ? sent[i + 1] : start + out->timed_ns;
    out->cycle_us.push_back(NsToUs(next - sent[i]));
    out->cycle_cpu_us.push_back(NsToUs(sent_cpu[i + 1] - sent_cpu[i]));
  }

  // Drain: every subscriber has seen the whole changelog once its last
  // delta seq reaches the length a fresh submit reports.
  if (!SubmitAll(w, wire.get(), &names, &seqs)) return false;
  const int64_t deadline = NowNs() + kReplyTimeoutNs;
  for (size_t q = 0; q < names.size(); ++q) {
    while (wire->last_seq_[q] + 1 < seqs[q] && NowNs() < deadline) {
      wire->Pump(100'000);
    }
    report->Op(wire->last_seq_[q] + 1 >= seqs[q], "drain " + names[q]);
  }
  out->wire_bytes = wire->Bytes() - bytes0;
  out->deltas = wire->deltas_;

  // Delivery: a delta belongs to the feed line whose ptime range holds it.
  std::vector<int64_t> last_ptime;
  for (const Batch& b : w.batches) {
    last_ptime.push_back(b.back().ptime.millis());
  }
  std::vector<int64_t> last_arrival(feed_lines.size(), 0);
  for (const auto& [ptime, at] : wire->arrivals_) {
    const size_t line = static_cast<size_t>(
        std::lower_bound(last_ptime.begin(), last_ptime.end(), ptime) -
        last_ptime.begin());
    if (line < last_arrival.size()) {
      last_arrival[line] = std::max(last_arrival[line], at);
    }
  }
  for (size_t i = 0; i < last_arrival.size(); ++i) {
    out->deliver_us.push_back(last_arrival[i] != 0
                                  ? NsToUs(last_arrival[i] - sent[i])
                                  : std::nan(""));
  }
  out->peak_rss_mb = PeakRssMb(child->pid());
  if (!full) {
    wire.reset();
    report->Op(child->Stop(), "server exit");
    return true;
  }

  // Checks: folded deltas == snapshot, per subscriber.
  std::vector<std::unordered_map<std::string, int64_t>> tables;
  for (size_t q = 0; q < names.size(); ++q) {
    Json req = Request("snapshot");
    req.Set("query", Json::Str(names[q]));
    if (!wire->Call(1 + q % subs, req, &resp, "snapshot " + names[q])) {
      return false;
    }
    tables.push_back(RowsBag(resp));
    auto expected = tables.back();
    if (cfg.corrupt_expected) expected["[\"corrupted expected row\"]"] += 1;
    report->Check(!wire->folds_[q].underflow() &&
                      wire->folds_[q].bag() == expected,
                  w.name + " " + w.queries[q].first +
                      ": folded deltas == snapshot");
  }

  // Checkpoint, restart on the same directory, render again.
  if (!w.durable) return false;
  if (!wire->Call(0, Request("checkpoint").Serialize(), &resp, "checkpoint")) {
    return false;
  }
  out->checkpoint_mb = FileMb(dir + "/checkpoint.osql");
  wire.reset();
  report->Op(child->Stop(), "server exit");
  const int64_t r0 = NowNs();
  child = std::make_unique<ServerChild>();
  const bool restarted = child->Start(cfg.server_bin, args, log);
  report->Op(restarted, "restart onesql_serve");
  if (!restarted) return false;
  wire = std::make_unique<Wire>(w.queries.size(), report);
  if (!wire->Open(child->port(), subs) ||
      !wire->Call(0, Request("hello").Serialize(), &resp, "hello")) {
    return false;
  }
  out->restore_s = NsToS(NowNs() - r0);
  out->restore_cpu_s = NsToS(ProcessCpuNs(child->pid()));
  if (!SubmitAll(w, wire.get(), &names, &seqs)) return false;
  for (size_t q = 0; q < names.size(); ++q) {
    Json req = Request("snapshot");
    req.Set("query", Json::Str(names[q]));
    if (!wire->Call(1 + q % subs, req, &resp, "snapshot " + names[q])) {
      return false;
    }
    auto expected = tables[q];
    if (cfg.corrupt_expected) expected["[\"corrupted expected row\"]"] += 1;
    report->Check(RowsBag(resp) == expected,
                  w.name + " " + w.queries[q].first +
                      ": restarted server renders the same");
  }
  wire.reset();
  report->Op(child->Stop(), "server exit");
  RemoveTree(dir);
  return true;
}

void RunServe(const Workload& w, const RunConfig& cfg, Report* report) {
  const std::vector<std::string> lines = FeedLines(w);
  Measured m;
  m.events = w.events;
  std::vector<double> epoch_eps;
  uint64_t deltas = 0;
  int epochs = 0;
  const int64_t begin = NowNs();
  while (epochs == 0 || NsToS(NowNs() - begin) < cfg.seconds) {
    WireEpoch e;
    const bool ok = ServeEpoch(w, lines, cfg, true, &e, report);
    if (!ok) {
      report->Check(false, w.name + ": epoch ran to completion");
      break;
    }
    m.setup_s.push_back(e.setup_s);
    m.setup_wall_s.push_back(e.setup_wall_s);
    m.feed_us.push_back(std::move(e.feed_us));
    m.deliver_us.push_back(std::move(e.deliver_us));
    m.span_us.push_back(std::move(e.cycle_us));
    m.feed_cpu_us.push_back(std::move(e.feed_cpu_us));
    m.deliver_cpu_us.push_back(std::move(e.cycle_cpu_us));
    m.restore_s.push_back(e.restore_s);
    m.restore_cpu_s.push_back(e.restore_cpu_s);
    m.checkpoint_mb.push_back(e.checkpoint_mb);
    epoch_eps.push_back(static_cast<double>(e.events) / NsToS(e.timed_ns));
    deltas += e.deltas;
    if (epochs == 0) m.peak_rss_mb = e.peak_rss_mb;
    ++epochs;
  }
  char line[256];
  std::snprintf(line, sizeof(line),
                "%s: %d epochs x %zu events, %zu feed lines of %zu events "
                "per epoch, %llu deltas",
                w.name.c_str(), epochs, w.events, lines.size(),
                w.batch_events, static_cast<unsigned long long>(deltas));
  report->Note(line);
  report->Note("epoch throughputs (wall clock): " + Join(epoch_eps, "%.0f"));
  ReportEndToEnd(m, report);
}

}  // namespace perfbench
