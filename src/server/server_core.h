#ifndef ONESQL_SERVER_SERVER_CORE_H_
#define ONESQL_SERVER_SERVER_CORE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/engine.h"
#include "server/json.h"
#include "server/wire.h"

namespace onesql {
namespace server {

/// Admission-control and behavior knobs for the standing-query server
/// (DESIGN.md §13).
struct ServerOptions {
  /// Maximum concurrently open sessions; OpenSession fails past this.
  int max_sessions = 64;
  /// Maximum live engine queries (shared plans count once no matter how many
  /// subscribers ride them); `submit` that would start a new operator tree
  /// fails past this.
  int max_queries = 64;
  /// Backpressure bound: outbound lines buffered per session. A subscriber
  /// that falls further behind than this is disconnected with a pushed
  /// error (dropping it is the only alternative to unbounded memory — the
  /// changelog is replayable via `subscribe {"from_seq": N}`, so a dropped
  /// subscriber can resume without loss).
  size_t max_session_queue = 1024;
  /// Default of `submit`'s "shards", in [1, exec::kMaxShards]. Has no
  /// effect: every query runs on one chain.
  int default_shards = 1;
  /// When set, the server restores from this directory at startup and runs
  /// with a write-ahead feed log; the `checkpoint` command persists all
  /// standing queries for the next restart.
  std::string durable_dir;
  /// Attach the metrics registry (per-session / per-shared-plan labels in
  /// both expositions; the `metrics` command serves them).
  bool metrics = true;
  /// Enable query-level profiling (DESIGN.md §15): the `explain` command's
  /// sampled wall-time and rows/s annotations, plus the
  /// fan-out stall histogram. Requires `metrics`; ignored without it.
  bool profiling = false;
};

/// The transport-independent server: sessions, the wire-command dispatcher,
/// the shared-plan cache, and the subscription fan-out. The TCP listener
/// (tcp_server.h) is a thin shell around this; tests and the fuzzer's
/// sharing oracle drive it directly through HandleLine.
///
/// Multi-tenant plan sharing: `submit` with `"share": true` fingerprints the
/// canonicalized plan (plan/fingerprint.h) and, when an identical standing
/// query is already running, attaches the session to it instead of starting
/// a second operator tree — the per-subscriber cost is one handle plus a
/// sink-side fan-out cursor, so 10k subscribers of one NEXMark Q7 variant
/// drive exactly one windowed-aggregation operator.
///
/// Threading: one mutex serializes all engine access and registry mutation;
/// each session's outbound queue has its own lock + condvar so socket writer
/// threads block without holding the server lock.
class ServerCore {
 public:
  /// Creates a server around a fresh engine. With `durable_dir` set, the
  /// engine restores from it (adopting checkpointed standing queries into
  /// the plan cache) and re-attaches the feed log.
  static Result<std::unique_ptr<ServerCore>> Create(
      const ServerOptions& options);

  /// Creates a server around an injected engine — how the sharing oracle
  /// serves a `CloneRegistrations()` clone of the engine under test. Any
  /// queries already running on it are adopted as resident cache entries.
  static Result<std::unique_ptr<ServerCore>> Create(
      const ServerOptions& options, std::unique_ptr<Engine> engine);

  ~ServerCore();

  /// Opens a session; fails with ResourceExhausted-style InvalidArgument
  /// once `max_sessions` are open.
  Result<uint64_t> OpenSession();

  /// Closes a session: cancels its subscriptions, releases its query
  /// handles (retiring shared plans whose last subscriber this was), and
  /// wakes any writer blocked on its outbound queue.
  void CloseSession(uint64_t session);

  /// Handles one request line and returns the response line (no trailing
  /// newline). Changelog deltas provoked by the command are queued on the
  /// subscribed sessions' outbound queues, not returned here.
  std::string HandleLine(uint64_t session, const std::string& line);

  /// Non-blocking drain of a session's outbound push queue.
  std::vector<std::shared_ptr<const std::string>> DrainOutbound(
      uint64_t session);

  /// Blocking drain: waits until lines are queued or the session closes.
  /// Returns false (with `out` empty) once the session is closed and fully
  /// drained — the writer thread's exit condition.
  bool WaitOutbound(uint64_t session,
                    std::vector<std::shared_ptr<const std::string>>* out);

  /// True while the session is open and healthy (not overflow-disconnected).
  bool SessionOpen(uint64_t session);

  // -- Introspection (tests, benchmarks) ------------------------------------
  Engine* engine() { return engine_.get(); }
  size_t num_sessions();
  size_t num_plans();
  size_t num_subscriptions();
  const ServerOptions& options() const { return options_; }

 private:
  struct Session {
    uint64_t id = 0;
    /// Plan handles held (entry id -> count); submit/attach adds one, `drop`
    /// or session close releases one.
    std::map<uint64_t, int> handles;
    const obs::SessionMetrics* metrics = nullptr;

    std::mutex mu;
    std::condition_variable cv;
    std::deque<std::shared_ptr<const std::string>> outbound;
    bool closed = false;
    bool overflowed = false;
  };

  /// One live engine query behind the cache, shared by every session handle
  /// attached to it.
  struct PlanEntry {
    uint64_t id = 0;  // wire name "p<id>"
    ContinuousQuery* query = nullptr;
    std::string fp_hex;
    std::string canonical;  // sharing key (full canonical plan text)
    int handles = 0;        // session handles on this plan, summed
    /// Restored from a checkpoint (or pre-executed on an injected engine):
    /// the query survives with zero handles (it is part of the durable
    /// state and must be there after the next restart).
    bool resident = false;
    /// Changelog length at the last fan-out. Every live subscription sits at
    /// this cursor between commands (subscribe delivers its backlog
    /// synchronously), so Pump skips the plan when nothing new emitted.
    uint64_t fanned_out = 0;
    const obs::SharedPlanMetrics* metrics = nullptr;
  };

  struct Subscription {
    uint64_t id = 0;
    uint64_t session = 0;
    uint64_t plan = 0;
    uint64_t next_seq = 0;  // cursor into the query's emission changelog
  };

  ServerCore(const ServerOptions& options, std::unique_ptr<Engine> engine);

  Status Init();
  /// Adopts every query already running on the engine (restored from a
  /// checkpoint, or pre-executed on an injected engine) as a resident entry.
  void AdoptEngineQueries();

  // Command handlers; all called with mu_ held.
  Json Dispatch(Session* session, const Json& request);
  Json CmdHello(Session* session, const Json& request);
  Json CmdRegisterStream(Session* session, const Json& request);
  Json CmdRegisterTable(Session* session, const Json& request);
  Json CmdSubmit(Session* session, const Json& request);
  Json CmdFeed(Session* session, const Json& request);
  Json CmdAdvance(Session* session, const Json& request);
  Json CmdSnapshot(Session* session, const Json& request);
  Json CmdSubscribe(Session* session, const Json& request);
  Json CmdUnsubscribe(Session* session, const Json& request);
  Json CmdDrop(Session* session, const Json& request);
  Json CmdCheckpoint(Session* session, const Json& request);
  Json CmdStats(Session* session, const Json& request);
  Json CmdMetrics(Session* session, const Json& request);
  Json CmdExplain(Session* session, const Json& request);

  /// Advances every subscription cursor over its query's changelog, fanning
  /// new emissions out to the subscribed sessions. Each emission's payload
  /// is encoded once and shared across subscribers; plans with no new
  /// emissions are skipped entirely. Call after any command that can move a
  /// sink (feed, advance).
  void Pump();

  /// Per-plan cache of encoded emission payloads, so one fan-out serializes
  /// each row exactly once no matter how many subscribers ride the plan.
  using PayloadCache =
      std::unordered_map<uint64_t, std::shared_ptr<const std::string>>;

  /// Pushes `sub`'s outstanding changelog suffix to its session and advances
  /// the cursor. Returns true when the session overflowed in the process
  /// (caller must TearDownOverflowed after it finishes iterating).
  bool PushDeltas(PlanEntry& entry, Subscription& sub, PayloadCache* payloads);

  /// Disconnects overflowed subscribers: cancels their subscriptions and
  /// releases their handles. The sessions stay registered — still holding
  /// the buffered tail plus the error push — until the transport observes
  /// the failure and calls CloseSession.
  void TearDownOverflowed(const std::vector<uint64_t>& session_ids);

  /// Erases a subscription and its plan-index entry; returns the next
  /// iterator.
  std::map<uint64_t, Subscription>::iterator EraseSub(
      std::map<uint64_t, Subscription>::iterator it);

  /// Queues `line` on a session's outbound queue, enforcing the
  /// backpressure bound. On overflow the session is marked failed, an error
  /// line replaces the tail, and the writer is woken to flush-and-close.
  void PushLine(Session* session, std::shared_ptr<const std::string> line);

  /// Releases one handle on `plan_id` held by `session`, retiring the plan
  /// (engine drop, cache erase, subscription cancel) when the last handle
  /// on a non-resident plan goes. Caller holds mu_.
  Status ReleaseHandle(Session* session, uint64_t plan_id);

  PlanEntry* FindPlanByName(const std::string& name);
  Session* FindSession(uint64_t id);

  void UpdateGauges();

  static Json Error(const Json& request, const Status& status);
  static Json Ok(const Json& request);

  const ServerOptions options_;
  std::unique_ptr<Engine> engine_;

  std::mutex mu_;
  std::unordered_map<uint64_t, std::shared_ptr<Session>> sessions_;
  std::map<uint64_t, PlanEntry> plans_;  // ordered: deterministic pump order
  std::map<uint64_t, Subscription> subs_;
  /// Plan id -> its subscription ids, kept in lockstep with subs_ so the
  /// fan-out never scans subscriptions of other plans.
  std::map<uint64_t, std::set<uint64_t>> plan_subs_;
  uint64_t next_session_id_ = 1;
  uint64_t next_plan_id_ = 0;
  uint64_t next_sub_id_ = 1;

  const obs::ServerMetrics* metrics_ = nullptr;
  /// Fan-out stall attribution; null unless profiling is enabled.
  const obs::ServerProfileMetrics* profile_ = nullptr;
};

}  // namespace server
}  // namespace onesql

#endif  // ONESQL_SERVER_SERVER_CORE_H_
