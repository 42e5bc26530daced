// Transport-independent server behavior (server/server_core.h): the wire
// command dispatcher, session lifecycle, admission control, subscription
// push, slow-subscriber overflow, durable restart, and — the core of the
// design — multi-tenant plan sharing, where 10k subscribers of one query
// shape ride a single operator tree.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "obs/instruments.h"
#include "server/json.h"
#include "server/server_core.h"
#include "tests/state/temp_dir.h"

namespace onesql {
namespace server {
namespace {

constexpr const char* kBidSchema =
    R"([{"name":"bidtime","type":"TIMESTAMP","event_time":true},)"
    R"({"name":"price","type":"BIGINT"},)"
    R"({"name":"item","type":"VARCHAR"}])";

/// The windowed-aggregation heart of NEXMark Q7 / the paper's Listing 2
/// subquery. `salt` renames the output alias and table alias — cosmetic
/// variants that must fingerprint identically.
std::string TumbleMaxSql(int salt = 0) {
  const std::string s = std::to_string(salt);
  return "SELECT wstart, wend, MAX(price) AS max" + s +
         " FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime), "
         "dur => INTERVAL '10' MINUTES) t" + s +
         " GROUP BY wend EMIT STREAM";
}

constexpr const char* kPassThrough =
    "SELECT bidtime, price, item FROM Bid EMIT STREAM";

/// Sends one command line and parses the response.
Json Call(ServerCore* core, uint64_t session, const std::string& line) {
  auto parsed = Json::Parse(core->HandleLine(session, line));
  EXPECT_TRUE(parsed.ok()) << line;
  return parsed.ok() ? *parsed : Json::Null();
}

Json CallOk(ServerCore* core, uint64_t session, const std::string& line) {
  Json response = Call(core, session, line);
  const Json* ok = response.Find("ok");
  EXPECT_TRUE(ok != nullptr && ok->is_bool() && ok->AsBool())
      << line << " -> " << response.Serialize();
  return response;
}

std::unique_ptr<ServerCore> MakeServer(ServerOptions options = {}) {
  auto core = ServerCore::Create(options);
  EXPECT_TRUE(core.ok()) << core.status().ToString();
  return std::move(core).value();
}

uint64_t Open(ServerCore* core) {
  auto session = core->OpenSession();
  EXPECT_TRUE(session.ok()) << session.status().ToString();
  return session.ok() ? session.value() : 0;
}

void RegisterBid(ServerCore* core, uint64_t session) {
  CallOk(core, session,
         std::string(R"({"cmd":"register_stream","name":"Bid","schema":)") +
             kBidSchema + "}");
}

std::string InsertEvent(int64_t ptime, int64_t bidtime, int64_t price,
                        const std::string& item) {
  return R"({"kind":"insert","source":"Bid","ptime":)" +
         std::to_string(ptime) + R"(,"row":[)" + std::to_string(bidtime) +
         "," + std::to_string(price) + ",\"" + item + "\"]}";
}

std::string WatermarkEvent(int64_t ptime, int64_t mark) {
  return R"({"kind":"watermark","source":"Bid","ptime":)" +
         std::to_string(ptime) + R"(,"watermark":)" + std::to_string(mark) +
         "}";
}

std::string FeedCmd(const std::vector<std::string>& events) {
  std::string cmd = R"({"cmd":"feed","events":[)";
  for (size_t i = 0; i < events.size(); ++i) {
    if (i > 0) cmd += ",";
    cmd += events[i];
  }
  return cmd + "]}";
}

/// Drains a session's push queue into plain strings.
std::vector<std::string> Drain(ServerCore* core, uint64_t session) {
  std::vector<std::string> lines;
  for (const auto& line : core->DrainOutbound(session)) {
    lines.push_back(*line);
  }
  return lines;
}

TEST(ServerCoreTest, HelloReportsProtocolAndDurability) {
  auto core = MakeServer();
  const uint64_t s = Open(core.get());
  Json hello = CallOk(core.get(), s, R"({"cmd":"hello"})");
  EXPECT_EQ(hello.Find("server")->AsString(), "onesql");
  EXPECT_GE(hello.Find("protocol")->AsInt(), 1);
  EXPECT_FALSE(hello.Find("durable")->AsBool());
}

TEST(ServerCoreTest, RequestIdEchoesAndUnknownCommandFails) {
  auto core = MakeServer();
  const uint64_t s = Open(core.get());
  Json ok = CallOk(core.get(), s, R"({"cmd":"hello","id":7})");
  EXPECT_EQ(ok.Find("id")->AsInt(), 7);
  Json err = Call(core.get(), s, R"({"cmd":"frobnicate","id":8})");
  EXPECT_FALSE(err.Find("ok")->AsBool());
  EXPECT_EQ(err.Find("id")->AsInt(), 8);
  Json garbage = Call(core.get(), s, "not json");
  EXPECT_FALSE(garbage.Find("ok")->AsBool());
}

TEST(ServerCoreTest, SubmitFeedSubscribeDeliversDeltas) {
  auto core = MakeServer();
  const uint64_t s = Open(core.get());
  RegisterBid(core.get(), s);
  Json submitted = CallOk(
      core.get(), s,
      R"({"cmd":"submit","sql":")" + TumbleMaxSql() + R"(","share":true})");
  const std::string query = submitted.Find("query")->AsString();
  EXPECT_FALSE(submitted.Find("shared")->AsBool());
  EXPECT_EQ(submitted.Find("seq")->AsInt(), 0);

  Json subscribed = CallOk(
      core.get(), s, R"({"cmd":"subscribe","query":")" + query + R"("})");
  EXPECT_GE(subscribed.Find("sub")->AsInt(), 1);

  CallOk(core.get(), s,
         FeedCmd({InsertEvent(10, 100, 5, "A"), InsertEvent(20, 200, 9, "B"),
                  WatermarkEvent(30, 600000)}));

  const std::vector<std::string> lines = Drain(core.get(), s);
  ASSERT_FALSE(lines.empty());
  Json first = *Json::Parse(lines[0]);
  EXPECT_EQ(first.Find("push")->AsString(), "delta");
  EXPECT_EQ(first.Find("sub")->AsInt(), subscribed.Find("sub")->AsInt());
  EXPECT_EQ(first.Find("seq")->AsInt(), 0);
  ASSERT_NE(first.Find("row"), nullptr);
  EXPECT_FALSE(first.Find("undo")->AsBool());

  Json snapshot = CallOk(core.get(), s,
                         R"({"cmd":"snapshot","query":")" + query + R"("})");
  EXPECT_EQ(snapshot.Find("rows")->items().size(), 1u);  // one closed window
  EXPECT_EQ(snapshot.Find("schema")->items().size(), 3u);
}

TEST(ServerCoreTest, SharedSubmitRoutesOntoOneOperatorTree) {
  auto core = MakeServer();
  const uint64_t s1 = Open(core.get());
  const uint64_t s2 = Open(core.get());
  RegisterBid(core.get(), s1);

  Json first = CallOk(
      core.get(), s1,
      R"({"cmd":"submit","sql":")" + TumbleMaxSql(1) + R"(","share":true})");
  Json second = CallOk(
      core.get(), s2,
      R"({"cmd":"submit","sql":")" + TumbleMaxSql(2) + R"(","share":true})");

  EXPECT_FALSE(first.Find("shared")->AsBool());
  EXPECT_TRUE(second.Find("shared")->AsBool());
  EXPECT_EQ(first.Find("query")->AsString(), second.Find("query")->AsString());
  EXPECT_EQ(first.Find("fingerprint")->AsString(),
            second.Find("fingerprint")->AsString());
  EXPECT_EQ(core->num_plans(), 1u);
  EXPECT_EQ(core->engine()->num_queries(), 1u);

  Json stats = CallOk(core.get(), s1, R"({"cmd":"stats"})");
  EXPECT_EQ(stats.Find("handles")->AsInt(), 2);
  EXPECT_EQ(stats.Find("engine_queries")->AsInt(), 1);

  // One tenant leaving keeps the plan; the last release retires it.
  const std::string query = first.Find("query")->AsString();
  CallOk(core.get(), s1, R"({"cmd":"drop","query":")" + query + R"("})");
  EXPECT_EQ(core->num_plans(), 1u);
  EXPECT_EQ(core->engine()->num_queries(), 1u);
  core->CloseSession(s2);
  EXPECT_EQ(core->num_plans(), 0u);
  EXPECT_EQ(core->engine()->num_queries(), 0u);
}

TEST(ServerCoreTest, DedicatedSubmitsDoNotShare) {
  auto core = MakeServer();
  const uint64_t s = Open(core.get());
  RegisterBid(core.get(), s);
  CallOk(core.get(), s,
         R"({"cmd":"submit","sql":")" + TumbleMaxSql() + R"("})");
  Json second = CallOk(core.get(), s,
                       R"({"cmd":"submit","sql":")" + TumbleMaxSql() + R"("})");
  EXPECT_FALSE(second.Find("shared")->AsBool());
  EXPECT_EQ(core->num_plans(), 2u);
  EXPECT_EQ(core->engine()->num_queries(), 2u);
}

TEST(ServerCoreTest, SharedSubmitFindsADedicatedDuplicate) {
  // Two dedicated instances; the first is dropped. A shared submit then
  // attaches to the survivor rather than starting a third.
  auto core = MakeServer();
  const uint64_t s = Open(core.get());
  RegisterBid(core.get(), s);
  const std::string submit =
      R"({"cmd":"submit","sql":")" + TumbleMaxSql() + R"("})";
  Json first = CallOk(core.get(), s, submit);
  Json second = CallOk(core.get(), s, submit);
  CallOk(core.get(), s,
         R"({"cmd":"drop","query":")" + first.Find("query")->AsString() +
             R"("})");
  EXPECT_EQ(core->engine()->num_queries(), 1u);

  Json shared = CallOk(
      core.get(), s,
      R"({"cmd":"submit","sql":")" + TumbleMaxSql(3) + R"(","share":true})");
  EXPECT_TRUE(shared.Find("shared")->AsBool());
  EXPECT_EQ(shared.Find("query")->AsString(),
            second.Find("query")->AsString());
  EXPECT_EQ(core->num_plans(), 1u);
  EXPECT_EQ(core->engine()->num_queries(), 1u);
}

TEST(ServerCoreTest, CaseOverAnAggregateIsTypeCheckedLikeAnyCase) {
  // A CASE condition over an aggregate must be BOOLEAN, as anywhere else:
  // the submit fails, and the feed after it reaches no half-typed query.
  auto core = MakeServer();
  const uint64_t s = Open(core.get());
  RegisterBid(core.get(), s);
  Json submit = Call(
      core.get(), s,
      R"({"cmd":"submit","sql":"SELECT wend, CASE WHEN COUNT(*) THEN 1 )"
      R"(ELSE 2 END AS c FROM Tumble(data => TABLE(Bid), timecol => )"
      R"(DESCRIPTOR(bidtime), dur => INTERVAL '10' MINUTES) GROUP BY wend"})");
  EXPECT_FALSE(submit.Find("ok")->AsBool());
  EXPECT_NE(submit.Serialize().find("CASE WHEN condition must be BOOLEAN"),
            std::string::npos)
      << submit.Serialize();
  CallOk(core.get(), s, FeedCmd({InsertEvent(1, 1, 5, "a")}));
  Json stats = CallOk(core.get(), s, R"({"cmd":"stats"})");
  EXPECT_EQ(stats.Find("engine_queries")->AsInt(), 0);
}

TEST(ServerCoreTest, SubmitRejectsShardCountsBelowOne) {
  auto core = MakeServer();
  const uint64_t s = Open(core.get());
  RegisterBid(core.get(), s);
  for (const char* shards : {"0", "-1", "-9223372036854775808"}) {
    for (const char* share : {"false", "true"}) {
      SCOPED_TRACE(std::string("shards=") + shards + " share=" + share);
      Json err = Call(core.get(), s,
                      std::string(R"({"cmd":"submit","id":3,"shards":)") +
                          shards + R"(,"share":)" + share + R"(,"sql":")" +
                          TumbleMaxSql() + R"("})");
      EXPECT_FALSE(err.Find("ok")->AsBool());
      EXPECT_EQ(err.Find("id")->AsInt(), 3);
      EXPECT_NE(err.Find("error")->AsString().find("shards"),
                std::string::npos);
    }
  }
  EXPECT_EQ(core->num_plans(), 0u);
  EXPECT_EQ(core->engine()->num_queries(), 0u);
  // A valid count still submits, and a shared plan already running does not
  // make a bad count acceptable.
  CallOk(core.get(), s,
         R"({"cmd":"submit","shards":2,"share":true,"sql":")" +
             TumbleMaxSql() + R"("})");
  Json err = Call(core.get(), s,
                  R"({"cmd":"submit","shards":0,"share":true,"sql":")" +
                      TumbleMaxSql() + R"("})");
  EXPECT_FALSE(err.Find("ok")->AsBool());
  EXPECT_EQ(core->num_plans(), 1u);
}

TEST(ServerCoreTest, SubmitAcceptsShardCountsUpToMaxShards) {
  auto core = MakeServer();
  const uint64_t s = Open(core.get());
  RegisterBid(core.get(), s);
  // One above the bound is refused like a count below one...
  for (int64_t shards : {int64_t{exec::kMaxShards} + 1, int64_t{INT32_MAX}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    Json err = Call(core.get(), s,
                    R"({"cmd":"submit","shards":)" + std::to_string(shards) +
                        R"(,"sql":")" + TumbleMaxSql() + R"("})");
    EXPECT_FALSE(err.Find("ok")->AsBool());
    EXPECT_NE(err.Find("error")->AsString().find("shards"),
              std::string::npos);
  }
  EXPECT_EQ(core->engine()->num_queries(), 0u);
  // ...and the bound itself submits. The plan groups by the window alone,
  // so it runs on one chain and starts no workers.
  CallOk(core.get(), s,
         R"({"cmd":"submit","shards":)" + std::to_string(exec::kMaxShards) +
             R"(,"sql":")" + TumbleMaxSql() + R"("})");
  EXPECT_EQ(core->engine()->num_queries(), 1u);
}

TEST(ServerCoreTest, SessionAdmissionIsBounded) {
  ServerOptions options;
  options.max_sessions = 2;
  auto core = MakeServer(options);
  const uint64_t s1 = Open(core.get());
  Open(core.get());
  EXPECT_FALSE(core->OpenSession().ok());
  // Freeing a slot re-admits.
  core->CloseSession(s1);
  EXPECT_TRUE(core->OpenSession().ok());
}

TEST(ServerCoreTest, QueryAdmissionCountsSharedPlansOnce) {
  ServerOptions options;
  options.max_queries = 1;
  auto core = MakeServer(options);
  const uint64_t s = Open(core.get());
  RegisterBid(core.get(), s);
  CallOk(core.get(), s,
         R"({"cmd":"submit","sql":")" + TumbleMaxSql() + R"(","share":true})");
  // A second distinct operator tree is refused...
  Json refused = Call(
      core.get(), s,
      R"({"cmd":"submit","sql":")" + std::string(kPassThrough) + R"("})");
  EXPECT_FALSE(refused.Find("ok")->AsBool());
  EXPECT_EQ(refused.Find("code")->AsString(), "OutOfRange");
  // ...but attaching to the running shared plan costs no query slot.
  Json attached = CallOk(
      core.get(), s,
      R"({"cmd":"submit","sql":")" + TumbleMaxSql(3) + R"(","share":true})");
  EXPECT_TRUE(attached.Find("shared")->AsBool());
}

TEST(ServerCoreTest, SnapshotAndSubscribeRequireAHandle) {
  auto core = MakeServer();
  const uint64_t s1 = Open(core.get());
  const uint64_t s2 = Open(core.get());
  RegisterBid(core.get(), s1);
  Json submitted = CallOk(
      core.get(), s1, R"({"cmd":"submit","sql":")" + TumbleMaxSql() + R"("})");
  const std::string query = submitted.Find("query")->AsString();

  // s2 never submitted: no handle, no access.
  Json snapshot =
      Call(core.get(), s2, R"({"cmd":"snapshot","query":")" + query + R"("})");
  EXPECT_FALSE(snapshot.Find("ok")->AsBool());
  Json subscribe =
      Call(core.get(), s2, R"({"cmd":"subscribe","query":")" + query + R"("})");
  EXPECT_FALSE(subscribe.Find("ok")->AsBool());
  Json unknown =
      Call(core.get(), s1, R"({"cmd":"snapshot","query":"p999"})");
  EXPECT_EQ(unknown.Find("code")->AsString(), "NotFound");
}

TEST(ServerCoreTest, SubscribeFromSeqReplaysExactlyTheBacklog) {
  auto core = MakeServer();
  const uint64_t s = Open(core.get());
  RegisterBid(core.get(), s);
  Json submitted = CallOk(
      core.get(), s,
      R"({"cmd":"submit","sql":")" + std::string(kPassThrough) + R"("})");
  const std::string query = submitted.Find("query")->AsString();

  CallOk(core.get(), s,
         FeedCmd({InsertEvent(10, 100, 1, "A"), InsertEvent(20, 200, 2, "B"),
                  InsertEvent(30, 300, 3, "C")}));

  // Default subscribe starts at the end: no backlog.
  Json at_end = CallOk(
      core.get(), s, R"({"cmd":"subscribe","query":")" + query + R"("})");
  EXPECT_EQ(at_end.Find("seq")->AsInt(), 3);
  EXPECT_TRUE(Drain(core.get(), s).empty());

  // from_seq=1 replays exactly the missed suffix, seq-stamped.
  Json from_one = CallOk(
      core.get(), s,
      R"({"cmd":"subscribe","query":")" + query + R"(","from_seq":1})");
  const std::vector<std::string> lines = Drain(core.get(), s);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ((*Json::Parse(lines[0])).Find("seq")->AsInt(), 1);
  EXPECT_EQ((*Json::Parse(lines[1])).Find("seq")->AsInt(), 2);
  EXPECT_EQ((*Json::Parse(lines[0])).Find("sub")->AsInt(),
            from_one.Find("sub")->AsInt());

  // Out-of-range cursors are refused, not clamped.
  Json beyond = Call(
      core.get(), s,
      R"({"cmd":"subscribe","query":")" + query + R"(","from_seq":4})");
  EXPECT_EQ(beyond.Find("code")->AsString(), "OutOfRange");
}

TEST(ServerCoreTest, SlowSubscriberOverflowsCleanly) {
  ServerOptions options;
  options.max_session_queue = 2;
  auto core = MakeServer(options);
  const uint64_t s = Open(core.get());
  RegisterBid(core.get(), s);
  Json submitted = CallOk(
      core.get(), s,
      R"({"cmd":"submit","sql":")" + std::string(kPassThrough) + R"("})");
  CallOk(core.get(), s,
         R"({"cmd":"subscribe","query":")" +
             submitted.Find("query")->AsString() + R"("})");

  // Five deltas against a queue bound of two: the session must be marked
  // failed and its queue must end in one error push, never grow unbounded.
  Call(core.get(), s,
       FeedCmd({InsertEvent(10, 100, 1, "A"), InsertEvent(20, 200, 2, "B"),
                InsertEvent(30, 300, 3, "C"), InsertEvent(40, 400, 4, "D"),
                InsertEvent(50, 500, 5, "E")}));

  EXPECT_FALSE(core->SessionOpen(s));
  std::vector<std::shared_ptr<const std::string>> lines;
  ASSERT_TRUE(core->WaitOutbound(s, &lines));
  ASSERT_LE(lines.size(), options.max_session_queue + 1);
  ASSERT_FALSE(lines.empty());
  EXPECT_NE(lines.back()->find("subscriber too slow"), std::string::npos)
      << *lines.back();
  // Flushed and closed: the writer's next wait reports end-of-session.
  EXPECT_FALSE(core->WaitOutbound(s, &lines));
  EXPECT_EQ(core->num_subscriptions(), 0u);
}

TEST(ServerCoreTest, TenThousandSharedSubscribersOneOperator) {
  ServerOptions options;
  options.max_sessions = 10001;
  auto core = MakeServer(options);
  const uint64_t admin = Open(core.get());
  RegisterBid(core.get(), admin);

  // 10k tenants, each submitting its own alias-renamed variant of the same
  // windowed aggregation and subscribing to the changelog.
  Json first = CallOk(
      core.get(), admin,
      R"({"cmd":"submit","sql":")" + TumbleMaxSql(0) + R"(","share":true})");
  const std::string query = first.Find("query")->AsString();
  const int64_t single_query_operators =
      core->engine()->MetricsSnapshot().GaugeValue("onesql_engine_operators");
  EXPECT_GT(single_query_operators, 0);
  CallOk(core.get(), admin,
         R"({"cmd":"subscribe","query":")" + query + R"(","from_seq":0})");

  constexpr int kTenants = 9999;
  std::vector<uint64_t> tenants;
  tenants.reserve(kTenants);
  for (int i = 1; i <= kTenants; ++i) {
    const uint64_t s = Open(core.get());
    tenants.push_back(s);
    Json submitted = CallOk(core.get(), s,
                            R"({"cmd":"submit","sql":")" + TumbleMaxSql(i) +
                                R"(","share":true})");
    ASSERT_TRUE(submitted.Find("shared")->AsBool()) << i;
    ASSERT_EQ(submitted.Find("query")->AsString(), query);
    CallOk(core.get(), s,
           R"({"cmd":"subscribe","query":")" + query + R"(","from_seq":0})");
  }

  // The tentpole claim: 10k subscribers, one operator tree.
  EXPECT_EQ(core->num_subscriptions(), 10000u);
  EXPECT_EQ(core->num_plans(), 1u);
  EXPECT_EQ(core->engine()->num_queries(), 1u);
  const obs::MetricsSnapshot snap = core->engine()->MetricsSnapshot();
  EXPECT_EQ(snap.GaugeValue("onesql_engine_operators"),
            single_query_operators);
  EXPECT_EQ(snap.GaugeValue("onesql_shared_plan_subscribers",
                            {{"plan", query}}),
            10000);

  // One closed window fans out to every subscriber.
  CallOk(core.get(), admin,
         FeedCmd({InsertEvent(10, 100, 5, "A"), InsertEvent(20, 200, 9, "B"),
                  WatermarkEvent(30, 600000)}));
  const std::vector<std::string> admin_lines = Drain(core.get(), admin);
  ASSERT_FALSE(admin_lines.empty());
  const size_t per_subscriber = admin_lines.size();
  for (uint64_t s : {tenants.front(), tenants[kTenants / 2],
                     tenants.back()}) {
    const std::vector<std::string> lines = Drain(core.get(), s);
    ASSERT_EQ(lines.size(), per_subscriber);
    // Identical payload bytes after the per-subscriber prefix.
    for (size_t i = 0; i < lines.size(); ++i) {
      const size_t cut = lines[i].find(",\"seq\":");
      ASSERT_NE(cut, std::string::npos);
      EXPECT_EQ(lines[i].substr(cut), admin_lines[i].substr(
                    admin_lines[i].find(",\"seq\":")));
    }
  }
  EXPECT_EQ(core->engine()->MetricsSnapshot().CounterValue(
                "onesql_server_deltas_pushed_total"),
            per_subscriber * 10000);
}

TEST(ServerCoreTest, DurableRestartReplaysOnlyTheMissedSuffix) {
  const std::string dir = state::NewTempDir("server_durable");
  int64_t seen = 0;
  std::string fingerprint;
  {
    ServerOptions options;
    options.durable_dir = dir;
    auto core = MakeServer(options);
    const uint64_t s = Open(core.get());
    RegisterBid(core.get(), s);
    Json submitted = CallOk(core.get(), s,
                            R"({"cmd":"submit","sql":")" + TumbleMaxSql() +
                                R"(","share":true})");
    fingerprint = submitted.Find("fingerprint")->AsString();
    CallOk(core.get(), s,
           R"({"cmd":"subscribe","query":")" +
               submitted.Find("query")->AsString() + R"("})");
    // First window closes pre-checkpoint; its deltas are "seen".
    CallOk(core.get(), s,
           FeedCmd({InsertEvent(10, 100, 5, "A"),
                    WatermarkEvent(20, 600000)}));
    seen = static_cast<int64_t>(Drain(core.get(), s).size());
    ASSERT_GT(seen, 0);
    CallOk(core.get(), s, R"({"cmd":"checkpoint"})");
    // Server dies here — no clean shutdown handshake.
  }
  {
    ServerOptions options;
    options.durable_dir = dir;
    auto core = MakeServer(options);
    // The standing query survived the restart as a resident plan.
    EXPECT_EQ(core->num_plans(), 1u);
    EXPECT_EQ(core->engine()->num_queries(), 1u);

    const uint64_t s = Open(core.get());
    Json attached = CallOk(core.get(), s,
                           R"({"cmd":"submit","sql":")" + TumbleMaxSql() +
                               R"(","share":true})");
    EXPECT_TRUE(attached.Find("shared")->AsBool());
    EXPECT_EQ(attached.Find("fingerprint")->AsString(), fingerprint);
    EXPECT_EQ(attached.Find("seq")->AsInt(), seen);
    const std::string query = attached.Find("query")->AsString();

    // Resuming at the last seen seq replays nothing old...
    Json resumed = CallOk(core.get(), s,
                          R"({"cmd":"subscribe","query":")" + query +
                              R"(","from_seq":)" + std::to_string(seen) + "}");
    EXPECT_TRUE(Drain(core.get(), s).empty());
    (void)resumed;

    // ...and the next closed window arrives with continuous seq numbers.
    CallOk(core.get(), s,
           FeedCmd({InsertEvent(30, 700000, 7, "B"),
                    WatermarkEvent(40, 1200000)}));
    const std::vector<std::string> lines = Drain(core.get(), s);
    ASSERT_FALSE(lines.empty());
    EXPECT_EQ((*Json::Parse(lines[0])).Find("seq")->AsInt(), seen);

    // A full-history subscription still reaches back to seq 0: the restart
    // lost nothing.
    CallOk(core.get(), s,
           R"({"cmd":"subscribe","query":")" + query + R"(","from_seq":0})");
    EXPECT_EQ(static_cast<int64_t>(Drain(core.get(), s).size()),
              seen + static_cast<int64_t>(lines.size()));
  }
}

/// Pre-order node count of a JSON document.
int CountNodes(const Json& j) {
  int n = 1;
  for (const Json& item : j.items()) n += CountNodes(item);
  for (const auto& [key, value] : j.members()) n += CountNodes(value);
  return n;
}

/// A copy of `j` whose pre-order node number `*k` is replaced by `with`.
Json ReplaceNode(const Json& j, int* k, const Json& with) {
  if ((*k)-- == 0) return with;
  if (j.is_array()) {
    Json out = Json::Array();
    for (const Json& item : j.items()) out.Add(ReplaceNode(item, k, with));
    return out;
  }
  if (j.is_object()) {
    Json out = Json::Object();
    for (const auto& [key, value] : j.members()) {
      out.Set(key, ReplaceNode(value, k, with));
    }
    return out;
  }
  return j;
}

/// Hostile wire lines derived from valid requests: every truncation, every
/// field swapped to another JSON type, rows of the wrong arity,
/// out-of-range integers, deep nesting, and random byte flips.
std::vector<std::string> HostileLines(const std::vector<std::string>& valid,
                                      size_t total, uint64_t seed) {
  std::vector<std::string> lines;
  for (const std::string& line : valid) {
    for (size_t cut = 0; cut < line.size(); ++cut) {
      lines.push_back(line.substr(0, cut));
    }
  }
  Json array = Json::Array();
  array.Add(Json::Int(1)).Add(Json::Str("a"));
  const Json swaps[] = {Json::Str("x"),
                        Json::Str(""),
                        Json::Int(7),
                        Json::Int(-1),
                        Json::Int(std::numeric_limits<int64_t>::max()),
                        Json::Int(std::numeric_limits<int64_t>::min()),
                        Json::Double(1e300),
                        array,
                        Json::Array(),
                        Json::Object(),
                        Json::Null(),
                        Json::Bool(true)};
  for (const std::string& line : valid) {
    const Json request = *Json::Parse(line);
    const int nodes = CountNodes(request);
    for (int node = 0; node < nodes; ++node) {
      for (const Json& with : swaps) {
        int k = node;
        lines.push_back(ReplaceNode(request, &k, with).Serialize());
      }
    }
  }
  const std::string big = "123456789012345678901234567890";
  for (const std::string& row :
       {std::string("[]"), std::string("[1]"), std::string("[1,2]"),
        std::string("[1,2,\"A\",4]"), "[" + big + ",2,\"A\"]",
        "[1,-" + big + ",\"A\"]", std::string("[1,1e400,\"A\"]"),
        std::string("[9223372036854775807,9223372036854775807,\"A\"]"),
        std::string("[-9223372036854775808,-9223372036854775808,\"A\"]"),
        std::string("[null,null,null]"), std::string("[\"A\",\"B\",1]")}) {
    lines.push_back(R"({"cmd":"feed","events":[{"kind":"insert","source":"Bid","ptime":50,"row":)" +
                    row + "}]}");
  }
  for (const std::string& ptime :
       {big, "-" + big, std::string("9223372036854775807"),
        std::string("-9223372036854775808"), std::string("1e400"),
        std::string("0.5")}) {
    lines.push_back(R"({"cmd":"feed","events":[{"kind":"watermark","source":"Bid","ptime":)" +
                    ptime + R"(,"watermark":)" + ptime + "}]}");
    lines.push_back(R"({"cmd":"subscribe","query":"p1","from_seq":)" + ptime +
                    "}");
  }
  for (int depth : {10, 63, 64, 65, 1000, 100000}) {
    const std::string open(static_cast<size_t>(depth), '[');
    const std::string close(static_cast<size_t>(depth), ']');
    lines.push_back(open + close);
    lines.push_back(R"({"cmd":"feed","events":)" + open + close + "}");
    lines.push_back(R"({"cmd":"feed","events":[{"kind":"insert","source":"Bid","ptime":60,"row":[)" +
                    open + "1" + close + R"(,2,"A"]}]})");
  }
  std::mt19937_64 rng(seed);
  while (lines.size() < total) {
    std::string line = valid[rng() % valid.size()];
    const int flips = 1 + static_cast<int>(rng() % 3);
    for (int f = 0; f < flips; ++f) {
      char byte = static_cast<char>(rng() % 256);
      if (byte == '\n') byte = '\r';  // the transport splits lines on '\n'
      line[rng() % line.size()] = byte;
    }
    lines.push_back(std::move(line));
  }
  return lines;
}

TEST(ServerCoreTest, HostileLinesAlwaysGetOneParseableLine) {
  auto core = MakeServer();
  const uint64_t s = Open(core.get());
  RegisterBid(core.get(), s);
  Json submitted = CallOk(
      core.get(), s,
      R"({"cmd":"submit","sql":")" + std::string(kPassThrough) + R"("})");
  const std::string query = submitted.Find("query")->AsString();
  const std::vector<std::string> valid = {
      R"({"cmd":"hello","id":1})",
      R"({"cmd":"submit","sql":")" + TumbleMaxSql() + R"(","share":true,"id":2})",
      FeedCmd({InsertEvent(10, 100, 5, "A"), WatermarkEvent(30, 600000)}),
      R"({"cmd":"subscribe","query":")" + query + R"(","from_seq":0})",
      R"({"cmd":"snapshot","query":")" + query + R"("})",
  };
  const std::vector<std::string> lines = HostileLines(valid, 2000, 18);
  ASSERT_GE(lines.size(), 2000u);

  size_t accepted = 0;
  for (const std::string& line : lines) {
    const std::string response = core->HandleLine(s, line);
    ASSERT_EQ(response.find('\n'), std::string::npos) << line;
    auto parsed = Json::Parse(response);
    ASSERT_TRUE(parsed.ok()) << line << " -> " << response;
    const Json* ok = parsed->Find("ok");
    ASSERT_TRUE(ok != nullptr && ok->is_bool()) << line << " -> " << response;
    accepted += ok->AsBool();
    // Pushes are wire lines too; draining also keeps the session under its
    // backpressure bound.
    for (const std::string& push : Drain(core.get(), s)) {
      ASSERT_EQ(push.find('\n'), std::string::npos) << line;
      ASSERT_TRUE(Json::Parse(push).ok()) << line << " -> " << push;
    }
  }

  // Some mutants still reach a command and succeed; most are refused.
  EXPECT_GT(accepted, 0u);
  EXPECT_LT(accepted, lines.size() / 2);

  // The session survives: valid requests still succeed on it.
  CallOk(core.get(), s, R"({"cmd":"hello"})");
  CallOk(core.get(), s, R"({"cmd":"snapshot","query":")" + query + R"("})");
}

TEST(ServerCoreTest, CheckpointRequiresDurability) {
  auto core = MakeServer();
  const uint64_t s = Open(core.get());
  Json refused = Call(core.get(), s, R"({"cmd":"checkpoint"})");
  EXPECT_FALSE(refused.Find("ok")->AsBool());
}

TEST(ServerCoreTest, MetricsCommandServesBothExpositions) {
  auto core = MakeServer();
  const uint64_t s = Open(core.get());
  RegisterBid(core.get(), s);
  CallOk(core.get(), s,
         R"({"cmd":"submit","sql":")" + TumbleMaxSql() + R"(","share":true})");
  Json prom = CallOk(core.get(), s, R"({"cmd":"metrics"})");
  EXPECT_NE(prom.Find("body")->AsString().find("onesql_server_sessions"),
            std::string::npos);
  Json as_json =
      CallOk(core.get(), s, R"({"cmd":"metrics","format":"json"})");
  EXPECT_EQ(as_json.Find("format")->AsString(), "json");
  EXPECT_NE(as_json.Find("body")->AsString().find("onesql_server_sessions"),
            std::string::npos);
}

TEST(ServerCoreTest, ExplainCommandReturnsAnnotatedPlanAndAnalysis) {
  ServerOptions options;
  options.profiling = true;
  auto core = MakeServer(options);
  const uint64_t s = Open(core.get());
  RegisterBid(core.get(), s);
  Json submitted = CallOk(
      core.get(), s,
      R"({"cmd":"submit","sql":")" + std::string(kPassThrough) + R"("})");
  const std::string query = submitted.Find("query")->AsString();
  CallOk(core.get(), s,
         FeedCmd({InsertEvent(10, 100, 5, "A"), InsertEvent(20, 200, 9, "B"),
                  WatermarkEvent(30, 600000)}));

  // Like `metrics`, explain is read-only diagnostics: any session may call
  // it by plan name without holding a handle.
  Json response = CallOk(
      core.get(), s, R"({"cmd":"explain","query":")" + query + R"("})");
  EXPECT_EQ(response.Find("query")->AsString(), query);
  const std::string& text = response.Find("text")->AsString();
  EXPECT_NE(text.find("EXPLAIN ANALYZE"), std::string::npos);
  EXPECT_NE(text.find("[op="), std::string::npos);
  EXPECT_NE(text.find("profiling=on"), std::string::npos);
  EXPECT_NE(text.find("[sampled wall_us "), std::string::npos);
  const Json* analysis = response.Find("analysis");
  ASSERT_NE(analysis, nullptr);
  const Json* plan = analysis->Find("plan");
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->Find("rows_in")->AsInt(), 2);
  ASSERT_NE(analysis->Find("sink"), nullptr);
  EXPECT_EQ(analysis->Find("sink")->Find("emissions")->AsInt(), 2);

  Json unknown =
      Call(core.get(), s, R"({"cmd":"explain","query":"p999"})");
  EXPECT_FALSE(unknown.Find("ok")->AsBool());
}

}  // namespace
}  // namespace server
}  // namespace onesql
