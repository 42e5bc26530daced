// The TCP shell (server/tcp_server.h) over real loopback sockets: the
// line protocol round-trips, pushed deltas arrive interleaved with
// responses, an abrupt client disconnect mid-feed tears the session down
// (retiring its shared plans) without disturbing other sessions, an
// oversized request line or reconnect churn cannot grow server resources,
// and the server stops cleanly with connections open.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <string>
#include <thread>

#include "server/json.h"
#include "server/server_core.h"
#include "server/tcp_server.h"

namespace onesql {
namespace server {
namespace {

/// A blocking line-protocol client on a plain socket.
class LineClient {
 public:
  explicit LineClient(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(port));
    connected_ =
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  }

  ~LineClient() { Close(); }

  bool connected() const { return connected_; }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  bool SendLine(const std::string& line) {
    std::string framed = line;
    framed.push_back('\n');
    return SendRaw(framed);
  }

  /// Makes reads give up (and report EOF) after `seconds`, so a server that
  /// never answers fails the test instead of hanging it.
  void SetReadTimeout(int seconds) {
    timeval tv{};
    tv.tv_sec = seconds;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }

  /// Sends `framed` as it is (no newline appended).
  bool SendRaw(const std::string& framed) {
    size_t sent = 0;
    while (sent < framed.size()) {
      const ssize_t n = ::send(fd_, framed.data() + sent,
                               framed.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  /// Reads one full line ('\n'-terminated). Empty string on EOF/error.
  std::string ReadLine() {
    for (;;) {
      const size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return line;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return "";
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

  /// Round-trip: send a command, read its (ok) response. Push lines that
  /// arrive first are buffered aside via ReadResponse's skip.
  Json Call(const std::string& line) {
    EXPECT_TRUE(SendLine(line));
    return ReadResponse();
  }

  /// Reads until a response line (one without "push") arrives; pushes seen
  /// on the way are appended to `pushes`.
  Json ReadResponse() {
    for (;;) {
      const std::string line = ReadLine();
      if (line.empty()) return Json::Null();
      auto parsed = Json::Parse(line);
      EXPECT_TRUE(parsed.ok()) << line;
      if (!parsed.ok()) return Json::Null();
      if (parsed->Find("push") != nullptr) {
        pushes.push_back(*std::move(parsed));
        continue;
      }
      return *std::move(parsed);
    }
  }

  std::vector<Json> pushes;

 private:
  int fd_ = -1;
  bool connected_ = false;
  std::string buffer_;
};

constexpr const char* kRegisterBid =
    R"({"cmd":"register_stream","name":"Bid","schema":)"
    R"([{"name":"bidtime","type":"TIMESTAMP","event_time":true},)"
    R"({"name":"price","type":"BIGINT"},)"
    R"({"name":"item","type":"VARCHAR"}]})";

constexpr const char* kTumbleMax =
    R"({"cmd":"submit","sql":"SELECT wstart, wend, MAX(price) AS maxPrice )"
    R"(FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime), )"
    R"(dur => INTERVAL '10' MINUTES) t GROUP BY wend EMIT STREAM",)"
    R"("share":true})";

struct ServerFixture {
  std::shared_ptr<ServerCore> core;
  std::unique_ptr<TcpServer> server;

  explicit ServerFixture(ServerOptions options = {}) {
    auto created = ServerCore::Create(options);
    EXPECT_TRUE(created.ok()) << created.status().ToString();
    core = std::move(created).value();
    auto started = TcpServer::Start(core, 0);
    EXPECT_TRUE(started.ok()) << started.status().ToString();
    server = std::move(started).value();
  }
};

/// Spin-waits (bounded) until `done` reports true — for state that settles
/// asynchronously after a socket close.
template <typename Fn>
bool WaitFor(Fn done, int timeout_ms = 5000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

TEST(TcpServerTest, HelloRoundTripsOverTheSocket) {
  ServerFixture fx;
  ASSERT_GT(fx.server->port(), 0);
  LineClient client(fx.server->port());
  ASSERT_TRUE(client.connected());
  Json hello = client.Call(R"({"cmd":"hello"})");
  EXPECT_TRUE(hello.Find("ok")->AsBool());
  EXPECT_EQ(hello.Find("server")->AsString(), "onesql");
}

TEST(TcpServerTest, SubscribePushesDeltasToTheSocket) {
  ServerFixture fx;
  LineClient client(fx.server->port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Call(kRegisterBid).Find("ok")->AsBool());
  Json submitted = client.Call(kTumbleMax);
  ASSERT_TRUE(submitted.Find("ok")->AsBool());
  const std::string query = submitted.Find("query")->AsString();
  ASSERT_TRUE(client.Call(R"({"cmd":"subscribe","query":")" + query + R"("})")
                  .Find("ok")
                  ->AsBool());

  // Close one window; the delta is pushed by the writer thread while the
  // feed response comes back on the reader path.
  Json fed = client.Call(
      R"({"cmd":"feed","events":[)"
      R"({"kind":"insert","source":"Bid","ptime":10,"row":[100,5,"A"]},)"
      R"({"kind":"watermark","source":"Bid","ptime":20,"watermark":600000}]})");
  ASSERT_TRUE(fed.Find("ok")->AsBool());

  // The push may trail the response; read until it arrives.
  while (client.pushes.empty()) {
    const std::string line = client.ReadLine();
    ASSERT_FALSE(line.empty()) << "socket closed before the delta arrived";
    auto parsed = Json::Parse(line);
    ASSERT_TRUE(parsed.ok()) << line;
    if (parsed->Find("push") != nullptr) client.pushes.push_back(*parsed);
  }
  EXPECT_EQ(client.pushes[0].Find("push")->AsString(), "delta");
  EXPECT_EQ(client.pushes[0].Find("seq")->AsInt(), 0);
  ASSERT_NE(client.pushes[0].Find("row"), nullptr);
}

TEST(TcpServerTest, AbruptDisconnectMidFeedTearsTheSessionDown) {
  ServerFixture fx;
  LineClient subscriber(fx.server->port());
  LineClient feeder(fx.server->port());
  ASSERT_TRUE(subscriber.connected());
  ASSERT_TRUE(feeder.connected());
  ASSERT_TRUE(feeder.Call(kRegisterBid).Find("ok")->AsBool());

  Json submitted = subscriber.Call(kTumbleMax);
  ASSERT_TRUE(submitted.Find("ok")->AsBool());
  const std::string query = submitted.Find("query")->AsString();
  ASSERT_TRUE(
      subscriber.Call(R"({"cmd":"subscribe","query":")" + query + R"("})")
          .Find("ok")
          ->AsBool());
  ASSERT_EQ(fx.core->num_sessions(), 2u);
  ASSERT_EQ(fx.core->num_plans(), 1u);

  // The subscriber vanishes without unsubscribe/drop/goodbye, racing an
  // active feed loop on the other connection.
  subscriber.Close();
  for (int i = 0; i < 50; ++i) {
    Json fed = feeder.Call(
        R"({"cmd":"feed","events":[{"kind":"insert","source":"Bid","ptime":)" +
        std::to_string(10 + i) + R"(,"row":[100,5,"A"]}]})");
    ASSERT_TRUE(fed.Find("ok")->AsBool()) << i;
  }

  // The reader notices EOF, closes the session, and the last handle
  // retires the shared plan; the feeder is untouched.
  EXPECT_TRUE(WaitFor([&] { return fx.core->num_sessions() == 1; }));
  EXPECT_TRUE(WaitFor([&] { return fx.core->num_plans() == 0; }));
  EXPECT_EQ(fx.core->engine()->num_queries(), 0u);
  EXPECT_TRUE(feeder.Call(R"({"cmd":"hello"})").Find("ok")->AsBool());
}

TEST(TcpServerTest, AdmissionRejectsWithAnErrorLine) {
  ServerOptions options;
  options.max_sessions = 1;
  ServerFixture fx(options);
  LineClient first(fx.server->port());
  ASSERT_TRUE(first.connected());
  ASSERT_TRUE(first.Call(R"({"cmd":"hello"})").Find("ok")->AsBool());

  LineClient second(fx.server->port());
  ASSERT_TRUE(second.connected());
  const std::string line = second.ReadLine();
  ASSERT_FALSE(line.empty());
  Json rejected = *Json::Parse(line);
  EXPECT_FALSE(rejected.Find("ok")->AsBool());
  // The socket is closed right after: EOF.
  EXPECT_EQ(second.ReadLine(), "");
}

TEST(TcpServerTest, OversizedLineIsRejectedAndTheConnectionClosed) {
  ServerFixture fx;
  LineClient other(fx.server->port());
  ASSERT_TRUE(other.connected());
  ASSERT_TRUE(other.Call(R"({"cmd":"hello"})").Find("ok")->AsBool());

  // One byte past the cap, and no newline: the server must not wait for
  // the rest of the line.
  LineClient hostile(fx.server->port());
  ASSERT_TRUE(hostile.connected());
  hostile.SetReadTimeout(30);
  ASSERT_TRUE(
      hostile.SendRaw(std::string(TcpServer::kMaxLineBytes + 1, 'x')));
  const std::string line = hostile.ReadLine();
  ASSERT_FALSE(line.empty()) << "no error line before the close";
  auto rejected = Json::Parse(line);
  ASSERT_TRUE(rejected.ok()) << line;
  EXPECT_FALSE(rejected->Find("ok")->AsBool());
  EXPECT_NE(rejected->Find("error")->AsString().find("exceeds"),
            std::string::npos);
  EXPECT_EQ(hostile.ReadLine(), "");  // then EOF

  // The server and its other connections carry on; the dropped one is
  // reaped.
  EXPECT_TRUE(other.Call(R"({"cmd":"hello"})").Find("ok")->AsBool());
  EXPECT_TRUE(WaitFor([&] { return fx.server->num_connections() == 1; }));
  EXPECT_EQ(fx.core->num_sessions(), 1u);
}

TEST(TcpServerTest, ConnectDisconnectChurnIsReaped) {
  ServerFixture fx;
  LineClient live(fx.server->port());
  ASSERT_TRUE(live.connected());
  ASSERT_TRUE(live.Call(R"({"cmd":"hello"})").Find("ok")->AsBool());
  for (int i = 0; i < 200; ++i) {
    LineClient client(fx.server->port());
    ASSERT_TRUE(client.connected()) << i;
    // A round trip proves the server accepted this connection.
    ASSERT_TRUE(client.Call(R"({"cmd":"hello"})").Find("ok")->AsBool()) << i;
  }
  // Every closed connection's fd and threads are released; only the live
  // one remains.
  EXPECT_TRUE(WaitFor([&] { return fx.server->num_connections() == 1; }));
  EXPECT_EQ(fx.core->num_sessions(), 1u);
  EXPECT_TRUE(live.Call(R"({"cmd":"hello"})").Find("ok")->AsBool());
}

TEST(TcpServerTest, StopWithLiveConnectionsJoinsCleanly) {
  ServerFixture fx;
  LineClient client(fx.server->port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Call(kRegisterBid).Find("ok")->AsBool());
  ASSERT_TRUE(client.Call(kTumbleMax).Find("ok")->AsBool());

  fx.server->Stop();
  EXPECT_EQ(fx.core->num_sessions(), 0u);
  // Stop is idempotent and the destructor will run it again.
  fx.server->Stop();
  // The client observes EOF rather than a hang.
  EXPECT_EQ(client.ReadLine(), "");
}

}  // namespace
}  // namespace server
}  // namespace onesql
