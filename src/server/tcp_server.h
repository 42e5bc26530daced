#ifndef ONESQL_SERVER_TCP_SERVER_H_
#define ONESQL_SERVER_TCP_SERVER_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/result.h"
#include "server/server_core.h"

namespace onesql {
namespace server {

/// The TCP transport for the standing-query server: a POSIX listener on
/// 127.0.0.1 speaking the line-delimited JSON protocol (DESIGN.md §13).
/// Each connection is one session with two threads — a reader that feeds
/// request lines into ServerCore::HandleLine and writes the responses, and
/// a writer that blocks on the session's outbound queue flushing pushed
/// changelog deltas. Responses and pushes share the socket; writes are
/// serialized by a per-connection mutex so lines never interleave.
///
///   $ nc localhost 7687
///   {"cmd":"hello"}
///   {"ok":true,"server":"onesql","protocol":1,"durable":false}
class TcpServer {
 public:
  /// Binds 127.0.0.1:`port` (0 picks an ephemeral port — see port()),
  /// starts the accept loop, and returns. The server runs until Stop().
  static Result<std::unique_ptr<TcpServer>> Start(
      std::shared_ptr<ServerCore> core, int port);

  ~TcpServer();

  /// The bound port (the resolved one when started with port 0).
  int port() const { return port_; }

  /// Stops accepting, closes every connection, and joins all threads.
  /// Idempotent; the destructor calls it.
  void Stop();

  /// Live connections. Reaps connections whose peer has gone first, so the
  /// count drops back once clients disconnect.
  size_t num_connections();

  /// Longest request line a connection may send. A client that exceeds it
  /// without a newline gets one error line and is disconnected, so a peer
  /// that never sends '\n' cannot grow the server's buffer without bound.
  static constexpr size_t kMaxLineBytes = size_t{16} << 20;  // 16 MiB

 private:
  struct Connection {
    int fd = -1;
    uint64_t session = 0;
    std::thread reader;
    std::thread writer;
    std::mutex write_mu;  // serializes response + push writes on the socket
    /// Reader and writer threads that have returned; 2 = ready to reap.
    std::atomic<int> exited{0};
  };

  TcpServer(std::shared_ptr<ServerCore> core, int listen_fd, int port);

  void AcceptLoop();
  void ReaderLoop(Connection* conn);
  void WriterLoop(Connection* conn);
  /// Writes one line (appending '\n') under the connection's write lock.
  /// Returns false once the socket is gone.
  bool WriteLine(Connection* conn, const std::string& line);
  /// Joins and closes every connection whose two threads have returned, and
  /// drops it from `connections_`. Runs on the accept thread after each
  /// accept and on num_connections() callers, never on a connection's own
  /// threads.
  void ReapClosed();

  std::shared_ptr<ServerCore> core_;
  int listen_fd_;
  int port_;
  std::thread accept_thread_;
  std::atomic<bool> stopping_{false};

  std::mutex mu_;
  std::vector<std::unique_ptr<Connection>> connections_;
};

}  // namespace server
}  // namespace onesql

#endif  // ONESQL_SERVER_TCP_SERVER_H_
