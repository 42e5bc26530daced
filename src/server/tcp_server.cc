#include "server/tcp_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace onesql {
namespace server {

TcpServer::TcpServer(std::shared_ptr<ServerCore> core, int listen_fd,
                     int port)
    : core_(std::move(core)), listen_fd_(listen_fd), port_(port) {}

Result<std::unique_ptr<TcpServer>> TcpServer::Start(
    std::shared_ptr<ServerCore> core, int port) {
  if (core == nullptr) {
    return Status::InvalidArgument("TcpServer needs a ServerCore");
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal(std::string("socket(): ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::Internal("bind(127.0.0.1:" + std::to_string(port) +
                            "): " + err);
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::Internal("getsockname(): " + err);
  }
  if (::listen(fd, 128) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::Internal("listen(): " + err);
  }

  auto server = std::unique_ptr<TcpServer>(
      new TcpServer(std::move(core), fd, ntohs(addr.sin_port)));
  server->accept_thread_ = std::thread([s = server.get()] { s->AcceptLoop(); });
  return server;
}

TcpServer::~TcpServer() { Stop(); }

void TcpServer::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load(std::memory_order_acquire)) return;
      if (errno == EINTR) continue;
      return;  // listener gone
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    Result<uint64_t> session = core_->OpenSession();
    if (!session.ok()) {
      // Admission control: reject with one well-formed error line so the
      // client knows why, then close.
      std::string line = "{\"ok\":false,\"error\":";
      AppendJsonString(session.status().message(), &line);
      line += "}\n";
      (void)::send(fd, line.data(), line.size(), MSG_NOSIGNAL);
      ::close(fd);
      continue;
    }

    // Release the fds and threads of connections that have gone since the
    // last accept, so reconnect churn never accumulates them.
    ReapClosed();

    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    conn->session = session.value();
    Connection* raw = conn.get();
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_.load(std::memory_order_acquire)) {
      core_->CloseSession(raw->session);
      ::close(fd);
      continue;
    }
    // The thread handles are set under mu_, so ReapClosed (which inspects
    // connections under mu_) never sees a connection before both exist.
    raw->reader = std::thread([this, raw] { ReaderLoop(raw); });
    raw->writer = std::thread([this, raw] { WriterLoop(raw); });
    connections_.push_back(std::move(conn));
  }
}

bool TcpServer::WriteLine(Connection* conn, const std::string& line) {
  std::lock_guard<std::mutex> lock(conn->write_mu);
  size_t sent = 0;
  std::string framed = line;
  framed.push_back('\n');
  while (sent < framed.size()) {
    const ssize_t n = ::send(conn->fd, framed.data() + sent,
                             framed.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

void TcpServer::ReaderLoop(Connection* conn) {
  std::string buffer;
  // Bytes at the front of `buffer` already searched for '\n' (a partial line
  // is never rescanned, so a long line costs linear time).
  size_t scanned = 0;
  char chunk[4096];
  while (true) {
    const ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      break;  // peer closed or socket shut down
    }
    buffer.append(chunk, static_cast<size_t>(n));
    size_t start = 0;
    for (size_t nl = buffer.find('\n', scanned); nl != std::string::npos;
         nl = buffer.find('\n', start)) {
      std::string line = buffer.substr(start, nl - start);
      start = nl + 1;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;
      const std::string response = core_->HandleLine(conn->session, line);
      if (!WriteLine(conn, response)) {
        start = buffer.size();
        break;
      }
    }
    buffer.erase(0, start);
    scanned = buffer.size();
    if (buffer.size() > kMaxLineBytes) {
      (void)WriteLine(conn, "{\"ok\":false,\"error\":\"request line exceeds " +
                                std::to_string(kMaxLineBytes) +
                                " bytes; closing the connection\"}");
      break;
    }
  }
  // Disconnect (possibly mid-feed): tear the session down — subscriptions
  // cancel, handles release, shared plans retire when this was the last
  // subscriber — and unblock the writer.
  core_->CloseSession(conn->session);
  ::shutdown(conn->fd, SHUT_RDWR);
  conn->exited.fetch_add(1, std::memory_order_acq_rel);
}

void TcpServer::WriterLoop(Connection* conn) {
  std::vector<std::shared_ptr<const std::string>> lines;
  while (core_->WaitOutbound(conn->session, &lines)) {
    for (const auto& line : lines) {
      if (!WriteLine(conn, *line)) {
        core_->CloseSession(conn->session);
        ::shutdown(conn->fd, SHUT_RDWR);
        conn->exited.fetch_add(1, std::memory_order_acq_rel);
        return;
      }
    }
  }
  // Session closed (client drop, server stop, or slow-subscriber overflow
  // after its error line was flushed above): release the socket so the
  // reader unblocks too.
  ::shutdown(conn->fd, SHUT_RDWR);
  conn->exited.fetch_add(1, std::memory_order_acq_rel);
}

void TcpServer::ReapClosed() {
  std::vector<std::unique_ptr<Connection>> closed;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto done = [](const std::unique_ptr<Connection>& conn) {
      return conn->exited.load(std::memory_order_acquire) == 2;
    };
    for (auto& conn : connections_) {
      if (done(conn)) closed.push_back(std::move(conn));
    }
    connections_.erase(
        std::remove(connections_.begin(), connections_.end(), nullptr),
        connections_.end());
  }
  for (auto& conn : closed) {
    conn->reader.join();
    conn->writer.join();
    ::close(conn->fd);
  }
}

void TcpServer::Stop() {
  if (stopping_.exchange(true, std::memory_order_acq_rel)) {
    return;
  }
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  ::close(listen_fd_);

  std::vector<std::unique_ptr<Connection>> connections;
  {
    std::lock_guard<std::mutex> lock(mu_);
    connections.swap(connections_);
  }
  for (auto& conn : connections) {
    core_->CloseSession(conn->session);  // unblocks the writer
    ::shutdown(conn->fd, SHUT_RDWR);     // unblocks the reader
    if (conn->reader.joinable()) conn->reader.join();
    if (conn->writer.joinable()) conn->writer.join();
    ::close(conn->fd);
  }
}

size_t TcpServer::num_connections() {
  ReapClosed();
  std::lock_guard<std::mutex> lock(mu_);
  return connections_.size();
}

}  // namespace server
}  // namespace onesql
