// The client side of nexmark-serve: an onesql_serve child process and
// non-blocking line-oriented connections to it, all driven from one thread.
#ifndef PERFBENCH_WIRE_CLIENT_H_
#define PERFBENCH_WIRE_CLIENT_H_

#include <sys/types.h>

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

namespace perfbench {

/// An onesql_serve child. Start() returns once the server prints its port;
/// Stop() (also run by the destructor) sends SIGINT and waits for the exit,
/// escalating to SIGKILL after ten seconds.
class ServerChild {
 public:
  ServerChild() = default;
  ~ServerChild() { Stop(); }
  ServerChild(const ServerChild&) = delete;
  ServerChild& operator=(const ServerChild&) = delete;

  bool Start(const std::string& bin, const std::vector<std::string>& args,
             const std::string& log_path);
  /// Returns true when the child exited cleanly (status 0).
  bool Stop();
  pid_t pid() const { return pid_; }
  int port() const { return port_; }

 private:
  pid_t pid_ = -1;
  int port_ = 0;
  int out_fd_ = -1;
};

/// One TCP connection to the server, non-blocking, split into lines.
class Conn {
 public:
  Conn() = default;
  ~Conn();
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  bool Connect(int port);
  /// Writes `line` plus '\n' completely (waits while the socket is full).
  bool Send(const std::string& line);
  /// Reads what is available; complete lines go to lines(). Returns false
  /// once the peer closed or the socket failed.
  bool ReadAvailable();
  int fd() const { return fd_; }
  std::deque<std::string>& lines() { return lines_; }
  uint64_t bytes_in() const { return bytes_in_; }
  uint64_t bytes_out() const { return bytes_out_; }

 private:
  void SplitLines();

  int fd_ = -1;
  std::string buffer_;
  std::deque<std::string> lines_;
  uint64_t bytes_in_ = 0;
  uint64_t bytes_out_ = 0;
};

/// Waits up to `timeout_us` for any connection to become readable and reads
/// all of them. Returns false if a connection closed or failed.
bool PollAll(const std::vector<Conn*>& conns, int64_t timeout_us);

}  // namespace perfbench

#endif  // PERFBENCH_WIRE_CLIENT_H_
