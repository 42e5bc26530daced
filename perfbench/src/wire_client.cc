#include "wire_client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "util.h"

namespace perfbench {

namespace {

constexpr int64_t kStartTimeoutNs = 30'000'000'000;
constexpr int64_t kStopTimeoutNs = 10'000'000'000;

bool WaitExit(pid_t pid, int64_t timeout_ns, int* status) {
  const int64_t deadline = NowNs() + timeout_ns;
  while (true) {
    const pid_t r = ::waitpid(pid, status, WNOHANG);
    if (r == pid) return true;
    if (r < 0 && errno != EINTR) return true;  // not our child any more
    if (NowNs() > deadline) return false;
    ::usleep(1000);
  }
}

}  // namespace

bool ServerChild::Start(const std::string& bin,
                        const std::vector<std::string>& args,
                        const std::string& log_path) {
  int out[2];
  if (::pipe(out) != 0) return false;
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(out[0]);
    ::close(out[1]);
    return false;
  }
  if (pid == 0) {
    // The server dies with the benchmark, however the benchmark ends.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    ::dup2(out[1], STDOUT_FILENO);
    const int log = ::open(log_path.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
    if (log >= 0) ::dup2(log, STDERR_FILENO);
    ::close(out[0]);
    ::close(out[1]);
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(bin.c_str()));
    for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    ::execv(bin.c_str(), argv.data());
    ::_exit(127);
  }
  ::close(out[1]);
  pid_ = pid;
  out_fd_ = out[0];

  // Read stdout until "listening on 127.0.0.1:<port>".
  std::string text;
  const int64_t deadline = NowNs() + kStartTimeoutNs;
  while (NowNs() < deadline) {
    pollfd p{out_fd_, POLLIN, 0};
    if (::poll(&p, 1, 100) <= 0) continue;
    char buf[512];
    const ssize_t n = ::read(out_fd_, buf, sizeof(buf));
    if (n <= 0) break;
    text.append(buf, static_cast<size_t>(n));
    const size_t at = text.find("127.0.0.1:");
    if (at != std::string::npos) {
      const size_t end = text.find_first_not_of("0123456789", at + 10);
      if (end != std::string::npos) {
        port_ = std::atoi(text.c_str() + at + 10);
        return port_ > 0;
      }
    }
  }
  Stop();
  return false;
}

bool ServerChild::Stop() {
  if (pid_ <= 0) return true;
  int status = 0;
  ::kill(pid_, SIGINT);
  bool clean = WaitExit(pid_, kStopTimeoutNs, &status);
  if (!clean) {
    ::kill(pid_, SIGKILL);
    WaitExit(pid_, kStopTimeoutNs, &status);
  }
  clean = clean && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  if (out_fd_ >= 0) ::close(out_fd_);
  out_fd_ = -1;
  pid_ = -1;
  return clean;
}

Conn::~Conn() {
  if (fd_ >= 0) ::close(fd_);
}

bool Conn::Connect(int port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return false;
  }
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL) | O_NONBLOCK) == 0;
}

bool Conn::Send(const std::string& line) {
  std::string framed = line;
  framed.push_back('\n');
  size_t sent = 0;
  while (sent < framed.size()) {
    const ssize_t n = ::send(fd_, framed.data() + sent, framed.size() - sent,
                             MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<size_t>(n);
    } else if (n < 0 && (errno == EAGAIN || errno == EINTR)) {
      // The server is not reading; our own receive side may be what it is
      // blocked on, so keep draining it.
      if (!ReadAvailable()) return false;
      pollfd p{fd_, POLLOUT, 0};
      ::poll(&p, 1, 10);
    } else {
      return false;
    }
  }
  bytes_out_ += framed.size();
  return true;
}

bool Conn::ReadAvailable() {
  char buf[65536];
  bool open = true;
  while (true) {
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      bytes_in_ += static_cast<uint64_t>(n);
      buffer_.append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    // Closed or failed: still hand out the lines that arrived before, such
    // as the error push a server sends before dropping a slow subscriber.
    open = n < 0 && errno == EAGAIN;
    break;
  }
  SplitLines();
  return open;
}

void Conn::SplitLines() {
  size_t start = 0;
  for (size_t nl = buffer_.find('\n'); nl != std::string::npos;
       nl = buffer_.find('\n', start)) {
    lines_.emplace_back(buffer_, start, nl - start);
    start = nl + 1;
  }
  buffer_.erase(0, start);
}

bool PollAll(const std::vector<Conn*>& conns, int64_t timeout_us) {
  std::vector<pollfd> fds;
  for (Conn* c : conns) fds.push_back(pollfd{c->fd(), POLLIN, 0});
  const timespec timeout{static_cast<time_t>(timeout_us / 1'000'000),
                         static_cast<long>(timeout_us % 1'000'000) * 1000};
  const int n = ::ppoll(fds.data(), fds.size(), &timeout, nullptr);
  if (n < 0) return errno == EINTR;
  bool ok = true;
  for (size_t i = 0; i < conns.size(); ++i) {
    if (fds[i].revents != 0) ok = conns[i]->ReadAvailable() && ok;
  }
  return ok;
}

}  // namespace perfbench
