// The `onesql_serve` binary: the standing-query server on a TCP port.
// Line-delimited JSON in, responses and pushed changelog deltas out — try
// it with nc (README "Serve it"). Runs until SIGINT/SIGTERM.

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "server/server_core.h"
#include "server/tcp_server.h"

namespace {

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--port N] [--durable-dir DIR] [--max-sessions N]\n"
      "          [--max-queries N] [--max-session-queue N] [--shards N]\n"
      "          [--profiling]\n"
      "  --port N              listen port on 127.0.0.1 (default 7687;\n"
      "                        0 picks an ephemeral port)\n"
      "  --durable-dir DIR     restore from DIR, run with a write-ahead\n"
      "                        feed log, enable the checkpoint command\n"
      "  --max-sessions N      session admission bound (default 64)\n"
      "  --max-queries N       live engine queries; shared plans count\n"
      "                        once (default 64)\n"
      "  --max-session-queue N outbound lines buffered per session before\n"
      "                        a slow subscriber is dropped (default 1024)\n"
      "  --shards N            no effect: every query runs on one chain\n"
      "                        (accepted between 1 and %d)\n"
      "  --profiling           query-level profiling: the explain\n"
      "                        command's sampled wall-time / kernel-path\n"
      "                        annotations (DESIGN.md §15)\n",
      argv0, onesql::exec::kMaxShards);
}

}  // namespace

int main(int argc, char** argv) {
  onesql::server::ServerOptions options;
  int port = 7687;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--port") {
      port = std::atoi(next());
    } else if (arg == "--durable-dir") {
      options.durable_dir = next();
    } else if (arg == "--max-sessions") {
      options.max_sessions = std::atoi(next());
    } else if (arg == "--max-queries") {
      options.max_queries = std::atoi(next());
    } else if (arg == "--max-session-queue") {
      options.max_session_queue =
          static_cast<size_t>(std::atoll(next()));
    } else if (arg == "--shards") {
      const char* text = next();
      char* end = nullptr;
      errno = 0;
      const long shards = std::strtol(text, &end, 10);
      if (errno != 0 || end == text || *end != '\0' || shards < 1 ||
          shards > onesql::exec::kMaxShards) {
        Usage(argv[0]);
        return 2;
      }
      options.default_shards = static_cast<int>(shards);
    } else if (arg == "--profiling") {
      options.profiling = true;
    } else {
      Usage(argv[0]);
      return arg == "--help" || arg == "-h" ? 0 : 2;
    }
  }

  auto core = onesql::server::ServerCore::Create(options);
  if (!core.ok()) {
    std::fprintf(stderr, "cannot start server: %s\n",
                 core.status().ToString().c_str());
    return 1;
  }
  std::shared_ptr<onesql::server::ServerCore> shared =
      std::move(core).value();
  auto server = onesql::server::TcpServer::Start(shared, port);
  if (!server.ok()) {
    std::fprintf(stderr, "cannot bind 127.0.0.1:%d: %s\n", port,
                 server.status().ToString().c_str());
    return 1;
  }
  std::printf("onesql_serve listening on 127.0.0.1:%d%s\n",
              server.value()->port(),
              options.durable_dir.empty()
                  ? ""
                  : (" (durable: " + options.durable_dir + ")").c_str());
  std::fflush(stdout);

  // Park until SIGINT/SIGTERM, then stop cleanly (joins all threads).
  sigset_t set;
  sigemptyset(&set);
  sigaddset(&set, SIGINT);
  sigaddset(&set, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &set, nullptr);
  int sig = 0;
  sigwait(&set, &sig);
  std::printf("signal %d: shutting down\n", sig);
  server.value()->Stop();
  return 0;
}
