// Standalone differential-fuzzing driver (DESIGN.md §12). Sweeps a fixed
// seed range through the five-oracle harness — interleaving the
// batch-boundary stress templates every Nth seed — minimizes every failure,
// and writes the shrunk reproducer as a corpus file so it replays forever
// in the tier-1 suite. Run under ASan/UBSan from ci.sh's fuzz leg.
//
//   fuzz_driver --seed-start=1 --seed-count=10000 --budget-seconds=300
//               --corpus-out=tests/fuzz/corpus [--corpus=dir]
//               [--wal-every=16] [--boundary-every=5]

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "testing/corpus.h"
#include "testing/minimizer.h"
#include "testing/oracles.h"

namespace {

using onesql::testing::BoundaryTemplateToString;
using onesql::testing::CaseOutcome;
using onesql::testing::FuzzCase;
using onesql::testing::GenerateBoundaryCase;
using onesql::testing::GenerateCase;
using onesql::testing::kAllBoundaryTemplates;
using onesql::testing::LoadCorpusDir;
using onesql::testing::MinimizeCase;
using onesql::testing::OracleOptions;
using onesql::testing::RunCase;
using onesql::testing::SerializeCase;
using onesql::testing::WriteCaseFile;

struct Args {
  uint64_t seed_start = 1;
  uint64_t seed_count = 1000;
  double budget_seconds = 0;  // 0: no wall-clock limit
  int wal_every = 16;         // every Nth seed runs the crash oracle w/ WAL
  int boundary_every = 5;     // every Nth seed adds one boundary-template
                              // case (rotating through the templates)
  std::string corpus_out;
  std::string corpus_replay;
  std::string temp_dir;
};

bool ParseArg(const char* arg, const char* name, std::string* out) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *out = arg + len + 1;
  return true;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (ParseArg(argv[i], "--seed-start", &value)) {
      args->seed_start = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseArg(argv[i], "--seed-count", &value)) {
      args->seed_count = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseArg(argv[i], "--budget-seconds", &value)) {
      args->budget_seconds = std::strtod(value.c_str(), nullptr);
    } else if (ParseArg(argv[i], "--wal-every", &value)) {
      args->wal_every = std::atoi(value.c_str());
    } else if (ParseArg(argv[i], "--boundary-every", &value)) {
      args->boundary_every = std::atoi(value.c_str());
    } else if (ParseArg(argv[i], "--corpus-out", &value)) {
      args->corpus_out = value;
    } else if (ParseArg(argv[i], "--corpus", &value)) {
      args->corpus_replay = value;
    } else if (ParseArg(argv[i], "--temp-dir", &value)) {
      args->temp_dir = value;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return false;
    }
  }
  return true;
}

/// Reports one failing case: the verbatim seed (the one-line repro), the
/// oracle disagreements, and the minimized corpus rendering.
void ReportFailure(const FuzzCase& failing, const CaseOutcome& outcome,
                   const OracleOptions& opts, const std::string& corpus_out,
                   const std::string& tag = "") {
  std::printf("FUZZ FAILURE seed=%llu%s%s\n",
              static_cast<unsigned long long>(failing.seed),
              tag.empty() ? "" : " template=", tag.c_str());
  std::printf("%s", outcome.ToString().c_str());

  const FuzzCase minimized =
      MinimizeCase(failing, [&opts](const FuzzCase& candidate) {
        auto result = RunCase(candidate, opts);
        return result.ok() && !result->ok();
      });
  std::printf("minimized to %zu events, %zu queries:\n%s",
              minimized.events.size(), minimized.queries.size(),
              SerializeCase(minimized).c_str());
  if (!corpus_out.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(corpus_out, ec);
    const std::string path = corpus_out + "/seed_" +
                             std::to_string(failing.seed) +
                             (tag.empty() ? "" : "_" + tag) + ".case";
    const auto written = WriteCaseFile(minimized, path);
    if (written.ok()) {
      std::printf("reproducer written to %s\n", path.c_str());
    } else {
      std::printf("FAILED to write reproducer: %s\n",
                  written.ToString().c_str());
    }
  }
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 2;

  if (args.temp_dir.empty()) {
    std::error_code ec;
    args.temp_dir = (std::filesystem::temp_directory_path(ec) /
                     ("onesql_fuzz_" + std::to_string(getpid())))
                        .string();
  }
  std::error_code ec;
  std::filesystem::create_directories(args.temp_dir, ec);

  OracleOptions opts;
  opts.temp_dir = args.temp_dir;

  int failures = 0;
  uint64_t ran = 0;
  const auto start = std::chrono::steady_clock::now();
  auto elapsed = [&start] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };

  if (!args.corpus_replay.empty()) {
    auto corpus = LoadCorpusDir(args.corpus_replay);
    if (!corpus.ok()) {
      std::fprintf(stderr, "corpus load failed: %s\n",
                   corpus.status().ToString().c_str());
      return 2;
    }
    for (const auto& [path, fuzz] : *corpus) {
      auto outcome = RunCase(fuzz, opts);
      ++ran;
      if (!outcome.ok()) {
        std::printf("CORPUS HARNESS ERROR %s: %s\n", path.c_str(),
                    outcome.status().ToString().c_str());
        ++failures;
      } else if (!outcome->ok()) {
        std::printf("CORPUS FAILURE %s\n%s", path.c_str(),
                    outcome->ToString().c_str());
        ++failures;
      }
    }
    std::printf("corpus replay: %llu cases, %d failures\n",
                static_cast<unsigned long long>(ran), failures);
  }

  bool out_of_budget = false;
  uint64_t seed = args.seed_start;
  for (; seed < args.seed_start + args.seed_count; ++seed) {
    if (args.budget_seconds > 0 && elapsed() > args.budget_seconds) {
      out_of_budget = true;
      break;
    }
    const FuzzCase fuzz = GenerateCase(seed);
    OracleOptions case_opts = opts;
    case_opts.crash_use_wal =
        args.wal_every > 0 &&
        seed % static_cast<uint64_t>(args.wal_every) == 0;
    auto outcome = RunCase(fuzz, case_opts);
    ++ran;
    if (!outcome.ok()) {
      std::printf("HARNESS ERROR seed=%llu: %s\n",
                  static_cast<unsigned long long>(seed),
                  outcome.status().ToString().c_str());
      ++failures;
      continue;
    }
    if (!outcome->ok()) {
      ReportFailure(fuzz, *outcome, case_opts, args.corpus_out);
      ++failures;
    }
    // Interleave the batch-boundary stress templates (DESIGN.md §14):
    // every Nth seed also runs one template case, rotating through the
    // families so a long sweep covers each at many seeds.
    if (args.boundary_every > 0 &&
        seed % static_cast<uint64_t>(args.boundary_every) == 0) {
      const auto t = kAllBoundaryTemplates
          [(seed / static_cast<uint64_t>(args.boundary_every)) %
           (sizeof(kAllBoundaryTemplates) / sizeof(kAllBoundaryTemplates[0]))];
      const FuzzCase boundary = GenerateBoundaryCase(seed, t);
      auto boundary_outcome = RunCase(boundary, case_opts);
      ++ran;
      if (!boundary_outcome.ok()) {
        std::printf("HARNESS ERROR seed=%llu template=%s: %s\n",
                    static_cast<unsigned long long>(seed),
                    BoundaryTemplateToString(t),
                    boundary_outcome.status().ToString().c_str());
        ++failures;
      } else if (!boundary_outcome->ok()) {
        ReportFailure(boundary, *boundary_outcome, case_opts, args.corpus_out,
                      BoundaryTemplateToString(t));
        ++failures;
      }
    }
    if (ran % 1000 == 0) {
      std::printf("... %llu cases, %.0f cases/sec\n",
                  static_cast<unsigned long long>(ran),
                  static_cast<double>(ran) / elapsed());
      std::fflush(stdout);
    }
  }

  std::filesystem::remove_all(args.temp_dir, ec);
  const double secs = elapsed();
  std::printf(
      "fuzz: %llu cases (seeds %llu..%llu%s), %d failures, %.1fs, "
      "%.0f cases/sec\n",
      static_cast<unsigned long long>(ran),
      static_cast<unsigned long long>(args.seed_start),
      static_cast<unsigned long long>(seed - 1),
      out_of_budget ? ", budget hit" : "", failures, secs,
      static_cast<double>(ran) / (secs > 0 ? secs : 1));
  return failures == 0 ? 0 : 1;
}
