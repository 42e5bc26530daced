// perfbench: the engine's end-to-end benchmark. Usually started through
// run.py, which builds it; see README.md for the workloads and metrics.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --build-dir <dir> --server-bin <path>
//   perfbench --self-test --build-dir <dir> --server-bin <path>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "workloads.h"

namespace {

using perfbench::Report;
using perfbench::RunConfig;
using perfbench::Workload;

void Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> --build-dir <dir> --server-bin <path>\n"
               "       perfbench --self-test --build-dir <dir> --server-bin "
               "<path>\n");
}

void Dispatch(const Workload& w, bool trace, const RunConfig& cfg,
              Report* report) {
  if (trace) {
    perfbench::RunLayers(w, cfg, report);
  } else if (w.name == "nexmark-serve") {
    perfbench::RunServe(w, cfg, report);
  } else {
    perfbench::RunInProcess(w, cfg, report);
  }
}

/// Every output check must pass on a clean run and fail when its expected
/// result is corrupted.
int SelfTest(const RunConfig& base) {
  int bad = 0;
  for (const std::string& name : perfbench::WorkloadNames()) {
    Workload w;
    perfbench::MakeWorkload(name, 7, 0.05, &w);
    for (bool corrupt : {false, true}) {
      RunConfig cfg = base;
      cfg.seconds = 0;  // one epoch
      cfg.corrupt_expected = corrupt;
      cfg.work_dir = base.work_dir + "/" + name;
      Report report;
      Dispatch(w, false, cfg, &report);
      const bool as_expected = report.correct() == !corrupt;
      std::printf("self-test %-18s %-9s -> correct=%s (%llu checks/ops, "
                  "%llu failed) %s\n",
                  name.c_str(), corrupt ? "corrupted" : "clean",
                  report.correct() ? "true" : "false",
                  static_cast<unsigned long long>(report.attempted()),
                  static_cast<unsigned long long>(report.failed()),
                  as_expected ? "ok" : "UNEXPECTED");
      if (!as_expected) ++bad;
    }
  }
  std::printf("self-test: %s\n", bad == 0 ? "passed" : "FAILED");
  return bad == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string build_dir;
  RunConfig cfg;
  uint32_t seed = 1;
  bool trace = false;
  bool self_test = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--self-test") {
      self_test = true;
    } else if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      seed = static_cast<uint32_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--seconds" && has_value) {
      cfg.seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      trace = std::string(argv[++i]) == "1";
    } else if (arg == "--build-dir" && has_value) {
      build_dir = argv[++i];
    } else if (arg == "--server-bin" && has_value) {
      cfg.server_bin = argv[++i];
    } else {
      Usage();
      return 2;
    }
  }
  if (build_dir.empty() || cfg.server_bin.empty() ||
      (!self_test && workload.empty())) {
    Usage();
    return 2;
  }

  const perfbench::Machine machine =
      perfbench::ProbeMachine(build_dir + "/state");
  std::printf("machine: %s\n", machine.ToJson().c_str());
  if (!machine.optimized) {
    std::fprintf(stderr,
                 "perfbench: refusing to record numbers from an unoptimized "
                 "build (build type '%s')\n",
                 machine.build_type.c_str());
    return 3;
  }

  const std::string tag = std::to_string(::getpid());
  cfg.work_dir = build_dir + "/run/" + tag;
  if (self_test) {
    const int rc = SelfTest(cfg);
    perfbench::RemoveTree(cfg.work_dir);
    return rc;
  }

  Workload w;
  if (!perfbench::MakeWorkload(workload, seed, 1.0, &w)) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 workload.c_str());
    return 2;
  }
  const std::string run_name =
      workload + "-seed" + std::to_string(seed) + (trace ? "-trace" : "");
  perfbench::MakeDirs(build_dir + "/traces");
  cfg.trace_path = build_dir + "/traces/" + run_name + ".json";
  std::printf("workload %s seed %u seconds %g trace %d: %zu events\n",
              workload.c_str(), seed, cfg.seconds, trace ? 1 : 0, w.events);

  cfg.seed = seed;
  Report report;
  Dispatch(w, trace, cfg, &report);
  perfbench::RemoveTree(cfg.work_dir);

  const std::string json = report.Print();
  perfbench::MakeDirs(build_dir + "/results");
  std::ofstream(build_dir + "/results/" + run_name + ".json")
      << "{\"machine\": " << machine.ToJson() << ", \"result\": " << json
      << "}\n";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}
