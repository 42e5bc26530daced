// Drives every NEXMark query through one profiled engine and writes each
// query's EXPLAIN ANALYZE renderings plus the metrics and trace dumps into
// an output directory — the input set for tools/profile_report.py and the
// ci.sh explain-analyze smoke leg.
//
// Usage: explain_nexmark <outdir> [shards] [num_events]
//        explain_nexmark --help
//
// Writes, per NEXMark query q1/q2/q3/q4/q5/q7: explain_<label>.txt and
// explain_<label>.json, where <label> is the engine's label for the query
// (q0..q5 in submission order) — the name its EXPLAIN ANALYZE header and
// its metrics carry; stdout maps each NEXMark name to its label. Also
// writes metrics.json (the registry snapshot) and trace.json (Chrome
// trace_event spans). Exits non-zero on any failure or on an
// empty/unannotated plan, so the smoke leg fails loudly.

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "engine/engine.h"
#include "nexmark/nexmark.h"
#include "obs/instruments.h"

namespace {

bool WriteFile(const std::filesystem::path& path, const std::string& body) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << body;
  out.close();
  if (!out) {
    std::fprintf(stderr, "failed to write %s\n", path.string().c_str());
    return false;
  }
  return true;
}

constexpr const char kUsage[] =
    "usage: %s <outdir> [shards] [num_events]\n"
    "  outdir      directory for the explain, metrics and trace dumps\n"
    "  shards      shard count for every query (default 1, at least 1)\n"
    "  num_events  NEXMark events to feed (default 5000, at least 1)\n";

/// Parses a whole-string decimal integer >= 1; false on anything else.
bool ParsePositive(const char* text, int* out) {
  errno = 0;
  char* end = nullptr;
  const long value = std::strtol(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || value < 1 ||
      value > 1000000000L) {
    return false;
  }
  *out = static_cast<int>(value);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0 || std::strcmp(argv[i], "-h") == 0) {
      std::printf(kUsage, argv[0]);
      return 0;
    }
  }
  if (argc < 2 || argc > 4) {
    std::fprintf(stderr, kUsage, argv[0]);
    return 2;
  }
  const std::filesystem::path outdir = argv[1];
  int shards = 1;
  int num_events = 5000;
  if (argc > 2 && !ParsePositive(argv[2], &shards)) {
    std::fprintf(stderr, "shards must be an integer >= 1, got '%s'\n",
                 argv[2]);
    return 2;
  }
  if (argc > 3 && !ParsePositive(argv[3], &num_events)) {
    std::fprintf(stderr, "num_events must be an integer >= 1, got '%s'\n",
                 argv[3]);
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(outdir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", outdir.string().c_str(),
                 ec.message().c_str());
    return 2;
  }

  using onesql::nexmark::Q1;
  using onesql::nexmark::Q2;
  using onesql::nexmark::Q3;
  using onesql::nexmark::Q4;
  using onesql::nexmark::Q5;
  using onesql::nexmark::Q7;
  const std::vector<std::pair<std::string, std::string>> queries = {
      {"q1", Q1()}, {"q2", Q2()}, {"q3", Q3()},
      {"q4", Q4()}, {"q5", Q5()}, {"q7", Q7()},
  };

  onesql::Engine engine;
  if (auto s = onesql::nexmark::RegisterNexmark(&engine); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  onesql::obs::ObsOptions obs;
  obs.metrics = true;
  obs.tracing = true;
  obs.profiling = true;
  if (auto s = engine.EnableObservability(obs); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }

  std::vector<onesql::ContinuousQuery*> running;
  for (const auto& [name, sql] : queries) {
    onesql::ExecutionOptions opts;
    opts.shards = shards;
    auto q = engine.Execute(sql, opts);
    if (!q.ok()) {
      std::fprintf(stderr, "%s: %s\n", name.c_str(),
                   q.status().ToString().c_str());
      return 1;
    }
    running.push_back(q.value());
  }

  onesql::nexmark::GeneratorConfig config;
  config.num_events = num_events;
  config.max_disorder = 10;
  config.mean_event_gap = onesql::Interval::Millis(800);
  onesql::nexmark::Generator gen(config);
  if (auto s = engine.Feed(gen.Generate()); !s.ok()) {
    std::fprintf(stderr, "feed: %s\n", s.ToString().c_str());
    return 1;
  }

  for (size_t i = 0; i < queries.size(); ++i) {
    const std::string& name = queries[i].first;
    auto analysis = engine.ExplainAnalyze(running[i]);
    if (!analysis.ok()) {
      std::fprintf(stderr, "explain %s: %s\n", name.c_str(),
                   analysis.status().ToString().c_str());
      return 1;
    }
    // "Annotated" means the text carries metric brackets and the JSON a
    // plan object — guard here so a silently empty rendering fails the run.
    if (analysis.value().text.find("[op=") == std::string::npos ||
        analysis.value().json.find("\"plan\":{") == std::string::npos) {
      std::fprintf(stderr, "explain %s: unannotated rendering\n",
                   name.c_str());
      return 1;
    }
    const std::string stem = "explain_" + analysis.value().query;
    if (!WriteFile(outdir / (stem + ".txt"), analysis.value().text) ||
        !WriteFile(outdir / (stem + ".json"), analysis.value().json)) {
      return 1;
    }
    std::printf("NEXMark %s -> %s.txt\n%s\n", name.c_str(), stem.c_str(),
                analysis.value().text.c_str());
  }

  if (!WriteFile(outdir / "metrics.json", engine.MetricsSnapshot().ToJson()) ||
      !WriteFile(outdir / "trace.json", engine.DumpTraceJson())) {
    return 1;
  }
  std::printf("wrote %zu explain renderings + metrics.json + trace.json to "
              "%s\n",
              queries.size(), outdir.string().c_str());
  return 0;
}
