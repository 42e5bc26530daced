#include "util.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

int64_t CpuClockNs(clockid_t clock) {
  timespec t{};
  if (clock_gettime(clock, &t) != 0) return 0;
  return int64_t{t.tv_sec} * 1'000'000'000 + t.tv_nsec;
}

}  // namespace

int64_t ProcessCpuNs() { return CpuClockNs(CLOCK_PROCESS_CPUTIME_ID); }

int64_t ProcessCpuNs(pid_t pid) {
  clockid_t clock;
  if (clock_getcpuclockid(pid, &clock) != 0) return 0;
  return CpuClockNs(clock);
}

namespace {

/// Nearest-rank percentile of sorted samples.
double Rank(const std::vector<double>& sorted, double pct) {
  if (sorted.empty()) return 0;
  size_t idx = static_cast<size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(sorted.size())));
  idx = std::clamp<size_t>(idx, 1, sorted.size());
  return sorted[idx - 1];
}

}  // namespace

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

Tail Summarize(std::vector<double> v) {
  Tail t;
  t.n = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  t.p50 = Median(v);
  // Highest percentile with >= 10 samples beyond it, capped at p99.
  double pct = 100.0 * (1.0 - 10.0 / static_cast<double>(v.size()));
  pct = std::clamp(pct, 50.0, 99.0);
  t.tail_pct = pct;
  t.tail = Rank(v, pct);
  return t;
}

namespace {

std::vector<double> CallMedians(
    const std::vector<std::vector<double>>& series) {
  size_t calls = 0;
  for (const auto& e : series) calls = std::max(calls, e.size());
  std::vector<double> per_call;
  for (size_t i = 0; i < calls; ++i) {
    std::vector<double> v;
    for (const auto& e : series) {
      if (i < e.size() && !std::isnan(e[i])) v.push_back(e[i]);
    }
    if (!v.empty()) per_call.push_back(Median(std::move(v)));
  }
  return per_call;
}

}  // namespace

Tail SummarizeCalls(const std::vector<std::vector<double>>& series) {
  return Summarize(CallMedians(series));
}

double SumOfCallMedians(const std::vector<std::vector<double>>& series) {
  double sum = 0;
  for (double v : CallMedians(series)) sum += v;
  return sum;
}

std::string Join(const std::vector<double>& values, const char* fmt) {
  std::string out;
  char buf[64];
  for (double v : values) {
    std::snprintf(buf, sizeof(buf), fmt, v);
    out += (out.empty() ? "" : " ") + std::string(buf);
  }
  return out;
}

double PeakRssMb(pid_t pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

void RemoveTree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

void MakeDirs(const std::string& path) {
  std::error_code ec;
  std::filesystem::create_directories(path, ec);
}

double FileMb(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return ec ? 0.0 : static_cast<double>(size) / (1024.0 * 1024.0);
}

// -- Report ------------------------------------------------------------------

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, {value, unit}});
}

void Report::Note(const std::string& line) { notes_.push_back(line); }

void Report::Op(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    if (!what.empty()) notes_.push_back("FAILED: " + what);
  }
}

void Report::Check(bool ok, const std::string& what) {
  Op(ok, "check " + what);
  if (!ok) correct_ = false;
  notes_.push_back(std::string(ok ? "check ok: " : "CHECK FAILED: ") + what);
}

std::string Report::Print() const {
  for (const std::string& n : notes_) std::printf("%s\n", n.c_str());
  std::printf("error_rate = %.6g (%llu failed / %llu attempted)\n",
              attempted_ == 0 ? 0.0
                              : static_cast<double>(failed_) /
                                    static_cast<double>(attempted_),
              static_cast<unsigned long long>(failed_),
              static_cast<unsigned long long>(attempted_));
  std::ostringstream json;
  json.precision(17);
  json << "{\"correct\": " << (correct() ? "true" : "false")
       << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
       << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : metrics_) {
    std::printf("%-36s %14.6g %s\n", name.c_str(), vu.first,
                vu.second.c_str());
    double v = vu.first;
    if (!std::isfinite(v)) v = 0;
    json << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << v
         << ", \"unit\": \"" << vu.second << "\"}";
    first = false;
  }
  json << "}}";
  return json.str();
}

// -- Tracer ------------------------------------------------------------------

int Tracer::Begin(std::string name) {
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(Span{std::move(name), NowNs(), 0, parent, batch_});
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Tracer::End(int span) {
  spans_[static_cast<size_t>(span)].end_ns = NowNs();
  if (!open_.empty() && open_.back() == span) open_.pop_back();
}

std::map<std::string, Tracer::Agg> Tracer::Aggregate() const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, Agg> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    Agg& a = out[s.name];
    ++a.count;
    a.total_ns += s.end_ns - s.start_ns;
    a.self_ns += s.end_ns - s.start_ns - child_ns[i];
  }
  return out;
}

std::string Tracer::ChromeJson() const {
  std::ostringstream out;
  out << "[";
  const int64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                  "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,"
                  "\"args\":{\"id\":%zu,\"parent\":%d,\"batch\":%llu}}",
                  i == 0 ? "" : ",\n", s.name.c_str(),
                  static_cast<double>(s.start_ns - base) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                  s.parent, static_cast<unsigned long long>(s.batch));
    out << buf;
  }
  out << "]\n";
  return out.str();
}

// -- Fold --------------------------------------------------------------------

void Fold::Apply(const onesql::exec::Emission& e) {
  ApplyKey(onesql::RowToString(e.row), e.undo);
}

void Fold::ApplyKey(const std::string& key, bool undo) {
  int64_t& n = bag_[key];
  n += undo ? -1 : 1;
  if (n < 0) underflow_ = true;
  if (n == 0) bag_.erase(key);
}

std::unordered_map<std::string, int64_t> BagOf(
    const std::vector<onesql::Row>& rows) {
  std::unordered_map<std::string, int64_t> bag;
  for (const onesql::Row& r : rows) ++bag[onesql::RowToString(r)];
  return bag;
}

uint64_t DigestEmissions(const std::vector<onesql::exec::Emission>& es) {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  };
  for (const auto& e : es) {
    mix(onesql::HashRow(e.row));
    mix(e.undo ? 1 : 0);
    mix(static_cast<uint64_t>(e.ptime.millis()));
    mix(static_cast<uint64_t>(e.ver));
  }
  mix(es.size());
  return h;
}

// -- Machine -----------------------------------------------------------------

namespace {

/// Iterations of a dependent integer loop one thread completes in `ms`.
uint64_t SpinFor(int ms) {
  const int64_t end = NowNs() + static_cast<int64_t>(ms) * 1000000;
  uint64_t x = 88172645463325252ULL;
  uint64_t iters = 0;
  while (NowNs() < end) {
    for (int i = 0; i < 4096; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    ++iters;
  }
  if (x == 42) std::printf(" ");  // keep the loop observable
  return iters;
}

}  // namespace

Machine ProbeMachine(const std::string& state_dir) {
  Machine m;
  m.nproc = std::max(1u, std::thread::hardware_concurrency());
  // Effective cores: total spin work of nproc threads over one thread's
  // (after a warm-up, so frequency ramps do not inflate the ratio).
  SpinFor(50);
  const uint64_t one = std::max({SpinFor(60), SpinFor(60), SpinFor(60)});
  std::vector<uint64_t> counts(m.nproc, 0);
  {
    std::vector<std::thread> threads;
    for (unsigned i = 0; i < m.nproc; ++i) {
      threads.emplace_back([&counts, i] { counts[i] = SpinFor(60); });
    }
    for (auto& t : threads) t.join();
  }
  uint64_t total = 0;
  for (uint64_t c : counts) total += c;
  m.effective_cores =
      one == 0 ? 0 : static_cast<double>(total) / static_cast<double>(one);

  // fsync latency of a 4 KiB append on the benchmark's state directory.
  MakeDirs(state_dir);
  const std::string path = state_dir + "/fsync_probe";
  std::vector<double> us;
  const int fd = ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd >= 0) {
    const std::string block(4096, 'x');
    for (int i = 0; i < 200; ++i) {
      if (::write(fd, block.data(), block.size()) < 0) break;
      const int64_t t0 = NowNs();
      if (::fsync(fd) != 0) break;
      us.push_back(NsToUs(NowNs() - t0));
    }
    ::close(fd);
  }
  ::unlink(path.c_str());
  const Tail t = Summarize(us);
  m.fsync_p50_us = t.p50;
  m.fsync_tail_us = t.tail;
  m.fsync_tail_pct = t.tail_pct;

  m.compiler = "g++ " __VERSION__;
#ifdef PERFBENCH_BUILD_TYPE
  m.build_type = PERFBENCH_BUILD_TYPE;
#endif
#if defined(__OPTIMIZE__)
  m.optimized = true;
#endif
  return m;
}

std::string Machine::ToJson() const {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"nproc\": %u, \"effective_cores\": %.2f, "
                "\"fsync_p50_us\": %.1f, \"fsync_p%.0f_us\": %.1f, "
                "\"compiler\": \"%s\", \"build_type\": \"%s\", "
                "\"optimized\": %s}",
                nproc, effective_cores, fsync_p50_us, fsync_tail_pct,
                fsync_tail_us, compiler.c_str(), build_type.c_str(),
                optimized ? "true" : "false");
  return buf;
}

}  // namespace perfbench
