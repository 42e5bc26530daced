#ifndef ONESQL_OBS_METRICS_H_
#define ONESQL_OBS_METRICS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace onesql {
namespace obs {

/// Label set attached to an instrument, e.g. {{"query","q0"},{"op","agg"}}.
/// Stored sorted by key so the same set always renders the same way.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Canonical `{k="v",k2="v2"}` rendering (empty string for no labels).
std::string RenderLabels(const Labels& labels);

/// A monotonically increasing counter. The hot path (Add) is sharded across
/// cache-line-aligned atomic slots indexed by a thread-local slot id, so
/// concurrent writers (feeders, the WAL appender, server threads) bumping
/// the same logical counter never contend on one cache line. Value() sums the slots (monotone but not atomic as a
/// whole — exact once writers are quiescent, which is when snapshots are
/// taken).
class Counter {
 public:
  static constexpr size_t kSlots = 16;

  void Add(uint64_t delta) {
    slots_[SlotIndex()].v.fetch_add(delta, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }

  uint64_t Value() const {
    uint64_t total = 0;
    for (const Slot& s : slots_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }

 private:
  struct alignas(64) Slot {
    std::atomic<uint64_t> v{0};
  };
  static size_t SlotIndex();
  Slot slots_[kSlots];
};

/// A last-write-wins instantaneous value (state bytes, queue depth,
/// watermark lag). Signed: gauges may legitimately go negative.
class Gauge {
 public:
  void Set(int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void Add(int64_t delta) { v_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t Value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

/// Aggregated histogram contents, detached from the live atomics: bucket i
/// counts recorded values v with BucketOf(v) == i, i.e. bucket 0 holds v == 0
/// and bucket i >= 1 holds 2^(i-1) <= v < 2^i. `sum` is the exact sum of all
/// recorded values.
struct HistogramData {
  static constexpr size_t kBuckets = 64;

  uint64_t counts[kBuckets] = {0};
  uint64_t sum = 0;

  uint64_t TotalCount() const;

  /// Upper edge of bucket `i` (the Prometheus `le` boundary): 0 for bucket 0,
  /// otherwise 2^i - 1 ... represented as 2^i's predecessor; we use the
  /// inclusive upper bound 2^i - 1 so `le` boundaries are exact integers.
  static uint64_t BucketUpperBound(size_t i);

  /// Value below which `pct` percent (0..100) of recorded samples fall,
  /// resolved to the containing bucket's upper bound. 0 when empty.
  uint64_t Percentile(double pct) const;

  void Merge(const HistogramData& other);
};

/// A fixed-layout exponential histogram for non-negative integer samples
/// (latencies in ms/us, sizes in bytes). 64 power-of-two buckets cover the
/// full uint64 range with no configuration; Record is two relaxed atomic
/// adds, so the hot path is lock-free and allocation-free.
class Histogram {
 public:
  static constexpr size_t kBuckets = HistogramData::kBuckets;

  /// Bucket index for value `v`: 0 for v == 0, else bit_width(v) (1..63).
  static size_t BucketOf(uint64_t v) {
    if (v == 0) return 0;
    size_t width = 64 - static_cast<size_t>(__builtin_clzll(v));
    return width > kBuckets - 1 ? kBuckets - 1 : width;
  }

  void Record(uint64_t v) { RecordMany(v, 1); }

  /// Records `n` samples of value `v` at once.
  void RecordMany(uint64_t v, uint64_t n) {
    counts_[BucketOf(v)].fetch_add(n, std::memory_order_relaxed);
    sum_.fetch_add(v * n, std::memory_order_relaxed);
  }

  HistogramData Data() const {
    HistogramData d;
    for (size_t i = 0; i < kBuckets; ++i) {
      d.counts[i] = counts_[i].load(std::memory_order_relaxed);
    }
    d.sum = sum_.load(std::memory_order_relaxed);
    return d;
  }

 private:
  std::atomic<uint64_t> counts_[kBuckets] = {};
  std::atomic<uint64_t> sum_{0};
};

// -- Snapshot ---------------------------------------------------------------

struct CounterSample {
  std::string name;
  Labels labels;
  uint64_t value = 0;
};

struct GaugeSample {
  std::string name;
  Labels labels;
  int64_t value = 0;
};

struct HistogramSample {
  std::string name;
  Labels labels;
  HistogramData data;
};

/// A point-in-time copy of every registered instrument, sorted by
/// (name, labels) so renderings are deterministic. This is the typed struct
/// `Engine::MetricsSnapshot()` returns; the exposition formats (Prometheus
/// text, JSON) are derived from it and carry exactly the same values.
struct MetricsSnapshot {
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;

  /// Lookup helpers; a missing instrument reads as 0 / nullptr.
  uint64_t CounterValue(std::string_view name, const Labels& labels = {}) const;
  int64_t GaugeValue(std::string_view name, const Labels& labels = {}) const;
  const HistogramData* HistogramOf(std::string_view name,
                                   const Labels& labels = {}) const;

  /// Prometheus text exposition format (one # TYPE line per metric family;
  /// histograms render cumulative `_bucket{le=...}` series plus _sum/_count).
  std::string ToPrometheus() const;

  /// JSON rendering with the same values: {"counters":[...],"gauges":[...],
  /// "histograms":[...]}.
  std::string ToJson() const;
};

// -- Registry ---------------------------------------------------------------

/// Owns every instrument. Get* registers on first use and returns the same
/// pointer for the same (name, labels) afterwards, so independent components
/// (e.g. a query and its rebuild after Restore) share one instrument.
/// Registration takes a mutex; the returned instruments are the lock-free
/// hot path. Instruments live as long as the registry.
class MetricsRegistry {
 public:
  Counter* GetCounter(const std::string& name, const Labels& labels = {});
  Gauge* GetGauge(const std::string& name, const Labels& labels = {});
  Histogram* GetHistogram(const std::string& name, const Labels& labels = {});

  MetricsSnapshot Snapshot() const;

 private:
  template <typename T>
  struct Entry {
    std::string name;
    Labels labels;
    std::unique_ptr<T> instrument;
  };

  template <typename T>
  static T* GetOrCreate(std::vector<Entry<T>>* entries, const std::string& name,
                        const Labels& labels);

  mutable std::mutex mu_;
  std::vector<Entry<Counter>> counters_;
  std::vector<Entry<Gauge>> gauges_;
  std::vector<Entry<Histogram>> histograms_;
};

}  // namespace obs
}  // namespace onesql

#endif  // ONESQL_OBS_METRICS_H_
