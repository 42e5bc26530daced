#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

namespace onesql {
namespace obs {

namespace {

bool LabelsEqual(const Labels& a, const Labels& b) { return a == b; }

Labels SortedLabels(Labels labels) {
  std::sort(labels.begin(), labels.end());
  return labels;
}

}  // namespace

std::string RenderLabels(const Labels& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ",";
    first = false;
    out += k;
    out += "=\"";
    for (char c : v) {  // escape per the Prometheus text format
      if (c == '\\' || c == '"') out += '\\';
      if (c == '\n') {
        out += "\\n";
        continue;
      }
      out += c;
    }
    out += "\"";
  }
  out += "}";
  return out;
}

uint64_t HistogramData::TotalCount() const {
  uint64_t total = 0;
  for (uint64_t c : counts) total += c;
  return total;
}

uint64_t HistogramData::BucketUpperBound(size_t i) {
  if (i == 0) return 0;
  if (i >= kBuckets - 1) return std::numeric_limits<uint64_t>::max();
  return (uint64_t{1} << i) - 1;
}

uint64_t HistogramData::Percentile(double pct) const {
  uint64_t total = TotalCount();
  if (total == 0) return 0;
  if (pct < 0) pct = 0;
  if (pct > 100) pct = 100;
  // Rank of the target sample, 1-based: ceil(pct/100 * total), at least 1.
  uint64_t rank = static_cast<uint64_t>(
      std::ceil(pct / 100.0 * static_cast<double>(total)));
  if (rank == 0) rank = 1;
  uint64_t cumulative = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    cumulative += counts[i];
    if (cumulative >= rank) return BucketUpperBound(i);
  }
  return BucketUpperBound(kBuckets - 1);
}

void HistogramData::Merge(const HistogramData& other) {
  for (size_t i = 0; i < kBuckets; ++i) counts[i] += other.counts[i];
  sum += other.sum;
}

template <typename T>
T* MetricsRegistry::GetOrCreate(std::vector<Entry<T>>* entries,
                                const std::string& name, const Labels& labels) {
  Labels sorted = SortedLabels(labels);
  for (Entry<T>& e : *entries) {
    if (e.name == name && LabelsEqual(e.labels, sorted)) {
      return e.instrument.get();
    }
  }
  entries->push_back(Entry<T>{name, std::move(sorted), std::make_unique<T>()});
  return entries->back().instrument.get();
}

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     const Labels& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  return GetOrCreate(&counters_, name, labels);
}

Gauge* MetricsRegistry::GetGauge(const std::string& name,
                                 const Labels& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  return GetOrCreate(&gauges_, name, labels);
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         const Labels& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  return GetOrCreate(&histograms_, name, labels);
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snap;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Entry<Counter>& e : counters_) {
      snap.counters.push_back({e.name, e.labels, e.instrument->Value()});
    }
    for (const Entry<Gauge>& e : gauges_) {
      snap.gauges.push_back({e.name, e.labels, e.instrument->Value()});
    }
    for (const Entry<Histogram>& e : histograms_) {
      snap.histograms.push_back({e.name, e.labels, e.instrument->Data()});
    }
  }
  auto by_name_labels = [](const auto& a, const auto& b) {
    if (a.name != b.name) return a.name < b.name;
    return RenderLabels(a.labels) < RenderLabels(b.labels);
  };
  std::sort(snap.counters.begin(), snap.counters.end(), by_name_labels);
  std::sort(snap.gauges.begin(), snap.gauges.end(), by_name_labels);
  std::sort(snap.histograms.begin(), snap.histograms.end(), by_name_labels);
  return snap;
}

uint64_t MetricsSnapshot::CounterValue(std::string_view name,
                                       const Labels& labels) const {
  Labels sorted = SortedLabels(labels);
  for (const CounterSample& s : counters) {
    if (s.name == name && LabelsEqual(s.labels, sorted)) return s.value;
  }
  return 0;
}

int64_t MetricsSnapshot::GaugeValue(std::string_view name,
                                    const Labels& labels) const {
  Labels sorted = SortedLabels(labels);
  for (const GaugeSample& s : gauges) {
    if (s.name == name && LabelsEqual(s.labels, sorted)) return s.value;
  }
  return 0;
}

const HistogramData* MetricsSnapshot::HistogramOf(std::string_view name,
                                                  const Labels& labels) const {
  Labels sorted = SortedLabels(labels);
  for (const HistogramSample& s : histograms) {
    if (s.name == name && LabelsEqual(s.labels, sorted)) return &s.data;
  }
  return nullptr;
}

}  // namespace obs
}  // namespace onesql
