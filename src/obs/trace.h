#ifndef ONESQL_OBS_TRACE_H_
#define ONESQL_OBS_TRACE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace onesql {
namespace obs {

/// One completed span. `name` and `category` must be string literals (or
/// otherwise outlive the recorder): the ring stores the pointers, not copies,
/// so recording stays allocation-free.
struct TraceEvent {
  const char* name = nullptr;
  const char* category = nullptr;
  uint64_t ts_us = 0;   ///< Start, microseconds on the steady clock.
  uint64_t dur_us = 0;  ///< Duration in microseconds.
  uint32_t tid = 0;     ///< Recorder-assigned small thread id.
  int32_t query = -1;   ///< Query index tag, -1 when not applicable.
  int32_t shard = -1;   ///< Shard tag, -1 when not applicable.
  uint64_t aux = 0;     ///< Free-form payload (batch size, bytes, ...).
};

/// Lock-free structured tracing: each thread records completed spans into its
/// own fixed-capacity ring buffer, overwriting the oldest entries when full.
/// Recording is a handful of relaxed atomic stores plus one release store of
/// the ring head — no locks, no allocation — so it is safe from any thread
/// (feeders, the WAL appender, server threads) and TSan-clean by
/// construction. Draining (for the
/// Chrome trace dump) reads the rings with acquire loads; exact contents are
/// guaranteed when writers are quiescent, which is when dumps are taken.
class TraceRecorder {
 public:
  explicit TraceRecorder(size_t ring_capacity = 4096);
  ~TraceRecorder();

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  void Record(const TraceEvent& event);

  /// All retained events across every thread's ring, oldest first per thread.
  std::vector<TraceEvent> Drain() const;

  /// Chrome `trace_event` JSON (load via chrome://tracing or Perfetto):
  /// an array of "ph":"X" complete events with query/shard/aux args.
  std::string DumpChromeJson() const;

  /// Total events recorded (including ones overwritten in the rings).
  uint64_t recorded() const {
    return recorded_.load(std::memory_order_relaxed);
  }

  /// Spans lost to ring wraparound: each Record() into a full ring overwrites
  /// the oldest retained span, and that overwrite is counted here. Exposed in
  /// both expositions (gauge) and in the Chrome trace dump metadata so a
  /// truncated profile is visible instead of silently partial.
  uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Microseconds on the steady clock (the span timebase).
  static uint64_t NowMicros();

 private:
  struct Slot {
    std::atomic<const char*> name{nullptr};
    std::atomic<const char*> category{nullptr};
    std::atomic<uint64_t> ts_us{0};
    std::atomic<uint64_t> dur_us{0};
    std::atomic<uint64_t> aux{0};
    std::atomic<int32_t> query{-1};
    std::atomic<int32_t> shard{-1};
  };

  struct Ring {
    explicit Ring(size_t capacity) : slots(capacity) {}
    std::atomic<uint64_t> head{0};  ///< Next write position (monotonic).
    uint32_t tid = 0;
    std::vector<Slot> slots;
  };

  Ring* RingForThisThread();

  const size_t ring_capacity_;
  const uint64_t id_;  ///< Process-unique recorder id for the TLS cache.
  std::atomic<uint64_t> recorded_{0};
  std::atomic<uint64_t> dropped_{0};
  mutable std::mutex mu_;  ///< Guards ring registration only.
  std::vector<std::unique_ptr<Ring>> rings_;
};

/// RAII span: records a TraceEvent covering its own lifetime into `recorder`
/// on destruction. A null recorder makes the whole object a no-op, which is
/// the disabled-tracing fast path (one pointer test per span site).
class Span {
 public:
  Span(TraceRecorder* recorder, const char* name,
       const char* category = "engine", int32_t query = -1, int32_t shard = -1)
      : recorder_(recorder) {
    if (recorder_ == nullptr) return;
    event_.name = name;
    event_.category = category;
    event_.query = query;
    event_.shard = shard;
    event_.ts_us = TraceRecorder::NowMicros();
  }

  ~Span() {
    if (recorder_ == nullptr) return;
    event_.dur_us = TraceRecorder::NowMicros() - event_.ts_us;
    recorder_->Record(event_);
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Attaches a free-form numeric payload (batch size, bytes written, ...).
  void set_aux(uint64_t aux) { event_.aux = aux; }

 private:
  TraceRecorder* recorder_;
  TraceEvent event_;
};

}  // namespace obs
}  // namespace onesql

#endif  // ONESQL_OBS_TRACE_H_
