#ifndef ONESQL_EXEC_OPERATOR_H_
#define ONESQL_EXEC_OPERATOR_H_

#include <algorithm>
#include <vector>

#include "common/changelog.h"
#include "common/result.h"
#include "common/row.h"
#include "obs/instruments.h"
#include "state/serde.h"

namespace onesql {
namespace exec {

/// Base class for push-based dataflow operators. Each operator consumes a
/// changelog (INSERT/DELETE changes interleaved with watermark advances) on
/// one or more input ports and produces a changelog on its single output.
///
/// This is the execution model of Appendix B.2.3: "a mechanism to encode and
/// propagate arbitrary changes of input, intermediate, or result relations"
/// plus "implementations for relational operators that consume changing
/// input relations and update their output relation correspondingly".
class Operator {
 public:
  virtual ~Operator() = default;

  /// Wires this operator's output into `out` at `port`.
  void SetOutput(Operator* out, int port) {
    out_ = out;
    out_port_ = port;
  }

  /// Processes one changelog entry arriving on `port`. Non-virtual counting
  /// dispatcher: bumps rows_in when instruments are attached (one pointer
  /// test when they are not — the off-by-default fast path), then delegates
  /// to the subclass's ProcessElement. Deliberately not virtual so the
  /// per-operator accounting cannot be forgotten by an override, and so
  /// checkpoints see the exact same operator chain with or without metrics.
  Status OnElement(int port, const Change& change) {
    if (metrics_ != nullptr) metrics_->rows_in->Increment();
    if (profile_ == nullptr) return ProcessElement(port, change);
    return Sampled([&] { return ProcessElement(port, change); });
  }

  /// Processes a watermark advance on `port`. Watermarks are monotonic per
  /// port; multi-input operators forward the minimum across ports. Watermark
  /// work (pane firing, state expiry) shares the sampled wall-time histogram.
  Status OnWatermark(int port, Timestamp watermark, Timestamp ptime) {
    if (profile_ == nullptr) return ProcessWatermark(port, watermark, ptime);
    return Sampled([&] { return ProcessWatermark(port, watermark, ptime); });
  }

  /// Short stable operator-kind name, used as the `op` metric label.
  virtual const char* Name() const = 0;

  /// Attaches per-operator instruments (nullptr detaches — the default).
  void AttachMetrics(const obs::OperatorMetrics* metrics) {
    metrics_ = metrics;
  }
  const obs::OperatorMetrics* metrics() const { return metrics_; }

  /// Attaches the profiling bundle (nullptr detaches — the default). The
  /// wall-clock timer fires every obs::kProfileSampleEvery-th dispatch per
  /// instance, so the timing cost amortizes to ~two clock reads / N.
  /// Operator instances are single-threaded, so the tick is a plain int.
  void AttachProfile(const obs::OperatorProfileMetrics* profile) {
    profile_ = profile;
    profile_tick_ = 0;
  }
  const obs::OperatorProfileMetrics* profile() const { return profile_; }

  /// Approximate bytes of operator state (for the state-size benchmarks).
  virtual size_t StateBytes() const { return 0; }

  /// Serializes this operator's state into `w` using the canonical encoding
  /// of state/serde.h (keyed containers in deterministic key order). The
  /// default writes nothing — the contract for stateless operators.
  virtual Status SaveState(state::Writer* w) const {
    (void)w;
    return Status::OK();
  }

  /// Loads state saved by SaveState from `r`, once, into a freshly built
  /// operator. The default expects an empty section (stateless operator)
  /// and fails with DataLoss otherwise, so format drift is caught instead
  /// of silently skipped.
  virtual Status LoadState(state::Reader* r) { return r->ExpectEnd(); }

 protected:
  /// The virtual hooks subclasses implement (see OnElement/OnWatermark).
  virtual Status ProcessElement(int port, const Change& change) = 0;
  virtual Status ProcessWatermark(int port, Timestamp watermark,
                                  Timestamp ptime) = 0;

  Status EmitElement(const Change& change) {
    if (metrics_ != nullptr) metrics_->rows_out->Increment();
    return out_ != nullptr ? out_->OnElement(out_port_, change) : Status::OK();
  }
  Status EmitWatermark(Timestamp watermark, Timestamp ptime) {
    return out_ != nullptr ? out_->OnWatermark(out_port_, watermark, ptime)
                           : Status::OK();
  }

  /// Bumps the per-operator late-drop counter (Aggregate/Session call this
  /// alongside their own late_drops_ state counters).
  void CountLateDrop() {
    if (metrics_ != nullptr) metrics_->late_drops->Increment();
  }

 private:
  /// Runs `process`, timing every obs::kProfileSampleEvery-th dispatch of
  /// this instance into wall_us.
  template <typename Process>
  Status Sampled(Process process) {
    if (++profile_tick_ < obs::kProfileSampleEvery) return process();
    profile_tick_ = 0;
    const uint64_t t0 = obs::TraceRecorder::NowMicros();
    Status status = process();
    profile_->wall_us->Record(obs::TraceRecorder::NowMicros() - t0);
    return status;
  }

  Operator* out_ = nullptr;
  int out_port_ = 0;
  const obs::OperatorMetrics* metrics_ = nullptr;
  const obs::OperatorProfileMetrics* profile_ = nullptr;
  int profile_tick_ = 0;
};

/// Helper for operators with `n` input ports: tracks per-port watermarks and
/// reports when the combined (minimum) watermark advances.
class WatermarkMerger {
 public:
  explicit WatermarkMerger(int ports)
      : marks_(ports, Timestamp::Min()), combined_(Timestamp::Min()) {}

  /// Updates `port` and returns true if the combined watermark advanced.
  bool Update(int port, Timestamp watermark) {
    if (watermark > marks_[port]) marks_[port] = watermark;
    Timestamp min = marks_[0];
    for (const Timestamp& m : marks_) {
      if (m < min) min = m;
    }
    if (min > combined_) {
      combined_ = min;
      return true;
    }
    return false;
  }

  Timestamp combined() const { return combined_; }

  /// Canonical serialization: per-port marks then the combined minimum.
  void SaveState(state::Writer* w) const {
    w->PutVarint(marks_.size());
    for (Timestamp m : marks_) w->PutTimestamp(m);
    w->PutTimestamp(combined_);
  }

  /// Loads saved marks into a fresh merger with the same port count.
  Status LoadState(state::Reader* r) {
    ONESQL_ASSIGN_OR_RETURN(uint64_t ports, r->ReadVarint());
    if (ports != marks_.size()) {
      return Status::DataLoss("checkpointed watermark merger has " +
                              std::to_string(ports) + " ports, operator has " +
                              std::to_string(marks_.size()));
    }
    for (Timestamp& m : marks_) {
      ONESQL_ASSIGN_OR_RETURN(m, r->ReadTimestamp());
    }
    ONESQL_ASSIGN_OR_RETURN(combined_, r->ReadTimestamp());
    return Status::OK();
  }

 private:
  std::vector<Timestamp> marks_;
  Timestamp combined_;
};

}  // namespace exec
}  // namespace onesql

#endif  // ONESQL_EXEC_OPERATOR_H_
