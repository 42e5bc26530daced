#ifndef ONESQL_EXEC_OPERATOR_H_
#define ONESQL_EXEC_OPERATOR_H_

#include <algorithm>
#include <vector>

#include "common/changelog.h"
#include "common/result.h"
#include "common/row.h"
#include "exec/change_batch.h"
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
    ++profile_elements_;
    return Sampled([&] { return ProcessElement(port, change); });
  }

  /// Processes a whole columnar batch arriving on `port`. The counting
  /// dispatcher mirrors OnElement: rows_in advances by the batch cardinality
  /// (so per-operator row totals are exactly what the scalar path counts),
  /// then the subclass's ProcessBatch runs. The default ProcessBatch
  /// decomposes row by row, so operators without a native batch kernel stay
  /// bit-identical automatically.
  Status OnBatch(int port, const ChangeBatch& batch) {
    if (metrics_ != nullptr && batch.num_rows > 0) {
      metrics_->rows_in->Add(batch.num_rows);
    }
    if (profile_ == nullptr) return ProcessBatch(port, batch);
    profile_->batches->Increment();
    profile_->batch_size->Record(batch.num_rows);
    return Sampled([&] { return ProcessBatch(port, batch); });
  }

  /// Processes a watermark advance on `port`. Watermarks are monotonic per
  /// port; multi-input operators forward the minimum across ports. Watermark
  /// work (pane firing, state expiry) shares the sampled wall-time histogram
  /// but not the batch-size one.
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

  /// Attaches the profiling bundle (nullptr detaches — the default). Count
  /// fields (batches, batch sizes, kernel paths) are recorded on every
  /// dispatch; the wall-clock timer fires every obs::kProfileSampleEvery-th
  /// dispatch per instance, so the timing cost amortizes to ~two clock
  /// reads / N. Operator instances are single-threaded, so the tick is a
  /// plain int.
  void AttachProfile(const obs::OperatorProfileMetrics* profile) {
    profile_ = profile;
    profile_tick_ = 0;
    profile_elements_ = 0;
  }
  const obs::OperatorProfileMetrics* profile() const { return profile_; }

  /// Adds the scalar dispatches OnElement tallied since the last call to
  /// `elements` and to `batch_size` as samples of 1. The tally is a plain
  /// member, so a profiled element dispatch pays no atomics beyond rows_in;
  /// Dataflow::SampleObsGauges publishes it, with the operator idle, before
  /// every metrics snapshot.
  void PublishElementTally() {
    if (profile_ == nullptr || profile_elements_ == 0) return;
    profile_->elements->Add(profile_elements_);
    profile_->batch_size->RecordMany(1, profile_elements_);
    profile_elements_ = 0;
  }

  /// Approximate bytes of operator state (for the state-size benchmarks).
  virtual size_t StateBytes() const { return 0; }

  /// Serializes this operator's state into `w` using the canonical encoding
  /// of state/serde.h (keyed containers in deterministic key order). The
  /// default writes nothing — the contract for stateless operators.
  virtual Status SaveState(state::Writer* w) const {
    (void)w;
    return Status::OK();
  }

  /// Merges previously saved state from `r` into this operator. Called once
  /// per saved chain section (a checkpoint written by the older N-chain
  /// runtime holds N): keyed entries are disjoint across sections,
  /// watermarks merge by maximum and counters sum. The default expects an
  /// empty section (stateless operator) and fails with DataLoss otherwise,
  /// so format drift is caught instead of silently skipped.
  virtual Status LoadState(state::Reader* r) { return r->ExpectEnd(); }

 protected:
  /// The virtual hooks subclasses implement (see OnElement/OnWatermark).
  virtual Status ProcessElement(int port, const Change& change) = 0;
  virtual Status ProcessWatermark(int port, Timestamp watermark,
                                  Timestamp ptime) = 0;

  /// Batch hook. The default decomposes into per-row ProcessElement calls
  /// (not OnElement — rows_in was already counted once by OnBatch) and
  /// records the failing row's seq/ptime in the thread-local BatchFailure
  /// context on error, preserving the scalar valid-prefix contract.
  virtual Status ProcessBatch(int port, const ChangeBatch& batch) {
    Change scratch;
    for (size_t i = 0; i < batch.num_rows; ++i) {
      batch.MaterializeChange(i, &scratch);
      Status status = ProcessElement(port, scratch);
      if (!status.ok()) {
        SetBatchFailure(i < batch.seqs.size() ? batch.seqs[i] : 0,
                        batch.ptimes[i]);
        return status;
      }
    }
    return Status::OK();
  }

  Status EmitElement(const Change& change) {
    if (metrics_ != nullptr) metrics_->rows_out->Increment();
    return out_ != nullptr ? out_->OnElement(out_port_, change) : Status::OK();
  }

  /// Emits a whole batch downstream, counting its cardinality as rows_out —
  /// totals match the scalar path's per-row EmitElement counting exactly.
  Status EmitBatch(const ChangeBatch& batch) {
    if (batch.num_rows == 0) return Status::OK();
    if (metrics_ != nullptr) metrics_->rows_out->Add(batch.num_rows);
    return out_ != nullptr ? out_->OnBatch(out_port_, batch) : Status::OK();
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

 protected:
  /// Kernel-path accounting for operators with a native batch kernel
  /// (Filter/Project/Aggregate). Row-denominated: the vector/scalar decision
  /// depends only on the expression and the batch's lane kinds.
  /// `reason_rows` lands on one of the fallback reason counters.
  void CountVectorizedRows(size_t rows) {
    if (profile_ == nullptr) return;
    profile_->vector_batches->Increment();
    profile_->vector_rows->Add(rows);
  }
  void CountScalarRows(size_t rows, obs::Counter* reason) {
    if (profile_ == nullptr) return;
    profile_->scalar_batches->Increment();
    profile_->scalar_rows->Add(rows);
    if (reason != nullptr) reason->Add(rows);
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
  uint64_t profile_elements_ = 0;  // scalar dispatches not yet published
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

  /// Max-merges saved marks into this merger (the chain sections of an
  /// N-chain checkpoint all observed the same watermark stream, so the
  /// merge is idempotent).
  Status LoadState(state::Reader* r) {
    ONESQL_ASSIGN_OR_RETURN(uint64_t ports, r->ReadVarint());
    if (ports != marks_.size()) {
      return Status::DataLoss("checkpointed watermark merger has " +
                              std::to_string(ports) + " ports, operator has " +
                              std::to_string(marks_.size()));
    }
    for (Timestamp& m : marks_) {
      ONESQL_ASSIGN_OR_RETURN(Timestamp saved, r->ReadTimestamp());
      m = std::max(m, saved);
    }
    ONESQL_ASSIGN_OR_RETURN(Timestamp combined, r->ReadTimestamp());
    combined_ = std::max(combined_, combined);
    return Status::OK();
  }

 private:
  std::vector<Timestamp> marks_;
  Timestamp combined_;
};

}  // namespace exec
}  // namespace onesql

#endif  // ONESQL_EXEC_OPERATOR_H_
