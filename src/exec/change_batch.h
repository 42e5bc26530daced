#ifndef ONESQL_EXEC_CHANGE_BATCH_H_
#define ONESQL_EXEC_CHANGE_BATCH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/changelog.h"
#include "common/row.h"
#include "common/status.h"
#include "common/timestamp.h"
#include "common/value.h"

namespace onesql {
namespace exec {

/// A typed column of values inside a ChangeBatch. Hot types (BIGINT, DOUBLE,
/// TIMESTAMP, INTERVAL, BOOLEAN) are stored in flat primitive vectors with a
/// separate validity mask, so the vectorized kernels run tight typed loops
/// with no `Value` variant dispatch. Everything else — and any column whose
/// observed value tags do not match the lane (e.g. a BIGINT value fed into a
/// DOUBLE-declared column, which `IsImplicitlyCoercible` permits) — lives in
/// the generic lane as exact `Value`s, which is the documented scalar
/// fallback representation.
class ColumnVector {
 public:
  enum class Lane : uint8_t {
    kI64,      // BIGINT / TIMESTAMP / INTERVAL payloads as int64 millis
    kF64,      // DOUBLE payloads, bit-exact
    kBool,     // BOOLEAN payloads as 0/1
    kGeneric,  // exact Values (VARCHAR, mixed tags, unknown types)
  };

  ColumnVector() = default;

  /// The lane a freshly declared column of `type` starts in.
  static Lane LaneFor(DataType type);

  Lane lane() const { return lane_; }
  DataType decl() const { return decl_; }
  size_t size() const { return valid_.size(); }

  /// Clears contents, keeps capacity, lane and declared type.
  void Clear();

  /// Clears and switches to the starting lane for `type`.
  void Reset(DataType type);

  /// Appends one value. NULLs set validity 0 in every lane. A non-null value
  /// whose tag does not match the current typed lane demotes the whole
  /// column to the generic lane, converting every already-appended entry
  /// back to its exact Value first (values are never coerced across lanes).
  void Append(const Value& v);

  /// Shrinks the column to its first `n` entries (engine-side rollback when
  /// a row fails a later validation step).
  void Truncate(size_t n);

  /// Materializes entry `i` as an exact Value (typed lanes re-wrap through
  /// the declared type; invalid entries yield NULL).
  Value ValueAt(size_t i) const;

  /// Assigns entry `i` into an existing Value. Equivalent to
  /// `*out = ValueAt(i)` but reuses `out`'s string storage when it already
  /// holds the same alternative (scratch rows reused across a batch).
  void AssignTo(size_t i, Value* out) const;

  bool IsValid(size_t i) const { return valid_[i] != 0; }

  // Raw lane access for kernels. Only the vector matching lane() is
  // meaningful.
  const std::vector<int64_t>& i64() const { return i64_; }
  const std::vector<double>& f64() const { return f64_; }
  const std::vector<uint8_t>& b8() const { return b8_; }
  const std::vector<Value>& generic() const { return generic_; }
  const std::vector<uint8_t>& valid() const { return valid_; }

  // Mutable access for kernels that build output columns directly.
  std::vector<int64_t>* mutable_i64() { return &i64_; }
  std::vector<double>* mutable_f64() { return &f64_; }
  std::vector<uint8_t>* mutable_b8() { return &b8_; }
  std::vector<Value>* mutable_generic() { return &generic_; }
  std::vector<uint8_t>* mutable_valid() { return &valid_; }
  void set_decl(DataType type) { decl_ = type; }
  void set_lane(Lane lane) { lane_ = lane; }

  void Reserve(size_t n);

 private:
  void Demote();

  Lane lane_ = Lane::kGeneric;
  DataType decl_ = DataType::kNull;
  std::vector<int64_t> i64_;
  std::vector<double> f64_;
  std::vector<uint8_t> b8_;
  std::vector<Value> generic_;
  std::vector<uint8_t> valid_;
};

/// A column-oriented batch of changelog entries: one ColumnVector per row
/// column, plus a retraction/weight column (+1 INSERT, -1 DELETE), per-row
/// processing times, and optional per-row sequence numbers (populated by the
/// feed path, which orders events across chunks by them).
struct ChangeBatch {
  std::vector<ColumnVector> columns;
  std::vector<int8_t> weights;
  std::vector<Timestamp> ptimes;
  std::vector<uint64_t> seqs;
  size_t num_rows = 0;

  void Clear();

  /// Clears and adopts the column count + lane/decl layout of `o` (capacity
  /// kept, data dropped).
  void ResetLike(const ChangeBatch& o);

  /// Clears and declares `types.size()` columns with the given types.
  void ResetForTypes(const std::vector<DataType>& types);

  void Reserve(size_t rows);

  /// Appends a whole row (column count must match; columns demote as
  /// needed). `weight` is +1 for INSERT, -1 for DELETE.
  void AppendRow(const Row& row, int8_t weight, Timestamp ptime, uint64_t seq);

  /// Copies row `i` of `src` (including weight/ptime/seq) into this batch.
  /// Column layouts must have the same arity.
  void AppendRowFrom(const ChangeBatch& src, size_t i);

  /// Drops the last appended row including its weight/ptime/seq.
  void PopRow();

  Row RowAt(size_t i) const;
  void MaterializeRow(size_t i, Row* out) const;
  void MaterializeChange(size_t i, Change* out) const;
};

/// One unit of the chunked feed path. Element runs from a single source are
/// carried as a columnar batch; watermark advances stay scalar.
struct InputChunk {
  enum class Kind : uint8_t { kRows, kWatermark };

  Kind kind = Kind::kRows;
  std::string source;        // original spelling (checkpoint fidelity)
  std::string source_lower;  // routing key, computed once

  ChangeBatch batch;  // kRows

  // kWatermark:
  Timestamp ptime;
  Timestamp watermark;
  uint64_t seq = 0;

  /// Sequence number of the first / last event carried by this chunk.
  uint64_t FirstSeq() const;
  uint64_t LastSeq() const;
  /// Number of feed events this chunk carries.
  size_t NumEvents() const;
  /// Largest processing time carried by this chunk.
  Timestamp MaxPtime() const;
};

/// Calls `visit(i, row)` for every event carried by `chunks`, in ascending
/// sequence order: the event lives in `*chunks[i]`, and `row` indexes a kRows
/// chunk's batch (0 for watermark chunks). Chunks are ordered by their first seq, but
/// an open element run interleaves with other sources' chunks, so the sweep
/// merges on per-event seqs over the small set of chunks still open (at most
/// one run per source spelling). Stops at the first non-OK status `visit`
/// returns and returns it. This is the one seq-ordered walk shared by the
/// runtime's scalar delivery and the engine's history compaction and
/// checkpointing.
template <typename Visit>
Status ForEachEventInSeqOrder(const std::vector<const InputChunk*>& chunks,
                              Visit&& visit) {
  struct Cursor {
    const InputChunk* chunk;
    size_t index;  // position in `chunks`
    size_t row;
  };
  std::vector<Cursor> active;
  size_t next = 0;
  while (true) {
    size_t best = active.size();
    uint64_t best_seq = 0;
    for (size_t i = 0; i < active.size(); ++i) {
      const Cursor& cursor = active[i];
      const uint64_t seq = cursor.chunk->kind == InputChunk::Kind::kRows
                               ? cursor.chunk->batch.seqs[cursor.row]
                               : cursor.chunk->seq;
      if (best == active.size() || seq < best_seq) {
        best = i;
        best_seq = seq;
      }
    }
    if (next < chunks.size() &&
        (best == active.size() || chunks[next]->FirstSeq() < best_seq)) {
      const InputChunk* chunk = chunks[next];
      if (chunk->NumEvents() > 0) active.push_back(Cursor{chunk, next, 0});
      ++next;
      continue;
    }
    if (best == active.size()) return Status::OK();
    Cursor& cursor = active[best];
    const size_t index = cursor.index;
    const size_t row = cursor.row++;
    if (cursor.chunk->kind != InputChunk::Kind::kRows ||
        cursor.row >= cursor.chunk->batch.num_rows) {
      active[best] = active.back();
      active.pop_back();
    }
    Status status = visit(index, row);
    if (!status.ok()) return status;
  }
}

/// Per-push failure context for the batch path. Batched operators process a
/// whole vector before the runtime regains control, so the failing row's
/// sequence/ptime is reported out of band: the runtime clears the context
/// before a push and, on error, reads back which row failed (first setter
/// wins — downstream operators re-reporting the same failure are ignored).
struct BatchFailure {
  bool has = false;
  uint64_t seq = 0;
  Timestamp ptime;
};

/// Clears the thread-local failure context (runtime, before each push).
void ClearBatchFailure();
/// Records a failure if none is recorded yet (operators, on first error).
void SetBatchFailure(uint64_t seq, Timestamp ptime);
/// Reads the current context (runtime, after a failed push).
const BatchFailure& GetBatchFailure();

/// Groups a scalar event stream into InputChunks: per-source open batches
/// that close on that source's own watermark (other sources' watermarks do
/// not cut a run — relative order across sources is preserved through
/// per-row sequence numbers, which every consumer merges on). The engine's
/// Feed path appends with declared column lanes (AddElementTyped); restore,
/// compaction and static-table replay append scalar events.
class ChunkBuilder {
 public:
  /// Appends into `out`; `first_seq` numbers the events.
  ChunkBuilder(std::vector<InputChunk>* out, uint64_t first_seq);

  /// Returns the open batch for `source`, creating a new kRows chunk when
  /// none is open. `decl` (optional) declares column types for typed lanes;
  /// when null the chunk starts with generic lanes sized on first append.
  ChangeBatch* OpenRows(const std::string& source,
                        const std::vector<DataType>* decl, size_t arity,
                        size_t reserve_hint);

  /// Appends one element event (convenience over OpenRows + AppendRow).
  /// Column types are inferred from the first row when opening a run; pass
  /// `decl` (AddElementTyped) when the declared schema is known — typed
  /// lanes then survive leading NULLs.
  void AddElement(const std::string& source, const Row& row, int8_t weight,
                  Timestamp ptime);
  void AddElementTyped(const std::string& source,
                       const std::vector<DataType>* decl, const Row& row,
                       int8_t weight, Timestamp ptime);

  /// Appends a watermark chunk, closing the source's open rows chunk.
  void AddWatermark(const std::string& source, Timestamp watermark,
                    Timestamp ptime);

  /// Explicit-sequence variants, for rebuilding a chunk list whose events
  /// already carry sequence numbers (history compaction). `seq` values must
  /// be strictly increasing across calls.
  void AddElementAt(uint64_t seq, const std::string& source,
                    const std::vector<DataType>* decl, const Row& row,
                    int8_t weight, Timestamp ptime);
  void AddWatermarkAt(uint64_t seq, const std::string& source,
                      Timestamp watermark, Timestamp ptime);

  /// Closes every open rows chunk (end of a push).
  void CloseAll();

  uint64_t next_seq() const { return next_seq_; }

 private:
  struct OpenEntry {
    std::string source;        // exact spelling
    std::string source_lower;  // cached: watermark closing compares lowered
    size_t chunk_index;
  };

  std::vector<InputChunk>* out_;
  uint64_t next_seq_;
  std::vector<OpenEntry> open_;
};

}  // namespace exec
}  // namespace onesql

#endif  // ONESQL_EXEC_CHANGE_BATCH_H_
