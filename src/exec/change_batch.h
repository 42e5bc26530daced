#ifndef ONESQL_EXEC_CHANGE_BATCH_H_
#define ONESQL_EXEC_CHANGE_BATCH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/changelog.h"
#include "common/row.h"
#include "common/timestamp.h"
#include "common/value.h"

namespace onesql {
namespace exec {

/// A typed column of values inside a ChangeBatch. Hot types (BIGINT, DOUBLE,
/// TIMESTAMP, INTERVAL, BOOLEAN) are stored in flat primitive vectors with a
/// separate validity mask, so the feed history holds them without a 40-byte
/// `Value` per cell. Everything else — and any column whose observed value
/// tags do not match the lane (e.g. a BIGINT value fed into a DOUBLE-declared
/// column, which `IsImplicitlyCoercible` permits) — lives in the generic lane
/// as exact `Value`s.
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

  /// Clears and switches to the starting lane for `type`.
  void Reset(DataType type);

  /// Appends one value. NULLs set validity 0 in every lane. A non-null value
  /// whose tag does not match the current typed lane demotes the whole
  /// column to the generic lane, converting every already-appended entry
  /// back to its exact Value first (values are never coerced across lanes).
  void Append(const Value& v);

  /// Materializes entry `i` as an exact Value (typed lanes re-wrap through
  /// the declared type; invalid entries yield NULL).
  Value ValueAt(size_t i) const;

  /// Assigns entry `i` into an existing Value. Equivalent to
  /// `*out = ValueAt(i)` but reuses `out`'s string storage when it already
  /// holds the same alternative (scratch rows reused across a batch).
  void AssignTo(size_t i, Value* out) const;

  bool IsValid(size_t i) const { return valid_[i] != 0; }

  // Raw lane access. Only the vector matching lane() is meaningful.
  const std::vector<int64_t>& i64() const { return i64_; }
  const std::vector<double>& f64() const { return f64_; }
  const std::vector<uint8_t>& b8() const { return b8_; }
  const std::vector<Value>& generic() const { return generic_; }
  const std::vector<uint8_t>& valid() const { return valid_; }

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
/// column, plus a retraction/weight column (+1 INSERT, -1 DELETE) and
/// per-row processing times.
struct ChangeBatch {
  std::vector<ColumnVector> columns;
  std::vector<int8_t> weights;
  std::vector<Timestamp> ptimes;
  size_t num_rows = 0;

  /// Clears and declares `types.size()` columns with the given types.
  void ResetForTypes(const std::vector<DataType>& types);

  void Reserve(size_t rows);

  /// Appends a whole row (column count must match; columns demote as
  /// needed). `weight` is +1 for INSERT, -1 for DELETE.
  void AppendRow(const Row& row, int8_t weight, Timestamp ptime);

  Row RowAt(size_t i) const;
  void MaterializeRow(size_t i, Row* out) const;
  void MaterializeChange(size_t i, Change* out) const;
};

/// One unit of the chunked feed path: a run of consecutive feed events of
/// one source carried as a columnar batch, one watermark advance, or one
/// move of the processing-time clock (no source). A chunk list is in feed
/// order, chunk after chunk and row after row.
struct InputChunk {
  enum class Kind : uint8_t { kRows, kWatermark, kClock };

  Kind kind = Kind::kRows;
  std::string source;        // original spelling (checkpoint fidelity)
  std::string source_lower;  // routing key, computed once

  ChangeBatch batch;  // kRows

  // kWatermark and kClock:
  Timestamp ptime;
  Timestamp watermark;  // kWatermark

  /// Number of feed events this chunk carries.
  size_t NumEvents() const;
  /// Largest processing time carried by this chunk.
  Timestamp MaxPtime() const;
};

/// Groups a scalar event stream into InputChunks, in feed order. An element
/// extends the rows chunk this builder appended last only if that chunk is
/// of the same exact source spelling; any other event — another source's
/// element, or any watermark — closes the run. A builder never extends a
/// chunk it did not open, so a run never spans builders (one per Feed
/// call). The engine's Feed path appends with declared column lanes
/// (AddElementTyped); restore, compaction and static-table replay append
/// scalar events.
class ChunkBuilder {
 public:
  /// Appends to `out`.
  explicit ChunkBuilder(std::vector<InputChunk>* out) : out_(out) {}

  /// Appends one element event. Column types are inferred from the first
  /// row when opening a run; pass `decl` (AddElementTyped) when the
  /// declared schema is known — typed lanes then survive leading NULLs.
  void AddElement(const std::string& source, const Row& row, int8_t weight,
                  Timestamp ptime);
  void AddElementTyped(const std::string& source,
                       const std::vector<DataType>* decl, const Row& row,
                       int8_t weight, Timestamp ptime);

  /// Appends a watermark chunk, closing the open run.
  void AddWatermark(const std::string& source, Timestamp watermark,
                    Timestamp ptime);

  /// Appends a clock chunk, closing the open run.
  void AddClock(Timestamp ptime);

 private:
  std::vector<InputChunk>* out_;
  /// True while out_->back() is a rows chunk this builder opened.
  bool open_ = false;
};

}  // namespace exec
}  // namespace onesql

#endif  // ONESQL_EXEC_CHANGE_BATCH_H_
