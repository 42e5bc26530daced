#include "exec/change_batch.h"

#include <algorithm>

#include "common/schema.h"

namespace onesql {
namespace exec {

ColumnVector::Lane ColumnVector::LaneFor(DataType type) {
  switch (type) {
    case DataType::kBigint:
    case DataType::kTimestamp:
    case DataType::kInterval:
      return Lane::kI64;
    case DataType::kDouble:
      return Lane::kF64;
    case DataType::kBoolean:
      return Lane::kBool;
    case DataType::kNull:
    case DataType::kVarchar:
      return Lane::kGeneric;
  }
  return Lane::kGeneric;
}

void ColumnVector::Reset(DataType type) {
  i64_.clear();
  f64_.clear();
  b8_.clear();
  generic_.clear();
  valid_.clear();
  decl_ = type;
  lane_ = LaneFor(type);
}

void ColumnVector::Reserve(size_t n) {
  valid_.reserve(n);
  switch (lane_) {
    case Lane::kI64:
      i64_.reserve(n);
      break;
    case Lane::kF64:
      f64_.reserve(n);
      break;
    case Lane::kBool:
      b8_.reserve(n);
      break;
    case Lane::kGeneric:
      generic_.reserve(n);
      break;
  }
}

void ColumnVector::Demote() {
  const size_t n = valid_.size();
  generic_.clear();
  generic_.reserve(std::max(n, valid_.capacity()));
  for (size_t i = 0; i < n; ++i) generic_.push_back(ValueAt(i));
  i64_.clear();
  f64_.clear();
  b8_.clear();
  lane_ = Lane::kGeneric;
}

void ColumnVector::Append(const Value& v) {
  if (lane_ == Lane::kGeneric) {
    generic_.push_back(v);
    valid_.push_back(v.is_null() ? 0 : 1);
    return;
  }
  if (v.is_null()) {
    switch (lane_) {
      case Lane::kI64:
        i64_.push_back(0);
        break;
      case Lane::kF64:
        f64_.push_back(0.0);
        break;
      case Lane::kBool:
        b8_.push_back(0);
        break;
      case Lane::kGeneric:
        break;
    }
    valid_.push_back(0);
    return;
  }
  switch (lane_) {
    case Lane::kI64:
      if (v.type() == decl_) {
        switch (decl_) {
          case DataType::kBigint:
            i64_.push_back(v.AsInt64());
            break;
          case DataType::kTimestamp:
            i64_.push_back(v.AsTimestamp().millis());
            break;
          case DataType::kInterval:
            i64_.push_back(v.AsInterval().millis());
            break;
          default:
            break;
        }
        valid_.push_back(1);
        return;
      }
      break;
    case Lane::kF64:
      if (v.type() == DataType::kDouble) {
        f64_.push_back(v.AsDouble());
        valid_.push_back(1);
        return;
      }
      break;
    case Lane::kBool:
      if (v.type() == DataType::kBoolean) {
        b8_.push_back(v.AsBool() ? 1 : 0);
        valid_.push_back(1);
        return;
      }
      break;
    case Lane::kGeneric:
      break;
  }
  // Tag does not match the typed lane (e.g. a coercible BIGINT value in a
  // DOUBLE-declared column): fall back to exact Values for the whole column.
  Demote();
  generic_.push_back(v);
  valid_.push_back(v.is_null() ? 0 : 1);
}

Value ColumnVector::ValueAt(size_t i) const {
  if (lane_ == Lane::kGeneric) return generic_[i];
  if (!valid_[i]) return Value::Null();
  switch (lane_) {
    case Lane::kI64:
      switch (decl_) {
        case DataType::kBigint:
          return Value::Int64(i64_[i]);
        case DataType::kTimestamp:
          return Value::Time(Timestamp(i64_[i]));
        case DataType::kInterval:
          return Value::Duration(Interval::Millis(i64_[i]));
        default:
          return Value::Int64(i64_[i]);
      }
    case Lane::kF64:
      return Value::Double(f64_[i]);
    case Lane::kBool:
      return Value::Bool(b8_[i] != 0);
    case Lane::kGeneric:
      break;
  }
  return Value::Null();
}

void ColumnVector::AssignTo(size_t i, Value* out) const {
  // Copy-assignment instead of construct-and-move: when `out` already holds
  // the same alternative (the common case for a scratch row reused across a
  // chunk), string storage is reused instead of reallocated per event.
  if (lane_ == Lane::kGeneric) {
    *out = generic_[i];
    return;
  }
  *out = ValueAt(i);
}

void ChangeBatch::ResetForTypes(const std::vector<DataType>& types) {
  columns.resize(types.size());
  for (size_t i = 0; i < types.size(); ++i) columns[i].Reset(types[i]);
  weights.clear();
  ptimes.clear();
  num_rows = 0;
}

void ChangeBatch::Reserve(size_t rows) {
  for (ColumnVector& c : columns) c.Reserve(rows);
  weights.reserve(rows);
  ptimes.reserve(rows);
}

void ChangeBatch::AppendRow(const Row& row, int8_t weight, Timestamp ptime) {
  if (columns.size() < row.size()) {
    const size_t old = columns.size();
    columns.resize(row.size());
    // Late-arriving wider rows: new columns backfill NULLs so every column
    // has one entry per row.
    for (size_t c = old; c < columns.size(); ++c) {
      for (size_t r = 0; r < num_rows; ++r) columns[c].Append(Value::Null());
    }
  }
  for (size_t c = 0; c < columns.size(); ++c) {
    columns[c].Append(c < row.size() ? row[c] : Value::Null());
  }
  weights.push_back(weight);
  ptimes.push_back(ptime);
  ++num_rows;
}

Row ChangeBatch::RowAt(size_t i) const {
  Row out;
  MaterializeRow(i, &out);
  return out;
}

void ChangeBatch::MaterializeRow(size_t i, Row* out) const {
  out->resize(columns.size());
  for (size_t c = 0; c < columns.size(); ++c) {
    columns[c].AssignTo(i, &(*out)[c]);
  }
}

void ChangeBatch::MaterializeChange(size_t i, Change* out) const {
  out->kind = weights[i] < 0 ? ChangeKind::kDelete : ChangeKind::kInsert;
  MaterializeRow(i, &out->row);
  out->ptime = ptimes[i];
}

size_t InputChunk::NumEvents() const {
  return kind == Kind::kRows ? batch.num_rows : 1;
}

Timestamp InputChunk::MaxPtime() const {
  if (kind != Kind::kRows) return ptime;
  // Feed ptimes are monotonic, so the last row carries the max.
  return batch.ptimes.empty() ? Timestamp::Min() : batch.ptimes.back();
}

void ChunkBuilder::AddElement(const std::string& source, const Row& row,
                              int8_t weight, Timestamp ptime) {
  AddElementTyped(source, nullptr, row, weight, ptime);
}

void ChunkBuilder::AddElementTyped(const std::string& source,
                                   const std::vector<DataType>* decl,
                                   const Row& row, int8_t weight,
                                   Timestamp ptime) {
  if (!open_ || out_->back().source != source) {
    out_->emplace_back();
    InputChunk& chunk = out_->back();
    chunk.kind = InputChunk::Kind::kRows;
    chunk.source = source;
    chunk.source_lower = ToLower(source);
    if (decl != nullptr) {
      chunk.batch.ResetForTypes(*decl);
    } else {
      // No declared schema: infer column types from the first row's value
      // tags so the batch starts on typed lanes (NULLs declare nothing;
      // later tag mismatches demote per column as usual).
      std::vector<DataType> inferred(row.size(), DataType::kNull);
      for (size_t c = 0; c < row.size(); ++c) inferred[c] = row[c].type();
      chunk.batch.ResetForTypes(inferred);
    }
    // Up-front reserve fitted to the mean run: 4.37 rows on the NEXMark
    // feed, whose runs any other source's event or watermark ends. Growing
    // every column vector from zero costs several reallocation rounds per
    // chunk; reserving much more than the mean holds memory in the history
    // that no row uses.
    constexpr size_t kOpenReserve = 4;
    chunk.batch.Reserve(kOpenReserve);
    open_ = true;
  }
  out_->back().batch.AppendRow(row, weight, ptime);
}

void ChunkBuilder::AddWatermark(const std::string& source, Timestamp watermark,
                                Timestamp ptime) {
  out_->emplace_back();
  InputChunk& chunk = out_->back();
  chunk.kind = InputChunk::Kind::kWatermark;
  chunk.source = source;
  chunk.source_lower = ToLower(source);
  chunk.watermark = watermark;
  chunk.ptime = ptime;
  open_ = false;
}

void ChunkBuilder::AddClock(Timestamp ptime) {
  out_->emplace_back();
  out_->back().kind = InputChunk::Kind::kClock;
  out_->back().ptime = ptime;
  open_ = false;
}

}  // namespace exec
}  // namespace onesql
