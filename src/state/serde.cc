#include "state/serde.h"

#include <cstring>

#include "common/varint.h"

namespace onesql {
namespace state {

namespace {

/// Value payload tags. Stable on-disk numbers — append only, never renumber
/// (the checkpoint header carries a format version for breaking changes).
enum class ValueTag : uint8_t {
  kNull = 0,
  kBool = 1,
  kInt64 = 2,
  kDouble = 3,
  kString = 4,
  kTimestamp = 5,
  kInterval = 6,
};

Status Truncated(const char* what) {
  return Status::DataLoss(std::string("truncated serialized state: ") + what);
}

}  // namespace

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

void Writer::PutVarint(uint64_t v) { AppendVarint64(&buf_, v); }

void Writer::PutSigned(int64_t v) { AppendSignedVarint64(&buf_, v); }

void Writer::PutDouble(double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  for (int i = 0; i < 8; ++i) {
    buf_.push_back(static_cast<char>((bits >> (8 * i)) & 0xFF));
  }
}

void Writer::PutBytes(std::string_view bytes) {
  buf_.append(bytes.data(), bytes.size());
}

void Writer::PutString(std::string_view s) {
  PutVarint(s.size());
  PutBytes(s);
}

void Writer::PutValue(const Value& v) {
  switch (v.type()) {
    case DataType::kNull:
      PutU8(static_cast<uint8_t>(ValueTag::kNull));
      return;
    case DataType::kBoolean:
      PutU8(static_cast<uint8_t>(ValueTag::kBool));
      PutBool(v.AsBool());
      return;
    case DataType::kBigint:
      PutU8(static_cast<uint8_t>(ValueTag::kInt64));
      PutSigned(v.AsInt64());
      return;
    case DataType::kDouble:
      PutU8(static_cast<uint8_t>(ValueTag::kDouble));
      PutDouble(v.AsDouble());
      return;
    case DataType::kVarchar:
      PutU8(static_cast<uint8_t>(ValueTag::kString));
      PutString(v.AsString());
      return;
    case DataType::kTimestamp:
      PutU8(static_cast<uint8_t>(ValueTag::kTimestamp));
      PutTimestamp(v.AsTimestamp());
      return;
    case DataType::kInterval:
      PutU8(static_cast<uint8_t>(ValueTag::kInterval));
      PutInterval(v.AsInterval());
      return;
  }
}

void Writer::PutRow(const Row& row) {
  PutVarint(row.size());
  for (const Value& v : row) PutValue(v);
}

void Writer::PutSchema(const Schema& schema) {
  PutVarint(schema.num_fields());
  for (const Field& f : schema.fields()) {
    PutString(f.name);
    PutU8(static_cast<uint8_t>(f.type));
    PutBool(f.is_event_time);
    PutU8(static_cast<uint8_t>(f.window_role));
  }
}

void Writer::PutChange(const Change& change) {
  PutU8(static_cast<uint8_t>(change.kind));
  PutRow(change.row);
  PutTimestamp(change.ptime);
}

void Writer::PutFeedEvent(const FeedEvent& event) {
  PutU8(static_cast<uint8_t>(event.kind));
  PutString(event.source);
  PutTimestamp(event.ptime);
  if (event.kind == FeedEvent::Kind::kWatermark) {
    PutTimestamp(event.watermark);
  } else {
    PutRow(event.row);
  }
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

Result<uint8_t> Reader::ReadU8() {
  if (p_ >= end_) return Truncated("u8");
  return static_cast<uint8_t>(*p_++);
}

Result<uint64_t> Reader::ReadVarint() {
  uint64_t v = 0;
  if (!GetVarint64(&p_, end_, &v)) return Truncated("varint");
  return v;
}

Result<int64_t> Reader::ReadSigned() {
  int64_t v = 0;
  if (!GetSignedVarint64(&p_, end_, &v)) return Truncated("signed varint");
  return v;
}

Result<bool> Reader::ReadBool() {
  ONESQL_ASSIGN_OR_RETURN(uint8_t b, ReadU8());
  if (b > 1) return Status::DataLoss("invalid bool byte in serialized state");
  return b == 1;
}

Result<double> Reader::ReadDouble() {
  if (static_cast<size_t>(end_ - p_) < 8) return Truncated("double");
  uint64_t bits = 0;
  for (int i = 0; i < 8; ++i) {
    bits |= static_cast<uint64_t>(static_cast<unsigned char>(p_[i])) << (8 * i);
  }
  p_ += 8;
  double v = 0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

Result<std::string> Reader::ReadString() {
  ONESQL_ASSIGN_OR_RETURN(uint64_t len, ReadVarint());
  if (len > static_cast<uint64_t>(end_ - p_)) return Truncated("string body");
  std::string s(p_, static_cast<size_t>(len));
  p_ += len;
  return s;
}

Result<Timestamp> Reader::ReadTimestamp() {
  ONESQL_ASSIGN_OR_RETURN(int64_t ms, ReadSigned());
  return Timestamp(ms);
}

Result<Interval> Reader::ReadInterval() {
  ONESQL_ASSIGN_OR_RETURN(int64_t ms, ReadSigned());
  return Interval(ms);
}

Result<Value> Reader::ReadValue() {
  ONESQL_ASSIGN_OR_RETURN(uint8_t tag, ReadU8());
  switch (static_cast<ValueTag>(tag)) {
    case ValueTag::kNull:
      return Value::Null();
    case ValueTag::kBool: {
      ONESQL_ASSIGN_OR_RETURN(bool b, ReadBool());
      return Value::Bool(b);
    }
    case ValueTag::kInt64: {
      ONESQL_ASSIGN_OR_RETURN(int64_t v, ReadSigned());
      return Value::Int64(v);
    }
    case ValueTag::kDouble: {
      ONESQL_ASSIGN_OR_RETURN(double v, ReadDouble());
      return Value::Double(v);
    }
    case ValueTag::kString: {
      ONESQL_ASSIGN_OR_RETURN(std::string s, ReadString());
      return Value::String(std::move(s));
    }
    case ValueTag::kTimestamp: {
      ONESQL_ASSIGN_OR_RETURN(Timestamp t, ReadTimestamp());
      return Value::Time(t);
    }
    case ValueTag::kInterval: {
      ONESQL_ASSIGN_OR_RETURN(Interval i, ReadInterval());
      return Value::Duration(i);
    }
  }
  return Status::DataLoss("unknown value tag " + std::to_string(tag) +
                          " in serialized state");
}

Result<Row> Reader::ReadRow() {
  ONESQL_ASSIGN_OR_RETURN(uint64_t n, ReadVarint());
  // Each value needs at least one tag byte; an impossible count means the
  // length field itself is damaged.
  if (n > remaining()) return Truncated("row");
  Row row;
  row.reserve(static_cast<size_t>(n));
  for (uint64_t i = 0; i < n; ++i) {
    ONESQL_ASSIGN_OR_RETURN(Value v, ReadValue());
    row.push_back(std::move(v));
  }
  return row;
}

Result<Schema> Reader::ReadSchema() {
  ONESQL_ASSIGN_OR_RETURN(uint64_t n, ReadVarint());
  if (n > remaining()) return Truncated("schema");
  std::vector<Field> fields;
  fields.reserve(static_cast<size_t>(n));
  for (uint64_t i = 0; i < n; ++i) {
    Field f;
    ONESQL_ASSIGN_OR_RETURN(f.name, ReadString());
    ONESQL_ASSIGN_OR_RETURN(uint8_t type, ReadU8());
    if (type > static_cast<uint8_t>(DataType::kInterval)) {
      return Status::DataLoss("unknown data type in serialized schema");
    }
    f.type = static_cast<DataType>(type);
    ONESQL_ASSIGN_OR_RETURN(f.is_event_time, ReadBool());
    ONESQL_ASSIGN_OR_RETURN(uint8_t role, ReadU8());
    if (role > static_cast<uint8_t>(WindowRole::kEnd)) {
      return Status::DataLoss("unknown window role in serialized schema");
    }
    f.window_role = static_cast<WindowRole>(role);
    fields.push_back(std::move(f));
  }
  return Schema(std::move(fields));
}

Result<Change> Reader::ReadChange() {
  ONESQL_ASSIGN_OR_RETURN(uint8_t kind, ReadU8());
  if (kind > static_cast<uint8_t>(ChangeKind::kUpsert)) {
    return Status::DataLoss("unknown change kind in serialized state");
  }
  Change change;
  change.kind = static_cast<ChangeKind>(kind);
  ONESQL_ASSIGN_OR_RETURN(change.row, ReadRow());
  ONESQL_ASSIGN_OR_RETURN(change.ptime, ReadTimestamp());
  return change;
}

Result<FeedEvent> Reader::ReadFeedEvent() {
  ONESQL_ASSIGN_OR_RETURN(uint8_t kind, ReadU8());
  if (kind > static_cast<uint8_t>(FeedEvent::Kind::kWatermark)) {
    return Status::DataLoss("unknown feed event kind " + std::to_string(kind) +
                            " in serialized state");
  }
  FeedEvent event;
  event.kind = static_cast<FeedEvent::Kind>(kind);
  ONESQL_ASSIGN_OR_RETURN(event.source, ReadString());
  ONESQL_ASSIGN_OR_RETURN(event.ptime, ReadTimestamp());
  if (event.kind == FeedEvent::Kind::kWatermark) {
    ONESQL_ASSIGN_OR_RETURN(event.watermark, ReadTimestamp());
  } else {
    ONESQL_ASSIGN_OR_RETURN(event.row, ReadRow());
  }
  return event;
}

Result<std::string_view> Reader::ReadBlobBytes() {
  ONESQL_ASSIGN_OR_RETURN(uint64_t len, ReadVarint());
  if (len > static_cast<uint64_t>(end_ - p_)) return Truncated("blob body");
  std::string_view bytes(p_, static_cast<size_t>(len));
  p_ += len;
  return bytes;
}

Result<Reader> Reader::ReadBlob() {
  ONESQL_ASSIGN_OR_RETURN(std::string_view bytes, ReadBlobBytes());
  return Reader(bytes);
}

Status Reader::ExpectEnd() const {
  if (p_ != end_) {
    return Status::DataLoss("serialized state has " +
                            std::to_string(remaining()) +
                            " unconsumed trailing bytes");
  }
  return Status::OK();
}

}  // namespace state
}  // namespace onesql
