#ifndef ONESQL_STATE_SERDE_H_
#define ONESQL_STATE_SERDE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/changelog.h"
#include "common/result.h"
#include "common/row.h"
#include "common/schema.h"
#include "common/timestamp.h"
#include "common/value.h"

namespace onesql {
namespace state {

/// Binary serialization for the durable-state subsystem (checkpoints and the
/// write-ahead feed log). The encoding is *canonical*: a given in-memory
/// value has exactly one byte representation (varints for integers, zigzag
/// for signed, IEEE-754 bit patterns for doubles, length-prefixed strings),
/// so bit-identical state produces bit-identical files — the property the
/// recovery-equivalence tests lean on.
///
/// Integrity is layered on top by frame.h (CRC32-checksummed frames); the
/// Reader here only detects *structural* damage (truncation, impossible
/// lengths, unknown tags) and reports it as Status::DataLoss.

/// Appends encoded fields to an in-memory buffer.
class Writer {
 public:
  void PutU8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void PutVarint(uint64_t v);
  void PutSigned(int64_t v);
  void PutBool(bool v) { PutU8(v ? 1 : 0); }
  void PutDouble(double v);  // 8 bytes, little-endian IEEE-754 bit pattern
  void PutBytes(std::string_view bytes);          // raw, no length prefix
  void PutString(std::string_view s);             // varint length + bytes

  void PutTimestamp(Timestamp t) { PutSigned(t.millis()); }
  void PutInterval(Interval i) { PutSigned(i.millis()); }
  void PutValue(const Value& v);
  void PutRow(const Row& row);
  void PutSchema(const Schema& schema);
  void PutChange(const Change& change);
  /// The one feed-event codec, shared by the WAL records and the checkpoint
  /// history: u8 kind, source string, ptime, then the watermark (kWatermark)
  /// or the row (kInsert / kDelete).
  void PutFeedEvent(const FeedEvent& event);

  /// Appends `nested.buffer()` as a varint-length-prefixed blob; the Reader
  /// side mirrors this with `ReadBlob`, which bounds a sub-reader.
  void PutBlob(const Writer& nested) { PutString(nested.buffer()); }

  const std::string& buffer() const { return buf_; }
  std::string TakeBuffer() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

 private:
  std::string buf_;
};

/// Decodes fields from a byte range. All reads are bounds-checked; running
/// off the end of the buffer (or reading an impossible length/tag) yields
/// Status::DataLoss and leaves the reader unusable for further progress.
/// The Reader does not own the bytes — keep the backing buffer alive.
class Reader {
 public:
  Reader() : p_(nullptr), end_(nullptr) {}
  explicit Reader(std::string_view bytes)
      : p_(bytes.data()), end_(bytes.data() + bytes.size()) {}

  Result<uint8_t> ReadU8();
  Result<uint64_t> ReadVarint();
  Result<int64_t> ReadSigned();
  Result<bool> ReadBool();
  Result<double> ReadDouble();
  Result<std::string> ReadString();

  Result<Timestamp> ReadTimestamp();
  Result<Interval> ReadInterval();
  Result<Value> ReadValue();
  Result<Row> ReadRow();
  Result<Schema> ReadSchema();
  Result<Change> ReadChange();
  Result<FeedEvent> ReadFeedEvent();

  /// Reads a varint-length-prefixed blob and returns a sub-reader bounded to
  /// it. The parent reader advances past the blob.
  Result<Reader> ReadBlob();
  /// Like ReadBlob but returns the raw bytes (useful when the same blob must
  /// be decoded several times, e.g. filtered loads into several shards).
  Result<std::string_view> ReadBlobBytes();

  bool AtEnd() const { return p_ == end_; }
  size_t remaining() const { return static_cast<size_t>(end_ - p_); }

  /// Fails unless the reader consumed its whole range — a cheap structural
  /// check that the writer and reader agree on the format.
  Status ExpectEnd() const;

 private:
  const char* p_;
  const char* end_;
};

}  // namespace state
}  // namespace onesql

#endif  // ONESQL_STATE_SERDE_H_
