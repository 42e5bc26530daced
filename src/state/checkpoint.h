#ifndef ONESQL_STATE_CHECKPOINT_H_
#define ONESQL_STATE_CHECKPOINT_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace onesql {
namespace state {

/// Container format for engine checkpoints: a versioned header frame followed
/// by one CRC-framed section per logical unit (engine metadata first, then one
/// section per continuous query). Every frame is independently checksummed —
/// see frame.h — so truncation or bit damage anywhere in the file surfaces as
/// Status::DataLoss at open time, never as undefined behavior.
///
/// Layout:
///   frame 0:  magic "1SQLCKP1" (8 bytes) + varint format version (currently 2)
///   frame 1+: opaque section payloads, in the order they were added
///
/// Exactly one format version is read. A layout change bumps it; an older
/// file is refused whole (NotImplemented — it is intact, just not readable
/// here), never migrated: state is a cache of a replay of the feed log, so
/// the route back is a cold start from that log (Engine::Restore).
class CheckpointWriter {
 public:
  /// Appends one section payload. Sections are opaque to the container.
  void AddSection(std::string payload);

  /// Writes the whole checkpoint to `path` atomically (tmp + fsync + rename),
  /// so a crash mid-write leaves either the old file or the new one, never a
  /// torn hybrid.
  Status WriteTo(const std::string& path) const;

  /// Total bytes of section payloads added so far (excludes framing
  /// overhead) — the checkpoint-size figure exposed by the metrics layer.
  size_t payload_bytes() const {
    size_t total = 0;
    for (const auto& s : sections_) total += s.size();
    return total;
  }

 private:
  std::vector<std::string> sections_;
};

/// Validating reader for the checkpoint container. Open() reads the whole
/// file, checks the magic/version header and every frame CRC up front, and
/// indexes the section payloads; any damage yields DataLoss with no partial
/// state escaping. An intact header of an older version yields
/// NotImplemented; an unknown version is DataLoss.
class CheckpointReader {
 public:
  static Result<CheckpointReader> Open(const std::string& path);

  size_t num_sections() const { return sections_.size(); }

  /// Borrowed view into the reader's buffer; valid while the reader lives.
  std::string_view section(size_t i) const {
    const auto& span = sections_[i];
    return std::string_view(data_).substr(span.first, span.second);
  }

 private:
  CheckpointReader() = default;

  std::string data_;
  // (offset, length) pairs into data_ — stable across moves of the reader.
  std::vector<std::pair<size_t, size_t>> sections_;
};

}  // namespace state
}  // namespace onesql

#endif  // ONESQL_STATE_CHECKPOINT_H_
