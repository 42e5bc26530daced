#ifndef ONESQL_COMMON_CHANGELOG_H_
#define ONESQL_COMMON_CHANGELOG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/row.h"
#include "common/timestamp.h"

namespace onesql {

/// The kind of a changelog entry. A TVR changelog (Section 3.3.1) encodes the
/// evolution of a relation as a sequence of INSERT and DELETE operations;
/// UPSERT is the keyed encoding described in Appendix B.2.3.
enum class ChangeKind {
  kInsert = 0,
  kDelete,
  kUpsert,  // Only produced by the upsert changelog encoding.
};

const char* ChangeKindToString(ChangeKind kind);

/// One element of a TVR changelog: a row added to or retracted from the
/// relation at a given processing time.
struct Change {
  ChangeKind kind = ChangeKind::kInsert;
  Row row;
  /// Processing time at which the change was applied/materialized.
  Timestamp ptime;

  bool operator==(const Change& o) const {
    return kind == o.kind && RowsEqual(row, o.row) && ptime == o.ptime;
  }

  std::string ToString() const;
};

/// A changelog: the stream encoding of a TVR.
using Changelog = std::vector<Change>;

/// One event of a processing-time-ordered feed: exactly the shape of the
/// paper's Section 4 example dataset — INSERTs, DELETEs and watermark
/// advances, each tagged with the processing time at which the system became
/// aware of them — plus moves of the processing-time clock itself
/// (Engine::AdvanceTo), which fire AFTER DELAY timers due at or before their
/// ptime and have no source. The engine's feed API, the write-ahead log and
/// the checkpoint history all carry this one struct; the kind values are
/// the on-disk tags (see state::Writer::PutFeedEvent).
struct FeedEvent {
  enum class Kind : uint8_t {
    kInsert = 0,
    kDelete = 1,
    kWatermark = 2,
    kClock = 3,
  };
  Kind kind = Kind::kInsert;
  std::string source;   // empty for kClock
  Timestamp ptime;
  Row row;              // kInsert / kDelete
  Timestamp watermark;  // kWatermark
};

/// Applies a changelog prefix (entries with ptime <= `as_of`) to an initially
/// empty bag and returns the resulting multiset of rows — the snapshot
/// (instantaneous relation) of the TVR at processing time `as_of`. Entries
/// must be INSERT/DELETE (not UPSERT).
std::vector<Row> SnapshotOf(const Changelog& log, Timestamp as_of);

}  // namespace onesql

#endif  // ONESQL_COMMON_CHANGELOG_H_
