#ifndef ONESQL_STATE_WAL_H_
#define ONESQL_STATE_WAL_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/changelog.h"
#include "common/result.h"

namespace onesql {

namespace obs {
struct WalMetrics;
}  // namespace obs

namespace state {

/// One segment file of a feed log directory.
struct WalSegment {
  uint64_t first_seq = 0;  ///< Seq of the segment's first record.
  std::string path;
};

/// Where a validated segment ends.
struct SegmentEnd {
  uint64_t next_seq = 0;  ///< Seq the segment's next record would carry.
  uint64_t bytes = 0;     ///< The segment file's validated size.
};

/// The write-ahead feed log: a directory of segment files, each an
/// append-only run of CRC32-framed records preceded by a magic/version
/// header frame. Every feed event is appended to the tail segment *before*
/// it is dispatched to running queries, and one Sync covers every record a
/// Feed call appended (DESIGN.md §16), so a crash loses at most events the
/// caller was never told were accepted.
///
/// Segment layout:
///
///   frame 0:  "1SQLWAL1" magic + varint format version (currently 1)
///   frame 1…: one record each: varint seq, then the feed event in the
///             codec the checkpoint history shares (Writer::PutFeedEvent:
///             u8 kind, string source, signed-varint ptime millis, then row
///             or watermark payload)
///
/// A segment is named by the seq of its first record: `feed.wal` for seq 0,
/// `feed.<seq as 20 zero-padded digits>.wal` after it, so names sort in seq
/// order. The engine rolls to a new segment at each checkpoint written in
/// the log's directory and then deletes the segments that checkpoint covers
/// (DESIGN.md §10), so a restore reads only the suffix past the checkpoint.
///
/// Records carry explicit sequence numbers, contiguous within a segment and
/// across segment boundaries; a gap or regression is reported as
/// corruption. Any structural damage — truncated frame, CRC mismatch, bad
/// magic, wrong version, non-contiguous seq — fails with Status::DataLoss.
/// The log is strict by design: a damaged WAL is surfaced to the operator
/// rather than silently replayed up to the damage point.
///
/// Errors are sticky: after a failed Append, Sync or Roll, every later
/// Append, Sync and Roll returns that same DataLoss. The bytes past the
/// failure are undefined on disk, and an fsync retried after a failure can
/// report success without the data being there, so the log never claims
/// durability again.
///
/// Not thread-safe: one caller appends and syncs.
class FeedLog {
 public:
  FeedLog() = default;
  ~FeedLog();

  FeedLog(const FeedLog&) = delete;
  FeedLog& operator=(const FeedLog&) = delete;
  FeedLog(FeedLog&& other) noexcept;
  FeedLog& operator=(FeedLog&& other) noexcept;

  /// Path of the segment in `dir` whose first record is `first_seq`.
  static std::string SegmentPath(const std::string& dir, uint64_t first_seq);

  /// The segments in `dir`, in seq order; other files are ignored. A
  /// missing directory holds none.
  static Result<std::vector<WalSegment>> ListSegments(const std::string& dir);

  /// Starts a log in `dir`: creates the segment `first_seq` (which must not
  /// exist yet), writes and fsyncs its header and the directory entry, and
  /// opens it for appending.
  static Result<FeedLog> Create(const std::string& dir, uint64_t first_seq);

  /// Validates `segment` whole — every frame's CRC and every record's seq,
  /// counting up from `segment.first_seq` — and decodes the records at or
  /// past `decode_from` onto `events` (may be null: validation only). The
  /// records below `decode_from` are checked but never decoded.
  static Result<SegmentEnd> ReadSegment(const WalSegment& segment,
                                        uint64_t decode_from,
                                        std::vector<FeedEvent>* events);

  /// Opens `segment`, which ReadSegment has just validated up to `end`, for
  /// appending without reading it again.
  static Result<FeedLog> Attach(const WalSegment& segment,
                                const SegmentEnd& end);

  /// ReadSegment (validation only), then Attach.
  static Result<FeedLog> Open(const WalSegment& segment);

  /// Appends `event` at feed position `seq` (buffered; call Sync before
  /// dispatching the event). `seq` must equal next_seq().
  Status Append(uint64_t seq, const FeedEvent& event);

  /// Flushes buffered appends to the OS and fsyncs the file: one fsync
  /// covers every record appended since the last one.
  Status Sync();

  /// Syncs the tail segment and continues the log in a new one starting at
  /// next_seq(). The new segment's header, file and directory entry are
  /// durable before it replaces the tail (it is written aside and renamed
  /// into place), so a crash leaves either no new segment or a whole one.
  /// No-op while the tail holds no record.
  Status Roll();

  /// Deletes every segment that lies wholly below `seq` — each whose
  /// successor starts at or below it — then fsyncs the directory. The tail
  /// segment is never deleted.
  Status DropSegmentsBelow(uint64_t seq);

  /// Closes the underlying file (Sync first if records were appended).
  /// Returns the sticky error, if any.
  Status Close();

  /// Sequence number the next Append must carry.
  uint64_t next_seq() const { return next_seq_; }

  /// The tail segment's path.
  const std::string& path() const { return path_; }
  /// The log's directory.
  const std::string& dir() const { return dir_; }
  bool is_open() const { return file_ != nullptr; }

  /// Attaches durability instruments (nullptr detaches — the default).
  /// Append records its latency and byte count; Sync records fsync latency
  /// and the number of records the fsync covered.
  void AttachMetrics(const obs::WalMetrics* metrics) { metrics_ = metrics; }

 private:
  /// Makes `status` the sticky error and returns it.
  Status Fail(Status status);

  std::string dir_;
  std::string path_;
  std::FILE* file_ = nullptr;
  uint64_t first_seq_ = 0;
  uint64_t next_seq_ = 0;
  /// Records below this seq are covered by an fsync.
  uint64_t synced_seq_ = 0;
  bool dirty_ = false;
  Status error_;  ///< sticky failure of an earlier Append, Sync or Roll
  const obs::WalMetrics* metrics_ = nullptr;
};

}  // namespace state
}  // namespace onesql

#endif  // ONESQL_STATE_WAL_H_
