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

/// One durably logged feed event, as FeedLog::ReadAll returns it: its
/// position in the global feed order plus the event itself.
struct WalRecord {
  uint64_t seq = 0;  ///< Position in the global feed order, 0-based.
  FeedEvent event;
};

/// The write-ahead feed log: an append-only file of CRC32-framed WalRecords,
/// preceded by a magic/version header frame. Every feed event is appended
/// *before* it is dispatched to running queries, and one Sync covers every
/// record a Feed call appended (DESIGN.md §16), so a crash loses at most
/// events the caller was never told were accepted.
///
/// File layout:
///
///   frame 0:  "1SQLWAL1" magic + varint format version (currently 1)
///   frame 1…: one WalRecord each: varint seq, then the feed event in the
///             codec the checkpoint history shares (Writer::PutFeedEvent:
///             u8 kind, string source, signed-varint ptime millis, then row
///             or watermark payload)
///
/// Records carry explicit sequence numbers so recovery can replay exactly
/// the suffix past a checkpoint's feed position. Sequence numbers must be
/// contiguous; a gap or regression is reported as corruption.
///
/// Any structural damage — truncated frame, CRC mismatch, bad magic, wrong
/// version, non-contiguous seq — fails with Status::DataLoss. The log is
/// strict by design: a damaged WAL is surfaced to the operator rather than
/// silently replayed up to the damage point.
///
/// Errors are sticky: after a failed Append or Sync, every later Append and
/// Sync returns that same DataLoss. The bytes past the failure are undefined
/// on disk, and an fsync retried after a failure can report success without
/// the data being there, so the log never claims durability again.
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

  /// Opens (creating if absent) the log at `path` for appending. An existing
  /// file is fully validated first — every frame checked, every record
  /// decoded — and the next sequence number is recovered from its tail.
  static Result<FeedLog> Open(const std::string& path);

  /// Reads and validates every record of the log at `path` without opening
  /// it for appending. An empty vector means a fresh (header-only) log.
  static Result<std::vector<WalRecord>> ReadAll(const std::string& path);

  /// Appends `event` at feed position `seq` (buffered; call Sync before
  /// dispatching the event). `seq` must equal next_seq().
  Status Append(uint64_t seq, const FeedEvent& event);

  /// Flushes buffered appends to the OS and fsyncs the file: one fsync
  /// covers every record appended since the last one.
  Status Sync();

  /// Closes the underlying file (Sync first if records were appended).
  /// Returns the sticky error, if any.
  Status Close();

  /// Sequence number the next Append must carry.
  uint64_t next_seq() const { return next_seq_; }

  const std::string& path() const { return path_; }
  bool is_open() const { return file_ != nullptr; }

  /// Attaches durability instruments (nullptr detaches — the default).
  /// Append records its latency and byte count; Sync records fsync latency
  /// and the number of records the fsync covered.
  void AttachMetrics(const obs::WalMetrics* metrics) { metrics_ = metrics; }

 private:
  /// Makes `status` the sticky error and returns it.
  Status Fail(Status status);

  std::string path_;
  std::FILE* file_ = nullptr;
  uint64_t next_seq_ = 0;
  /// Records below this seq are covered by an fsync.
  uint64_t synced_seq_ = 0;
  bool dirty_ = false;
  Status error_;  ///< sticky failure of an earlier Append or Sync
  const obs::WalMetrics* metrics_ = nullptr;
};

}  // namespace state
}  // namespace onesql

#endif  // ONESQL_STATE_WAL_H_
