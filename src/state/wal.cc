#include "state/wal.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <filesystem>
#include <system_error>
#include <utility>

#include "obs/instruments.h"
#include "state/frame.h"
#include "state/serde.h"

#ifdef _WIN32
#include <io.h>
#else
#include <unistd.h>
#endif

namespace onesql {
namespace state {

namespace {

constexpr char kWalMagic[] = "1SQLWAL1";  // 8 bytes, excluding the NUL
constexpr uint64_t kWalVersion = 1;

std::string EncodeHeader() {
  Writer w;
  w.PutBytes(std::string_view(kWalMagic, 8));
  w.PutVarint(kWalVersion);
  return w.TakeBuffer();
}

Status CheckHeader(std::string_view payload) {
  if (payload.size() < 8 ||
      std::string_view(payload.data(), 8) != std::string_view(kWalMagic, 8)) {
    return Status::DataLoss("not a feed log: bad magic in header frame");
  }
  Reader body(std::string_view(payload.data() + 8, payload.size() - 8));
  ONESQL_ASSIGN_OR_RETURN(uint64_t version, body.ReadVarint());
  if (version != kWalVersion) {
    return Status::DataLoss("unsupported feed log format version " +
                            std::to_string(version));
  }
  ONESQL_RETURN_NOT_OK(body.ExpectEnd());
  return Status::OK();
}

std::string EncodeRecord(uint64_t seq, const FeedEvent& event) {
  Writer w;
  w.PutVarint(seq);
  w.PutFeedEvent(event);
  return w.TakeBuffer();
}

int FsyncFile(std::FILE* f) {
#ifdef _WIN32
  return _commit(_fileno(f));
#else
  return ::fsync(fileno(f));
#endif
}

uint64_t MonotonicMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

constexpr std::string_view kSegmentPrefix = "feed.";
constexpr std::string_view kSegmentSuffix = ".wal";
constexpr size_t kSeqDigits = 20;  // UINT64_MAX has 20 decimal digits

/// The file name of segment `first_seq`.
std::string SegmentName(uint64_t first_seq) {
  if (first_seq == 0) return "feed.wal";
  std::string digits = std::to_string(first_seq);
  return std::string(kSegmentPrefix) +
         std::string(kSeqDigits - digits.size(), '0') + digits +
         std::string(kSegmentSuffix);
}

/// The first seq a segment file name stands for; false for other names.
bool ParseSegmentName(std::string_view name, uint64_t* first_seq) {
  if (name == "feed.wal") {
    *first_seq = 0;
    return true;
  }
  constexpr size_t kNameSize =
      kSegmentPrefix.size() + kSeqDigits + kSegmentSuffix.size();
  if (name.size() != kNameSize ||
      name.substr(0, kSegmentPrefix.size()) != kSegmentPrefix ||
      name.substr(name.size() - kSegmentSuffix.size()) != kSegmentSuffix) {
    return false;
  }
  const char* digits = name.data() + kSegmentPrefix.size();
  uint64_t seq = 0;
  const auto [end, ec] = std::from_chars(digits, digits + kSeqDigits, seq);
  // Seq 0 is always `feed.wal`; a padded zero is no segment of this log.
  if (ec != std::errc() || end != digits + kSeqDigits || seq == 0) {
    return false;
  }
  *first_seq = seq;
  return true;
}

}  // namespace

FeedLog::~FeedLog() {
  if (file_ != nullptr) {
    (void)Close();
  }
}

FeedLog::FeedLog(FeedLog&& other) noexcept
    : dir_(std::move(other.dir_)),
      path_(std::move(other.path_)),
      file_(other.file_),
      first_seq_(other.first_seq_),
      next_seq_(other.next_seq_),
      synced_seq_(other.synced_seq_),
      dirty_(other.dirty_),
      error_(std::move(other.error_)),
      metrics_(other.metrics_) {
  other.file_ = nullptr;
  other.dirty_ = false;
  other.metrics_ = nullptr;
}

FeedLog& FeedLog::operator=(FeedLog&& other) noexcept {
  if (this != &other) {
    if (file_ != nullptr) (void)Close();
    dir_ = std::move(other.dir_);
    path_ = std::move(other.path_);
    file_ = other.file_;
    first_seq_ = other.first_seq_;
    next_seq_ = other.next_seq_;
    synced_seq_ = other.synced_seq_;
    dirty_ = other.dirty_;
    error_ = std::move(other.error_);
    metrics_ = other.metrics_;
    other.file_ = nullptr;
    other.dirty_ = false;
    other.metrics_ = nullptr;
  }
  return *this;
}

std::string FeedLog::SegmentPath(const std::string& dir, uint64_t first_seq) {
  return dir + "/" + SegmentName(first_seq);
}

Result<std::vector<WalSegment>> FeedLog::ListSegments(const std::string& dir) {
  std::vector<WalSegment> segments;
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec);
  if (ec) {
    if (ec == std::errc::no_such_file_or_directory) return segments;
    return Status::DataLoss("cannot list feed log directory '" + dir +
                            "': " + ec.message());
  }
  for (; it != std::filesystem::directory_iterator(); it.increment(ec)) {
    uint64_t first_seq = 0;
    if (ParseSegmentName(it->path().filename().string(), &first_seq)) {
      segments.push_back(WalSegment{first_seq, SegmentPath(dir, first_seq)});
    }
  }
  if (ec) {
    return Status::DataLoss("cannot list feed log directory '" + dir +
                            "': " + ec.message());
  }
  std::sort(segments.begin(), segments.end(),
            [](const WalSegment& a, const WalSegment& b) {
              return a.first_seq < b.first_seq;
            });
  return segments;
}

Result<FeedLog> FeedLog::Create(const std::string& dir, uint64_t first_seq) {
  FeedLog log;
  log.dir_ = dir;
  log.path_ = SegmentPath(dir, first_seq);
  log.first_seq_ = first_seq;
  log.next_seq_ = first_seq;
  log.synced_seq_ = first_seq;
  // "x": never truncate a segment that is already there.
  log.file_ = std::fopen(log.path_.c_str(), "wbx");
  if (log.file_ == nullptr) {
    return Status::InvalidArgument("cannot create feed log segment '" +
                                   log.path_ + "'");
  }
  std::string header;
  AppendFrame(&header, EncodeHeader());
  if (std::fwrite(header.data(), 1, header.size(), log.file_) !=
      header.size()) {
    return Status::DataLoss("failed to write feed log header to '" +
                            log.path_ + "'");
  }
  log.dirty_ = true;
  ONESQL_RETURN_NOT_OK(log.Sync());
  // The freshly created file's directory entry must be durable too, or a
  // crash right after "durability enabled" can leave no log at all.
  ONESQL_RETURN_NOT_OK(FsyncDir(dir));
  return log;
}

Result<SegmentEnd> FeedLog::ReadSegment(const WalSegment& segment,
                                        uint64_t decode_from,
                                        std::vector<FeedEvent>* events) {
  ONESQL_ASSIGN_OR_RETURN(std::string data, ReadFileToString(segment.path));
  const char* p = data.data();
  const char* end = p + data.size();
  ONESQL_ASSIGN_OR_RETURN(std::string_view header, ReadFrame(&p, end));
  ONESQL_RETURN_NOT_OK(CheckHeader(header));
  uint64_t next_seq = segment.first_seq;
  while (p != end) {
    ONESQL_ASSIGN_OR_RETURN(std::string_view payload, ReadFrame(&p, end));
    Reader r(payload);
    ONESQL_ASSIGN_OR_RETURN(uint64_t seq, r.ReadVarint());
    if (seq != next_seq) {
      return Status::DataLoss("feed log sequence gap in '" + segment.path +
                              "': expected record " +
                              std::to_string(next_seq) + ", found " +
                              std::to_string(seq));
    }
    ++next_seq;
    if (events == nullptr || seq < decode_from) continue;
    ONESQL_ASSIGN_OR_RETURN(FeedEvent event, r.ReadFeedEvent());
    ONESQL_RETURN_NOT_OK(r.ExpectEnd());
    events->push_back(std::move(event));
  }
  return SegmentEnd{next_seq, data.size()};
}

Result<FeedLog> FeedLog::Attach(const WalSegment& segment,
                                const SegmentEnd& end) {
  FeedLog log;
  const size_t slash = segment.path.find_last_of('/');
  log.dir_ = slash == std::string::npos ? "." : segment.path.substr(0, slash);
  log.path_ = segment.path;
  log.first_seq_ = segment.first_seq;
  log.next_seq_ = end.next_seq;
  log.synced_seq_ = end.next_seq;
  log.file_ = std::fopen(segment.path.c_str(), "ab");
  if (log.file_ == nullptr) {
    return Status::InvalidArgument("cannot open feed log '" + segment.path +
                                   "' for appending");
  }
  // Appends land past the bytes that were validated, and nothing else.
  if (std::fseek(log.file_, 0, SEEK_END) != 0 ||
      std::ftell(log.file_) != static_cast<long>(end.bytes)) {
    return Status::DataLoss("feed log '" + segment.path +
                            "' changed after it was validated");
  }
  return log;
}

Result<FeedLog> FeedLog::Open(const WalSegment& segment) {
  ONESQL_ASSIGN_OR_RETURN(SegmentEnd end,
                          ReadSegment(segment, segment.first_seq, nullptr));
  return Attach(segment, end);
}

Status FeedLog::Fail(Status status) {
  error_ = status;
  return status;
}

Status FeedLog::Append(uint64_t seq, const FeedEvent& event) {
  if (file_ == nullptr) {
    return Status::Internal("feed log is not open");
  }
  if (!error_.ok()) return error_;
  if (seq != next_seq_) {
    return Status::Internal("feed log append out of order: expected seq " +
                            std::to_string(next_seq_) + ", got " +
                            std::to_string(seq));
  }
  std::string frame;
  AppendFrame(&frame, EncodeRecord(seq, event));
  const uint64_t start = metrics_ != nullptr ? MonotonicMicros() : 0;
  if (std::fwrite(frame.data(), 1, frame.size(), file_) != frame.size()) {
    return Fail(
        Status::DataLoss("failed to append to feed log '" + path_ + "'"));
  }
  if (metrics_ != nullptr) {
    metrics_->append_latency_us->Record(MonotonicMicros() - start);
    metrics_->appends->Increment();
    metrics_->bytes_written->Add(frame.size());
  }
  ++next_seq_;
  dirty_ = true;
  return Status::OK();
}

Status FeedLog::Sync() {
  if (file_ == nullptr) {
    return Status::Internal("feed log is not open");
  }
  if (!error_.ok()) return error_;
  if (!dirty_) return Status::OK();
  const uint64_t start = metrics_ != nullptr ? MonotonicMicros() : 0;
  if (std::fflush(file_) != 0 || FsyncFile(file_) != 0) {
    return Fail(Status::DataLoss("failed to sync feed log '" + path_ + "'"));
  }
  if (metrics_ != nullptr) {
    metrics_->sync_latency_us->Record(MonotonicMicros() - start);
    metrics_->syncs->Increment();
    metrics_->group_size->Record(next_seq_ - synced_seq_);
  }
  synced_seq_ = next_seq_;
  dirty_ = false;
  return Status::OK();
}

Status FeedLog::Roll() {
  if (file_ == nullptr) {
    return Status::Internal("feed log is not open");
  }
  ONESQL_RETURN_NOT_OK(Sync());
  if (next_seq_ == first_seq_) return Status::OK();
  const std::string path = SegmentPath(dir_, next_seq_);
  std::string header;
  AppendFrame(&header, EncodeHeader());
  // Once the new segment may exist, a restore reads the log from it, so any
  // failure from here on must stop later appends to the old tail.
  if (Status written = WriteFileAtomic(path, header); !written.ok()) {
    return Fail(std::move(written));
  }
  std::FILE* next = std::fopen(path.c_str(), "ab");
  if (next == nullptr) {
    return Fail(Status::DataLoss("cannot open new feed log segment '" + path +
                                 "' for appending"));
  }
  std::fclose(file_);
  file_ = next;
  path_ = path;
  first_seq_ = next_seq_;
  return Status::OK();
}

Status FeedLog::DropSegmentsBelow(uint64_t seq) {
  ONESQL_ASSIGN_OR_RETURN(std::vector<WalSegment> segments,
                          ListSegments(dir_));
  bool dropped = false;
  for (size_t i = 0; i + 1 < segments.size() &&
                     segments[i].first_seq < first_seq_ &&
                     segments[i + 1].first_seq <= seq;
       ++i) {
    if (std::remove(segments[i].path.c_str()) != 0) {
      return Status::DataLoss("cannot delete covered feed log segment '" +
                              segments[i].path + "'");
    }
    dropped = true;
  }
  return dropped ? FsyncDir(dir_) : Status::OK();
}

Status FeedLog::Close() {
  if (file_ == nullptr) return Status::OK();
  Status sync = dirty_ ? Sync() : error_;
  std::fclose(file_);
  file_ = nullptr;
  dirty_ = false;
  return sync;
}

}  // namespace state
}  // namespace onesql
