#include "state/checkpoint.h"

#include "state/frame.h"
#include "state/serde.h"

namespace onesql {
namespace state {

namespace {

constexpr char kCheckpointMagic[] = "1SQLCKP1";  // 8 bytes, excluding NUL
constexpr size_t kMagicLen = 8;
constexpr uint64_t kCheckpointVersion = 2;

std::string EncodeHeader() {
  Writer w;
  w.PutBytes(std::string_view(kCheckpointMagic, kMagicLen));
  w.PutVarint(kCheckpointVersion);
  return std::move(w).TakeBuffer();
}

Status CheckHeader(std::string_view payload) {
  if (payload.size() < kMagicLen ||
      payload.substr(0, kMagicLen) !=
          std::string_view(kCheckpointMagic, kMagicLen)) {
    return Status::DataLoss("not a checkpoint file: bad magic");
  }
  Reader body(payload.substr(kMagicLen));
  ONESQL_ASSIGN_OR_RETURN(uint64_t version, body.ReadVarint());
  if (version > 0 && version < kCheckpointVersion) {
    return Status::NotImplemented(
        "checkpoint format version " + std::to_string(version) +
        " is no longer read (this build reads only version " +
        std::to_string(kCheckpointVersion) + ")");
  }
  if (version != kCheckpointVersion) {
    return Status::DataLoss("unsupported checkpoint format version " +
                            std::to_string(version));
  }
  return body.ExpectEnd();
}

}  // namespace

void CheckpointWriter::AddSection(std::string payload) {
  sections_.push_back(std::move(payload));
}

Status CheckpointWriter::WriteTo(const std::string& path) const {
  std::string data;
  AppendFrame(&data, EncodeHeader());
  for (const std::string& section : sections_) {
    AppendFrame(&data, section);
  }
  return WriteFileAtomic(path, data);
}

Result<CheckpointReader> CheckpointReader::Open(const std::string& path) {
  CheckpointReader reader;
  ONESQL_ASSIGN_OR_RETURN(reader.data_, ReadFileToString(path));
  const char* p = reader.data_.data();
  const char* end = p + reader.data_.size();
  ONESQL_ASSIGN_OR_RETURN(std::string_view header, ReadFrame(&p, end));
  ONESQL_RETURN_NOT_OK(CheckHeader(header));
  while (p != end) {
    ONESQL_ASSIGN_OR_RETURN(std::string_view payload, ReadFrame(&p, end));
    reader.sections_.emplace_back(
        static_cast<size_t>(payload.data() - reader.data_.data()),
        payload.size());
  }
  return reader;
}

}  // namespace state
}  // namespace onesql
