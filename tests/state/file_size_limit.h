#ifndef ONESQL_TESTS_STATE_FILE_SIZE_LIMIT_H_
#define ONESQL_TESTS_STATE_FILE_SIZE_LIMIT_H_

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>

namespace onesql {
namespace state {

/// Lowers this process's own file-size limit (the soft RLIMIT_FSIZE), so a
/// write that would take any file past `bytes` fails with EFBIG, as on a
/// full disk. SIGXFSZ is ignored, so the write returns an error instead of
/// killing the process. Meant for a gtest death-test child: the limit and
/// the signal disposition end with it.
class FileSizeLimit {
 public:
  explicit FileSizeLimit(uint64_t bytes) {
    std::signal(SIGXFSZ, SIG_IGN);
    ok_ = getrlimit(RLIMIT_FSIZE, &saved_) == 0;
    rlimit lowered = saved_;
    lowered.rlim_cur = static_cast<rlim_t>(bytes);
    ok_ = ok_ && setrlimit(RLIMIT_FSIZE, &lowered) == 0;
  }
  ~FileSizeLimit() { Lift(); }

  FileSizeLimit(const FileSizeLimit&) = delete;
  FileSizeLimit& operator=(const FileSizeLimit&) = delete;

  /// True when the limit was applied.
  bool ok() const { return ok_; }

  /// Restores the previous limit: writes succeed again from here on.
  void Lift() {
    if (ok_) setrlimit(RLIMIT_FSIZE, &saved_);
  }

 private:
  rlimit saved_{};
  bool ok_ = false;
};

/// Runs `check` in a gtest death-test child, so a FileSizeLimit it sets ends
/// with the child, and fails the calling test unless `check` returns ""
/// (anything else describes what went wrong).
inline void ExpectPassesInChild(const std::function<std::string()>& check) {
  EXPECT_EXIT(
      {
        const std::string error = check();
        std::fprintf(stderr, "%s\n",
                     error.empty() ? "child check passed" : error.c_str());
        std::_Exit(error.empty() ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "child check passed");
}

}  // namespace state
}  // namespace onesql

#endif  // ONESQL_TESTS_STATE_FILE_SIZE_LIMIT_H_
