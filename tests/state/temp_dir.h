#ifndef ONESQL_TESTS_STATE_TEMP_DIR_H_
#define ONESQL_TESTS_STATE_TEMP_DIR_H_

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <mutex>
#include <string>
#include <system_error>
#include <vector>

#ifdef _WIN32
#include <process.h>
#else
#include <unistd.h>
#endif

#include "state/frame.h"

namespace onesql {
namespace state {

/// Removes, when the running test ends, every directory NewTempDir made
/// during it. Registered with gtest on first use; gtest owns it.
class TempDirCleaner : public ::testing::EmptyTestEventListener {
 public:
  static TempDirCleaner& Get() {
    static TempDirCleaner* cleaner = [] {
      auto* c = new TempDirCleaner();
      ::testing::UnitTest::GetInstance()->listeners().Append(c);
      return c;
    }();
    return *cleaner;
  }

  void Add(const std::string& dir) {
    std::lock_guard<std::mutex> lock(mu_);
    dirs_.push_back(dir);
  }

  void OnTestEnd(const ::testing::TestInfo& /*info*/) override {
    std::lock_guard<std::mutex> lock(mu_);
    for (const std::string& dir : dirs_) {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }
    dirs_.clear();
  }

 private:
  TempDirCleaner() = default;

  std::mutex mu_;
  std::vector<std::string> dirs_;
};

/// A fresh, empty directory under gtest's temp root, unique per call within
/// the process (the pid disambiguates concurrent test processes), removed
/// with its contents when the calling test ends. A reused pid can name the
/// directory of an earlier process that did not finish its test, so
/// whatever is left there is removed first.
inline std::string NewTempDir(const std::string& tag) {
  static std::atomic<int> counter{0};
  const std::string dir = ::testing::TempDir() + "onesql_" + tag + "_" +
                          std::to_string(static_cast<long>(getpid())) + "_" +
                          std::to_string(counter.fetch_add(1));
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  EXPECT_FALSE(ec) << ec.message();
  const Status s = EnsureDirectory(dir);
  EXPECT_TRUE(s.ok()) << s.ToString();
  TempDirCleaner::Get().Add(dir);
  return dir;
}

}  // namespace state
}  // namespace onesql

#endif  // ONESQL_TESTS_STATE_TEMP_DIR_H_
