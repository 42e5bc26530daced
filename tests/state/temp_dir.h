#ifndef ONESQL_TESTS_STATE_TEMP_DIR_H_
#define ONESQL_TESTS_STATE_TEMP_DIR_H_

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <system_error>

#ifdef _WIN32
#include <process.h>
#else
#include <unistd.h>
#endif

#include "state/frame.h"

namespace onesql {
namespace state {

/// A fresh, empty directory under gtest's temp root, unique per call within
/// the process (the pid disambiguates concurrent test processes). A reused
/// pid can name the directory of an earlier, finished process, so whatever
/// is left there is removed first.
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
  return dir;
}

}  // namespace state
}  // namespace onesql

#endif  // ONESQL_TESTS_STATE_TEMP_DIR_H_
