// Per-process scratch paths for tests that write files.
//
// ctest runs every gtest case in a process of its own, several at once
// under `ctest -j`. A fixed file name under the temp directory is then
// shared by concurrent processes, which truncate each other's files.
// scratch_path() puts every file in a directory private to the process
// (named by its pid) and names the file after the running test; the
// directory is removed when the process exits.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <system_error>

namespace mtd::test {

/// `<temp dir>/mtd-test-<pid>`, created on first use.
inline const std::filesystem::path& scratch_dir() {
  struct Dir {
    std::filesystem::path path =
        std::filesystem::path(::testing::TempDir()) /
        ("mtd-test-" + std::to_string(::getpid()));
    Dir() { std::filesystem::create_directories(path); }
    Dir(const Dir&) = delete;
    Dir& operator=(const Dir&) = delete;
    ~Dir() {
      std::error_code ec;
      std::filesystem::remove_all(path, ec);
    }
  };
  static const Dir dir;
  return dir.path;
}

/// `<scratch_dir()>/<Suite>.<Test>.<name>`: unique to this process and the
/// running test.
inline std::string scratch_path(const std::string& name) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string test = info == nullptr ? std::string("global")
                                     : std::string(info->test_suite_name()) +
                                           "." + info->name();
  std::replace(test.begin(), test.end(), '/', '_');
  return (scratch_dir() / (test + "." + name)).string();
}

}  // namespace mtd::test
