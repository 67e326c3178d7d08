// Per-test scratch directory for tests that touch the filesystem.
//
// gtest_discover_tests runs every test case as its own process, so under
// `ctest -j` cases run concurrently. A fixed path under ::testing::TempDir()
// lets one case delete or rename another's journals, snapshots and traces.
// UniqueTempDir names its directory after the process id, the running test
// and a per-process counter, creates it, and removes it with everything in
// it on destruction.
#pragma once

#include <unistd.h>

#include <atomic>
#include <cctype>
#include <filesystem>
#include <string>
#include <string_view>
#include <system_error>

#include <gtest/gtest.h>

namespace p4all::test {

class UniqueTempDir {
public:
    UniqueTempDir() {
        static std::atomic<int> counter{0};
        std::string test = "global";
        if (const ::testing::TestInfo* info =
                ::testing::UnitTest::GetInstance()->current_test_info()) {
            test = std::string(info->test_suite_name()) + "." + info->name();
        }
        // Parameterized names carry '/'; keep the name one path component.
        for (char& c : test) {
            if (std::isalnum(static_cast<unsigned char>(c)) == 0 && c != '.' && c != '-') c = '_';
        }
        path_ = ::testing::TempDir() + "p4all_" + std::to_string(::getpid()) + "_" + test + "_" +
                std::to_string(counter.fetch_add(1));
        std::filesystem::remove_all(path_);
        std::filesystem::create_directories(path_);
    }
    ~UniqueTempDir() {
        std::error_code ec;
        std::filesystem::remove_all(path_, ec);
    }
    UniqueTempDir(const UniqueTempDir&) = delete;
    UniqueTempDir& operator=(const UniqueTempDir&) = delete;

    [[nodiscard]] const std::string& path() const noexcept { return path_; }
    /// `name` inside the directory.
    [[nodiscard]] std::string file(std::string_view name) const {
        return path_ + "/" + std::string(name);
    }

private:
    std::string path_;
};

}  // namespace p4all::test
