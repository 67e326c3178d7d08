// Thread invariance of the shipped compile: p4allc's default path
// (compile_source with default options — dense LP backend, best-first
// branch-and-bound) must produce the bit-identical solve at 1 and 8 search
// threads on every benchmark application instance. Threads only split the
// LP work inside a batch; they must never reach the search tree, the
// incumbent, or the statistics.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "apps/applications.hpp"
#include "apps/netcache.hpp"
#include "compiler/compiler.hpp"

namespace p4all::compiler {
namespace {

struct AppInstance {
    const char* name;
    std::string source;
};

std::vector<AppInstance> app_instances() {
    return {
        {"netcache", apps::netcache_source()},
        {"sketchlearn_l4", apps::sketchlearn_source(4)},
        {"precision", apps::precision_source()},
        {"conquest_s4", apps::conquest_source(4)},
        {"conquest_s6", apps::conquest_source(6)},
    };
}

CompileResult compile_at(const AppInstance& app, int threads) {
    CompileOptions options;
    options.solve.threads = threads;
    return compile_source(app.source, options, app.name);
}

class ShippedCompileThreads : public ::testing::TestWithParam<int> {};

TEST_P(ShippedCompileThreads, OneAndEightThreadsAreBitIdentical) {
    const AppInstance app = app_instances()[static_cast<std::size_t>(GetParam())];
    const CompileResult t1 = compile_at(app, 1);
    const CompileResult t8 = compile_at(app, 8);
    ASSERT_NE(t1.artifacts, nullptr);
    ASSERT_NE(t8.artifacts, nullptr);

    EXPECT_EQ(t8.artifacts->solution.status, t1.artifacts->solution.status) << app.name;
    EXPECT_EQ(t8.artifacts->solution.error, t1.artifacts->solution.error) << app.name;
    // Bit-identical: plain == on the doubles, no tolerance.
    EXPECT_EQ(t8.utility, t1.utility) << app.name;
    EXPECT_EQ(t8.layout.bindings, t1.layout.bindings) << app.name;
    EXPECT_EQ(t8.layout.to_string(t8.program), t1.layout.to_string(t1.program)) << app.name;
    EXPECT_EQ(t8.stats.bb_nodes, t1.stats.bb_nodes) << app.name;
    EXPECT_EQ(t8.stats.lp_iterations, t1.stats.lp_iterations) << app.name;
}

INSTANTIATE_TEST_SUITE_P(BenchmarkApps, ShippedCompileThreads, ::testing::Range(0, 5),
                         [](const ::testing::TestParamInfo<int>& info) {
                             return std::string(
                                 app_instances()[static_cast<std::size_t>(info.param)].name);
                         });

}  // namespace
}  // namespace p4all::compiler
