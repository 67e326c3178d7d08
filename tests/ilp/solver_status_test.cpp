// Property-style status-reporting tests (resilience satellite): degenerate,
// infeasible, unbounded, and budget-starved models must come back with the
// right SolveStatus and a consistent Solution shape — never a false Optimal,
// never a partially-filled values vector, never a lost warm-start incumbent
// (even when an LP breaks down mid-search).
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ilp/simplex.hpp"
#include "ilp/solver.hpp"
#include "support/faultpoint.hpp"
#include "support/rng.hpp"

namespace p4all::ilp {
namespace {

/// Invariant every solver exit must satisfy: values and root_duals are
/// either empty or exactly full-length, whatever the status.
void expect_consistent_shape(const Model& m, const Solution& s) {
    EXPECT_TRUE(s.values.empty() ||
                s.values.size() == static_cast<std::size_t>(m.num_vars()))
        << "values has " << s.values.size() << " entries for " << m.num_vars() << " vars";
    EXPECT_TRUE(s.root_duals.empty() ||
                s.root_duals.size() == static_cast<std::size_t>(m.num_constraints()))
        << "root_duals has " << s.root_duals.size() << " entries for "
        << m.num_constraints() << " rows";
    if (s.status == SolveStatus::Optimal) {
        EXPECT_EQ(s.error, support::Errc::None);
        EXPECT_FALSE(s.values.empty());
    } else {
        EXPECT_NE(s.error, support::Errc::None);
    }
}

Model infeasible_model() {
    Model m;
    const Var x = m.add_integer("x", 0, 10);
    m.add_le(LinExpr().add(x, 1.0), 3.0);
    m.add_ge(LinExpr().add(x, 1.0), 5.0);
    m.set_objective(LinExpr().add(x, 1.0));
    return m;
}

Model unbounded_model() {
    Model m;
    const Var x = m.add_continuous("x", 0.0, kInfinity);
    m.set_objective(LinExpr().add(x, 1.0));
    return m;
}

/// Highly degenerate: many redundant constraints through the same vertex.
Model degenerate_model() {
    Model m;
    const Var x = m.add_integer("x", 0, 8);
    const Var y = m.add_integer("y", 0, 8);
    for (int i = 1; i <= 6; ++i) {
        m.add_le(LinExpr().add(x, static_cast<double>(i)).add(y, static_cast<double>(i)),
                 8.0 * i);
    }
    m.set_objective(LinExpr().add(x, 1.0).add(y, 1.0));
    return m;
}

Model small_feasible_model() {
    Model m;
    const Var x = m.add_integer("x", 0, 5);
    const Var y = m.add_integer("y", 0, 5);
    m.add_le(LinExpr().add(x, 2.0).add(y, 3.0), 12.0);
    m.set_objective(LinExpr().add(x, 3.0).add(y, 4.0));
    return m;
}

TEST(SolveStatusProps, InfeasibleReportedAsInfeasible) {
    const Solution s = solve_milp(infeasible_model());
    EXPECT_EQ(s.status, SolveStatus::Infeasible);
    expect_consistent_shape(infeasible_model(), s);
}

TEST(SolveStatusProps, UnboundedReportedAsUnbounded) {
    const Solution s = solve_milp(unbounded_model());
    EXPECT_EQ(s.status, SolveStatus::Unbounded);
    expect_consistent_shape(unbounded_model(), s);
}

TEST(SolveStatusProps, DegenerateModelStillOptimal) {
    const Solution s = solve_milp(degenerate_model());
    ASSERT_EQ(s.status, SolveStatus::Optimal);
    EXPECT_NEAR(s.objective, 8.0, 1e-6);
    expect_consistent_shape(degenerate_model(), s);
}

TEST(SolveStatusProps, ExpiredDeadlineIsLimitNotOptimal) {
    SolveOptions opts;
    opts.deadline = support::Deadline::after_seconds(0.0);
    const Solution s = solve_milp(small_feasible_model(), opts);
    EXPECT_EQ(s.status, SolveStatus::Limit);
    EXPECT_EQ(s.error, support::Errc::DeadlineExceeded);
    EXPECT_FALSE(s.error_detail.empty());
    expect_consistent_shape(small_feasible_model(), s);
}

TEST(SolveStatusProps, CancelledTokenIsLimitWithCancelledCode) {
    support::CancelToken token = support::CancelToken::make();
    token.request_cancel();
    SolveOptions opts;
    opts.deadline = support::Deadline::cancellable(token);
    const Solution s = solve_milp(small_feasible_model(), opts);
    EXPECT_EQ(s.status, SolveStatus::Limit);
    EXPECT_EQ(s.error, support::Errc::Cancelled);
    expect_consistent_shape(small_feasible_model(), s);
}

TEST(SolveStatusProps, NodeBudgetIsLimitWithResourceCode) {
    SolveOptions opts;
    opts.max_nodes = 0;
    const Solution s = solve_milp(small_feasible_model(), opts);
    EXPECT_EQ(s.status, SolveStatus::Limit);
    EXPECT_EQ(s.error, support::Errc::ResourceLimit);
    expect_consistent_shape(small_feasible_model(), s);
}

TEST(SolveStatusProps, WarmStartSurvivesAnExpiredDeadline) {
    // Anytime semantics at the solver level: the incumbent handed in as a
    // warm start must come back in a Limit result, not be discarded — on
    // either LP backend.
    const Model m = small_feasible_model();
    for (const LpBackend backend : {LpBackend::Dense, LpBackend::Sparse}) {
        const char* label = to_string(backend);
        SolveOptions opts;
        opts.lp_backend = backend;
        opts.deadline = support::Deadline::after_seconds(0.0);
        opts.warm_start = {0.0, 4.0};
        const Solution s = solve_milp(m, opts);
        EXPECT_EQ(s.status, SolveStatus::Limit) << label;
        EXPECT_EQ(s.error, support::Errc::DeadlineExceeded) << label;
        ASSERT_EQ(s.values.size(), 2u) << label;
        EXPECT_NEAR(s.objective, 16.0, 1e-9) << label;
        EXPECT_TRUE(m.is_feasible(s.values, 1e-6)) << label;
    }
}

/// Eight binaries under three knapsack rows: a real root gap, a feasible
/// all-zeros warm start, and enough LP work that a pivot-fault sweep lands
/// in the root solve and in branch-and-bound children alike.
Model gap_model() {
    Model m;
    std::vector<Var> x;
    LinExpr obj;
    for (int j = 0; j < 8; ++j) {
        x.push_back(m.add_binary("x" + std::to_string(j)));
        obj.add(x.back(), 2.0 + static_cast<double>(j % 3));
    }
    m.set_objective(obj);
    LinExpr a, b, c;
    for (int j = 0; j < 8; ++j) {
        a.add(x[static_cast<std::size_t>(j)], 2.0);
        if (j % 2 == 0) b.add(x[static_cast<std::size_t>(j)], 3.0);
        if (j % 3 == 0) c.add(x[static_cast<std::size_t>(j)], 2.0);
    }
    m.add_le(std::move(a), 7, "a");
    m.add_le(std::move(b), 5, "b");
    m.add_le(std::move(c), 3, "c");
    return m;
}

TEST(SolveStatusProps, PivotFaultSweepKeepsWarmIncumbentAndRootBound) {
    // An LP that breaks down at its H-th pivot (simulated numerical trouble,
    // for every H across the root solve and the search) must end in a clean
    // Optimal or Limit, keep a feasible incumbent (at worst the warm start),
    // and never report a root bound below the optimum.
    const Model m = gap_model();
    SolveOptions opts;
    opts.lp_backend = LpBackend::Sparse;
    opts.threads = 1;  // deterministic fault-hit ordinals
    opts.warm_start.assign(static_cast<std::size_t>(m.num_vars()), 0.0);
    const Solution clean = solve_milp(m, opts);
    ASSERT_EQ(clean.status, SolveStatus::Optimal);

    auto& reg = support::FaultRegistry::instance();
    int limits = 0;
    for (int hit = 1; hit <= 80; ++hit) {
        reg.configure("simplex.pivot:after=" + std::to_string(hit));
        const Solution s = solve_milp(m, opts);
        const std::string label = "fault at pivot " + std::to_string(hit);
        ASSERT_TRUE(s.status == SolveStatus::Optimal || s.status == SolveStatus::Limit)
            << label;
        ASSERT_FALSE(s.values.empty()) << label;
        EXPECT_TRUE(m.is_feasible(s.values, 1e-6)) << label;
        EXPECT_GE(s.objective, -1e-9) << label;
        if (s.status == SolveStatus::Limit) {
            ++limits;
            EXPECT_NE(s.error, support::Errc::None) << label;
        } else {
            EXPECT_NEAR(s.objective, clean.objective, 1e-6) << label;
        }
        // A fault inside the root LP abandons the root: no certificate is
        // recorded and the search cannot prove anything.
        if (s.root_duals.empty()) {
            EXPECT_EQ(s.status, SolveStatus::Limit) << label;
        } else {
            EXPECT_GE(s.root_bound, clean.objective - 1e-6) << label;
        }
        expect_consistent_shape(m, s);
    }
    reg.clear();
    // The sweep reaches both outcomes: a fault in the cold root LP abandons
    // the root (Limit), while one in a warm-started child LP falls back to a
    // cold re-solve and the search still proves the optimum.
    EXPECT_GT(limits, 0);
    EXPECT_LT(limits, 80);
}

// Suite name kept from when this lived with the (since removed) root cut
// loop; the contract it pins is the sparse backend's deadline handling.
TEST(Cuts, ExpiredDeadlineReturnsLimitWithWarmIncumbent) {
    // A deadline already past on a model with a real root gap: the sparse
    // backend must stop with Limit and hand back the warm start, not an
    // empty or partial result.
    const Model m = gap_model();
    SolveOptions o;
    o.lp_backend = LpBackend::Sparse;
    o.warm_start.assign(static_cast<std::size_t>(m.num_vars()), 0.0);
    o.deadline = support::Deadline::after_seconds(0.0);
    const Solution s = solve_milp(m, o);
    EXPECT_EQ(s.status, SolveStatus::Limit);
    EXPECT_EQ(s.error, support::Errc::DeadlineExceeded);
    ASSERT_FALSE(s.values.empty());
    EXPECT_TRUE(m.is_feasible(s.values, 1e-6));
    EXPECT_NEAR(s.objective, 0.0, 1e-9);  // the warm start, kept
    expect_consistent_shape(m, s);
}

TEST(SolveStatusProps, LpHonorsDeadlineInsideTheIterationLoop) {
    const Model m = degenerate_model();
    LpOptions opts;
    opts.deadline = support::Deadline::after_seconds(0.0);
    for (auto* solver : {&solve_lp, &solve_lp_textbook}) {
        const LpResult r = (*solver)(m, nullptr, nullptr, opts);
        EXPECT_EQ(r.status, LpStatus::IterLimit);
        EXPECT_TRUE(r.deadline_hit);
        EXPECT_EQ(r.error, support::Errc::DeadlineExceeded);
    }
}

TEST(SolveStatusProps, LpReportsCancellationDistinctly) {
    support::CancelToken token = support::CancelToken::make();
    token.request_cancel();
    LpOptions opts;
    opts.deadline = support::Deadline::cancellable(token);
    const LpResult r = solve_lp(degenerate_model(), nullptr, nullptr, opts);
    EXPECT_EQ(r.status, LpStatus::IterLimit);
    EXPECT_TRUE(r.deadline_hit);
    EXPECT_EQ(r.error, support::Errc::Cancelled);
}

TEST(SolveStatusProps, ExhaustiveDeadlineKeepsBestSoFar) {
    const Solution s =
        solve_exhaustive(small_feasible_model(), 1 << 22, support::Deadline::after_seconds(0.0));
    EXPECT_EQ(s.status, SolveStatus::Limit);
    EXPECT_EQ(s.error, support::Errc::DeadlineExceeded);
    expect_consistent_shape(small_feasible_model(), s);
}

// Bland's rule from iteration 0 must agree with Devex/Dantzig pricing on the
// optimum — across a family of pseudo-random bounded models.
TEST(SolveStatusProps, ForceBlandAgreesWithDefaultPricing) {
    for (std::uint64_t trial = 0; trial < 12; ++trial) {
        support::Xoshiro256 rng(trial * 7919 + 101);
        Model m;
        const int n = 2 + static_cast<int>(rng.next_below(4));
        std::vector<Var> vars;
        LinExpr obj;
        for (int j = 0; j < n; ++j) {
            vars.push_back(m.add_integer("v" + std::to_string(j), 0,
                                         1 + static_cast<std::int64_t>(rng.next_below(6))));
            obj.add(vars.back(), 1.0 + static_cast<double>(rng.next_below(9)));
        }
        for (int c = 0; c < 2; ++c) {
            LinExpr row;
            for (const Var v : vars) {
                row.add(v, 1.0 + static_cast<double>(rng.next_below(4)));
            }
            m.add_le(row, 10.0 + static_cast<double>(rng.next_below(20)));
        }
        m.set_objective(obj);

        SolveOptions plain;
        SolveOptions bland;
        bland.lp.force_bland = true;
        const Solution a = solve_milp(m, plain);
        const Solution b = solve_milp(m, bland);
        ASSERT_EQ(a.status, SolveStatus::Optimal) << "trial " << trial;
        ASSERT_EQ(b.status, SolveStatus::Optimal) << "trial " << trial;
        EXPECT_NEAR(a.objective, b.objective, 1e-6) << "trial " << trial;
        expect_consistent_shape(m, b);
    }
}

// A reseeded perturbation tilts the optimal face differently but must not
// change the optimum itself.
TEST(SolveStatusProps, PerturbSeedDoesNotChangeTheOptimum) {
    const Model m = degenerate_model();
    for (const std::uint64_t seed : {0ULL, 1ULL, 42ULL, 0x5EEDBA5EULL}) {
        SolveOptions opts;
        opts.lp.perturb_seed = seed;
        const Solution s = solve_milp(m, opts);
        ASSERT_EQ(s.status, SolveStatus::Optimal) << "seed " << seed;
        EXPECT_NEAR(s.objective, 8.0, 1e-6) << "seed " << seed;
    }
}

}  // namespace
}  // namespace p4all::ilp
