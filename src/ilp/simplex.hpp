// Dense two-phase primal simplex for LP relaxations.
//
// Solves  maximize c'x  s.t. model constraints and variable bounds,
// with optional per-call bound overrides so branch-and-bound can tighten
// bounds without copying the model. All lower bounds must be finite (true
// for every model the compiler builds: placements and sizes are ≥ 0).
//
// Implementation: variables are shifted to y = x - lb ≥ 0; finite upper
// bounds become explicit rows; Ge/Eq rows get artificial variables; phase 1
// minimizes the artificial sum, phase 2 optimizes the real objective.
// Dantzig pricing with an automatic switch to Bland's rule guards against
// cycling.
#pragma once

#include <cstdint>
#include <vector>

#include "ilp/model.hpp"
#include "support/deadline.hpp"
#include "support/error.hpp"

namespace p4all::ilp {

enum class LpStatus { Optimal, Infeasible, Unbounded, IterLimit };

/// A captured simplex basis: for each standard-form row the basic column
/// index, plus the nonbasic-at-upper flag of every standard-form column.
/// Column identities live in the producing backend's own standard form
/// (structurals, then slacks, then artificials), so a basis is only
/// meaningful when re-imported into the same backend for the same model —
/// possibly with different variable bounds, which is exactly the
/// branch-and-bound warm-start case: a child differs from its parent by one
/// bound, the parent's optimal basis stays dual-feasible, and the dual
/// simplex repairs primal feasibility in a handful of pivots.
struct SimplexBasis {
    std::vector<int> basic;               // standard-form row -> basic column
    std::vector<std::uint8_t> at_upper;   // standard-form column -> at upper bound
    [[nodiscard]] bool empty() const noexcept { return basic.empty(); }
};

struct LpResult {
    LpStatus status = LpStatus::IterLimit;
    double objective = 0.0;
    /// Valid upper bound on the true LP optimum: `objective` plus the exact
    /// cost-perturbation budget (== objective when perturbation is off).
    /// Branch-and-bound must prune against this, not `objective`.
    double bound = 0.0;
    std::vector<double> values;  // indexed by model variable id
    /// Dual multipliers, one per model constraint row, in the maximize
    /// convention: y ≥ 0 for Le rows, y ≤ 0 for Ge rows, free for Eq rows.
    /// Any sign-correct vector certifies the upper bound
    ///   Σ y_i·rhs_i + Σ_j max(d_j·lb_j, d_j·ub_j),  d_j = c_j − Σ_i y_i·A_ij,
    /// which the audit layer re-derives in exact rational arithmetic
    /// (audit/certificate.hpp). Empty unless status == Optimal.
    std::vector<double> duals;
    /// Exact objective error budget of the deterministic cost perturbation
    /// (== bound − objective; kept separately so certificate checks need not
    /// reconstruct it from two rounded doubles).
    double bound_slack = 0.0;
    int iterations = 0;
    /// True when IterLimit was caused by the deadline/cancellation rather
    /// than the iteration budget.
    bool deadline_hit = false;
    /// Structured diagnostic for non-Optimal statuses: DeadlineExceeded /
    /// Cancelled / ResourceLimit / NumericalTrouble (detected or injected).
    support::Errc error = support::Errc::None;
};

struct LpOptions {
    int max_iterations = 0;  // 0 ⇒ automatic (scales with model size)
    double tol = 1e-9;
    /// Deterministic cost perturbation scale. Placement LPs have huge
    /// optimal faces (stage symmetry); a tiny per-column cost tilt collapses
    /// the face to a vertex and avoids degenerate crawling. The induced
    /// bound error is accounted exactly in LpResult::bound. 0 disables.
    double perturbation = 1e-7;
    /// Extra entropy mixed into the deterministic perturbation: restarting a
    /// numerically stuck solve with a different seed tilts the face along a
    /// different direction. 0 reproduces the historical tilt; every value is
    /// fully reproducible (log the seed, replay the solve).
    std::uint64_t perturb_seed = 0;
    /// Run Bland's rule from the first iteration instead of engaging it only
    /// after a degenerate stall — slower but cycle-proof; the fallback
    /// driver's restart profile.
    bool force_bland = false;
    /// Cooperative wall-clock budget, polled inside the iteration loop (so a
    /// single long solve cannot overshoot a caller's time limit). Expiry
    /// returns IterLimit with deadline_hit set.
    support::Deadline deadline;
    /// Warm-start basis (sparse backend only; dense ignores it). Installed
    /// before phase 1; when it proves dual-feasible under the current costs,
    /// the dual simplex restores primal feasibility directly and phase 1 is
    /// skipped entirely. A basis that fails to factorize or is not
    /// dual-feasible falls back to the cold two-phase path — a warm start
    /// can never change the result, only the route to it.
    const SimplexBasis* warm_basis = nullptr;
    /// When non-null and the solve ends Optimal, the optimal basis is
    /// written here (sparse backend only) for reuse by child nodes.
    SimplexBasis* capture_basis = nullptr;
    /// Frozen reference bounds for the deterministic cost perturbation
    /// (size == model.num_vars() when set). The perturbation magnitude is
    /// derived from these spans instead of the per-call bounds, making the
    /// perturbed cost vector constant across an entire branch-and-bound tree
    /// — the invariant that keeps a parent's optimal basis dual-feasible in
    /// its children. The exact bound_slack accounting still uses the
    /// per-call spans (which only shrink under branching), so LpResult::bound
    /// stays a valid upper bound at every node. Both backends honor this so
    /// their perturbed optima remain comparable.
    const std::vector<double>* perturb_ref_lb = nullptr;
    const std::vector<double>* perturb_ref_ub = nullptr;
    /// When non-null, the engine appends the (scaled, perturbed,
    /// minimize-form) objective value after every dual simplex pivot — the
    /// dual_simplex_test property suite asserts this sequence is monotone
    /// nondecreasing (equivalently: the certified upper bound on the true
    /// maximum never increases while dual feasibility is maintained).
    std::vector<double>* dual_pivot_trace = nullptr;
};

/// Solves the LP relaxation (integrality ignored). `lb`/`ub` override the
/// model bounds when non-null (must have size == model.num_vars()).
/// Implementation: bounded-variable primal simplex — variable bounds are
/// handled implicitly (nonbasic-at-lower/upper with bound flips), so the
/// tableau has one row per constraint only.
[[nodiscard]] LpResult solve_lp(const Model& model, const std::vector<double>* lb = nullptr,
                                const std::vector<double>* ub = nullptr,
                                const LpOptions& options = {});

/// Reference textbook implementation (explicit upper-bound rows, two-phase).
/// Much slower; used by tests as an independent oracle for solve_lp.
[[nodiscard]] LpResult solve_lp_textbook(const Model& model,
                                         const std::vector<double>* lb = nullptr,
                                         const std::vector<double>* ub = nullptr,
                                         const LpOptions& options = {});

}  // namespace p4all::ilp
