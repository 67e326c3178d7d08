#include "ilp/revised_simplex.hpp"

#include <algorithm>
#include <cmath>

#include "ilp/scaling.hpp"
#include "ilp/sparse.hpp"
#include "support/error.hpp"
#include "support/faultpoint.hpp"
#include "support/rng.hpp"

namespace p4all::ilp {

namespace {

/// Consecutive degenerate pivots tolerated before Bland's rule engages
/// (same policy as the dense solver).
constexpr int kDegeneratePivotLimit(int rows) { return 2 * (rows + 16); }

/// Bounded-variable two-phase revised simplex over CSC + eta-file factors.
///
/// The standard-form construction mirrors simplex.cpp exactly — variables
/// shifted to y = x − lb ∈ [0, span], Ge rows negated to Le, negative-rhs
/// rows negated again, slacks on Le rows, artificials on Eq/negated rows —
/// so both backends expose identical status/dual conventions. On top of
/// that, singleton rows (one variable — the shape `assume lo <= x <= hi`
/// ranges produce) are folded into the variable's working bounds during the
/// build instead of becoming explicit rows: the bounded-variable mechanics
/// already handle them for free, and their dual multiplier is reported as 0
/// (always sign-correct, so the weak-duality certificate stays valid — a
/// folded row can only loosen the certified gap, never unsound it).
class RevisedSimplex {
public:
    RevisedSimplex(const Model& model, const std::vector<double>& lb,
                   const std::vector<double>& ub, const LpOptions& options)
        : model_(model), options_(options), n_(model.num_vars()),
          lb_(lb), ub_(ub) {}

    LpResult solve() {
        LpResult result;
        if (!build(result)) return result;  // folded-bound contradiction ⇒ Infeasible

        // Warm route: import the caller's basis and let the dual simplex
        // repair primal feasibility. Any failure along the way (stale shape,
        // singular basis, dual infeasibility, numerical trouble) falls back
        // to the cold two-phase path below — the warm start changes the
        // route, never the destination.
        bool warmed = false;
        if (options_.warm_basis != nullptr && !options_.warm_basis->empty()) {
            const int w = try_warm_start(result);
            if (w == 2) return result;  // terminal (deadline / infeasible)
            warmed = w == 1;
        }
        if (!warmed) {
            if (!cold_reset()) {
                result.status = LpStatus::IterLimit;
                result.error = support::Errc::NumericalTrouble;
                return result;
            }
            if (num_artificial_ > 0) {
                load_phase1_costs();
                const LpStatus st = iterate(result.iterations, /*phase1=*/true);
                if (st == LpStatus::IterLimit) {
                    result.status = st;
                    result.deadline_hit = deadline_hit_;
                    result.error = error_;
                    return result;
                }
                double artificial_sum = 0.0;
                for (int i = 0; i < m_; ++i) {
                    if (basis_[static_cast<std::size_t>(i)] >= first_artificial_) {
                        artificial_sum += std::abs(xb_[static_cast<std::size_t>(i)]);
                    }
                }
                if (st == LpStatus::Infeasible || artificial_sum > 1e-6) {
                    result.status = LpStatus::Infeasible;
                    return result;
                }
            }
            // Pin artificials to zero for phase 2.
            for (int j = first_artificial_; j < cols_; ++j) {
                span_[static_cast<std::size_t>(j)] = 0.0;
            }
            load_phase2_costs();
        }
        // The warm route arrives here primal-feasible with phase-2 costs
        // already loaded, so this primal pass is a pure optimality
        // confirmation (returns immediately) or mops up residual dual
        // infeasibility within tolerance.
        const LpStatus st = iterate(result.iterations, /*phase1=*/false);
        result.status = st;
        if (st != LpStatus::Optimal) {
            result.deadline_hit = deadline_hit_;
            result.error = error_;
            return result;
        }
        // Read a cold optimum off a fresh factorization of its optimal basis:
        // values and duals then carry no eta-update drift and match what a
        // warm re-solve from that basis reports. Search trees branch on
        // last-bit differences in the root values (without this, bench_ilp's
        // netcache instance takes 19 nodes instead of 17).
        if (!warmed && !recompute_state()) {
            result.status = LpStatus::IterLimit;
            result.error = support::Errc::NumericalTrouble;
            return result;
        }
        if (options_.capture_basis != nullptr) {
            options_.capture_basis->basic = basis_;
            options_.capture_basis->at_upper.assign(static_cast<std::size_t>(cols_), 0);
            for (int j = 0; j < cols_; ++j) {
                const std::size_t js = static_cast<std::size_t>(j);
                if (!in_basis_[js] && at_upper_[js]) {
                    options_.capture_basis->at_upper[js] = 1;
                }
            }
        }

        // Dual extraction via BTRAN: y solves Bᵀy = c_B, so the reduced cost
        // of row i's auxiliary column (cost 0, single entry v at row i) is
        // r_aux = −v·y_i, and the maximize-convention dual is σ·r_aux with
        // the same σ bookkeeping as the dense tableau. Folded singleton rows
        // report dual 0.
        std::vector<double> y(static_cast<std::size_t>(m_), 0.0);
        for (int i = 0; i < m_; ++i) {
            y[static_cast<std::size_t>(i)] =
                cost_[static_cast<std::size_t>(basis_[static_cast<std::size_t>(i)])];
        }
        factor_.btran(y);
        result.duals.assign(static_cast<std::size_t>(model_.num_constraints()), 0.0);
        for (int i = 0; i < m_; ++i) {
            const std::size_t is = static_cast<std::size_t>(i);
            const double r_aux = -aux_coeff_[is] * y[is];
            // ·ρ maps the scaled row's dual back to the original row's unit.
            result.duals[static_cast<std::size_t>(orig_row_[is])] =
                static_cast<double>(dual_sign_[is]) * r_aux * row_scale_[is];
        }

        result.values.assign(static_cast<std::size_t>(n_), 0.0);
        for (int j = 0; j < n_; ++j) {
            if (at_upper_[static_cast<std::size_t>(j)]) {
                result.values[static_cast<std::size_t>(j)] = span_[static_cast<std::size_t>(j)];
            }
        }
        for (int i = 0; i < m_; ++i) {
            const int j = basis_[static_cast<std::size_t>(i)];
            if (j < n_) result.values[static_cast<std::size_t>(j)] = xb_[static_cast<std::size_t>(i)];
        }
        for (int j = 0; j < n_; ++j) {
            // ·s undoes the column scaling, then the lb shift.
            const std::size_t js = static_cast<std::size_t>(j);
            result.values[js] = result.values[js] * col_scale_[js] + work_lb_[js];
        }
        result.objective = model_.objective().evaluate(result.values);
        result.bound_slack = bound_slack_;
        result.bound = result.objective + bound_slack_;
        return result;
    }

private:
    /// Builds the CSC standard form. Returns false (status pre-set to
    /// Infeasible) when folding a singleton row produces an empty domain.
    bool build(LpResult& result) {
        work_lb_ = lb_;
        work_ub_ = ub_;
        for (int j = 0; j < n_; ++j) {
            if (work_ub_[static_cast<std::size_t>(j)] - work_lb_[static_cast<std::size_t>(j)] <
                -1e-12) {
                throw support::Error(support::Errc::InvalidModel,
                                     "simplex: lb > ub for variable '" + model_.var_name(j) +
                                         "'");
            }
        }

        struct Row {
            std::vector<std::pair<int, double>> terms;
            bool eq;
            bool negated = false;
            int sense_sign = 1;  // −1 for Ge rows (normalized to Le)
            double rhs;
            int orig = 0;
        };
        std::vector<Row> rows;
        rows.reserve(model_.constraints().size());
        int orig_index = -1;
        for (const Constraint& c : model_.constraints()) {
            ++orig_index;
            // Singleton-row presolve against the *unshifted* bounds.
            if (c.expr.terms().size() <= 1) {
                if (!fold_singleton(c)) {
                    result.status = LpStatus::Infeasible;
                    return false;
                }
                continue;
            }
            Row r;
            r.eq = c.sense == CmpSense::Eq;
            r.orig = orig_index;
            const double sign = c.sense == CmpSense::Ge ? -1.0 : 1.0;
            r.sense_sign = c.sense == CmpSense::Ge ? -1 : 1;
            for (const auto& [id, coeff] : c.expr.terms()) {
                r.terms.emplace_back(id, sign * coeff);
            }
            r.rhs = sign * (c.rhs - c.expr.constant());
            rows.push_back(std::move(r));
        }
        // Bound folding finished: now shift every kept row by the working
        // lower bounds (y = x − lb) and normalize signs.
        for (Row& r : rows) {
            double shift = 0.0;
            for (const auto& [id, coeff] : r.terms) {
                shift += coeff * work_lb_[static_cast<std::size_t>(id)];
            }
            r.rhs -= shift;
        }
        m_ = static_cast<int>(rows.size());

        // Equilibrate (scaling.hpp) — identical policy to the dense backend
        // so both solve the same scaled problem: power-of-two row/column
        // factors keep entries near 1 and the absolute tolerances sound on
        // models mixing O(1) utility rows with O(10^6) memory rows.
        {
            std::vector<std::vector<std::pair<int, double>>> term_rows;
            term_rows.reserve(rows.size());
            for (const Row& r : rows) term_rows.push_back(r.terms);
            Equilibration eq = equilibrate(term_rows, n_);
            row_scale_ = std::move(eq.row);
            col_scale_ = std::move(eq.col);
            for (int i = 0; i < m_; ++i) {
                Row& r = rows[static_cast<std::size_t>(i)];
                const double rho = row_scale_[static_cast<std::size_t>(i)];
                for (auto& [id, c] : r.terms) {
                    c *= rho * col_scale_[static_cast<std::size_t>(id)];
                }
                r.rhs *= rho;
            }
        }

        int num_slack = 0;
        num_artificial_ = 0;
        for (Row& r : rows) {
            if (!r.eq) ++num_slack;
            if (r.rhs < 0) {
                r.negated = true;
                for (auto& [id, c] : r.terms) c = -c;
                r.rhs = -r.rhs;
            }
            if (r.eq || r.negated) ++num_artificial_;
        }
        first_artificial_ = n_ + num_slack;
        // Every row owns an artificial column (row i ↔ first_artificial_+i),
        // whether or not it needs one initially. Which rows need an
        // artificial depends on the rhs sign after the lb shift — a
        // bounds-DEPENDENT property — so a per-need layout would shift
        // column identities between a branch-and-bound parent and child and
        // make warm bases untransferable. With the fixed layout the standard
        // form's column space is a pure function of the model; unused
        // artificials are pinned nonbasic at zero and never priced.
        cols_ = first_artificial_ + m_;

        span_.assign(static_cast<std::size_t>(cols_), kInfinity);
        at_upper_.assign(static_cast<std::size_t>(cols_), false);
        in_basis_.assign(static_cast<std::size_t>(cols_), false);
        basis_.assign(static_cast<std::size_t>(m_), -1);
        xb_.assign(static_cast<std::size_t>(m_), 0.0);
        rhs_.assign(static_cast<std::size_t>(m_), 0.0);
        aux_coeff_.assign(static_cast<std::size_t>(m_), 1.0);
        dual_sign_.assign(static_cast<std::size_t>(m_), 1);
        orig_row_.assign(static_cast<std::size_t>(m_), 0);
        cost_.assign(static_cast<std::size_t>(cols_), 0.0);

        for (int j = 0; j < n_; ++j) {
            const double d =
                work_ub_[static_cast<std::size_t>(j)] - work_lb_[static_cast<std::size_t>(j)];
            span_[static_cast<std::size_t>(j)] =
                std::max(d, 0.0) / col_scale_[static_cast<std::size_t>(j)];
        }

        std::vector<CscMatrix::Triplet> triplets;
        int next_slack = n_;
        for (int i = 0; i < m_; ++i) {
            const Row& r = rows[static_cast<std::size_t>(i)];
            for (const auto& [id, c] : r.terms) {
                if (c != 0.0) triplets.push_back({i, id, c});
            }
            rhs_[static_cast<std::size_t>(i)] = r.rhs;
            orig_row_[static_cast<std::size_t>(i)] = r.orig;
            const int artificial = first_artificial_ + i;
            triplets.push_back({i, artificial, 1.0});
            int basic = -1;
            const int sigma_row = r.sense_sign * (r.negated ? -1 : 1);
            if (!r.eq) {
                const double slack_coeff = r.negated ? -1.0 : 1.0;
                triplets.push_back({i, next_slack, slack_coeff});
                if (!r.negated) basic = next_slack;
                aux_coeff_[static_cast<std::size_t>(i)] = slack_coeff;
                dual_sign_[static_cast<std::size_t>(i)] = sigma_row * (r.negated ? -1 : 1);
                ++next_slack;
            }
            if (basic < 0) {
                if (r.eq) {
                    aux_coeff_[static_cast<std::size_t>(i)] = 1.0;
                    dual_sign_[static_cast<std::size_t>(i)] = sigma_row;
                }
                basic = artificial;
            } else {
                // Artificial not needed for the initial basis: permanently
                // fixed at zero so it never participates.
                span_[static_cast<std::size_t>(artificial)] = 0.0;
            }
            basis_[static_cast<std::size_t>(i)] = basic;
            in_basis_[static_cast<std::size_t>(basic)] = true;
        }
        A_ = CscMatrix::from_triplets(m_, cols_, std::move(triplets));
        // Pristine-state snapshot so a failed warm start can restart the
        // classic two-phase route from scratch.
        init_basis_ = basis_;
        init_span_ = span_;
        return true;
    }

    /// Restores the post-build state (initial slack/artificial basis, all
    /// columns at lower bound) and refactorizes. Used both by the cold path
    /// proper and to rewind a failed warm-start attempt.
    bool cold_reset() {
        basis_ = init_basis_;
        span_ = init_span_;
        std::fill(at_upper_.begin(), at_upper_.end(), false);
        std::fill(in_basis_.begin(), in_basis_.end(), false);
        for (int i = 0; i < m_; ++i) {
            in_basis_[static_cast<std::size_t>(basis_[static_cast<std::size_t>(i)])] = true;
        }
        deadline_hit_ = false;
        error_ = support::Errc::None;
        return recompute_state();
    }

    /// Folds a 0- or 1-term constraint into the working bounds. Returns
    /// false when the fold makes the constraint unsatisfiable.
    bool fold_singleton(const Constraint& c) {
        const double rhs = c.rhs - c.expr.constant();
        if (c.expr.terms().empty() ||
            c.expr.terms().front().second == 0.0) {
            // Constant row: pure feasibility check.
            constexpr double kTol = 1e-9;
            switch (c.sense) {
                case CmpSense::Le: return 0.0 <= rhs + kTol;
                case CmpSense::Ge: return 0.0 >= rhs - kTol;
                case CmpSense::Eq: return std::abs(rhs) <= kTol;
            }
            return true;
        }
        const auto& [id, a] = c.expr.terms().front();
        const std::size_t js = static_cast<std::size_t>(id);
        const double v = rhs / a;
        const bool tightens_ub =
            (c.sense == CmpSense::Le && a > 0) || (c.sense == CmpSense::Ge && a < 0);
        const bool tightens_lb =
            (c.sense == CmpSense::Ge && a > 0) || (c.sense == CmpSense::Le && a < 0);
        if (c.sense == CmpSense::Eq || tightens_ub) {
            work_ub_[js] = std::min(work_ub_[js], v);
        }
        if (c.sense == CmpSense::Eq || tightens_lb) {
            work_lb_[js] = std::max(work_lb_[js], v);
        }
        // LP feasibility tolerance: an epsilon-inverted interval is an empty
        // domain only beyond the same tolerance the dense solver applies.
        return work_ub_[js] - work_lb_[js] >= -1e-9;
    }

    /// Refactorizes the basis and recomputes the basic values
    /// xb = B⁻¹·(b − Σ_{nonbasic at upper} span_j·A_j).
    bool recompute_state() {
        if (!factor_.refactorize(A_, basis_)) return false;
        std::vector<double> beff = rhs_;
        for (int j = 0; j < cols_; ++j) {
            const std::size_t js = static_cast<std::size_t>(j);
            if (!in_basis_[js] && at_upper_[js] && span_[js] != kInfinity && span_[js] > 0.0) {
                A_.axpy_col(j, -span_[js], beff);
            }
        }
        factor_.ftran(beff);
        xb_ = std::move(beff);
        return true;
    }

    void load_phase1_costs() {
        std::fill(cost_.begin(), cost_.end(), 0.0);
        for (int j = first_artificial_; j < cols_; ++j) cost_[static_cast<std::size_t>(j)] = 1.0;
        bound_slack_ = 0.0;
    }

    void load_phase2_costs() {
        std::fill(cost_.begin(), cost_.end(), 0.0);
        for (const auto& [id, c] : model_.objective().terms()) {
            // maximize ⇒ minimize −c, in column-scaled units (ĉ = s·c keeps
            // the scaled objective value equal to the true one).
            cost_[static_cast<std::size_t>(id)] = -c * col_scale_[static_cast<std::size_t>(id)];
        }
        // Deterministic cost perturbation, same formula as the dense solver
        // (simplex.cpp) so the exactly-accounted bound budget is identical.
        // When the caller supplies frozen reference bounds, the magnitude is
        // derived from the reference span instead of the per-call span: the
        // perturbed cost vector is then constant across a whole
        // branch-and-bound tree, which is what keeps a parent's optimal
        // basis dual-feasible in its children. The slack accounting still
        // uses the per-call span (≤ reference span under branching), so the
        // certified bound stays exact at every node.
        bound_slack_ = 0.0;
        if (options_.perturbation > 0.0) {
            const bool has_ref =
                options_.perturb_ref_lb != nullptr && options_.perturb_ref_ub != nullptr;
            for (int j = 0; j < n_; ++j) {
                const std::size_t js = static_cast<std::size_t>(j);
                double ref_span = span_[js];
                if (has_ref) {
                    const double d = (*options_.perturb_ref_ub)[js] - (*options_.perturb_ref_lb)[js];
                    ref_span = d == kInfinity ? kInfinity : std::max(d, 0.0) / col_scale_[js];
                }
                if (ref_span == kInfinity || ref_span <= 0.0) continue;
                std::uint64_t state =
                    (0x9E3779B97F4A7C15ULL +
                     options_.perturb_seed * 0xD1342543DE82EF95ULL) ^
                    (static_cast<std::uint64_t>(j) << 17);
                const double xi =
                    0.5 + 0.5 * static_cast<double>(support::splitmix64(state) >> 11) * 0x1.0p-53;
                const double eps = options_.perturbation * xi / ref_span;
                cost_[js] += eps;
                const double slack_span = span_[js] == kInfinity ? ref_span : span_[js];
                bound_slack_ += eps * slack_span;
            }
        }
    }

    /// Attempts the warm-start route: install the imported basis, verify it
    /// is dual-feasible under the (frozen) phase-2 costs, and run the dual
    /// simplex to restore primal feasibility. Returns 0 to fall back to the
    /// cold two-phase path, 1 when the state is primal-feasible and ready
    /// for the final primal confirmation, 2 when `result` already holds a
    /// terminal answer (deadline expiry or proven infeasibility).
    int try_warm_start(LpResult& result) {
        const SimplexBasis& wb = *options_.warm_basis;
        const int wm = static_cast<int>(wb.basic.size());
        const int wcols = static_cast<int>(wb.at_upper.size());
        if (wm != m_ || wcols != cols_) {
            return 0;  // stale shape: basis from a different model
        }
        std::fill(in_basis_.begin(), in_basis_.end(), false);
        for (int i = 0; i < m_; ++i) {
            const int j = wb.basic[static_cast<std::size_t>(i)];
            if (j < 0 || j >= cols_ || in_basis_[static_cast<std::size_t>(j)]) {
                return 0;  // malformed basis (out of range / duplicate)
            }
            basis_[static_cast<std::size_t>(i)] = j;
            in_basis_[static_cast<std::size_t>(j)] = true;
        }
        std::fill(at_upper_.begin(), at_upper_.end(), false);
        for (int j = 0; j < cols_; ++j) {
            const std::size_t js = static_cast<std::size_t>(j);
            at_upper_[js] = wb.at_upper[js] != 0 && !in_basis_[js] && span_[js] != kInfinity;
        }
        // Artificials are fixed at zero throughout the warm route: a basic
        // artificial left over from a degenerate parent pivot is allowed,
        // and if the child's rhs shift gives it a nonzero value the dual
        // simplex drives it out like any other bound violation.
        for (int j = first_artificial_; j < cols_; ++j) {
            span_[static_cast<std::size_t>(j)] = 0.0;
        }
        if (!recompute_state()) return 0;
        load_phase2_costs();

        // Dual feasibility check: the parent's optimal basis under the same
        // frozen cost vector must price out clean; anything beyond rounding
        // noise means the import assumption broke, so take the cold route.
        {
            std::vector<double> y(static_cast<std::size_t>(m_), 0.0);
            for (int i = 0; i < m_; ++i) {
                y[static_cast<std::size_t>(i)] =
                    cost_[static_cast<std::size_t>(basis_[static_cast<std::size_t>(i)])];
            }
            factor_.btran(y);
            constexpr double kDualTol = 1e-7;
            for (int j = 0; j < first_artificial_; ++j) {
                const std::size_t js = static_cast<std::size_t>(j);
                if (in_basis_[js] || span_[js] <= options_.tol) continue;
                const double r = cost_[js] - A_.dot_col(j, y);
                if ((!at_upper_[js] && r < -kDualTol) || (at_upper_[js] && r > kDualTol)) {
                    return 0;
                }
            }
        }

        const LpStatus st = iterate_dual(result.iterations);
        if (st == LpStatus::Optimal) return 1;  // primal feasibility restored
        if (st == LpStatus::Infeasible) {
            result.status = LpStatus::Infeasible;
            return 2;
        }
        if (st == LpStatus::IterLimit && deadline_hit_) {
            result.status = st;
            result.deadline_hit = true;
            result.error = error_;
            return 2;
        }
        // Iteration budget or numerical trouble: deterministic cold fallback.
        deadline_hit_ = false;
        error_ = support::Errc::None;
        return 0;
    }

    /// Bounded-variable dual simplex. Precondition: the current basis is
    /// dual-feasible under `cost_`. Repairs primal feasibility while
    /// maintaining dual feasibility; each pivot weakly increases the
    /// minimize-form objective (equivalently, the certified upper bound on
    /// the true maximum never increases). Returns Optimal when every basic
    /// value is within its bounds, Infeasible when a violated row has no
    /// eligible entering column (dual ray ⇒ primal empty), IterLimit on
    /// budget/deadline/numerical trouble (caller falls back cold).
    LpStatus iterate_dual(int& iterations) {
        const int limit =
            options_.max_iterations > 0 ? options_.max_iterations : 400 + 60 * (m_ + cols_);
        const double tol = options_.tol;
        int stall = 0;
        int recoveries = 0;
        bool bland = options_.force_bland;
        std::vector<double> y(static_cast<std::size_t>(m_));
        std::vector<double> w(static_cast<std::size_t>(m_));
        std::vector<double> rho(static_cast<std::size_t>(m_));

        while (true) {
            if (++iterations > limit) {
                error_ = support::Errc::ResourceLimit;
                return LpStatus::IterLimit;
            }
            if ((iterations & 15) == 1 && !options_.deadline.unlimited() &&
                options_.deadline.expired()) {
                deadline_hit_ = true;
                error_ = options_.deadline.cancelled() ? support::Errc::Cancelled
                                                       : support::Errc::DeadlineExceeded;
                return LpStatus::IterLimit;
            }

            // Leaving row: the most-infeasible basic value (Bland fallback:
            // smallest basic variable index among the infeasible rows — the
            // deterministic anti-cycling rule).
            int leave = -1;
            bool below = false;
            double worst = tol;
            int bland_key = cols_;
            for (int i = 0; i < m_; ++i) {
                const std::size_t is = static_cast<std::size_t>(i);
                const std::size_t bi = static_cast<std::size_t>(basis_[is]);
                double viol = -xb_[is];
                bool is_below = true;
                if (span_[bi] != kInfinity && xb_[is] - span_[bi] > viol) {
                    viol = xb_[is] - span_[bi];
                    is_below = false;
                }
                if (viol <= tol) continue;
                if (bland) {
                    if (basis_[is] < bland_key) {
                        bland_key = basis_[is];
                        leave = i;
                        below = is_below;
                    }
                } else if (viol > worst) {
                    worst = viol;
                    leave = i;
                    below = is_below;
                }
            }
            if (leave < 0) return LpStatus::Optimal;  // primal feasible
            const std::size_t ls = static_cast<std::size_t>(leave);
            const int bvar = basis_[ls];

            // Pivot row via BTRAN: ρ = B⁻ᵀe_r, α_j = A_j·ρ. Reduced costs
            // via a second BTRAN: y = B⁻ᵀc_B, r_j = c_j − A_j·y.
            std::fill(rho.begin(), rho.end(), 0.0);
            rho[ls] = 1.0;
            factor_.btran(rho);
            std::fill(y.begin(), y.end(), 0.0);
            for (int i = 0; i < m_; ++i) {
                y[static_cast<std::size_t>(i)] =
                    cost_[static_cast<std::size_t>(basis_[static_cast<std::size_t>(i)])];
            }
            factor_.btran(y);

            // Dual ratio test. With ᾱ_j = −α_j when leaving below (so both
            // cases read like "basic above its upper bound"), eligible
            // columns are at-lower with ᾱ > 0 and at-upper with ᾱ < 0; the
            // entering column minimizes |r_j|/|ᾱ_j|, which is exactly the
            // largest dual step that keeps every other reduced cost on its
            // feasible side. Ties break on larger |ᾱ| (numerical stability),
            // then smallest column index (determinism); under Bland, exact
            // minimum with smallest index.
            int enter = -1;
            double best_ratio = kInfinity;
            double best_alpha = 0.0;
            for (int j = 0; j < first_artificial_; ++j) {
                const std::size_t js = static_cast<std::size_t>(j);
                if (in_basis_[js]) continue;
                if (span_[js] <= tol) continue;  // fixed: never blocks the dual ray
                const double alpha = A_.dot_col(j, rho);
                const double abar = below ? -alpha : alpha;
                double ratio = kInfinity;
                if (!at_upper_[js] && abar > tol) {
                    const double r = cost_[js] - A_.dot_col(j, y);
                    ratio = std::max(r, 0.0) / abar;
                } else if (at_upper_[js] && abar < -tol) {
                    const double r = cost_[js] - A_.dot_col(j, y);
                    ratio = std::max(-r, 0.0) / (-abar);
                } else {
                    continue;
                }
                if (bland) {
                    if (ratio < best_ratio) {
                        best_ratio = ratio;
                        best_alpha = abar;
                        enter = j;
                    }
                } else if (ratio < best_ratio - 1e-9 ||
                           (ratio < best_ratio + 1e-9 && std::abs(abar) > std::abs(best_alpha))) {
                    best_ratio = ratio;
                    best_alpha = abar;
                    enter = j;
                }
            }
            if (enter < 0) return LpStatus::Infeasible;
            const std::size_t es = static_cast<std::size_t>(enter);

            // FTRAN the entering column; the pivot element must agree with
            // the row view. Too small ⇒ refactorize once and retry, twice ⇒
            // genuine numerical trouble.
            A_.scatter_col(enter, w);
            factor_.ftran(w);
            const double pivot = w[ls];
            if (std::abs(pivot) < 1e-11) {
                if (++recoveries > 1) {
                    error_ = support::Errc::NumericalTrouble;
                    return LpStatus::IterLimit;
                }
                if (!recompute_state()) {
                    error_ = support::Errc::NumericalTrouble;
                    return LpStatus::IterLimit;
                }
                continue;
            }

            // Fault point: shared budget with the primal engines, so
            // P4ALL_FAULTS=simplex.pivot exercises the dual path too.
            if (support::fault_fires("simplex.pivot")) {
                error_ = support::Errc::NumericalTrouble;
                return LpStatus::IterLimit;
            }

            // Degenerate-stall bookkeeping: a zero dual step makes no
            // progress in the dual objective; a long run of them engages
            // Bland's rule.
            if (best_ratio < 1e-12) {
                if (++stall > kDegeneratePivotLimit(m_)) bland = true;
            } else {
                stall = 0;
                bland = options_.force_bland;
            }

            // Primal step: move the entering variable off its bound far
            // enough to land the leaving variable exactly on its violated
            // bound, update the other basic values, swap basis roles.
            const double infeas = below ? xb_[ls] : xb_[ls] - span_[static_cast<std::size_t>(bvar)];
            const double delta = infeas / pivot;
            for (int i = 0; i < m_; ++i) {
                if (i == leave) continue;
                xb_[static_cast<std::size_t>(i)] -= w[static_cast<std::size_t>(i)] * delta;
            }
            const double enter_from = at_upper_[es] ? span_[es] : 0.0;
            in_basis_[static_cast<std::size_t>(bvar)] = false;
            at_upper_[static_cast<std::size_t>(bvar)] =
                !below && span_[static_cast<std::size_t>(bvar)] != kInfinity;
            basis_[ls] = enter;
            in_basis_[es] = true;
            at_upper_[es] = false;
            xb_[ls] = enter_from + delta;

            if (!factor_.update(w, leave) || factor_.needs_refactorization()) {
                if (!recompute_state()) {
                    error_ = support::Errc::NumericalTrouble;
                    return LpStatus::IterLimit;
                }
            }
            recoveries = 0;
            if (options_.dual_pivot_trace != nullptr) {
                options_.dual_pivot_trace->push_back(scaled_min_objective());
            }
        }
    }

    /// Current minimize-form objective of the (possibly primal-infeasible)
    /// basic solution: Σ basic c_j·x_j + Σ nonbasic-at-upper c_j·span_j.
    /// Used only for the dual pivot trace, so the O(cols) sweep is fine.
    double scaled_min_objective() const {
        double obj = 0.0;
        for (int i = 0; i < m_; ++i) {
            obj += cost_[static_cast<std::size_t>(basis_[static_cast<std::size_t>(i)])] *
                   xb_[static_cast<std::size_t>(i)];
        }
        for (int j = 0; j < cols_; ++j) {
            const std::size_t js = static_cast<std::size_t>(j);
            if (!in_basis_[js] && at_upper_[js] && span_[js] != kInfinity) {
                obj += cost_[js] * span_[js];
            }
        }
        return obj;
    }

    LpStatus iterate(int& iterations, bool phase1) {
        const int limit =
            options_.max_iterations > 0 ? options_.max_iterations : 400 + 60 * (m_ + cols_);
        const double tol = options_.tol;
        int stall = 0;
        int recoveries = 0;
        bool bland = options_.force_bland;
        std::vector<double> devex(static_cast<std::size_t>(cols_), 1.0);
        std::vector<double> y(static_cast<std::size_t>(m_));
        std::vector<double> w(static_cast<std::size_t>(m_));
        std::vector<double> rho(static_cast<std::size_t>(m_));

        while (true) {
            if (++iterations > limit) {
                error_ = support::Errc::ResourceLimit;
                return LpStatus::IterLimit;
            }
            if ((iterations & 15) == 1 && !options_.deadline.unlimited() &&
                options_.deadline.expired()) {
                deadline_hit_ = true;
                error_ = options_.deadline.cancelled() ? support::Errc::Cancelled
                                                       : support::Errc::DeadlineExceeded;
                return LpStatus::IterLimit;
            }

            // BTRAN pricing: y = B⁻ᵀc_B, then r_j = c_j − y·A_j per nonbasic
            // column. Nonbasic at lower wants r < 0; at upper wants r > 0.
            std::fill(y.begin(), y.end(), 0.0);
            for (int i = 0; i < m_; ++i) {
                y[static_cast<std::size_t>(i)] =
                    cost_[static_cast<std::size_t>(basis_[static_cast<std::size_t>(i)])];
            }
            factor_.btran(y);
            int enter = -1;
            double enter_reduced = 0.0;
            double best = 0.0;
            double enter_dir = 1.0;
            for (int j = 0; j < cols_; ++j) {
                const std::size_t js = static_cast<std::size_t>(j);
                if (in_basis_[js]) continue;
                if (j >= first_artificial_) continue;  // artificials never re-enter
                if (span_[js] <= tol) continue;        // fixed variable
                const double r = cost_[js] - A_.dot_col(j, y);
                double dir = 1.0;
                if (!at_upper_[js] && r < -tol) {
                    dir = 1.0;
                } else if (at_upper_[js] && r > tol) {
                    dir = -1.0;
                } else {
                    continue;
                }
                if (bland) {
                    enter = j;
                    enter_dir = dir;
                    enter_reduced = r;
                    break;
                }
                const double score = r * r / devex[js];
                if (score > best) {
                    best = score;
                    enter = j;
                    enter_dir = dir;
                    enter_reduced = r;
                }
            }
            if (enter < 0) return LpStatus::Optimal;
            const std::size_t es = static_cast<std::size_t>(enter);

            // FTRAN: w = B⁻¹·A_enter, the entering column in basis coords.
            A_.scatter_col(enter, w);
            factor_.ftran(w);

            // Ratio test: Harris-style two-pass under Devex, exact minimal
            // ratio with smallest-index ties under Bland (identical policy
            // to the dense solver — the anti-cycling guarantee depends on
            // the exact rule).
            double t = span_[es];  // own opposite bound ⇒ bound flip
            for (int i = 0; i < m_; ++i) {
                const double beta = enter_dir * w[static_cast<std::size_t>(i)];
                const std::size_t bi =
                    static_cast<std::size_t>(basis_[static_cast<std::size_t>(i)]);
                if (beta > tol) {
                    t = std::min(t, std::max(xb_[static_cast<std::size_t>(i)] / beta, 0.0));
                } else if (beta < -tol && span_[bi] != kInfinity) {
                    t = std::min(
                        t, std::max((span_[bi] - xb_[static_cast<std::size_t>(i)]) / (-beta), 0.0));
                }
            }
            if (t == kInfinity) {
                return phase1 ? LpStatus::Infeasible : LpStatus::Unbounded;
            }
            int leave = -1;
            bool leave_at_upper = false;
            double best_pivot = 0.0;
            if (bland) {
                double exact_t = span_[es];
                for (int i = 0; i < m_; ++i) {
                    const double beta = enter_dir * w[static_cast<std::size_t>(i)];
                    const std::size_t bi =
                        static_cast<std::size_t>(basis_[static_cast<std::size_t>(i)]);
                    double ratio = kInfinity;
                    bool hits_upper = false;
                    if (beta > tol) {
                        ratio = std::max(xb_[static_cast<std::size_t>(i)] / beta, 0.0);
                    } else if (beta < -tol && span_[bi] != kInfinity) {
                        ratio =
                            std::max((span_[bi] - xb_[static_cast<std::size_t>(i)]) / (-beta), 0.0);
                        hits_upper = true;
                    } else {
                        continue;
                    }
                    if (ratio < exact_t ||
                        (leave >= 0 && ratio == exact_t &&
                         basis_[static_cast<std::size_t>(i)] <
                             basis_[static_cast<std::size_t>(leave)]) ||
                        (leave < 0 && ratio <= exact_t)) {
                        exact_t = ratio;
                        leave = i;
                        leave_at_upper = hits_upper;
                    }
                }
                t = leave >= 0 ? exact_t : t;
            } else {
                for (int i = 0; i < m_; ++i) {
                    const double beta = enter_dir * w[static_cast<std::size_t>(i)];
                    const std::size_t bi =
                        static_cast<std::size_t>(basis_[static_cast<std::size_t>(i)]);
                    double ratio = kInfinity;
                    bool hits_upper = false;
                    if (beta > tol) {
                        ratio = std::max(xb_[static_cast<std::size_t>(i)] / beta, 0.0);
                    } else if (beta < -tol && span_[bi] != kInfinity) {
                        ratio =
                            std::max((span_[bi] - xb_[static_cast<std::size_t>(i)]) / (-beta), 0.0);
                        hits_upper = true;
                    } else {
                        continue;
                    }
                    if (ratio > t + 1e-9) continue;
                    if (std::abs(beta) > best_pivot) {
                        best_pivot = std::abs(beta);
                        leave = i;
                        leave_at_upper = hits_upper;
                    }
                }
            }

            // Numerical recovery: a pivot element too small to divide by is
            // retried against fresh factors (the eta file may have drifted);
            // a second failure in a row is genuine numerical trouble.
            if (leave >= 0 &&
                std::abs(w[static_cast<std::size_t>(leave)]) < 1e-11) {
                if (++recoveries > 1) {
                    error_ = support::Errc::NumericalTrouble;
                    return LpStatus::IterLimit;
                }
                if (!recompute_state()) {
                    error_ = support::Errc::NumericalTrouble;
                    return LpStatus::IterLimit;
                }
                continue;  // re-price with exact factors
            }

            // Anti-cycling guard, same policy as the dense solver: a long
            // degenerate stall engages Bland's rule; strict progress
            // disengages it.
            const double delta = enter_reduced * enter_dir * t;
            if (std::abs(delta) < 1e-12) {
                if (++stall > kDegeneratePivotLimit(m_)) bland = true;
            } else {
                stall = 0;
                bland = options_.force_bland;
            }

            if (leave < 0) {
                // Bound flip: entering crosses to its other bound.
                for (int i = 0; i < m_; ++i) {
                    xb_[static_cast<std::size_t>(i)] -=
                        enter_dir * w[static_cast<std::size_t>(i)] * t;
                }
                at_upper_[es] = !at_upper_[es];
                continue;
            }

            // Fault point: simulates the basis-corrupting pivot breakdown
            // this status exists for (shared budget with the dense solver).
            if (support::fault_fires("simplex.pivot")) {
                error_ = support::Errc::NumericalTrouble;
                return LpStatus::IterLimit;
            }

            // Devex weight update needs the (pre-pivot) pivot row
            // α_r = eᵣᵀB⁻¹A: one extra BTRAN plus a sweep over the columns.
            const double pivot = w[static_cast<std::size_t>(leave)];
            if (!bland) {
                std::fill(rho.begin(), rho.end(), 0.0);
                rho[static_cast<std::size_t>(leave)] = 1.0;
                factor_.btran(rho);
                const double wq = devex[es];
                double wmax = 1.0;
                for (int j = 0; j < cols_; ++j) {
                    const std::size_t js = static_cast<std::size_t>(j);
                    if (in_basis_[js]) continue;
                    const double alpha = A_.dot_col(j, rho) / pivot;
                    if (alpha == 0.0) continue;
                    const double candidate = alpha * alpha * wq;
                    if (candidate > devex[js]) devex[js] = candidate;
                    if (devex[js] > wmax) wmax = devex[js];
                }
                devex[static_cast<std::size_t>(basis_[static_cast<std::size_t>(leave)])] =
                    std::max(wq / (pivot * pivot), 1.0);
                if (wmax > 1e10) std::fill(devex.begin(), devex.end(), 1.0);
            }

            // Apply the pivot: update basic values and the basis bookkeeping,
            // then append the eta to the factorization.
            for (int i = 0; i < m_; ++i) {
                if (i == leave) continue;
                xb_[static_cast<std::size_t>(i)] -=
                    enter_dir * w[static_cast<std::size_t>(i)] * t;
            }
            const double enter_value = at_upper_[es] ? span_[es] - t : t;
            const int old_basic = basis_[static_cast<std::size_t>(leave)];
            in_basis_[static_cast<std::size_t>(old_basic)] = false;
            at_upper_[static_cast<std::size_t>(old_basic)] = leave_at_upper;
            basis_[static_cast<std::size_t>(leave)] = enter;
            in_basis_[es] = true;
            at_upper_[es] = false;  // basic status; flag unused while basic
            xb_[static_cast<std::size_t>(leave)] = enter_value;

            if (!factor_.update(w, leave) || factor_.needs_refactorization()) {
                if (!recompute_state()) {
                    error_ = support::Errc::NumericalTrouble;
                    return LpStatus::IterLimit;
                }
            }
            recoveries = 0;
        }
    }

    const Model& model_;
    const LpOptions& options_;
    int n_ = 0;
    const std::vector<double>& lb_;
    const std::vector<double>& ub_;

    int m_ = 0;
    int cols_ = 0;
    int first_artificial_ = 0;
    int num_artificial_ = 0;

    CscMatrix A_;
    BasisFactorization factor_;
    std::vector<double> work_lb_;   // caller bounds tightened by folded rows
    std::vector<double> work_ub_;
    std::vector<double> cost_;      // active minimization costs
    std::vector<double> span_;      // per-column width of [0, d]
    std::vector<double> rhs_;       // normalized right-hand sides
    std::vector<bool> at_upper_;    // nonbasic status
    std::vector<bool> in_basis_;
    std::vector<int> basis_;        // row -> basic column
    std::vector<double> xb_;        // basic values
    std::vector<double> aux_coeff_; // row -> that column's coefficient (±1)
    std::vector<int> dual_sign_;    // row -> σrow·σcol sign for dual readout
    std::vector<int> orig_row_;     // row -> model constraint index
    std::vector<int> init_basis_;   // post-build snapshot for cold restarts
    std::vector<double> init_span_;
    std::vector<double> row_scale_; // equilibration factors (powers of two)
    std::vector<double> col_scale_;
    double bound_slack_ = 0.0;      // exact perturbation budget
    bool deadline_hit_ = false;
    support::Errc error_ = support::Errc::None;
};

}  // namespace

const char* to_string(LpBackend backend) noexcept {
    switch (backend) {
        case LpBackend::Sparse: return "sparse";
        case LpBackend::Dense: return "dense";
    }
    return "?";
}

LpResult solve_lp_sparse(const Model& model, const std::vector<double>* lb,
                         const std::vector<double>* ub, const LpOptions& options) {
    std::vector<double> lb_local;
    std::vector<double> ub_local;
    if (lb == nullptr) {
        lb_local.resize(static_cast<std::size_t>(model.num_vars()));
        for (int j = 0; j < model.num_vars(); ++j) {
            lb_local[static_cast<std::size_t>(j)] = model.lower_bound(j);
        }
        lb = &lb_local;
    }
    if (ub == nullptr) {
        ub_local.resize(static_cast<std::size_t>(model.num_vars()));
        for (int j = 0; j < model.num_vars(); ++j) {
            ub_local[static_cast<std::size_t>(j)] = model.upper_bound(j);
        }
        ub = &ub_local;
    }
    for (int j = 0; j < model.num_vars(); ++j) {
        if ((*lb)[static_cast<std::size_t>(j)] == -kInfinity) {
            throw support::Error(support::Errc::InvalidModel,
                                 "simplex: variable '" + model.var_name(j) +
                                     "' has an infinite lower bound (unsupported)");
        }
    }
    RevisedSimplex solver(model, *lb, *ub, options);
    return solver.solve();
}

LpResult solve_lp_with(LpBackend backend, const Model& model, const std::vector<double>* lb,
                       const std::vector<double>* ub, const LpOptions& options) {
    switch (backend) {
        case LpBackend::Sparse: return solve_lp_sparse(model, lb, ub, options);
        case LpBackend::Dense: return solve_lp(model, lb, ub, options);
    }
    return solve_lp(model, lb, ub, options);
}

}  // namespace p4all::ilp
