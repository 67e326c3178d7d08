// Independent MILP certificate checking.
//
// Re-evaluates the compiler's claims about an ILP solve using nothing but
// the model and exact rational arithmetic — no solver float is reused as an
// intermediate:
//
//   Incumbent side   every constraint row, every variable bound, and the
//                    integrality of every Integer/Binary variable is
//                    re-evaluated exactly; the claimed objective is compared
//                    against the exact c·x.
//
//   Dual side        any sign-correct dual vector y (y ≥ 0 on Le rows,
//                    y ≤ 0 on Ge rows, free on Eq rows) certifies, by weak
//                    duality, the upper bound
//                        U = k + Σ_i y_i·b_i + Σ_j max(d_j·lb_j, d_j·ub_j),
//                        d_j = c_j − Σ_i y_i·A_ij,
//                    on the maximize-objective optimum (k = objective
//                    constant). Solver duals are quantized toward zero
//                    (sign-preserving) and wrong-signed entries are clamped
//                    to zero — both transformations keep U valid, so solver
//                    noise can only loosen the gap, never unsound the check.
//                    The checker then verifies U + slack ≥ c·x exactly,
//                    where slack is the simplex cost-perturbation budget.
#pragma once

#include <string>
#include <vector>

#include "ilp/model.hpp"
#include "support/rational.hpp"

namespace p4all::audit {

using support::Rat;

struct CertificateOptions {
    /// Max exact row/bound residual tolerated (absorbs the LP's float
    /// arithmetic; the residual itself is computed exactly).
    double feas_tol = 1e-6;
    /// Max distance of an Integer/Binary value from its nearest integer.
    double int_tol = 1e-6;
    /// Max |claimed objective − exact c·x|.
    double obj_tol = 1e-5;
    /// Fractional bits kept when quantizing dual multipliers. 30 bits bounds
    /// the denominators that dual·coefficient products can reach while the
    /// 2^-30 ≈ 1e-9 per-entry rounding only loosens the certified gap.
    int quant_bits = 30;
};

struct CertificateReport {
    // Incumbent side.
    bool feasible = true;
    bool integral = true;
    bool objective_matches = true;
    double exact_objective = 0.0;          // exact c·x, rounded for display
    std::vector<std::string> violations;   // one line per failed row/bound

    // Dual side.
    bool has_certificate = false;  // a dual vector was provided and evaluated
    bool bound_finite = true;      // U is finite (no positive reduced cost on an unbounded var)
    bool bound_valid = true;       // exact U + slack + tol ≥ exact c·x
    double certified_bound = 0.0;  // U, rounded for display
    double gap = 0.0;              // U − c·x, rounded for display
    int clamped_duals = 0;         // wrong-signed duals zeroed before use
    std::string bound_violation;   // set iff !bound_valid
    std::vector<std::string> certificate_notes;

    [[nodiscard]] bool incumbent_ok() const noexcept {
        return feasible && integral && objective_matches;
    }
};

/// Exact Σ coeff·x + constant of `expr` under rational `values` (indexed by
/// variable id; ids past the end read as zero).
[[nodiscard]] Rat evaluate_exact(const ilp::LinExpr& expr, const std::vector<Rat>& values);

/// Converts a solver assignment to rationals, exactly (doubles are dyadic;
/// no rounding is introduced on the incumbent side).
[[nodiscard]] std::vector<Rat> exact_values(const ilp::Model& model,
                                            const std::vector<double>& values);

/// Full check: incumbent feasibility/integrality/objective plus — when
/// `duals` is non-empty and sized one-per-row — the weak-duality bound.
/// `bound_slack` is the solver's exact perturbation budget (its bound may
/// exceed the true optimum by at most this much).
[[nodiscard]] CertificateReport check_certificate(const ilp::Model& model,
                                                  const std::vector<double>& incumbent,
                                                  double claimed_objective,
                                                  const std::vector<double>& duals,
                                                  double bound_slack,
                                                  const CertificateOptions& options = {});

}  // namespace p4all::audit
