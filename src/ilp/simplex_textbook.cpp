#include "ilp/simplex.hpp"

// Reference implementation: the straightforward textbook two-phase simplex
// with explicit upper-bound rows. Slower than the bounded-variable solver in
// simplex.cpp; kept as an independent oracle for randomized cross-checks.

#include <cmath>

#include "support/error.hpp"
#include "support/faultpoint.hpp"

namespace p4all::ilp {

namespace {

/// Dense tableau simplex working on the shifted problem.
class Tableau {
public:
    Tableau(const Model& model, const std::vector<double>& lb, const std::vector<double>& ub,
            const LpOptions& options)
        : model_(model), lb_(lb), ub_(ub), options_(options), n_(model.num_vars()) {
        build();
    }

    LpResult solve() {
        LpResult result;
        // Phase 1: minimize artificial sum (only if artificials exist).
        if (num_artificial_ > 0) {
            load_phase1_objective();
            const LpStatus st = iterate(result.iterations, /*phase1=*/true);
            if (st == LpStatus::IterLimit) {
                result.status = LpStatus::IterLimit;
                result.deadline_hit = deadline_hit_;
                result.error = error_;
                return result;
            }
            if (current_objective() > 1e-6) {
                result.status = LpStatus::Infeasible;
                return result;
            }
            pivot_out_artificials();
        }
        load_phase2_objective();
        const LpStatus st = iterate(result.iterations, /*phase1=*/false);
        result.status = st;
        if (st != LpStatus::Optimal) {
            result.deadline_hit = deadline_hit_;
            result.error = error_;
            return result;
        }

        result.values.assign(static_cast<std::size_t>(n_), 0.0);
        for (int i = 0; i < m_; ++i) {
            const int j = basis_[static_cast<std::size_t>(i)];
            if (j < n_) {
                result.values[static_cast<std::size_t>(j)] = rhs(i);
            }
        }
        for (int j = 0; j < n_; ++j) {
            result.values[static_cast<std::size_t>(j)] += lb_[static_cast<std::size_t>(j)];
        }
        // Maximize-convention duals for the model rows, read off the final
        // reduced costs of each row's slack/artificial column (see the
        // bounded solver for the sign derivation).
        const std::size_t model_rows = model_.constraints().size();
        result.duals.assign(model_rows, 0.0);
        for (std::size_t i = 0; i < model_rows; ++i) {
            result.duals[i] =
                static_cast<double>(dual_sign_[i]) * obj_[static_cast<std::size_t>(aux_col_[i])];
        }
        result.objective = model_.objective().evaluate(result.values);
        result.bound = result.objective;
        return result;
    }

private:
    // Column layout: [0, n_) structural (shifted), then slack/artificial.
    double& at(int row, int col) {
        return data_[static_cast<std::size_t>(row) * stride_ + static_cast<std::size_t>(col)];
    }
    [[nodiscard]] double get(int row, int col) const {
        return data_[static_cast<std::size_t>(row) * stride_ + static_cast<std::size_t>(col)];
    }
    double& rhs_ref(int row) { return at(row, cols_); }
    [[nodiscard]] double rhs(int row) const { return get(row, cols_); }
    double& obj(int col) { return obj_[static_cast<std::size_t>(col)]; }
    [[nodiscard]] double current_objective() const { return -obj_[static_cast<std::size_t>(cols_)]; }

    struct Row {
        std::vector<std::pair<int, double>> terms;  // structural coefficients
        CmpSense sense;
        bool negated = false;  // true if normalization flipped the row's sign
        double rhs;
    };

    void build() {
        // Collect rows: model constraints (shifted) + upper-bound rows.
        std::vector<Row> rows;
        for (const Constraint& c : model_.constraints()) {
            Row r;
            r.sense = c.sense;
            double shift = 0.0;
            for (const auto& [id, coeff] : c.expr.terms()) {
                shift += coeff * lb_[static_cast<std::size_t>(id)];
                r.terms.emplace_back(id, coeff);
            }
            r.rhs = c.rhs - shift;
            rows.push_back(std::move(r));
        }
        for (int j = 0; j < n_; ++j) {
            const double span =
                ub_[static_cast<std::size_t>(j)] - lb_[static_cast<std::size_t>(j)];
            if (span == kInfinity) continue;
            if (span < 0) {
                throw support::Error(support::Errc::InvalidModel,
                                     "simplex: lb > ub for variable '" + model_.var_name(j) + "'");
            }
            Row r;
            r.sense = CmpSense::Le;
            r.terms.emplace_back(j, 1.0);
            r.rhs = span;
            rows.push_back(std::move(r));
        }

        m_ = static_cast<int>(rows.size());
        // Count slack columns (Le and Ge rows each get one) and artificials
        // (Ge and Eq rows, plus Le rows with negative rhs).
        int num_slack = 0;
        num_artificial_ = 0;
        for (Row& r : rows) {
            if (r.rhs < 0) {
                // Normalize rhs ≥ 0 by negating the row.
                for (auto& [id, c] : r.terms) c = -c;
                r.rhs = -r.rhs;
                r.negated = true;
                if (r.sense == CmpSense::Le) r.sense = CmpSense::Ge;
                else if (r.sense == CmpSense::Ge) r.sense = CmpSense::Le;
            }
            if (r.sense != CmpSense::Eq) ++num_slack;
            if (r.sense != CmpSense::Le) ++num_artificial_;
        }
        cols_ = n_ + num_slack + num_artificial_;
        stride_ = static_cast<std::size_t>(cols_) + 1;
        data_.assign(static_cast<std::size_t>(m_) * stride_, 0.0);
        obj_.assign(stride_, 0.0);
        basis_.assign(static_cast<std::size_t>(m_), -1);
        aux_col_.assign(static_cast<std::size_t>(m_), 0);
        dual_sign_.assign(static_cast<std::size_t>(m_), 1);
        first_artificial_ = n_ + num_slack;

        int next_slack = n_;
        int next_artificial = first_artificial_;
        for (int i = 0; i < m_; ++i) {
            const Row& r = rows[static_cast<std::size_t>(i)];
            const std::size_t is = static_cast<std::size_t>(i);
            const int sigma_row = r.negated ? -1 : 1;
            for (const auto& [id, c] : r.terms) at(i, id) += c;
            rhs_ref(i) = r.rhs;
            switch (r.sense) {
                case CmpSense::Le:
                    at(i, next_slack) = 1.0;
                    aux_col_[is] = next_slack;
                    dual_sign_[is] = sigma_row;
                    basis_[static_cast<std::size_t>(i)] = next_slack++;
                    break;
                case CmpSense::Ge:
                    at(i, next_slack) = -1.0;
                    aux_col_[is] = next_slack;
                    dual_sign_[is] = -sigma_row;
                    ++next_slack;
                    at(i, next_artificial) = 1.0;
                    basis_[static_cast<std::size_t>(i)] = next_artificial++;
                    break;
                case CmpSense::Eq:
                    at(i, next_artificial) = 1.0;
                    aux_col_[is] = next_artificial;
                    dual_sign_[is] = sigma_row;
                    basis_[static_cast<std::size_t>(i)] = next_artificial++;
                    break;
            }
        }
    }

    /// Phase-1 objective: minimize Σ artificials. Expressed in reduced form
    /// by subtracting the rows whose basic variable is artificial.
    void load_phase1_objective() {
        std::fill(obj_.begin(), obj_.end(), 0.0);
        for (int j = first_artificial_; j < cols_; ++j) obj(j) = 1.0;
        for (int i = 0; i < m_; ++i) {
            if (basis_[static_cast<std::size_t>(i)] >= first_artificial_) {
                for (int j = 0; j <= cols_; ++j) {
                    obj_[static_cast<std::size_t>(j)] -= get(i, j);
                }
            }
        }
        phase1_ = true;
    }

    /// Phase-2 objective: minimize -c'y (i.e. maximize c'y), reduced
    /// against the current basis.
    void load_phase2_objective() {
        std::fill(obj_.begin(), obj_.end(), 0.0);
        for (const auto& [id, c] : model_.objective().terms()) obj(id) = -c;
        for (int i = 0; i < m_; ++i) {
            const int jb = basis_[static_cast<std::size_t>(i)];
            const double cb = obj_[static_cast<std::size_t>(jb)];
            if (cb == 0.0) continue;
            for (int j = 0; j <= cols_; ++j) {
                obj_[static_cast<std::size_t>(j)] -= cb * get(i, j);
            }
            // Restore exact zero on the basic column to fight drift.
            obj_[static_cast<std::size_t>(jb)] = 0.0;
        }
        phase1_ = false;
    }

    /// After phase 1, pivots remaining basic artificials out where possible
    /// (degenerate rows); rows that cannot pivot are redundant and harmless
    /// since the artificial is 0 and banned from re-entering.
    void pivot_out_artificials() {
        for (int i = 0; i < m_; ++i) {
            if (basis_[static_cast<std::size_t>(i)] < first_artificial_) continue;
            for (int j = 0; j < first_artificial_; ++j) {
                if (std::abs(get(i, j)) > 1e-7) {
                    pivot(i, j);
                    break;
                }
            }
        }
    }

    LpStatus iterate(int& iterations, bool phase1) {
        const int limit = options_.max_iterations > 0
                              ? options_.max_iterations
                              : 200 + 40 * (m_ + cols_);
        const double tol = options_.tol;
        int stall = 0;
        double last_obj = current_objective();
        bool bland = options_.force_bland;
        while (true) {
            if (iterations++ > limit) {
                error_ = support::Errc::ResourceLimit;
                return LpStatus::IterLimit;
            }
            // Deadline poll (amortized), mirroring the bounded solver: the
            // caller's wall budget binds inside a single solve, not only at
            // branch-and-bound node boundaries.
            if ((iterations & 15) == 1 && !options_.deadline.unlimited() &&
                options_.deadline.expired()) {
                deadline_hit_ = true;
                error_ = options_.deadline.cancelled() ? support::Errc::Cancelled
                                                       : support::Errc::DeadlineExceeded;
                return LpStatus::IterLimit;
            }
            // Entering column: reduced cost < -tol. Artificials never
            // re-enter; in phase 2 they are banned entirely.
            int enter = -1;
            double best = -tol;
            const int scan_end = phase1 ? cols_ : first_artificial_;
            for (int j = 0; j < scan_end; ++j) {
                if (j >= first_artificial_) continue;  // never re-enter
                const double r = obj_[static_cast<std::size_t>(j)];
                if (r < (bland ? -tol : best)) {
                    enter = j;
                    if (bland) break;  // first eligible (Bland)
                    best = r;
                }
            }
            if (enter < 0) return LpStatus::Optimal;

            // Ratio test.
            int leave = -1;
            double best_ratio = 0.0;
            for (int i = 0; i < m_; ++i) {
                const double a = get(i, enter);
                if (a <= tol) continue;
                const double ratio = rhs(i) / a;
                if (leave < 0 || ratio < best_ratio - 1e-12 ||
                    (std::abs(ratio - best_ratio) <= 1e-12 &&
                     basis_[static_cast<std::size_t>(i)] <
                         basis_[static_cast<std::size_t>(leave)])) {
                    leave = i;
                    best_ratio = ratio;
                }
            }
            if (leave < 0) return phase1 ? LpStatus::Infeasible : LpStatus::Unbounded;

            // Shared fault point with the bounded solver: simulates a pivot
            // breakdown so both implementations exercise the same path.
            if (support::fault_fires("simplex.pivot")) {
                error_ = support::Errc::NumericalTrouble;
                return LpStatus::IterLimit;
            }

            pivot(leave, enter);

            const double now = current_objective();
            if (std::abs(now - last_obj) < 1e-12) {
                if (++stall > 2 * (m_ + 8)) bland = true;  // anti-cycling
            } else {
                stall = 0;
                last_obj = now;
            }
        }
    }

    void pivot(int prow, int pcol) {
        const double p = get(prow, pcol);
        const double inv = 1.0 / p;
        for (int j = 0; j <= cols_; ++j) at(prow, j) *= inv;
        at(prow, pcol) = 1.0;
        for (int i = 0; i < m_; ++i) {
            if (i == prow) continue;
            const double f = get(i, pcol);
            if (f == 0.0) continue;
            for (int j = 0; j <= cols_; ++j) at(i, j) -= f * get(prow, j);
            at(i, pcol) = 0.0;
        }
        const double f = obj_[static_cast<std::size_t>(pcol)];
        if (f != 0.0) {
            for (int j = 0; j <= cols_; ++j) {
                obj_[static_cast<std::size_t>(j)] -= f * get(prow, j);
            }
            obj_[static_cast<std::size_t>(pcol)] = 0.0;
        }
        basis_[static_cast<std::size_t>(prow)] = pcol;
    }

    const Model& model_;
    const std::vector<double>& lb_;
    const std::vector<double>& ub_;
    const LpOptions& options_;

    int n_ = 0;     // structural variables
    int m_ = 0;     // tableau rows
    int cols_ = 0;  // total columns (structural + slack + artificial)
    std::size_t stride_ = 0;
    int first_artificial_ = 0;
    int num_artificial_ = 0;
    bool phase1_ = false;

    std::vector<double> data_;  // m_ rows × (cols_+1), last col = rhs
    std::vector<double> obj_;   // objective row, cols_+1 entries
    std::vector<int> basis_;
    std::vector<int> aux_col_;   // row -> slack/artificial column (duals)
    std::vector<int> dual_sign_; // row -> σrow·σcol sign for dual readout
    bool deadline_hit_ = false;  // IterLimit caused by deadline/cancel
    support::Errc error_ = support::Errc::None;
};

}  // namespace

LpResult solve_lp_textbook(const Model& model, const std::vector<double>* lb,
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
    Tableau tableau(model, *lb, *ub, options);
    return tableau.solve();
}

}  // namespace p4all::ilp
