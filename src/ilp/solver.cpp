#include "ilp/solver.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>

#include "ilp/presolve.hpp"
#include "support/faultpoint.hpp"

namespace p4all::ilp {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Rounds the LP solution's integer variables and re-checks feasibility —
/// a cheap incumbent heuristic that often succeeds on placement models.
bool try_rounding(const Model& model, const std::vector<double>& lp_values,
                  std::vector<double>& rounded_out) {
    std::vector<double> rounded = lp_values;
    int first_int = -1;
    for (int j = 0; j < model.num_vars(); ++j) {
        if (model.var_type(j) == VarType::Continuous) continue;
        if (first_int < 0) first_int = j;
        const std::size_t idx = static_cast<std::size_t>(j);
        rounded[idx] = std::clamp(std::round(rounded[idx]), model.lower_bound(j),
                                  model.upper_bound(j));
    }
    // Fault point: a firing simulates a buggy rounding heuristic — the
    // incumbent is corrupted and the feasibility re-check is skipped, so the
    // only thing standing between the bad layout and the user is the audit
    // gate downstream.
    if (support::fault_fires("bnb.round")) {
        if (first_int >= 0) rounded[static_cast<std::size_t>(first_int)] += 1.0;
        rounded_out = std::move(rounded);
        return true;
    }
    if (!model.is_feasible(rounded, 1e-6)) return false;
    rounded_out = std::move(rounded);
    return true;
}

/// Per-variable branching history: the average objective degradation per
/// unit of fractionality closed, kept separately for the down and the up
/// child. Every observation is recorded in the engine's serial commit
/// sections, so the table's state at any decision point is a pure function
/// of the search tree — never of thread timing — and the pseudocost-guided
/// tree stays bit-identical at every thread count.
class Pseudocosts {
public:
    explicit Pseudocosts(int n)
        : sum_(static_cast<std::size_t>(2 * n), 0.0),
          cnt_(static_cast<std::size_t>(2 * n), 0) {}

    /// One observed branching outcome: `degradation` = parent LP objective −
    /// child LP objective (clamped at 0: maximize convention), `frac_moved`
    /// = the fractional distance the branch closed (f down, 1−f up).
    void record(int var, bool up, double frac_moved, double degradation) {
        if (frac_moved < 1e-9) return;
        const double per_unit = std::max(degradation, 0.0) / frac_moved;
        const std::size_t k = slot(var, up);
        sum_[k] += per_unit;
        cnt_[k] += 1;
        global_sum_ += per_unit;
        global_cnt_ += 1;
    }

    /// Estimated per-unit degradation. Variables with no history fall back
    /// to the global average (the cheap half of reliability branching), and
    /// before any observation at all the estimate is 1.0 — which makes the
    /// product score degenerate to f·(1−f), i.e. plain most-fractional
    /// selection, for the first branching decision.
    [[nodiscard]] double estimate(int var, bool up) const {
        const std::size_t k = slot(var, up);
        if (cnt_[k] > 0) return sum_[k] / static_cast<double>(cnt_[k]);
        if (global_cnt_ > 0) return global_sum_ / static_cast<double>(global_cnt_);
        return 1.0;
    }

private:
    [[nodiscard]] static std::size_t slot(int var, bool up) {
        return static_cast<std::size_t>(2 * var + (up ? 1 : 0));
    }

    std::vector<double> sum_;
    std::vector<int> cnt_;
    double global_sum_ = 0.0;
    std::int64_t global_cnt_ = 0;
};

/// Branch-variable selection: highest priority class first; within the
/// class, the largest pseudocost product score
/// max(est_down·f, ε)·max(est_up·(1−f), ε) — the standard "expected
/// degradation in both children" criterion. Exact score ties (common before
/// any history exists) break on larger fractionality, then smallest index.
struct BranchChoice {
    int var = -1;
    double frac = 0.0;  // distance to the nearest integer
    int prio = 0;
};

BranchChoice pick_branch(const Model& model, const std::vector<double>& values,
                         double int_tol, const Pseudocosts& pc) {
    BranchChoice choice;
    double best_score = -1.0;
    for (int j = 0; j < model.num_vars(); ++j) {
        if (model.var_type(j) == VarType::Continuous) continue;
        const double v = values[static_cast<std::size_t>(j)];
        const double frac = std::abs(v - std::round(v));
        if (frac <= int_tol) continue;
        const double f = v - std::floor(v);
        const int prio = model.branch_priority(j);
        const double score = std::max(pc.estimate(j, false) * f, 1e-6) *
                             std::max(pc.estimate(j, true) * (1.0 - f), 1e-6);
        const bool better =
            choice.var < 0 || prio > choice.prio ||
            (prio == choice.prio &&
             (score > best_score || (score == best_score && frac > choice.frac)));
        if (better) {
            choice.var = j;
            choice.frac = frac;
            choice.prio = prio;
            best_score = score;
        }
    }
    return choice;
}

/// Snaps the integer variables of an LP assignment to exact integers.
void snap_integers(const Model& model, std::vector<double>& values) {
    for (int j = 0; j < model.num_vars(); ++j) {
        if (model.var_type(j) != VarType::Continuous) {
            values[static_cast<std::size_t>(j)] =
                std::round(values[static_cast<std::size_t>(j)]);
        }
    }
}

/// Everything the engine needs beyond SolveOptions, prepared once by
/// solve_milp: the presolve-cleaned model every LP relaxes and every
/// feasibility/objective check evaluates against, and the presolved root
/// bounds (which double as the frozen perturbation reference for the whole
/// tree).
struct SearchContext {
    const Model* base = nullptr;
    const std::vector<double>* root_lb = nullptr;
    const std::vector<double>* root_ub = nullptr;
    /// Sparse backend with warm starts enabled: thread parent bases to
    /// children and capture each node's optimal basis.
    bool use_warm = false;
};

// ---------------------------------------------------------------------------
// Deterministic parallel best-first search
// ---------------------------------------------------------------------------

/// A best-first node: bounds plus its deterministic order key. `bound` is
/// the parent relaxation's perturbation-corrected bound (the tightest known
/// upper bound on the subtree); `seq` is the creation sequence number,
/// assigned in serial commit order, so (bound desc, seq desc) is a strict
/// total order independent of thread timing. Ties on the bound pop the
/// NEWEST node first (LIFO): placement relaxations are massively degenerate
/// — most children inherit the parent bound exactly — and FIFO order would
/// sweep those plateaus breadth-first, exploding the frontier before any
/// incumbent exists. LIFO dives depth-first on plateaus while still jumping to
/// strictly better-bounded subtrees, and is just as deterministic.
struct Node {
    std::vector<double> lb;
    std::vector<double> ub;
    double bound = kInfinity;
    std::uint64_t seq = 0;
    std::shared_ptr<const SimplexBasis> warm;
    int branch_var = -1;
    bool branch_up = false;
    double branch_frac = 0.0;
    double parent_obj = 0.0;
};

struct NodeOrder {
    bool operator()(const Node& a, const Node& b) const {
        if (a.bound != b.bound) return a.bound < b.bound;  // max-heap on bound
        return a.seq < b.seq;                              // then LIFO (dive)
    }
};

/// Work-stealing thread pool for batch LP evaluation. Workers (plus the
/// calling thread) steal task indices from a shared atomic counter, so a
/// slow LP never serializes the batch behind it. The pool carries no task
/// state of its own — determinism is the caller's property (tasks write to
/// disjoint slots; the caller joins the batch before reading any of them).
class LpWorkerPool {
public:
    explicit LpWorkerPool(int extra_workers) {
        for (int i = 0; i < extra_workers; ++i) {
            workers_.emplace_back([this](const std::stop_token& stop) { worker(stop); });
        }
    }

    ~LpWorkerPool() {
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            shutdown_ = true;
        }
        cv_.notify_all();
    }

    /// Runs fn(0..count-1) across the pool and the calling thread; returns
    /// when every task has finished.
    void run(int count, const std::function<void(int)>& fn) {
        if (count <= 0) return;
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            fn_ = &fn;
            count_ = count;
            next_.store(0, std::memory_order_relaxed);
            remaining_.store(count, std::memory_order_relaxed);
            ++generation_;
        }
        cv_.notify_all();
        drain(fn, count);
        // The round is over only when every task is done AND every worker
        // that joined it has left drain(): a worker still inside drain()
        // after the last task completes would otherwise race the next
        // round's counter reset, steal an index there with this round's
        // (destroyed) task function, and double-execute it — driving
        // `remaining_` negative and deadlocking the next run() forever.
        std::unique_lock<std::mutex> lock(mutex_);
        done_cv_.wait(lock, [this] {
            return remaining_.load(std::memory_order_acquire) == 0 && draining_ == 0;
        });
        fn_ = nullptr;
    }

private:
    void drain(const std::function<void(int)>& fn, int count) {
        while (true) {
            const int i = next_.fetch_add(1, std::memory_order_relaxed);
            if (i >= count) return;
            fn(i);
            if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
                // Serialize with the caller's predicate-check-then-sleep: a
                // notify issued without the mutex can land in the window
                // between the two and be lost, leaving run() asleep forever.
                { const std::lock_guard<std::mutex> lock(mutex_); }
                done_cv_.notify_all();
            }
        }
    }

    void worker(const std::stop_token& stop) {
        std::uint64_t seen = 0;
        while (!stop.stop_requested()) {
            const std::function<void(int)>* fn = nullptr;
            int count = 0;
            {
                std::unique_lock<std::mutex> lock(mutex_);
                cv_.wait(lock, [&] { return shutdown_ || generation_ != seen; });
                if (shutdown_) return;
                seen = generation_;
                fn = fn_;
                count = count_;
                if (fn != nullptr) ++draining_;  // round membership (see run)
            }
            if (fn != nullptr) {
                drain(*fn, count);
                { const std::lock_guard<std::mutex> lock(mutex_); --draining_; }
                done_cv_.notify_all();
            }
        }
    }

    std::mutex mutex_;
    std::condition_variable cv_;
    std::condition_variable done_cv_;
    const std::function<void(int)>* fn_ = nullptr;
    int count_ = 0;
    std::uint64_t generation_ = 0;
    int draining_ = 0;  // workers currently inside drain(); guarded by mutex_
    bool shutdown_ = false;
    std::atomic<int> next_{0};
    std::atomic<int> remaining_{0};
    std::vector<std::jthread> workers_;
};

/// Nodes relaxed per round. Fixed (never derived from the thread count):
/// the batch composition is part of the deterministic search order, so the
/// same tree unfolds whether one worker or eight drain the batch.
constexpr int kBestFirstBatch = 8;

Solution solve_milp_best_first(const SearchContext& ctx, const SolveOptions& options,
                               const support::Deadline& deadline,
                               Clock::time_point start) {
    const Model& base = *ctx.base;
    LpOptions lp_options = options.lp;
    lp_options.deadline = deadline;
    lp_options.perturb_ref_lb = ctx.root_lb;
    lp_options.perturb_ref_ub = ctx.root_ub;

    Solution best;
    best.status = SolveStatus::Infeasible;

    bool have_incumbent = false;
    bool abandoned_subtree = false;
    // Atomic mirror of the incumbent objective: written only during serial
    // commits (between batches), read by anyone. Workers never act on it
    // mid-batch — all pruning happens in the serial sections — which is
    // exactly why the search stays deterministic.
    std::atomic<double> incumbent_obj{-kInfinity};
    if (!options.warm_start.empty() && base.is_feasible(options.warm_start, 1e-6)) {
        have_incumbent = true;
        incumbent_obj.store(base.objective().evaluate(options.warm_start),
                            std::memory_order_relaxed);
        best.values = options.warm_start;
        best.objective = incumbent_obj.load(std::memory_order_relaxed);
    }

    const auto prune_cutoff = [&]() {
        const double inc = incumbent_obj.load(std::memory_order_relaxed);
        return inc + std::max(options.gap_absolute, options.gap_relative * std::abs(inc));
    };

    Pseudocosts pc(base.num_vars());
    std::priority_queue<Node, std::vector<Node>, NodeOrder> queue;
    {
        Node root;
        root.lb = *ctx.root_lb;
        root.ub = *ctx.root_ub;
        queue.push(std::move(root));
    }
    std::uint64_t next_seq = 1;

    const int threads = options.threads > 0
                            ? options.threads
                            : std::max(1u, std::thread::hardware_concurrency());
    LpWorkerPool pool(threads - 1);

    std::vector<Node> batch;
    std::vector<LpResult> results;
    std::vector<SimplexBasis> captures;
    const auto finish = [&](SolveStatus status, support::Errc error,
                            const std::string& detail) {
        best.status = status;
        best.error = error;
        best.error_detail = detail;
        best.seconds = seconds_since(start);
        return best;
    };

    while (!queue.empty()) {
        if (deadline.expired()) {
            return finish(SolveStatus::Limit,
                          deadline.cancelled() ? support::Errc::Cancelled
                                               : support::Errc::DeadlineExceeded,
                          deadline.cancelled() ? "cancellation requested during search"
                                               : "time budget exhausted during search");
        }

        // --- serial batch selection -----------------------------------
        batch.clear();
        while (!queue.empty() && static_cast<int>(batch.size()) < kBestFirstBatch) {
            if (best.nodes >= options.max_nodes) {
                if (batch.empty()) {
                    return finish(SolveStatus::Limit, support::Errc::ResourceLimit,
                                  "node limit reached (" + std::to_string(options.max_nodes) +
                                      " nodes)");
                }
                break;
            }
            Node node = std::move(const_cast<Node&>(queue.top()));
            queue.pop();
            ++best.nodes;
            // Parent-bound pruning uses the incumbent as of this serial
            // section — the same value a serial best-first run would see.
            if (have_incumbent && node.bound <= prune_cutoff()) continue;
            // Fault point: fired in the serial section so the shared fault
            // budget is consumed in deterministic node order no matter how
            // many workers evaluate the surviving batch.
            if (support::fault_fires("bnb.node")) {
                abandoned_subtree = true;
                continue;
            }
            batch.push_back(std::move(node));
        }
        if (batch.empty()) {
            if (best.nodes >= options.max_nodes && !queue.empty()) {
                return finish(SolveStatus::Limit, support::Errc::ResourceLimit,
                              "node limit reached (" + std::to_string(options.max_nodes) +
                                  " nodes)");
            }
            continue;
        }

        // --- parallel relaxation --------------------------------------
        results.assign(batch.size(), LpResult{});
        captures.assign(batch.size(), SimplexBasis{});
        pool.run(static_cast<int>(batch.size()), [&](int i) {
            const std::size_t is = static_cast<std::size_t>(i);
            const Node& node = batch[is];
            LpOptions node_options = lp_options;
            if (ctx.use_warm) {
                if (node.warm != nullptr && !node.warm->empty()) {
                    node_options.warm_basis = node.warm.get();
                }
                node_options.capture_basis = &captures[is];
            }
            results[is] = solve_lp_with(options.lp_backend, base, &node.lb, &node.ub,
                                        node_options);
        });

        // --- serial commit, in batch (deterministic) order ------------
        for (std::size_t k = 0; k < batch.size(); ++k) {
            Node& node = batch[k];
            const LpResult& lp = results[k];
            best.lp_iterations += lp.iterations;
            // Pseudocost observation, in commit order (determinism).
            if (node.branch_var >= 0 && lp.status == LpStatus::Optimal) {
                pc.record(node.branch_var, node.branch_up,
                          node.branch_up ? 1.0 - node.branch_frac : node.branch_frac,
                          node.parent_obj - lp.objective);
            }
            if (node.seq == 0 && lp.status == LpStatus::Optimal) {
                // Root relaxation: keep its dual certificate so the audit
                // layer can independently witness the global bound. The
                // duals arrive through the backend-agnostic LpResult
                // contract — dense tableau and sparse BTRAN alike.
                best.root_duals = lp.duals;
                best.root_bound = lp.bound;
                best.root_bound_slack = lp.bound_slack;
            }
            if (lp.status == LpStatus::Infeasible) continue;
            if (lp.status == LpStatus::Unbounded) {
                return finish(SolveStatus::Unbounded, support::Errc::Unbounded,
                              "objective is unbounded over the relaxation");
            }
            if (lp.status == LpStatus::IterLimit) {
                if (lp.deadline_hit) {
                    return finish(SolveStatus::Limit, lp.error,
                                  lp.error == support::Errc::Cancelled
                                      ? "cancellation requested inside simplex"
                                      : "time budget exhausted inside simplex");
                }
                abandoned_subtree = true;
                if (lp.error == support::Errc::NumericalTrouble &&
                    best.error == support::Errc::None) {
                    best.error = support::Errc::NumericalTrouble;
                    best.error_detail = "simplex reported numerical trouble";
                }
                continue;
            }
            if (have_incumbent && lp.bound <= prune_cutoff()) continue;

            const BranchChoice branch = pick_branch(base, lp.values, options.int_tol, pc);
            if (branch.var < 0) {
                // Integral: candidate incumbent. Strict improvement keeps
                // the commit deterministic (ties keep the earlier, i.e.
                // lower-seq, incumbent).
                const double obj = lp.objective;
                if (!have_incumbent || obj > incumbent_obj.load(std::memory_order_relaxed)) {
                    have_incumbent = true;
                    incumbent_obj.store(obj, std::memory_order_relaxed);
                    best.values = lp.values;
                    snap_integers(base, best.values);
                    best.objective = obj;
                }
                continue;
            }

            // Incumbent heuristic at the root and occasionally afterwards
            // (every 64th node, counted in commit order).
            if (!have_incumbent || (best.nodes & 0x3F) == 0) {
                std::vector<double> rounded;
                if (try_rounding(base, lp.values, rounded)) {
                    const double obj = base.objective().evaluate(rounded);
                    if (!have_incumbent || obj > incumbent_obj.load(std::memory_order_relaxed)) {
                        have_incumbent = true;
                        incumbent_obj.store(obj, std::memory_order_relaxed);
                        best.values = std::move(rounded);
                        best.objective = obj;
                    }
                }
            }

            std::shared_ptr<const SimplexBasis> child_warm;
            if (ctx.use_warm && !captures[k].empty()) {
                child_warm = std::make_shared<SimplexBasis>(std::move(captures[k]));
            }
            const std::size_t bidx = static_cast<std::size_t>(branch.var);
            // Clamp the LP value into the node's bounds before splitting: LP
            // tolerances can leave it epsilon outside, which would create an
            // empty child interval.
            const double v = std::clamp(lp.values[bidx], node.lb[bidx], node.ub[bidx]);
            const double floor_v = std::floor(v);
            const double f = v - floor_v;
            Node down;
            down.lb = node.lb;
            down.ub = node.ub;
            down.ub[bidx] = std::min(down.ub[bidx], floor_v);
            down.bound = lp.bound;
            down.warm = child_warm;
            down.branch_var = branch.var;
            down.branch_up = false;
            down.branch_frac = f;
            down.parent_obj = lp.objective;
            Node up;
            up.lb = std::move(node.lb);
            up.ub = std::move(node.ub);
            up.lb[bidx] = std::max(up.lb[bidx], floor_v + 1);
            up.bound = lp.bound;
            up.warm = std::move(child_warm);
            up.branch_var = branch.var;
            up.branch_up = true;
            up.branch_frac = f;
            up.parent_obj = lp.objective;
            const bool down_valid = down.lb[bidx] <= down.ub[bidx];
            const bool up_valid = up.lb[bidx] <= up.ub[bidx];
            // The preferred child gets the larger sequence number: ties on
            // the bound pop newest-first, so it is explored first.
            // Prioritized (structural) variables dive up first — instantiate
            // the iteration / take the placement — which reaches a feasible
            // incumbent quickly; otherwise follow the LP value.
            const bool up_first = branch.prio > 0 || f > 0.5;
            if (up_first) {
                if (down_valid) {
                    down.seq = next_seq++;
                    queue.push(std::move(down));
                }
                if (up_valid) {
                    up.seq = next_seq++;
                    queue.push(std::move(up));
                }
            } else {
                if (up_valid) {
                    up.seq = next_seq++;
                    queue.push(std::move(up));
                }
                if (down_valid) {
                    down.seq = next_seq++;
                    queue.push(std::move(down));
                }
            }
        }
    }

    best.seconds = seconds_since(start);
    if (have_incumbent) {
        best.status = abandoned_subtree ? SolveStatus::Limit : SolveStatus::Optimal;
    } else if (abandoned_subtree) {
        best.status = SolveStatus::Limit;
    }
    return best;
}

}  // namespace

std::int64_t Solution::value_int(Var v) const {
    return static_cast<std::int64_t>(
        std::llround(values.at(static_cast<std::size_t>(v.id))));
}

Solution solve_milp(const Model& model, const SolveOptions& options) {
    const auto start = Clock::now();
    // Combine the legacy scalar limit with the cooperative deadline; the
    // tighter bound wins and is threaded into every LP solve below.
    const support::Deadline deadline =
        options.deadline.tightened(options.time_limit_seconds);

    // Root presolve: exact bound tightening + coefficient cleanup. The
    // tightened bounds become the root node AND the frozen perturbation
    // reference (both backends derive the perturbed cost vector from them,
    // so it is constant across the whole tree — the warm-start invariant).
    const PresolveResult pre = presolve(model);
    if (pre.infeasible) {
        Solution out;
        out.status = SolveStatus::Infeasible;
        out.error = support::Errc::Infeasible;
        out.error_detail = pre.infeasible_reason;
        out.seconds = seconds_since(start);
        return out;
    }
    const Model& base = pre.cleaned ? *pre.cleaned : model;

    SearchContext ctx;
    ctx.base = &base;
    ctx.root_lb = &pre.lb;
    ctx.root_ub = &pre.ub;
    ctx.use_warm = options.lp_backend == LpBackend::Sparse && options.warm_start_lp;

    Solution best = solve_milp_best_first(ctx, options, deadline, start);

    if (best.status == SolveStatus::Limit && best.error == support::Errc::None) {
        best.error = support::Errc::ResourceLimit;
        best.error_detail = "search incomplete: subtree abandoned at LP limit";
    }
    if (best.status == SolveStatus::Optimal) {
        best.error = support::Errc::None;
        best.error_detail.clear();
    } else if (best.status == SolveStatus::Infeasible) {
        best.error = support::Errc::Infeasible;
        if (best.error_detail.empty()) {
            best.error_detail = "no integer assignment satisfies the constraints";
        }
    } else if (best.status == SolveStatus::Unbounded) {
        best.error = support::Errc::Unbounded;
        if (best.error_detail.empty()) {
            best.error_detail = "objective is unbounded over the relaxation";
        }
    }
    return best;
}

namespace {

void enumerate(const Model& model, std::vector<int>& int_vars, std::size_t depth,
               std::vector<double>& lb, std::vector<double>& ub, Solution& best,
               bool& found, const support::Deadline& deadline, bool& stopped) {
    if (stopped) return;
    if (depth == int_vars.size()) {
        // Poll between leaf LP solves: the amortized cost is one clock read
        // per assignment, and each leaf LP already honors the deadline.
        if (deadline.expired()) {
            stopped = true;
            return;
        }
        // All integers fixed: solve the continuous remainder (or just check).
        LpOptions lp_options;
        lp_options.deadline = deadline;
        const LpResult lp = solve_lp(model, &lb, &ub, lp_options);
        best.lp_iterations += lp.iterations;
        ++best.nodes;
        if (lp.deadline_hit) {
            stopped = true;
            return;
        }
        if (lp.status != LpStatus::Optimal) return;
        if (!found || lp.objective > best.objective) {
            found = true;
            best.objective = lp.objective;
            best.values = lp.values;
            snap_integers(model, best.values);
        }
        return;
    }
    const int j = int_vars[depth];
    const std::size_t idx = static_cast<std::size_t>(j);
    const double save_lb = lb[idx];
    const double save_ub = ub[idx];
    for (double v = save_lb; v <= save_ub + 1e-9 && !stopped; v += 1.0) {
        lb[idx] = v;
        ub[idx] = v;
        enumerate(model, int_vars, depth + 1, lb, ub, best, found, deadline,
                  stopped);
    }
    lb[idx] = save_lb;
    ub[idx] = save_ub;
}

}  // namespace

Solution solve_exhaustive(const Model& model, std::int64_t max_combinations,
                          const support::Deadline& deadline) {
    const auto start = Clock::now();
    Solution best;
    std::vector<int> int_vars;
    std::int64_t combos = 1;
    for (int j = 0; j < model.num_vars(); ++j) {
        if (model.var_type(j) == VarType::Continuous) continue;
        if (model.upper_bound(j) == kInfinity) {
            // Structured refusal instead of a throw: portfolio drivers treat
            // this exactly like any other backend that could not run.
            best.status = SolveStatus::Limit;
            best.error = support::Errc::DomainTooLarge;
            best.error_detail = "unbounded integer variable '" +
                                model.var_name(j) + "'";
            best.seconds = seconds_since(start);
            return best;
        }
        const auto domain = static_cast<std::int64_t>(
            model.upper_bound(j) - model.lower_bound(j) + 1);
        combos *= std::max<std::int64_t>(domain, 1);
        if (combos > max_combinations) {
            best.status = SolveStatus::Limit;
            best.error = support::Errc::DomainTooLarge;
            best.error_detail = "integer domain exceeds " +
                                std::to_string(max_combinations) +
                                " combinations";
            best.seconds = seconds_since(start);
            return best;
        }
        int_vars.push_back(j);
    }
    std::vector<double> lb(static_cast<std::size_t>(model.num_vars()));
    std::vector<double> ub(static_cast<std::size_t>(model.num_vars()));
    for (int j = 0; j < model.num_vars(); ++j) {
        lb[static_cast<std::size_t>(j)] = model.lower_bound(j);
        ub[static_cast<std::size_t>(j)] = model.upper_bound(j);
    }
    bool found = false;
    bool stopped = false;
    enumerate(model, int_vars, 0, lb, ub, best, found, deadline, stopped);
    if (stopped) {
        // Keep the best-so-far assignment: even a truncated enumeration can
        // hand the caller a usable (audited) incumbent.
        best.status = SolveStatus::Limit;
        best.error = deadline.cancelled() ? support::Errc::Cancelled
                                          : support::Errc::DeadlineExceeded;
        best.error_detail = "enumeration stopped before covering the domain";
    } else if (found) {
        best.status = SolveStatus::Optimal;
    } else {
        best.status = SolveStatus::Infeasible;
        best.error = support::Errc::Infeasible;
        best.error_detail = "no integer assignment satisfies the constraints";
    }
    best.seconds = seconds_since(start);
    return best;
}

}  // namespace p4all::ilp
