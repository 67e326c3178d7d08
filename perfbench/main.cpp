// perfbench — the end-to-end benchmark of the shipped P4All paths.
//
//   perfbench --workload compile|serve-steady|serve-drift --seed N
//             --seconds S --trace 0|1 --work-dir DIR [--source-id ID]
//
// Workloads (see README.md for the reasons and the layer predictions):
//   compile       p4allc's default path: compile_source with default
//                 CompileOptions, then audit_artifacts, on five instances,
//                 in repeated passes.
//   serve-steady  p4all-run's defaults for all four apps, fed stationary
//                 Zipf traffic through each driver's step; no swaps.
//   serve-drift   the same runtimes with a journal directory, fed a drifting
//                 Zipf trace with one phase per drift window, so every
//                 window after the first recompiles and swaps.
//
// Every output is checked (audit verdicts, pinned utilities, count-min rows
// against apps::CountMinSketch, swap commits against the journal). The last
// stdout line is one JSON object: end-to-end metrics untraced, per-layer
// metrics traced. The exit code is 0 only when every check passed.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "apps/applications.hpp"
#include "apps/modules.hpp"
#include "apps/netcache.hpp"
#include "apps/reference.hpp"
#include "audit/audit.hpp"
#include "compiler/codegen.hpp"
#include "compiler/compiler.hpp"
#include "compiler/greedy.hpp"
#include "compiler/report.hpp"
#include "compiler/resilient.hpp"
#include "lang/parser.hpp"
#include "opt/optimizer.hpp"
#include "runtime/drivers.hpp"
#include "runtime/journal.hpp"
#include "runtime/migrate_static.hpp"
#include "runtime/runtime.hpp"
#include "runtime/snapshot.hpp"
#include "support/hash.hpp"
#include "support/rng.hpp"
#include "tracer.hpp"
#include "verify/dataflow.hpp"
#include "workload/trace.hpp"

namespace perfbench {
namespace {

using namespace p4all;

// ---------------------------------------------------------------- settings

constexpr std::size_t kUniverse = 600;      // distinct keys per Zipf phase
constexpr double kAlpha = 1.2;              // Zipf skew
constexpr std::size_t kWindow = 1024;       // p4all-run's drift window
constexpr int kPinnedBringupReps = 5;       // serve-*: bring-ups per pinned app
constexpr std::size_t kSteadyTrace = 1u << 18;    // stationary keys per app (cycled)
constexpr std::size_t kSliceWindows = 4;          // serve-steady: windows per timed slice
constexpr std::uint64_t kDigestPackets = 65536;   // serve-steady: digest point per app
constexpr std::size_t kDriftPhases = 512;         // serve-drift: phases per pinned app
constexpr std::size_t kDigestWindows = 8;         // serve-drift: digest point per pinned app
constexpr std::size_t kNetcacheDriftWindows = 4;  // reference window + three swaps

const std::vector<std::string> kApps = {"netcache", "sketchlearn", "precision", "conquest"};
const std::vector<std::string> kPinnedApps = {"sketchlearn", "precision", "conquest"};
const std::vector<std::string> kRungs = {"ilp-sparse", "ilp",    "ilp-bland",
                                         "ilp-O0",     "greedy", "exhaustive"};

/// One p4allc compile instance. `app` names the end-to-end row it feeds;
/// `utility` is the value the greedy backend reaches, which the default ILP
/// path must match exactly.
struct Instance {
    std::string name;
    std::string app;
    std::string source;
    double utility;
};

std::vector<Instance> make_instances() {
    return {
        {"netcache", "netcache", apps::netcache_source(), 128512.2},
        {"sketchlearn-l4", "sketchlearn", apps::sketchlearn_source(4), 109374.0},
        {"precision", "precision", apps::precision_source(), 109372.0},
        {"conquest-s4", "conquest", apps::conquest_source(4), 109374.0},
        {"conquest-s6", "conquest", apps::conquest_source(6), 54697.9374},
    };
}

// ---------------------------------------------------------------- helpers

double quantile(std::vector<double> v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
double median(const std::vector<double>& v) { return quantile(v, 0.5); }
double mean(const std::vector<double>& v) {
    if (v.empty()) return 0.0;
    double s = 0.0;
    for (double x : v) s += x;
    return s / static_cast<double>(v.size());
}

std::uint64_t fnv1a(const std::string& text) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::uint64_t layout_digest(const compiler::CompileResult& r) {
    return fnv1a(r.layout.to_string(r.program));
}

std::string hex(std::uint64_t v) {
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
    return buf;
}

/// Starts a new peak-RSS interval: freed heap goes back to the kernel and
/// the kernel's high-water mark drops to the current RSS, so set-up's
/// transient peak (netcache's 15 s branch and bound) is not counted.
void reset_peak_rss() {
    malloc_trim(0);
    std::ofstream("/proc/self/clear_refs") << "5";
}

/// Peak resident memory since the last reset_peak_rss(), in MiB.
double peak_rss_mb() {
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // whole-process peak, KiB
}

std::string cpu_model() {
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos) return line.substr(colon + 2);
        }
    }
    return "unknown";
}

double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------- report

struct Metric {
    std::string name;
    double value;
    std::string unit;
    std::size_t samples;

    [[nodiscard]] std::string line() const {
        char buf[200];
        std::snprintf(buf, sizeof buf, "  %-40s %16.4f %-6s n=%zu", name.c_str(), value,
                      unit.c_str(), samples);
        return buf;
    }
};

/// Everything a run reports. End-to-end and per-layer metric names are the
/// same on every workload (README.md defines each per workload); a layer
/// the workload does not exercise reports 0.
struct Report {
    std::vector<Metric> e2e;
    std::vector<Metric> layer;
    std::vector<std::string> table;  // extra named rows (human-readable only)
    std::vector<std::string> digests;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> errors;

    void fail(const std::string& what, std::uint64_t count = 1) {
        failed += count;
        errors.push_back(what);
    }
    void row(const std::string& name, double value, const std::string& unit, std::size_t n) {
        table.push_back(Metric{name, value, unit, n}.line());
    }
};

/// Per-layer values keyed by metric name; every name in layer_metric_names()
/// is emitted, defaulting to 0.
using LayerValues = std::map<std::string, std::pair<double, std::size_t>>;

std::vector<std::pair<std::string, std::string>> layer_metric_names() {
    std::vector<std::pair<std::string, std::string>> out;
    for (const Instance& inst : make_instances()) {
        out.push_back({"ilp.solve_ms." + inst.name, "ms"});
        out.push_back({"ilp.nodes." + inst.name, "count"});
        out.push_back({"ilp.lp_iters." + inst.name, "count"});
        out.push_back({"ilp.cuts." + inst.name, "count"});
        out.push_back({"ilp.root_gap_pct." + inst.name, "%"});
    }
    out.push_back({"ilp.proved", "frac"});
    out.push_back({"ilp.nodes_per_s.netcache", "1/s"});
    for (const char* n : {"compiler.ilp_vars", "compiler.ilp_rows", "opt.rewrites"}) {
        out.push_back({n, "count"});
    }
    for (const char* n : {"lang.parse_ms", "ir.elaborate_ms", "opt.optimize_ms",
                          "analysis.bounds_ms", "compiler.ilpgen_ms", "compiler.greedy_ms",
                          "compiler.layout_ms", "compiler.artifacts_ms", "compiler.codegen_ms",
                          "audit.audit_ms", "audit.gate_ms"}) {
        out.push_back({n, "ms"});
    }
    for (const std::string& app : kApps) out.push_back({"runtime.bringup_ms." + app, "ms"});
    for (const std::string& rung : kRungs) {
        out.push_back({"compiler.resilient.rung_ms." + rung, "ms"});
    }
    out.push_back({"compiler.resilient.anytime", "frac"});
    for (const std::string& suffix : {std::string(), std::string(".netcache")}) {
        for (const char* n : {"runtime.swap_ms", "runtime.recompile_ms", "runtime.plan_ms",
                              "runtime.migrate_ms", "runtime.snapshot_ms", "runtime.journal_ms",
                              "runtime.swap_other_ms"}) {
            out.push_back({n + suffix, "ms"});
        }
    }
    for (const std::string& app : kApps) {
        out.push_back({"runtime.step_ns." + app, "ns"});
        out.push_back({"sim.process_ns." + app, "ns"});
        out.push_back({"runtime.drift_ns." + app, "ns"});
        out.push_back({"apps.controller_ns." + app, "ns"});
        out.push_back({"sim.ops_per_pkt." + app, "count"});
        out.push_back({"sim.bounds_elided." + app, "count"});
    }
    out.push_back({"trace.overhead_pct", "%"});
    out.push_back({"trace.spans", "count"});
    return out;
}

/// Tracing overhead: per subject, the median op time with span recording on
/// against the median with it off (alternating within the traced run),
/// averaged over subjects, in percent.
std::pair<double, std::size_t> overhead_pct(
    const std::map<std::string, std::vector<double>>& traced,
    const std::map<std::string, std::vector<double>>& untraced) {
    std::vector<double> pct;
    for (const auto& [name, on] : traced) {
        const auto off = untraced.find(name);
        if (off == untraced.end() || on.empty() || off->second.empty()) continue;
        const double base = median(off->second);
        if (base > 0.0) pct.push_back(100.0 * (median(on) - base) / base);
    }
    return {mean(pct), pct.size()};
}

void fill_layer(Report& rep, const LayerValues& values) {
    for (const auto& [name, unit] : layer_metric_names()) {
        const auto it = values.find(name);
        const double v = it == values.end() ? 0.0 : it->second.first;
        const std::size_t n = it == values.end() ? 0 : it->second.second;
        rep.layer.push_back({name, v, unit, n});
    }
}

/// End-to-end rows shared by every workload. op_ms.<app> is the fastest
/// of the run's unit operations on that app: on a shared host interference
/// only adds time, and the run's minimum is the figure that repeats between
/// runs (README.md, "Cost and steadiness"). The medians are printed too.
void fill_e2e(Report& rep, double setup_s, std::size_t setup_n, double peak_mb,
              const std::map<std::string, std::vector<double>>& op_ms) {
    rep.e2e.push_back({"setup_s", setup_s, "s", setup_n});
    for (const std::string& app : kApps) {
        const auto it = op_ms.find(app);
        const std::vector<double> v = it == op_ms.end() ? std::vector<double>{} : it->second;
        rep.e2e.push_back({"op_ms." + app, quantile(v, 0.0), "ms", v.size()});
        rep.row("op_ms_median." + app, median(v), "ms", v.size());
    }
    rep.row("peak_rss_mb", peak_mb, "MB", 1);
}

/// Moves the measuring thread over every CPU the process may use, one step
/// at a time. On a shared host one CPU can stay contended by a neighbour for
/// a whole run; visiting all of them lets the run's fastest operations come
/// from uncontended CPUs. Threads created while pinned would inherit the
/// single-CPU mask, so release() restores the full mask before any step
/// that may spawn solver workers.
class CpuRotation {
public:
    CpuRotation() {
        CPU_ZERO(&all_);
        if (sched_getaffinity(0, sizeof all_, &all_) != 0) return;
        for (int c = 0; c < CPU_SETSIZE; ++c) {
            if (CPU_ISSET(c, &all_)) cpus_.push_back(c);
        }
    }
    ~CpuRotation() { release(); }
    CpuRotation(const CpuRotation&) = delete;
    CpuRotation& operator=(const CpuRotation&) = delete;

    void pin_next() {
        if (cpus_.empty()) return;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus_[next_++ % cpus_.size()], &one);
        (void)sched_setaffinity(0, sizeof one, &one);
    }
    void release() {
        if (!cpus_.empty()) (void)sched_setaffinity(0, sizeof all_, &all_);
    }

private:
    cpu_set_t all_;
    std::vector<int> cpus_;
    std::size_t next_ = 0;
};

/// Private scratch directories: <work>/tmp/<pid>-<workload>-<counter>,
/// removed when the run ends.
class ScratchDirs {
public:
    ScratchDirs(std::string root, std::string workload)
        : root_(std::move(root) + "/tmp"), workload_(std::move(workload)) {}
    ~ScratchDirs() {
        for (const std::string& d : made_) {
            std::error_code ec;
            std::filesystem::remove_all(d, ec);
        }
        std::error_code ec;
        std::filesystem::remove(root_, ec);  // only when no other run uses it
    }
    std::string make() {
        const std::string d = root_ + "/" + std::to_string(::getpid()) + "-" + workload_ + "-" +
                              std::to_string(counter_++);
        std::error_code ec;
        std::filesystem::remove_all(d, ec);
        std::filesystem::create_directories(d);
        made_.push_back(d);
        return d;
    }

private:
    std::string root_;
    std::string workload_;
    int counter_ = 0;
    std::vector<std::string> made_;
};

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string work_dir = ".";
    std::string source_id = "unknown";
};

// ---------------------------------------------------------------- compile

/// The compile pipeline of compiler::compile (default options, ILP backend)
/// re-run phase by phase from public layer functions, each phase in its own
/// span. Returns the layout digest so the caller can check it matches the
/// one compile_source produced.
std::uint64_t replay_compile(const Instance& inst, Tracer& tr, LayerValues& acc,
                             std::map<std::string, double>& pass_ms) {
    const compiler::CompileOptions o;
    const std::string& id = inst.name;
    Span root(tr, "compiler.replay", id);
    const auto timed = [&](const char* span, const char* metric, auto&& fn) {
        Span s(tr, span, id);
        fn();
        pass_ms[metric] += s.stop() * 1e3;
    };

    lang::Program ast;
    timed("lang.parse", "lang.parse_ms", [&] { ast = lang::parse(inst.source, id + ".p4all"); });
    ir::Program prog;
    timed("ir.elaborate", "ir.elaborate_ms", [&] {
        ir::ElaborateOptions eo;
        eo.program_name = id;
        prog = ir::elaborate(ast, eo);
    });
    timed("opt.optimize", "opt.optimize_ms", [&] {
        opt::OptResult r = opt::optimize(prog);
        pass_ms["opt.rewrites"] += static_cast<double>(r.rewrites.size());
        prog = std::move(r.program);
    });
    std::vector<std::int64_t> bounds;
    timed("analysis.bounds", "analysis.bounds_ms",
          [&] { bounds = analysis::unroll_bounds_all(prog, o.target, o.unroll); });
    std::optional<compiler::GeneratedIlp> gen;
    timed("compiler.ilpgen", "compiler.ilpgen_ms",
          [&] { gen = compiler::generate_ilp(prog, o.target, bounds, o.ilpgen); });
    pass_ms["compiler.ilp_vars"] += gen->model.num_vars();
    pass_ms["compiler.ilp_rows"] += gen->model.num_constraints();
    ilp::SolveOptions so = o.solve;
    so.deadline = so.deadline.merged(o.deadline);
    timed("compiler.greedy", "compiler.greedy_ms", [&] {
        if (const auto g = compiler::greedy_place(prog, o.target, bounds, so.deadline)) {
            so.warm_start = compiler::warm_start_values(prog, *gen, g->layout);
        }
    });
    ilp::Solution sol;
    {
        Span s(tr, "ilp.solve", id);
        sol = ilp::solve_milp(gen->model, so);
        acc["ilp.solve_ms." + id].first += s.stop() * 1e3;
    }
    compiler::Layout layout;
    timed("compiler.layout", "compiler.layout_ms", [&] {
        layout = compiler::extract_layout(prog, o.target, *gen, sol);
        (void)compiler::audit_layout(prog, o.target, layout);
    });
    timed("compiler.artifacts", "compiler.artifacts_ms", [&] {
        (void)compiler::compute_usage(prog, o.target, layout);
        (void)verify::prove_register_bounds(prog, compiler::dataplane_view(prog, layout));
    });
    timed("compiler.codegen", "compiler.codegen_ms",
          [&] { (void)compiler::generate_p4(prog, layout, o.deadline); });
    return fnv1a(layout.to_string(prog));
}

Report run_compile(const Args& args, Tracer& tr) {
    Report rep;
    std::vector<Instance> instances;
    // Set-up is source generation plus pass 0, the cold compile + audit of
    // every instance that each p4allc invocation pays; the measured passes
    // start warm.
    double setup_s = 0.0;
    {
        Span s(tr, "apps.sources", "setup");
        instances = make_instances();
        setup_s = s.stop();
    }

    support::Xoshiro256 rng(args.seed);
    std::vector<std::size_t> order(instances.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;

    std::map<std::string, std::vector<double>> inst_ms;  // per instance
    std::map<std::string, std::vector<double>> op_ms;    // per app, per pass
    std::map<std::string, std::uint64_t> digest;
    std::map<std::string, std::vector<double>> traced_ms, untraced_ms;
    std::map<std::string, std::vector<double>> pass_layer;  // traced: per-pass sums
    LayerValues acc;
    std::size_t proved = 0, solved = 0;
    const bool tracing = tr.enabled;
    CpuRotation cpus;  // the default compile path runs on one thread

    auto t0 = Clock::now();
    for (std::size_t pass = 0; pass < 4 || seconds_since(t0) < args.seconds; ++pass) {
        // Seeded visiting order per pass.
        for (std::size_t i = order.size(); i > 1; --i) {
            std::swap(order[i - 1], order[rng.next_below(i)]);
        }
        std::map<std::string, double> app_pass_ms;
        std::map<std::string, double> pass_ms;
        // Traced runs alternate recording on and off per pass; the op-time
        // difference between the two halves is the tracing overhead.
        tr.enabled = tracing && pass % 2 == 1;
        for (const std::size_t i : order) {
            const Instance& inst = instances[i];
            ++rep.attempted;
            cpus.pin_next();
            double ms = 0.0;
            try {
                Span op(tr, "compiler.compile_and_audit", inst.name);
                const compiler::CompileResult res = compiler::compile_source(inst.source, {}, inst.name);
                const verify::LintResult verdict =
                    audit::audit_artifacts(res.program, *res.artifacts);
                ms = op.stop() * 1e3;
                if (verdict.has_errors()) {
                    rep.fail(inst.name + ": audit rejected the layout");
                    continue;
                }
                if (std::abs(res.utility - inst.utility) > 1e-6 * std::max(1.0, inst.utility)) {
                    rep.fail(inst.name + ": utility " + std::to_string(res.utility) +
                             " != pinned greedy utility " + std::to_string(inst.utility));
                    continue;
                }
                const std::uint64_t d = layout_digest(res);
                if (digest.count(inst.name) != 0 && digest[inst.name] != d) {
                    rep.fail(inst.name + ": layout digest changed between passes");
                    continue;
                }
                digest[inst.name] = d;
                if (pass == 0) {
                    const ilp::Solution& sol = res.artifacts->solution;
                    ++solved;
                    proved += sol.optimal() ? 1 : 0;
                    acc["ilp.nodes." + inst.name] = {static_cast<double>(sol.nodes), 1};
                    acc["ilp.lp_iters." + inst.name] = {static_cast<double>(sol.lp_iterations), 1};
                    acc["ilp.cuts." + inst.name] = {static_cast<double>(sol.cuts.size()), 1};
                    const double gap = sol.objective != 0.0
                                           ? 100.0 * (sol.root_bound - sol.objective) /
                                                 std::abs(sol.objective)
                                           : 0.0;
                    acc["ilp.root_gap_pct." + inst.name] = {gap, 1};
                    if (inst.name == "netcache" && sol.seconds > 0.0) {
                        acc["ilp.nodes_per_s.netcache"] = {
                            static_cast<double>(sol.nodes) / sol.seconds, 1};
                    }
                }
                if (tracing && pass > 0) {
                    (pass % 2 == 1 ? traced_ms : untraced_ms)[inst.name].push_back(ms);
                    tr.enabled = true;
                    if (replay_compile(inst, tr, acc, pass_ms) != d) {
                        rep.fail(inst.name + ": phase-by-phase replay produced another layout");
                    }
                    tr.enabled = tracing && pass % 2 == 1;
                }
            } catch (const std::exception& e) {
                rep.fail(inst.name + ": compile threw: " + e.what());
                continue;
            }
            if (pass == 0) {
                setup_s += ms / 1e3;
                continue;
            }
            inst_ms[inst.name].push_back(ms);
            app_pass_ms[inst.app] += ms;
        }
        if (pass == 0) {
            reset_peak_rss();
            t0 = Clock::now();
            continue;
        }
        for (const auto& [app, ms] : app_pass_ms) op_ms[app].push_back(ms);
        for (const auto& [name, v] : pass_ms) pass_layer[name].push_back(v);
    }
    tr.enabled = tracing;
    cpus.release();
    const double peak_mb = peak_rss_mb();

    for (const auto& [name, d] : digest) rep.digests.push_back("layout " + name + " " + hex(d));
    fill_e2e(rep, setup_s, 1, peak_mb, op_ms);
    for (const auto& [name, v] : inst_ms) rep.row("compile_ms." + name, median(v), "ms", v.size());

    if (tracing) {
        for (const auto& [name, v] : pass_layer) acc[name] = {median(v), v.size()};
        for (const Instance& inst : instances) {
            auto& solve = acc["ilp.solve_ms." + inst.name];
            const std::size_t n = inst_ms[inst.name].size();
            if (n > 0) solve = {solve.first / static_cast<double>(n), n};
        }
        acc["ilp.proved"] = {solved > 0 ? static_cast<double>(proved) / solved : 0.0, solved};
        // The measured op times compile and audit together; time the audit
        // alone on one extra pass.
        double audit_ms = 0.0;
        for (const Instance& inst : instances) {
            const compiler::CompileResult res = compiler::compile_source(inst.source, {}, inst.name);
            Span s(tr, "audit.audit", inst.name);
            (void)audit::audit_artifacts(res.program, *res.artifacts);
            audit_ms += s.stop() * 1e3;
        }
        acc["audit.audit_ms"] = {audit_ms, 1};
        acc["trace.overhead_pct"] = overhead_pct(traced_ms, untraced_ms);
    }
    fill_layer(rep, acc);
    return rep;
}

// ---------------------------------------------------------------- serving

runtime::RuntimeOptions p4all_run_options() {
    // p4all-run's defaults (examples/p4all_run.cpp).
    runtime::RuntimeOptions o;
    o.compile.backend = compiler::Backend::Greedy;
    o.drift.window = kWindow;
    o.drift.top_k = 32;
    o.drift.min_hit_samples = 256;
    return o;
}

struct Served {
    runtime::AppDriver driver;
    std::unique_ptr<runtime::ElasticRuntime> rt;
    std::string journal_dir;
};

/// Resilient-portfolio account over every runtime compile of a run.
struct Rungs {
    std::map<std::string, std::vector<double>> ms;  // per rung that ran
    std::vector<double> anytime;                    // 1 per anytime acceptance
    std::vector<double> netcache_nodes_per_s;       // netcache's ilp-sparse rung
};

void record_rungs(const compiler::ResilienceReport& report, const std::string& app, Rungs& r) {
    for (const compiler::AttemptReport& a : report.attempts) {
        if (a.outcome == compiler::AttemptOutcome::Skipped) continue;
        r.ms[a.backend].push_back(a.seconds * 1e3);
        if (app == "netcache" && a.backend == "ilp-sparse" && a.seconds > 0.0) {
            r.netcache_nodes_per_s.push_back(static_cast<double>(a.nodes) / a.seconds);
        }
    }
    r.anytime.push_back(report.anytime ? 1.0 : 0.0);
}

void fill_rungs(LayerValues& acc, const Rungs& r) {
    for (const auto& [rung, v] : r.ms) acc["compiler.resilient.rung_ms." + rung] = {mean(v), v.size()};
    acc["compiler.resilient.anytime"] = {mean(r.anytime), r.anytime.size()};
    if (!r.netcache_nodes_per_s.empty()) {
        acc["ilp.nodes_per_s.netcache"] = {median(r.netcache_nodes_per_s),
                                           r.netcache_nodes_per_s.size()};
    }
}

/// Brings every app up (pinned apps several times, netcache once: its
/// bring-up is the 15 s ilp-sparse rung) and reports the summed per-app
/// median as setup_s.
std::map<std::string, Served> bring_up(bool journal, ScratchDirs& dirs, Tracer& tr, Report& rep,
                                       LayerValues& acc, double& setup_s, Rungs& rungs) {
    std::map<std::string, Served> out;
    setup_s = 0.0;
    for (const std::string& app : kApps) {
        const int reps = app == "netcache" ? 1 : kPinnedBringupReps;
        std::vector<double> ms;
        for (int r = 0; r < reps; ++r) {
            Served s{runtime::make_driver(app), nullptr, ""};
            runtime::RuntimeOptions o = p4all_run_options();
            if (journal) o.journal_dir = s.journal_dir = dirs.make();
            ++rep.attempted;
            try {
                Span span(tr, "runtime.bringup", app);
                s.rt = std::make_unique<runtime::ElasticRuntime>(app, s.driver.source, o,
                                                                 s.driver.profile);
                ms.push_back(span.stop() * 1e3);
            } catch (const std::exception& e) {
                rep.fail(app + ": bring-up threw: " + e.what());
                continue;
            }
            record_rungs(s.rt->compiled().resilience, app, rungs);
            out[app] = std::move(s);
        }
        acc["runtime.bringup_ms." + app] = {median(ms), ms.size()};
        setup_s += median(ms) / 1e3;
        if (out.count(app) == 0) throw std::runtime_error(app + ": no runtime came up");
    }
    return out;
}

/// Packet the driver's step builds for `raw_key` (runtime/drivers.cpp).
sim::Packet driver_packet(const std::string& app, const ir::Program& prog, std::uint64_t raw_key) {
    const bool netcache = app == "netcache";
    const std::uint64_t key = (netcache || app == "precision") ? raw_key + 1 : raw_key;
    sim::Packet pkt(prog.packet_fields.size(), 0);
    pkt[static_cast<std::size_t>(prog.find_packet(netcache ? "key" : "flow_id"))] = key;
    const ir::PacketFieldId dst = prog.find_packet("dst");
    if (dst != ir::kNoId) pkt[static_cast<std::size_t>(dst)] = key & 0xFF;
    return pkt;
}

/// Checks every count-min register of `app`'s serving pipeline against an
/// apps::CountMinSketch fed the same keys. Returns the number of
/// mismatching estimates plus rows whose total differs from the packets fed.
std::uint64_t check_count_min(const std::string& app, const sim::Pipeline& pipe,
                              const std::vector<std::uint64_t>& counts, std::string& detail) {
    std::uint64_t bad = 0;
    std::uint64_t packets = 0;
    for (const std::uint64_t c : counts) packets += c;
    const ir::Program& prog = pipe.program();
    std::map<std::string, int> rows;
    for (const sim::RegRowInfo& r : pipe.reg_rows()) {
        const std::string& name = prog.registers.at(static_cast<std::size_t>(r.reg)).name;
        if (name.size() > 4 && name.compare(name.size() - 4, 4, "_cms") == 0) ++rows[name];
    }
    int checked = 0;
    for (const auto& [reg, nrows] : rows) {
        // Hash-family slice per module (apps/applications.cpp): sketchlearn
        // level l uses base 8l; netcache and conquest snapshots use base 0.
        std::uint64_t seed_base = apps::kCmsSeedBase;
        if (app == "sketchlearn") seed_base += 8 * std::stoull(reg.substr(3, reg.find('_') - 3));
        const std::int64_t cols = pipe.reg_size(reg, 0);
        apps::CountMinSketch ref(nrows, cols, seed_base);
        const std::uint64_t shift = app == "netcache" ? 1 : 0;
        for (std::size_t k = 0; k < counts.size(); ++k) {
            if (counts[k] > 0) ref.update(k + shift, counts[k]);
        }
        for (int row = 0; row < nrows; ++row) {
            std::uint64_t total = 0;
            for (std::int64_t c = 0; c < pipe.reg_size(reg, row); ++c) total += pipe.reg_read(reg, row, c);
            if (total != packets) ++bad;
        }
        for (std::size_t k = 0; k < counts.size(); ++k) {
            std::uint64_t est = ~0ULL;
            for (int row = 0; row < nrows; ++row) {
                const std::uint64_t idx = support::hash_index(
                    k + shift, seed_base + static_cast<std::uint64_t>(row),
                    static_cast<std::uint64_t>(cols));
                est = std::min(est, pipe.reg_read(reg, row, static_cast<std::int64_t>(idx)));
            }
            if (est != ref.estimate(k + shift)) ++bad;
        }
        ++checked;
    }
    detail = std::to_string(checked) + " count-min register(s)";
    return bad;
}

/// Traced serve-steady: each measured slice's keys go once more through a
/// replica pipeline of the serving epoch (process only) and a fresh drift
/// detector (observe/sample only), right after the slice, so the three
/// per-packet figures come from the same moments of the run.
struct PacketReplay {
    explicit PacketReplay(const compiler::CompileResult& c)
        : compiled(c),
          pipe(c.program, c.layout, std::span<const verify::ProofFact>(c.artifacts->proofs)),
          drift(p4all_run_options().drift) {}

    void run(const std::string& app, const std::vector<std::uint64_t>& keys, std::size_t begin,
             std::size_t n, Tracer& tr) {
        pkts.resize(n);
        for (std::size_t p = 0, k = begin; p < n; ++p) {
            pkts[p] = driver_packet(app, compiled.program, keys[k]);
            if (++k == keys.size()) k = 0;
        }
        Span sp(tr, "sim.process", app);
        for (const sim::Packet& pkt : pkts) pipe.process(pkt);
        process_ns.push_back(sp.stop() * 1e9 / static_cast<double>(n));
        const int hit = app == "netcache" || app == "precision" ? 0 : -1;
        Span sd(tr, "runtime.drift", app);
        for (std::size_t p = 0, k = begin; p < n; ++p) {
            drift.observe(keys[k], hit);
            if (drift.window_full()) (void)drift.sample();
            if (++k == keys.size()) k = 0;
        }
        drift_ns.push_back(sd.stop() * 1e9 / static_cast<double>(n));
    }

    const compiler::CompileResult& compiled;
    sim::Pipeline pipe;
    runtime::DriftDetector drift;
    std::vector<sim::Packet> pkts;
    std::vector<double> process_ns, drift_ns;
};

Report run_serve_steady(const Args& args, Tracer& tr) {
    Report rep;
    ScratchDirs dirs(args.work_dir, args.workload);
    LayerValues acc;
    Rungs rungs;
    double setup_s = 0.0;
    std::map<std::string, Served> served = bring_up(false, dirs, tr, rep, acc, setup_s, rungs);
    fill_rungs(acc, rungs);

    std::map<std::string, workload::Trace> traces;
    for (std::size_t i = 0; i < kApps.size(); ++i) {
        traces[kApps[i]] = workload::zipf_trace(kSteadyTrace, kUniverse, kAlpha, args.seed * 16 + i);
    }
    std::map<std::string, std::vector<std::uint64_t>> counts;
    std::map<std::string, std::size_t> cursor;
    std::map<std::string, std::vector<double>> window_ms, traced_ms, untraced_ms;
    for (const std::string& app : kApps) counts[app].assign(kUniverse, 0);
    const bool tracing = tr.enabled;
    const std::size_t slice = kSliceWindows * kWindow;
    std::map<std::string, PacketReplay> replays;
    if (tracing) {
        for (const std::string& app : kApps) replays.emplace(app, served.at(app).rt->compiled());
    }
    reset_peak_rss();

    CpuRotation cpus;  // no swaps happen here, so no solver threads start
    const auto t0 = Clock::now();
    for (std::size_t round = 0; round < 2 || seconds_since(t0) < args.seconds; ++round) {
        tr.enabled = tracing && round % 2 == 1;
        cpus.pin_next();
        for (const std::string& app : kApps) {
            Served& s = served.at(app);
            const std::vector<std::uint64_t>& keys = traces[app].keys;
            std::size_t& at = cursor[app];
            const std::size_t begin = at;
            Span span(tr, "runtime.step", app);
            for (std::size_t p = 0; p < slice; ++p) {
                s.driver.step(*s.rt, keys[at]);
                if (++at == keys.size()) at = 0;
            }
            const double ms = span.stop() * 1e3 / static_cast<double>(kSliceWindows);
            window_ms[app].push_back(ms);
            if (tracing) (round % 2 == 1 ? traced_ms : untraced_ms)[app].push_back(ms);
            for (std::size_t p = 0, k = begin; p < slice; ++p) {
                ++counts[app][keys[k]];
                if (++k == keys.size()) k = 0;
            }
            if (tracing) replays.at(app).run(app, keys, begin, slice, tr);
            if (s.rt->packets_total() == kDigestPackets) {
                rep.digests.push_back(
                    "state " + app + " @" + std::to_string(kDigestPackets) + " pkts " +
                    hex(runtime::take_snapshot(s.rt->pipeline(), s.rt->epoch()).checksum()));
            }
        }
    }
    cpus.release();
    tr.enabled = tracing;
    const double peak_mb = peak_rss_mb();

    for (const std::string& app : kApps) {
        const Served& s = served.at(app);
        rep.attempted += s.rt->packets_total();
        if (!s.rt->history().empty()) {
            rep.fail(app + ": " + std::to_string(s.rt->history().size()) +
                         " swap attempt(s) on stationary traffic",
                     s.rt->history().size());
        }
        std::string detail;
        const std::uint64_t bad = check_count_min(app, s.rt->pipeline(), counts[app], detail);
        if (bad > 0) rep.fail(app + ": " + std::to_string(bad) + " count-min mismatches", bad);
        rep.table.push_back("  check " + app + ": " + detail + ", " +
                            std::to_string(s.rt->history().size()) + " swap attempts");
        rep.digests.push_back("layout " + app + " " + hex(layout_digest(s.rt->compiled())));
        const auto& w = window_ms[app];
        rep.row("pkts_per_s." + app, 1e3 * static_cast<double>(kWindow) / median(w), "1/s",
                w.size());
    }
    fill_e2e(rep, setup_s, kApps.size(), peak_mb, window_ms);

    if (tracing) {
        for (const std::string& app : kApps) {
            const double step_ns = median(window_ms[app]) * 1e6 / static_cast<double>(kWindow);
            const double process_ns = median(replays.at(app).process_ns);
            const double drift_ns = median(replays.at(app).drift_ns);
            const std::size_t n = replays.at(app).process_ns.size();
            const sim::Pipeline& replica = replays.at(app).pipe;
            acc["runtime.step_ns." + app] = {step_ns, window_ms[app].size()};
            acc["sim.process_ns." + app] = {process_ns, n};
            acc["runtime.drift_ns." + app] = {drift_ns, n};
            acc["apps.controller_ns." + app] = {step_ns - process_ns - drift_ns, n};
            acc["sim.ops_per_pkt." + app] = {static_cast<double>(replica.compiled_op_count()), 1};
            acc["sim.bounds_elided." + app] = {static_cast<double>(replica.bounds_checks_elided()), 1};
        }
        acc["trace.overhead_pct"] = overhead_pct(traced_ms, untraced_ms);
    }
    fill_layer(rep, acc);
    return rep;
}

/// State the traced serve-drift run needs to replay one swap: the serving
/// epoch's compile result and its register state one packet before the
/// swapping packet.
struct PreSwap {
    std::shared_ptr<const compiler::CompileResult> compiled;
    runtime::Snapshot state;
    std::uint64_t epoch = 0;
};

struct SwapPhases {
    double recompile = 0, gate = 0, plan = 0, migrate = 0, snapshot = 0, journal = 0;
    [[nodiscard]] double sum() const { return recompile + plan + migrate + snapshot + journal; }
};

/// Replays attempt_swap's public steps for one committed swap: resilient
/// recompile with the audit gate, static plan, migration, snapshots and the
/// four journal appends. Returns false when the replayed layout differs
/// from the one the runtime committed.
bool replay_swap(const std::string& app, const Served& s, const PreSwap& pre, ScratchDirs& dirs,
                 Tracer& tr, SwapPhases& ph) {
    const runtime::RuntimeOptions o = p4all_run_options();
    const std::string id = app + "#" + std::to_string(pre.epoch + 1);
    const std::string extra = s.driver.profile(s.rt->drift().last_window());
    const std::string source = s.driver.source + (extra.empty() ? "" : "\n" + extra);
    Span root(tr, "runtime.swap_replay", id);

    sim::Pipeline old_pipe(pre.compiled->program, pre.compiled->layout,
                           std::span<const verify::ProofFact>(pre.compiled->artifacts->proofs));
    runtime::apply_snapshot(pre.state, old_pipe);

    compiler::ResilienceOptions res;
    res.budget_seconds = o.recompile_budget_seconds;
    const auto gate = audit::make_resilience_gate();
    res.external_gate = [&](const ir::Program& prog, const compiler::CompileArtifacts& art) {
        Span g(tr, "audit.gate", id);
        std::string verdict = gate(prog, art);
        ph.gate += g.stop() * 1e3;
        return verdict;
    };
    std::optional<compiler::CompileResult> cand;
    std::unique_ptr<sim::Pipeline> cand_pipe;
    {
        Span sp(tr, "runtime.recompile", id);
        cand = compiler::compile_resilient_source(source, o.compile, res, app);
        cand_pipe = std::make_unique<sim::Pipeline>(
            cand->program, cand->layout,
            std::span<const verify::ProofFact>(cand->artifacts->proofs));
        ph.recompile += sp.stop() * 1e3;
    }
    {
        Span sp(tr, "runtime.plan", id);
        (void)runtime::plan_migration(pre.compiled->program, pre.compiled->layout, cand->program,
                                      cand->layout);
        ph.plan += sp.stop() * 1e3;
    }
    {
        Span sp(tr, "runtime.migrate", id);
        (void)runtime::migrate_state(old_pipe, *cand_pipe);
        ph.migrate += sp.stop() * 1e3;
    }
    const std::string dir = dirs.make();
    std::uint64_t checksum = 0;
    {
        Span sp(tr, "runtime.snapshot", id);
        (void)runtime::take_snapshot(old_pipe, pre.epoch);
        const runtime::Snapshot snap = runtime::take_snapshot(*cand_pipe, pre.epoch + 1);
        checksum = snap.checksum();
        runtime::save_snapshot(snap, dir + "/epoch_" + std::to_string(pre.epoch + 1) + ".json");
        ph.snapshot += sp.stop() * 1e3;
    }
    {
        Span sp(tr, "runtime.journal", id);
        runtime::JournalWriter journal(dir + "/journal.bin");
        using RT = runtime::JournalRecordType;
        const std::uint64_t e = pre.epoch + 1;
        journal.append({RT::Intent, 1, e, 0, extra});
        journal.append({RT::MigrateDone, 1, e, 0, "replayed"});
        journal.append({RT::SnapshotDone, 1, e, checksum, ""});
        journal.append({RT::Commit, 1, e, checksum, extra});
        ph.journal += sp.stop() * 1e3;
    }
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    return layout_digest(*cand) == layout_digest(s.rt->compiled());
}

/// Drives one drift window through `s`; returns the duration of the step
/// that swapped (nullopt when the window did not swap).
std::optional<double> drift_window(const std::string& app, Served& s,
                                   const std::vector<std::uint64_t>& keys, std::size_t window,
                                   CpuRotation& cpus, bool replay, ScratchDirs& dirs, Tracer& tr,
                                   Report& rep, Rungs& rungs, std::vector<SwapPhases>& phases,
                                   std::vector<double>& replayed_ms) {
    const std::size_t base = (window % kDriftPhases) * kWindow;
    const std::size_t before = s.rt->history().size();
    cpus.pin_next();
    for (std::size_t p = 0; p + 1 < kWindow; ++p) s.driver.step(*s.rt, keys[base + p]);
    // The thread stays where it was pinned; the solver workers the swap
    // starts get every CPU.
    cpus.release();
    PreSwap pre;
    if (replay) {
        pre.compiled = std::make_shared<const compiler::CompileResult>(s.rt->compiled());
        pre.state = runtime::take_snapshot(s.rt->pipeline(), s.rt->epoch());
        pre.epoch = s.rt->epoch();
    }
    Span span(tr, "runtime.swap", app);
    s.driver.step(*s.rt, keys[base + kWindow - 1]);
    const double ms = span.stop() * 1e3;
    if (s.rt->history().size() == before) return std::nullopt;
    ++rep.attempted;
    const runtime::SwapEvent& ev = s.rt->history().back();
    if (!ev.committed) {
        rep.fail(app + ": swap to epoch " + std::to_string(ev.from_epoch + 1) + " rolled back: " +
                 ev.detail);
        return std::nullopt;
    }
    record_rungs(s.rt->compiled().resilience, app, rungs);
    if (app == "netcache") {
        std::string rungs_ran;
        for (const compiler::AttemptReport& a : s.rt->compiled().resilience.attempts) {
            if (a.outcome == compiler::AttemptOutcome::Skipped) continue;
            char buf[96];
            std::snprintf(buf, sizeof buf, " %s=%.0fms(%s%s, %lld nodes)", a.backend.c_str(),
                          a.seconds * 1e3, compiler::attempt_outcome_name(a.outcome),
                          a.anytime ? ", anytime" : "", static_cast<long long>(a.nodes));
            rungs_ran += buf;
        }
        char buf[96];
        std::snprintf(buf, sizeof buf, "  swap netcache -> epoch %llu: %.1f ms;",
                      static_cast<unsigned long long>(ev.to_epoch), ms);
        std::string profile = s.driver.profile(s.rt->drift().last_window());
        std::replace(profile.begin(), profile.end(), '\n', ' ');
        rep.table.push_back(buf + rungs_ran + " [" + profile + "]");
    }
    if (replay) {
        SwapPhases ph;
        if (!replay_swap(app, s, pre, dirs, tr, ph)) {
            rep.table.push_back("  note " + app + ": replayed recompile of epoch " +
                                std::to_string(ev.to_epoch) + " chose another layout");
        }
        phases.push_back(ph);
        replayed_ms.push_back(ms);
        if (app == "netcache") {
            char buf[128];
            std::snprintf(buf, sizeof buf, "  replay netcache -> epoch %llu: recompile %.1f ms",
                          static_cast<unsigned long long>(ev.to_epoch), ph.recompile);
            rep.table.emplace_back(buf);
        }
    }
    return ms;
}

void fill_swap_phases(LayerValues& acc, const std::string& suffix,
                      const std::vector<SwapPhases>& phases, const std::vector<double>& swap_ms) {
    if (phases.empty()) return;
    const std::size_t n = phases.size();
    SwapPhases m;
    for (const SwapPhases& p : phases) {
        m.recompile += p.recompile / n;
        m.gate += p.gate / n;
        m.plan += p.plan / n;
        m.migrate += p.migrate / n;
        m.snapshot += p.snapshot / n;
        m.journal += p.journal / n;
    }
    // Means, so the phases plus the residue add up to the measured swap.
    const double swap = mean(swap_ms);
    acc["runtime.swap_ms" + suffix] = {swap, n};
    acc["runtime.recompile_ms" + suffix] = {m.recompile, n};
    acc["runtime.plan_ms" + suffix] = {m.plan, n};
    acc["runtime.migrate_ms" + suffix] = {m.migrate, n};
    acc["runtime.snapshot_ms" + suffix] = {m.snapshot, n};
    acc["runtime.journal_ms" + suffix] = {m.journal, n};
    acc["runtime.swap_other_ms" + suffix] = {swap - m.sum(), n};
    if (suffix.empty()) acc["audit.gate_ms"] = {m.gate, n};
}

/// Serving state and layout digests after a fixed number of windows (the
/// time-bound loop runs on past them, so these are the comparable ones).
void digest_epoch(const std::string& app, const Served& s, std::size_t windows, Report& rep) {
    const std::string at = app + " @" + std::to_string(windows) + " windows epoch " +
                           std::to_string(s.rt->epoch()) + " ";
    rep.digests.push_back(
        "state " + at + hex(runtime::take_snapshot(s.rt->pipeline(), s.rt->epoch()).checksum()));
    rep.digests.push_back("layout " + at + hex(layout_digest(s.rt->compiled())));
}

Report run_serve_drift(const Args& args, Tracer& tr) {
    Report rep;
    ScratchDirs dirs(args.work_dir, args.workload);
    LayerValues acc;
    Rungs rungs;
    double setup_s = 0.0;
    std::map<std::string, Served> served = bring_up(true, dirs, tr, rep, acc, setup_s, rungs);

    std::map<std::string, workload::Trace> traces;
    for (std::size_t i = 0; i < kApps.size(); ++i) {
        const std::size_t phases = kApps[i] == "netcache" ? kNetcacheDriftWindows : kDriftPhases;
        traces[kApps[i]] = workload::zipf_drifting_trace(phases * kWindow, kUniverse, kAlpha,
                                                         args.seed * 16 + i, phases);
    }

    const bool tracing = tr.enabled;
    std::map<std::string, std::vector<double>> swap_ms, traced_ms, untraced_ms;
    std::map<std::string, std::size_t> windows;
    std::vector<SwapPhases> pinned_phases, netcache_phases;
    std::vector<double> pinned_replayed, netcache_replayed;

    reset_peak_rss();
    CpuRotation cpus;
    const auto t0 = Clock::now();
    for (std::size_t round = 0; round < 2 || seconds_since(t0) < args.seconds; ++round) {
        tr.enabled = tracing && round % 2 == 1;
        for (const std::string& app : kPinnedApps) {
            Served& s = served.at(app);
            const std::optional<double> ms =
                drift_window(app, s, traces[app].keys, windows[app]++, cpus, tracing, dirs, tr, rep,
                             rungs, pinned_phases, pinned_replayed);
            if (ms) {
                swap_ms[app].push_back(*ms);
                if (tracing) (round % 2 == 1 ? traced_ms : untraced_ms)[app].push_back(*ms);
            }
            if (windows[app] == kDigestWindows) digest_epoch(app, s, windows[app], rep);
        }
    }
    tr.enabled = tracing;
    // Memory is measured over the pinned apps' swaps: netcache's swaps are
    // deadline-cut searches whose memory depends on how far they got.
    const double peak_mb = peak_rss_mb();
    {
        Served& s = served.at("netcache");
        for (std::size_t w = 0; w < kNetcacheDriftWindows; ++w) {
            const std::optional<double> ms =
                drift_window("netcache", s, traces["netcache"].keys, windows["netcache"]++, cpus,
                             tracing, dirs, tr, rep, rungs, netcache_phases, netcache_replayed);
            if (ms) swap_ms["netcache"].push_back(*ms);
        }
        digest_epoch("netcache", s, windows["netcache"], rep);
    }

    for (const std::string& app : kApps) {
        const Served& s = served.at(app);
        const std::size_t committed = s.rt->swaps_committed();
        if (committed == 0) rep.fail(app + ": no drifted window swapped");
        // Every commit must be listed by the journal, and its last commit
        // must be the serving epoch's state.
        const runtime::JournalReadResult jr = runtime::read_journal(s.journal_dir + "/journal.bin");
        const runtime::JournalSummary sum = runtime::summarize_journal(jr.records);
        const std::uint64_t live =
            runtime::take_snapshot(s.rt->pipeline(), s.rt->epoch()).checksum();
        if (!jr.clean || sum.committed.size() != committed + 1 || !sum.has_commit() ||
            sum.last_committed().epoch != s.rt->epoch() ||
            sum.last_committed().state_checksum != live) {
            rep.fail(app + ": journal lists " + std::to_string(sum.committed.size()) +
                     " commit(s) for " + std::to_string(committed) + " swap(s) + epoch 0");
        }
        rep.table.push_back("  check " + app + ": " + std::to_string(windows[app]) +
                            " windows, " + std::to_string(s.rt->history().size()) +
                            " swap attempts, " + std::to_string(committed) +
                            " committed and journaled");
    }
    fill_rungs(acc, rungs);
    fill_e2e(rep, setup_s, kApps.size(), peak_mb, swap_ms);
    std::vector<double> pinned;
    for (const std::string& app : kPinnedApps) {
        pinned.insert(pinned.end(), swap_ms[app].begin(), swap_ms[app].end());
    }
    rep.row("swap_ms_p50", quantile(pinned, 0.5), "ms", pinned.size());
    rep.row("swap_ms_p90", quantile(pinned, 0.9), "ms", pinned.size());
    rep.row("swap_s.netcache", median(swap_ms["netcache"]) / 1e3, "s", swap_ms["netcache"].size());

    if (tracing) {
        fill_swap_phases(acc, "", pinned_phases, pinned_replayed);
        fill_swap_phases(acc, ".netcache", netcache_phases, netcache_replayed);
        acc["trace.overhead_pct"] = overhead_pct(traced_ms, untraced_ms);
    }
    fill_layer(rep, acc);
    return rep;
}

// ---------------------------------------------------------------- main

void print_json_metrics(const std::vector<Metric>& ms) {
    std::printf("\"metrics\": {");
    for (std::size_t i = 0; i < ms.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                    ms[i].name.c_str(), ms[i].value, ms[i].unit.c_str());
    }
    std::printf("}");
}

int usage() {
    std::fprintf(stderr,
                 "usage: perfbench --workload compile|serve-steady|serve-drift --seed N\n"
                 "                 --seconds S --trace 0|1 --work-dir DIR [--source-id ID]\n");
    return 2;
}

int run(int argc, char** argv) {
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc) return usage();
        const std::string v = argv[++i];
        if (a == "--workload") args.workload = v;
        else if (a == "--seed") args.seed = std::stoull(v);
        else if (a == "--seconds") args.seconds = std::stod(v);
        else if (a == "--trace") args.trace = v == "1";
        else if (a == "--work-dir") args.work_dir = v;
        else if (a == "--source-id") args.source_id = v;
        else return usage();
    }
    std::printf("host: nproc=%u cpu=\"%s\" compiler=\"%s\" build=%s source=%s\n",
                std::thread::hardware_concurrency(), cpu_model().c_str(), PERFBENCH_COMPILER,
                PERFBENCH_BUILD_TYPE, args.source_id.c_str());
    std::printf("run: workload=%s seed=%llu seconds=%g trace=%d\n", args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0);
    std::fflush(stdout);

    Tracer tr;
    tr.enabled = args.trace;
    Report rep;
    try {
        if (args.workload == "compile") rep = run_compile(args, tr);
        else if (args.workload == "serve-steady") rep = run_serve_steady(args, tr);
        else if (args.workload == "serve-drift") rep = run_serve_drift(args, tr);
        else return usage();
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s: %s\n", args.workload.c_str(), e.what());
        return 1;
    }

    std::printf("end-to-end:\n");
    for (const Metric& m : rep.e2e) std::printf("%s\n", m.line().c_str());
    const double failed_frac =
        rep.attempted > 0 ? static_cast<double>(rep.failed) / static_cast<double>(rep.attempted)
                          : 0.0;
    std::printf("%s\n", Metric{"failed_frac", failed_frac, "frac", rep.attempted}.line().c_str());
    for (const std::string& line : rep.table) std::printf("%s\n", line.c_str());
    std::printf("determinism:\n");
    for (const std::string& d : rep.digests) std::printf("  %s\n", d.c_str());
    if (args.trace) {
        for (Metric& m : rep.layer) {
            if (m.name == "trace.spans") m.value = static_cast<double>(tr.spans().size());
        }
        std::printf("per-layer:\n");
        for (const Metric& m : rep.layer) std::printf("%s\n", m.line().c_str());
        std::printf("self time by layer (ms, all recorded spans):\n");
        for (const auto& [layer, ms] : tr.self_ms_by_layer()) {
            std::printf("  %-12s %14.3f\n", layer.c_str(), ms);
        }
        const std::string path = args.work_dir + "/trace-" + args.workload + "-" +
                                 std::to_string(args.seed) + ".json";
        if (tr.write_chrome_trace(path)) {
            std::printf("trace: %zu spans written to %s\n", tr.spans().size(), path.c_str());
        } else {
            rep.fail("cannot write " + path);
        }
    }
    for (const std::string& e : rep.errors) std::printf("FAILED: %s\n", e.c_str());

    const bool correct = rep.failed == 0 && rep.errors.empty();
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, ",
                correct ? "true" : "false", static_cast<unsigned long long>(rep.attempted),
                static_cast<unsigned long long>(rep.failed));
    print_json_metrics(args.trace ? rep.layer : rep.e2e);
    std::printf("}\n");
    std::fflush(stdout);
    return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run(argc, argv); }
