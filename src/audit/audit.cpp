#include "audit/audit.hpp"

#include <cmath>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "analysis/depgraph.hpp"
#include "analysis/instances.hpp"
#include "audit/certificate.hpp"

namespace p4all::audit {

// Implemented in proofs.cpp.
std::unique_ptr<verify::LintPass> make_register_bounds_proof_pass();
std::unique_ptr<verify::LintPass> make_proof_fact_consistency_pass();
// Implemented in rewrites.cpp.
std::unique_ptr<verify::LintPass> make_rewrite_validity_pass();

namespace {

using analysis::Instance;
using compiler::CompileArtifacts;
using compiler::Layout;
using compiler::PlacedRegister;
using compiler::StagePlan;

/// Common base: fetch the artifacts payload, no-op when absent.
class AuditPass : public verify::LintPass {
protected:
    static const CompileArtifacts* artifacts_of(verify::LintContext& ctx) {
        const auto* payload = dynamic_cast<const ArtifactsPayload*>(ctx.payload());
        return payload != nullptr ? payload->artifacts : nullptr;
    }

    static support::SourceLoc call_loc(const ir::Program& prog, const Instance& inst) {
        return prog.flow.at(static_cast<std::size_t>(inst.call)).loc;
    }

    static std::string instance_label(const ir::Program& prog, const Instance& inst) {
        const ir::CallSite& site = prog.flow.at(static_cast<std::size_t>(inst.call));
        std::string label = prog.action(site.action).name;
        if (site.elastic()) label += "[" + std::to_string(inst.iter) + "]";
        return label;
    }
};

// ---------------------------------------------------------------------------
// layout-resource-overcommit
// ---------------------------------------------------------------------------

class ResourceOvercommitPass final : public AuditPass {
public:
    [[nodiscard]] std::string_view id() const noexcept override {
        return "layout-resource-overcommit";
    }
    [[nodiscard]] std::string_view description() const noexcept override {
        return "re-derives per-stage memory/ALU/hash/PHV usage of the compiled layout and "
               "checks it against the target limits and the compiler's own usage report";
    }

    void run(verify::LintContext& ctx) override {
        const CompileArtifacts* art = artifacts_of(ctx);
        if (art == nullptr) return;
        const ir::Program& prog = ctx.program();
        const target::TargetSpec& target = art->target;
        const Layout& layout = art->layout;

        if (static_cast<int>(layout.stages.size()) > target.stages) {
            ctx.error({}, "layout uses " + std::to_string(layout.stages.size()) +
                              " stages but target '" + target.name + "' has " +
                              std::to_string(target.stages));
        }

        std::set<analysis::MetaChunk> phv_chunks;
        std::int64_t phv = prog.fixed_phv_bits();
        int stages_occupied = 0;
        compiler::UsageReport derived;
        derived.stages.resize(static_cast<std::size_t>(target.stages));

        for (std::size_t s = 0; s < layout.stages.size(); ++s) {
            const StagePlan& plan = layout.stages[s];
            int stateful = 0;
            int stateless = 0;
            int hash = 0;
            support::SourceLoc stage_loc;
            for (const Instance& inst : plan.actions) {
                const analysis::AccessSummary sum = analysis::summarize(prog, target, inst);
                stateful += sum.stateful_alus;
                stateless += sum.stateless_alus;
                hash += sum.hash_units;
                if (!stage_loc.known()) stage_loc = call_loc(prog, inst);
                for (const auto& [chunk, access] : sum.meta) {
                    const ir::MetaField& field = prog.meta(chunk.field);
                    if (field.is_array() && field.array->symbolic() &&
                        phv_chunks.insert(chunk).second) {
                        phv += field.width;
                    }
                }
            }
            std::int64_t mem = 0;
            support::SourceLoc mem_loc;
            std::int64_t biggest = -1;
            for (const PlacedRegister& pr : plan.registers) {
                const std::int64_t bits = pr.elems * prog.reg(pr.reg).width;
                mem += bits;
                if (bits > biggest) {
                    biggest = bits;
                    mem_loc = prog.reg(pr.reg).loc;
                }
            }
            const std::string prefix = "stage " + std::to_string(s) + ": ";
            if (stateful > target.stateful_alus) {
                ctx.error(stage_loc, prefix + "re-derived stateful ALU usage " +
                                         std::to_string(stateful) + " exceeds target limit " +
                                         std::to_string(target.stateful_alus));
            }
            if (stateless > target.stateless_alus) {
                ctx.error(stage_loc, prefix + "re-derived stateless ALU usage " +
                                         std::to_string(stateless) + " exceeds target limit " +
                                         std::to_string(target.stateless_alus));
            }
            if (hash > target.hash_units) {
                ctx.error(stage_loc, prefix + "re-derived hash-unit usage " +
                                         std::to_string(hash) + " exceeds target limit " +
                                         std::to_string(target.hash_units));
            }
            if (mem > target.memory_bits) {
                ctx.error(mem_loc, prefix + "re-derived register memory " + std::to_string(mem) +
                                       "b exceeds target limit " +
                                       std::to_string(target.memory_bits) + "b");
            }
            if (s < derived.stages.size()) {
                compiler::StageUsage& u = derived.stages[s];
                u.memory_bits = mem;
                u.stateful_alus = stateful;
                u.stateless_alus = stateless;
                u.hash_units = hash;
                u.actions = static_cast<int>(plan.actions.size());
                u.register_rows = static_cast<int>(plan.registers.size());
            }
            if (!plan.actions.empty() || !plan.registers.empty()) ++stages_occupied;
        }

        if (phv > target.phv_bits) {
            ctx.error({}, "re-derived PHV usage " + std::to_string(phv) +
                              " bits exceeds target budget " + std::to_string(target.phv_bits));
        }

        // Translation validation of the compiler's own accounting: the
        // claimed usage report must match the independent re-derivation.
        const compiler::UsageReport& claimed = art->claimed_usage;
        const std::size_t n = std::max(claimed.stages.size(), derived.stages.size());
        for (std::size_t s = 0; s < n; ++s) {
            const compiler::StageUsage c =
                s < claimed.stages.size() ? claimed.stages[s] : compiler::StageUsage{};
            const compiler::StageUsage d =
                s < derived.stages.size() ? derived.stages[s] : compiler::StageUsage{};
            const auto mismatch = [&](const char* what, std::int64_t got, std::int64_t want) {
                if (got != want) {
                    ctx.error({}, "stage " + std::to_string(s) + ": compiler claims " +
                                      std::to_string(got) + " " + what +
                                      " but independent re-accounting finds " +
                                      std::to_string(want));
                }
            };
            mismatch("memory bits", c.memory_bits, d.memory_bits);
            mismatch("stateful ALUs", c.stateful_alus, d.stateful_alus);
            mismatch("stateless ALUs", c.stateless_alus, d.stateless_alus);
            mismatch("hash units", c.hash_units, d.hash_units);
            mismatch("actions", c.actions, d.actions);
            mismatch("register rows", c.register_rows, d.register_rows);
        }
        if (claimed.phv_bits != static_cast<int>(phv)) {
            ctx.error({}, "compiler claims " + std::to_string(claimed.phv_bits) +
                              " PHV bits but independent re-accounting finds " +
                              std::to_string(phv));
        }
        if (claimed.stages_occupied != stages_occupied) {
            ctx.error({}, "compiler claims " + std::to_string(claimed.stages_occupied) +
                              " occupied stages but independent re-accounting finds " +
                              std::to_string(stages_occupied));
        }
    }
};

// ---------------------------------------------------------------------------
// layout-dependency-violation
// ---------------------------------------------------------------------------

class DependencyViolationPass final : public AuditPass {
public:
    [[nodiscard]] std::string_view id() const noexcept override {
        return "layout-dependency-violation";
    }
    [[nodiscard]] std::string_view description() const noexcept override {
        return "rebuilds the dependency graph over the placed instances and checks that the "
               "stage assignment respects every precedence, write-after-read, exclusion, "
               "register-sharing, and co-location constraint";
    }

    void run(verify::LintContext& ctx) override {
        const CompileArtifacts* art = artifacts_of(ctx);
        if (art == nullptr) return;
        const ir::Program& prog = ctx.program();
        const target::TargetSpec& target = art->target;
        const Layout& layout = art->layout;

        std::vector<Instance> placed;
        std::map<Instance, int> times_placed;
        for (const StagePlan& plan : layout.stages) {
            for (const Instance& inst : plan.actions) {
                if (++times_placed[inst] == 1) placed.push_back(inst);
            }
        }
        for (const auto& [inst, count] : times_placed) {
            if (count > 1) {
                ctx.error(call_loc(prog, inst), "instance " + instance_label(prog, inst) +
                                                    " is placed in " + std::to_string(count) +
                                                    " stages");
            }
        }

        const analysis::DepGraph g = analysis::build_dep_graph(prog, target, placed);
        if (g.infeasible) {
            ctx.error({}, "placed instances are mutually inconsistent: " + g.infeasible_reason);
            return;
        }
        const auto rep = [&](int node) -> const Instance& {
            return g.instances.at(static_cast<std::size_t>(
                g.members.at(static_cast<std::size_t>(node)).front()));
        };
        const auto stage_of_node = [&](int node) { return layout.stage_of(rep(node)); };

        for (const auto& [a, b] : g.before) {
            if (stage_of_node(a) >= stage_of_node(b)) {
                ctx.error(call_loc(prog, rep(b)),
                          "precedence violated: " + instance_label(prog, rep(a)) + " (stage " +
                              std::to_string(stage_of_node(a)) + ") must come strictly before " +
                              instance_label(prog, rep(b)) + " (stage " +
                              std::to_string(stage_of_node(b)) + ")");
            }
        }
        for (const auto& [a, b] : g.not_after) {
            if (stage_of_node(a) > stage_of_node(b)) {
                ctx.error(call_loc(prog, rep(b)),
                          "write-after-read order violated: " + instance_label(prog, rep(a)) +
                              " (stage " + std::to_string(stage_of_node(a)) +
                              ") must not come after " + instance_label(prog, rep(b)) +
                              " (stage " + std::to_string(stage_of_node(b)) + ")");
            }
        }
        for (const auto& [a, b] : g.exclusive) {
            if (stage_of_node(a) == stage_of_node(b)) {
                ctx.error(call_loc(prog, rep(b)),
                          "exclusive instances " + instance_label(prog, rep(a)) + " and " +
                              instance_label(prog, rep(b)) + " share stage " +
                              std::to_string(stage_of_node(a)));
            }
        }
        for (const auto& members : g.members) {
            for (std::size_t i = 1; i < members.size(); ++i) {
                const Instance& first =
                    g.instances.at(static_cast<std::size_t>(members.front()));
                const Instance& other = g.instances.at(static_cast<std::size_t>(members[i]));
                if (layout.stage_of(first) != layout.stage_of(other)) {
                    ctx.error(call_loc(prog, other),
                              "register-sharing instances " + instance_label(prog, first) +
                                  " and " + instance_label(prog, other) +
                                  " are split across stages " +
                                  std::to_string(layout.stage_of(first)) + " and " +
                                  std::to_string(layout.stage_of(other)));
                }
            }
        }

        // Co-location: every register row an action touches must be placed
        // in the action's own stage.
        for (std::size_t s = 0; s < layout.stages.size(); ++s) {
            std::set<analysis::RegChunk> here;
            for (const PlacedRegister& pr : layout.stages[s].registers) {
                here.insert({pr.reg, pr.instance});
            }
            for (const Instance& inst : layout.stages[s].actions) {
                const analysis::AccessSummary sum = analysis::summarize(prog, target, inst);
                for (const analysis::RegChunk& rc : sum.regs) {
                    if (here.count(rc) == 0) {
                        ctx.error(call_loc(prog, inst),
                                  instance_label(prog, inst) + " in stage " + std::to_string(s) +
                                      " uses register " + prog.reg(rc.reg).name + "_" +
                                      std::to_string(rc.instance) +
                                      " which is not placed in that stage");
                    }
                }
            }
        }
    }
};

// ---------------------------------------------------------------------------
// layout-symbol-mismatch
// ---------------------------------------------------------------------------

class SymbolMismatchPass final : public AuditPass {
public:
    [[nodiscard]] std::string_view id() const noexcept override {
        return "layout-symbol-mismatch";
    }
    [[nodiscard]] std::string_view description() const noexcept override {
        return "checks that every symbol binding satisfies all assume constraints and matches "
               "the emitted unrolling, and re-evaluates the claimed utility from the bindings";
    }

    void run(verify::LintContext& ctx) override {
        const CompileArtifacts* art = artifacts_of(ctx);
        if (art == nullptr) return;
        const ir::Program& prog = ctx.program();
        const Layout& layout = art->layout;

        if (layout.bindings.size() != prog.symbols.size()) {
            ctx.error({}, "layout binds " + std::to_string(layout.bindings.size()) +
                              " symbols but the program declares " +
                              std::to_string(prog.symbols.size()));
            return;
        }

        // Every assume constraint, re-evaluated on the bindings.
        for (const ir::PolyConstraint& assume : prog.assumes) {
            const double v = assume.poly.evaluate(layout.bindings);
            constexpr double kEps = 1e-9;
            bool ok = true;
            switch (assume.op) {
                case ir::CmpOp::Lt: ok = v < kEps; break;  // ints: normalized to Le upstream
                case ir::CmpOp::Le: ok = v <= kEps; break;
                case ir::CmpOp::Gt: ok = v > -kEps; break;
                case ir::CmpOp::Ge: ok = v >= -kEps; break;
                case ir::CmpOp::Eq: ok = std::abs(v) <= kEps; break;
                case ir::CmpOp::Ne: ok = std::abs(v) > kEps; break;
            }
            if (!ok) {
                support::SourceLoc loc;
                for (const ir::PolyTerm& t : assume.poly.terms()) {
                    if (t.a != ir::kNoId) {
                        loc = prog.symbol(t.a).loc;
                        break;
                    }
                }
                ctx.error(loc, "symbol assignment violates assume constraint " +
                                   assume.to_string());
            }
        }

        // Bindings must describe the emitted unrolling exactly: elastic call
        // sites placed for iterations 0..k-1 and nothing beyond.
        for (std::size_t c = 0; c < prog.flow.size(); ++c) {
            const ir::CallSite& site = prog.flow[c];
            if (!site.elastic()) {
                if (layout.stage_of({static_cast<int>(c), 0}) < 0) {
                    ctx.error(site.loc, "inelastic call of '" + prog.action(site.action).name +
                                            "' is not placed in any stage");
                }
                continue;
            }
            const std::int64_t k = layout.binding(site.loop_bound);
            const std::string& sym = prog.symbol(site.loop_bound).name;
            for (std::int64_t i = 0; i < k; ++i) {
                if (layout.stage_of({static_cast<int>(c), i}) < 0) {
                    ctx.error(site.loc, "iteration " + std::to_string(i) + " of '" +
                                            prog.action(site.action).name +
                                            "' is missing although " + sym + " = " +
                                            std::to_string(k));
                }
            }
            if (layout.stage_of({static_cast<int>(c), k}) >= 0) {
                ctx.error(site.loc, "call of '" + prog.action(site.action).name +
                                        "' has placed iterations beyond " + sym + " = " +
                                        std::to_string(k));
            }
        }

        // Placed register rows must carry the bound element count.
        for (const StagePlan& plan : layout.stages) {
            for (const PlacedRegister& pr : plan.registers) {
                const ir::RegisterArray& reg = prog.reg(pr.reg);
                if (reg.elems.symbolic() &&
                    pr.elems != layout.binding(reg.elems.sym)) {
                    ctx.error(reg.loc, "register row " + reg.name + "_" +
                                           std::to_string(pr.instance) + " has " +
                                           std::to_string(pr.elems) + " elements but " +
                                           prog.symbol(reg.elems.sym).name + " = " +
                                           std::to_string(layout.binding(reg.elems.sym)));
                }
            }
        }

        // The claimed utility must equal the utility polynomial evaluated on
        // the bindings (the solver objective is exactly the lowered utility).
        const double derived = prog.utility.evaluate(layout.bindings);
        if (std::abs(derived - art->claimed_utility) > 1e-5) {
            ctx.error({}, "compiler claims utility " + std::to_string(art->claimed_utility) +
                              " but the bindings evaluate to " + std::to_string(derived));
        }
    }
};

// ---------------------------------------------------------------------------
// ilp-infeasible-incumbent
// ---------------------------------------------------------------------------

class InfeasibleIncumbentPass final : public AuditPass {
public:
    [[nodiscard]] std::string_view id() const noexcept override {
        return "ilp-infeasible-incumbent";
    }
    [[nodiscard]] std::string_view description() const noexcept override {
        return "re-evaluates every model row against the incumbent in exact rational "
               "arithmetic, checks integrality of every integer variable, and compares the "
               "claimed objective against the exact c·x";
    }

    void run(verify::LintContext& ctx) override {
        const CompileArtifacts* art = artifacts_of(ctx);
        if (art == nullptr || !art->has_ilp) return;
        if (art->solution.values.empty()) {
            ctx.error({}, "ILP backend claims a layout but recorded no incumbent assignment");
            return;
        }
        CertificateOptions opts;
        opts.feas_tol = 1e-5;  // the solver feasibility tolerance is 1e-6 per row
        opts.int_tol = art->solve_options.int_tol;
        const CertificateReport report =
            check_certificate(art->ilp.model, art->solution.values, art->solution.objective,
                              /*duals=*/{}, /*bound_slack=*/0.0, opts);
        for (const std::string& v : report.violations) {
            ctx.error({}, "incumbent fails exact re-evaluation: " + v);
        }
        if (report.incumbent_ok() &&
            std::abs(art->solution.objective - art->claimed_utility) > 1e-5) {
            ctx.error({}, "solver objective " + std::to_string(art->solution.objective) +
                              " disagrees with claimed utility " +
                              std::to_string(art->claimed_utility));
        }
    }
};

// ---------------------------------------------------------------------------
// ilp-certificate-gap
// ---------------------------------------------------------------------------

class CertificateGapPass final : public AuditPass {
public:
    [[nodiscard]] std::string_view id() const noexcept override { return "ilp-certificate-gap"; }
    [[nodiscard]] std::string_view description() const noexcept override {
        return "validates the root-relaxation dual certificate in exact rational arithmetic: "
               "any sign-correct dual vector over the model rows bounds the incumbent from "
               "above by weak duality";
    }

    void run(verify::LintContext& ctx) override {
        const CompileArtifacts* art = artifacts_of(ctx);
        if (art == nullptr || !art->has_ilp) return;
        if (art->solution.root_duals.empty()) {
            ctx.note({}, "no root dual certificate recorded (root relaxation was not solved "
                         "to optimality); duality-gap check skipped");
            return;
        }
        if (art->solution.values.empty()) return;  // incumbent pass reports this
        const CertificateReport report = check_certificate(
            art->ilp.model, art->solution.values, art->solution.objective,
            art->solution.root_duals, art->solution.root_bound_slack, CertificateOptions{});
        for (const std::string& n : report.certificate_notes) ctx.note({}, n);
        if (!report.has_certificate || !report.bound_finite) return;
        if (!report.bound_valid) {
            ctx.error({}, "dual certificate refutes the incumbent: " + report.bound_violation);
            return;
        }
        ctx.note({}, "root certificate valid: incumbent " +
                         std::to_string(report.exact_objective) + " ≤ certified bound " +
                         std::to_string(report.certified_bound) + " (gap " +
                         std::to_string(report.gap) + ")");
    }
};

}  // namespace

void register_audit_passes(verify::PassRegistry& registry) {
    if (registry.find(kAuditChecks[0]) != nullptr) return;
    registry.add(std::make_unique<ResourceOvercommitPass>());
    registry.add(std::make_unique<DependencyViolationPass>());
    registry.add(std::make_unique<SymbolMismatchPass>());
    registry.add(std::make_unique<InfeasibleIncumbentPass>());
    registry.add(std::make_unique<CertificateGapPass>());
    registry.add(make_register_bounds_proof_pass());
    registry.add(make_proof_fact_consistency_pass());
    registry.add(make_rewrite_validity_pass());
}

verify::LintResult audit_artifacts(const ir::Program& prog, const CompileArtifacts& artifacts,
                                   bool werror) {
    register_audit_passes(verify::PassRegistry::global());
    ArtifactsPayload payload;
    payload.artifacts = &artifacts;
    verify::LintOptions options;
    options.checks.assign(std::begin(kAuditChecks), std::end(kAuditChecks));
    options.werror = werror;
    options.target = artifacts.target;
    options.payload = &payload;
    return verify::run_lint(prog, options);
}

std::function<std::string(const ir::Program&, const CompileArtifacts&)> make_resilience_gate(
    bool werror) {
    return [werror](const ir::Program& prog, const CompileArtifacts& artifacts) -> std::string {
        const verify::LintResult result = audit_artifacts(prog, artifacts, werror);
        if (!result.has_errors()) return {};
        std::string out = "audit rejected the layout:";
        for (const verify::Finding& f : result.findings) {
            if (f.severity != support::Severity::Error) continue;
            out += "\n  [" + f.check + "] " + f.message;
        }
        return out;
    };
}

}  // namespace p4all::audit
