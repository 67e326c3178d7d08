// Unit tests for the proof-guided IR optimizer (ISSUE tentpole): one test
// per rewrite rule, the certificate-chain hash discipline, and the tamper
// suite proving that the rewrite-validity audit pass rejects forged,
// corrupted, or missing certificates — the optimizer is never trusted, only
// its replayable evidence.
#include "opt/optimizer.hpp"

#include <gtest/gtest.h>

#include <string>
#include <variant>
#include <vector>

#include "audit/audit.hpp"
#include "compiler/compiler.hpp"
#include "compiler/resilient.hpp"
#include "ir/elaborate.hpp"
#include "ir/rewrite.hpp"
#include "lang/parser.hpp"
#include "verify/lint.hpp"

namespace p4all::opt {
namespace {

ir::Program elab(const std::string& src, const std::string& name = "prog") {
    return ir::elaborate(lang::parse(src, name), {.program_name = name});
}

std::vector<std::string> rules_of(const OptResult& r) {
    std::vector<std::string> out;
    for (const RewriteCertificate& c : r.rewrites) out.push_back(c.rule);
    return out;
}

bool has_rule(const OptResult& r, const char* rule) {
    for (const RewriteCertificate& c : r.rewrites) {
        if (c.rule == rule) return true;
    }
    return false;
}

// The running-example sketch with a latent bug: min_val is never
// initialized, so find_min's guard compares unsigned count against a
// constant 0 and can never hold. The optimizer proves this and removes the
// whole call — the richest certificate chain among the test programs.
const char* kBuggyCms = R"(
symbolic int rows;
symbolic int cols;
assume rows >= 1 && rows <= 4;
assume cols >= 64;
packet { bit<32> flow_id; }
metadata {
    bit<32>[rows] index;
    bit<32>[rows] count;
    bit<32> min_val;
}
register<bit<32>>[cols][rows] cms;
action incr()[int i] {
    hash(meta.index[i], i, pkt.flow_id, cms[i]);
    reg_add(cms[i], meta.index[i], 1, meta.count[i]);
}
action take_min()[int i] { min(meta.min_val, meta.count[i]); }
control hash_inc { apply { for (i < rows) { incr()[i]; } } }
control find_min {
    apply { for (i < rows) { if (meta.count[i] < meta.min_val) { take_min()[i]; } } }
}
control ingress { apply { hash_inc.apply(); find_min.apply(); } }
optimize rows * cols;
)";

// ---------------------------------------------------------------------------
// Rewrite rules
// ---------------------------------------------------------------------------

TEST(Opt, ConstantPropagatesThroughGuardAndIndex) {
    const ir::Program prog = elab(R"(
packet { bit<32> k; }
metadata { bit<32> a; bit<32> b; }
register<bit<32>>[64] tab;
action init() { set(meta.a, 5); }
action use() { reg_add(tab, meta.a, 1, meta.b); }
control ingress { apply { init(); if (meta.a == 5) { use(); } } }
)");
    const OptResult r = optimize(prog);
    EXPECT_TRUE(has_rule(r, rules::kConstFoldGuard)) << ::testing::PrintToString(rules_of(r));
    EXPECT_TRUE(has_rule(r, rules::kGuardTrue));
    EXPECT_TRUE(has_rule(r, rules::kConstFoldOperand));
    EXPECT_TRUE(r.stats.dataflow_available);

    // The proven-true guard is gone and the register index is a literal 5.
    ASSERT_EQ(r.program.flow.size(), 2u);
    EXPECT_TRUE(r.program.flow[1].guards.empty());
    const ir::PrimOp& op = r.program.action(r.program.flow[1].action).ops[0];
    ASSERT_TRUE(op.reg_index.has_value());
    const auto* idx = std::get_if<ir::Affine>(&*op.reg_index);
    ASSERT_NE(idx, nullptr);
    EXPECT_TRUE(idx->is_literal());
    EXPECT_EQ(idx->constant, 5);
}

TEST(Opt, RemovesShadowedMetadataStore) {
    const ir::Program prog = elab(R"(
packet { bit<32> k; }
metadata { bit<32> x; }
action a() { set(meta.x, 1); set(meta.x, pkt.k); }
control ingress { apply { a(); } }
)");
    const OptResult r = optimize(prog);
    EXPECT_TRUE(has_rule(r, rules::kDeadStore)) << ::testing::PrintToString(rules_of(r));
    EXPECT_EQ(r.program.action(0).ops.size(), 1u);
}

TEST(Opt, RemovesShadowedRegisterUpdate) {
    const ir::Program prog = elab(R"(
packet { bit<32> k; }
metadata { bit<32> out; }
register<bit<32>>[64] tab;
action a() { reg_add(tab, 0, 1); reg_write(tab, 0, pkt.k); }
action b() { reg_read(tab, 0, meta.out); }
control ingress { apply { a(); b(); } }
)");
    const OptResult r = optimize(prog);
    EXPECT_TRUE(has_rule(r, rules::kDeadRegStore)) << ::testing::PrintToString(rules_of(r));
    ASSERT_EQ(r.program.action(0).ops.size(), 1u);
    EXPECT_EQ(r.program.action(0).ops[0].kind, ir::PrimKind::RegWrite);
}

TEST(Opt, StrengthReducesAdditiveIdentityAndIdentityMinMax) {
    const ir::Program prog = elab(R"(
packet { bit<32> k; }
metadata { bit<32> x; bit<32> z; }
action a() { add(meta.x, pkt.k, 0); }
action b() { max(meta.z, 0); }
control ingress { apply { a(); b(); } }
)");
    const OptResult r = optimize(prog);
    EXPECT_TRUE(has_rule(r, rules::kStrengthReduceSet)) << ::testing::PrintToString(rules_of(r));
    EXPECT_TRUE(has_rule(r, rules::kStrengthReduceDrop));
    ASSERT_EQ(r.program.action(0).ops.size(), 1u);
    EXPECT_EQ(r.program.action(0).ops[0].kind, ir::PrimKind::Set);  // add x, k, 0 -> set x, k
    EXPECT_TRUE(r.program.action(1).ops.empty());                   // max z, 0 -> gone
}

TEST(Opt, PinnedHashRangeBecomesLiteralModulus) {
    const ir::Program prog = elab(R"(
symbolic int cols;
assume cols == 128;
packet { bit<32> k; }
metadata { bit<32> idx; bit<32> v; }
register<bit<32>>[cols] tab;
action a() { hash(meta.idx, 1, pkt.k, tab); reg_add(tab, meta.idx, 1, meta.v); }
control ingress { apply { a(); } }
optimize cols;
)");
    const OptResult r = optimize(prog);
    ASSERT_TRUE(has_rule(r, rules::kStrengthReduceModulus))
        << ::testing::PrintToString(rules_of(r));
    const ir::PrimOp& hash = r.program.action(0).ops[0];
    ASSERT_TRUE(hash.modulus.has_value());
    const auto* lit = std::get_if<std::int64_t>(&*hash.modulus);
    ASSERT_NE(lit, nullptr);
    EXPECT_EQ(*lit, 128);
}

TEST(Opt, UnboundedHashRangeIsLeftSymbolic) {
    // cols is only bounded below, so no admissible-layout constant exists
    // and the modulus must stay a register reference.
    const ir::Program prog = elab(R"(
symbolic int cols;
assume cols >= 64;
packet { bit<32> k; }
metadata { bit<32> idx; bit<32> v; }
register<bit<32>>[cols] tab;
action a() { hash(meta.idx, 1, pkt.k, tab); reg_add(tab, meta.idx, 1, meta.v); }
control ingress { apply { a(); } }
optimize cols;
)");
    const OptResult r = optimize(prog);
    EXPECT_FALSE(has_rule(r, rules::kStrengthReduceModulus));
    EXPECT_TRUE(std::holds_alternative<ir::RegRef>(*r.program.action(0).ops[0].modulus));
}

TEST(Opt, RemovesNeverReferencedRegister) {
    const ir::Program prog = elab(R"(
packet { bit<32> k; }
metadata { bit<32> v; }
register<bit<32>>[64] unused;
register<bit<32>>[64] used;
action a() { reg_add(used, 0, 1, meta.v); }
control ingress { apply { a(); } }
)");
    const OptResult r = optimize(prog);
    EXPECT_TRUE(has_rule(r, rules::kDeadExtern)) << ::testing::PrintToString(rules_of(r));
    ASSERT_EQ(r.program.registers.size(), 1u);
    EXPECT_EQ(r.program.registers[0].name, "used");
    // reg_map points the surviving (renumbered) register back at its
    // pre-optimization id.
    ASSERT_EQ(r.reg_map.size(), 1u);
    EXPECT_EQ(r.reg_map[0], 1);
    ASSERT_TRUE(r.program.action(0).ops[0].reg.has_value());
    EXPECT_EQ(r.program.action(0).ops[0].reg->reg, 0);
}

TEST(Opt, UnreachableCallIsRemovedAndCallMapTracksIt) {
    const ir::Program prog = elab(kBuggyCms, "cms");
    const OptResult r = optimize(prog);
    EXPECT_TRUE(has_rule(r, rules::kConstFoldGuard)) << ::testing::PrintToString(rules_of(r));
    EXPECT_TRUE(has_rule(r, rules::kCallUnreachable));
    ASSERT_EQ(r.program.flow.size(), 1u);
    ASSERT_EQ(r.call_map.size(), 1u);
    EXPECT_EQ(r.call_map[0], 0);  // the surviving call is pre-opt call 0 (hash_inc)
}

TEST(Opt, LevelZeroIsTheIdentity) {
    const ir::Program prog = elab(kBuggyCms, "cms");
    const OptResult r = optimize(prog, {.level = 0});
    EXPECT_TRUE(r.rewrites.empty());
    EXPECT_TRUE(ir::programs_equal(prog, r.program));
}

TEST(Opt, CertificateChainHashesLink) {
    const ir::Program prog = elab(kBuggyCms, "cms");
    const OptResult r = optimize(prog);
    ASSERT_FALSE(r.rewrites.empty());
    EXPECT_EQ(r.rewrites.front().pre_hash, ir::program_hash(prog));
    for (std::size_t i = 1; i < r.rewrites.size(); ++i) {
        EXPECT_EQ(r.rewrites[i].pre_hash, r.rewrites[i - 1].post_hash) << "link " << i;
    }
    EXPECT_EQ(r.rewrites.back().post_hash, ir::program_hash(r.program));
}

// ---------------------------------------------------------------------------
// rewrite-validity audit: tamper suite
// ---------------------------------------------------------------------------

const compiler::CompileResult& compiled_buggy_cms() {
    static const compiler::CompileResult result =
        compiler::compile_source(kBuggyCms, {}, "cms");
    return result;
}

/// Runs only the rewrite-validity audit pass over (possibly tampered)
/// artifacts and counts its error findings.
int rewrite_validity_errors(const ir::Program& prog, const compiler::CompileArtifacts& art) {
    audit::register_audit_passes(verify::PassRegistry::global());
    audit::ArtifactsPayload payload;
    payload.artifacts = &art;
    verify::LintOptions options;
    options.checks = {"rewrite-validity"};
    options.target = art.target;
    options.payload = &payload;
    const verify::LintResult lint = verify::run_lint(prog, options);
    int errors = 0;
    for (const verify::Finding& f : lint.findings) {
        EXPECT_EQ(f.check, "rewrite-validity");
        if (f.severity == support::Severity::Error) ++errors;
    }
    return errors;
}

TEST(RewriteAudit, AcceptsTheHonestCertificateChain) {
    const compiler::CompileResult& r = compiled_buggy_cms();
    ASSERT_NE(r.artifacts, nullptr);
    ASSERT_TRUE(r.artifacts->optimized);
    ASSERT_FALSE(r.artifacts->rewrites.empty());
    EXPECT_EQ(rewrite_validity_errors(r.program, *r.artifacts), 0);
    // The full eight-pass audit accepts the optimized compile end to end.
    const verify::LintResult full = audit::audit_artifacts(r.program, *r.artifacts);
    EXPECT_FALSE(full.has_errors()) << full.render();
}

TEST(RewriteAudit, RejectsADroppedCertificate) {
    const compiler::CompileResult& r = compiled_buggy_cms();
    compiler::CompileArtifacts bad = *r.artifacts;
    bad.rewrites.pop_back();
    EXPECT_GE(rewrite_validity_errors(r.program, bad), 1);
}

TEST(RewriteAudit, RejectsAForgedRuleName) {
    const compiler::CompileResult& r = compiled_buggy_cms();
    compiler::CompileArtifacts bad = *r.artifacts;
    bad.rewrites.front().rule = "no-such-rule";
    EXPECT_GE(rewrite_validity_errors(r.program, bad), 1);
}

TEST(RewriteAudit, RejectsACorruptedFoldValue) {
    const compiler::CompileResult& r = compiled_buggy_cms();
    compiler::CompileArtifacts bad = *r.artifacts;
    ASSERT_EQ(bad.rewrites.front().rule, rules::kConstFoldGuard);
    bad.rewrites.front().value += 1;  // claims min_val is a different constant
    EXPECT_GE(rewrite_validity_errors(r.program, bad), 1);
}

TEST(RewriteAudit, RejectsTamperedChainHashes) {
    const compiler::CompileResult& r = compiled_buggy_cms();
    {
        compiler::CompileArtifacts bad = *r.artifacts;
        bad.rewrites.front().pre_hash = 0;
        EXPECT_GE(rewrite_validity_errors(r.program, bad), 1);
    }
    {
        compiler::CompileArtifacts bad = *r.artifacts;
        bad.rewrites.back().post_hash = 0;
        EXPECT_GE(rewrite_validity_errors(r.program, bad), 1);
    }
}

TEST(RewriteAudit, RejectsRewritesClaimedUnoptimized) {
    const compiler::CompileResult& r = compiled_buggy_cms();
    compiler::CompileArtifacts bad = *r.artifacts;
    bad.optimized = false;
    EXPECT_GE(rewrite_validity_errors(r.program, bad), 1);
}

TEST(RewriteAudit, RejectsAForgedExtraCertificate) {
    const compiler::CompileResult& r = compiled_buggy_cms();
    compiler::CompileArtifacts bad = *r.artifacts;
    // Claims the (heavily referenced) sketch register is dead.
    RewriteCertificate forged;
    forged.rule = rules::kDeadExtern;
    forged.domain = "syntactic";
    forged.reg = 0;
    forged.pre_hash = bad.rewrites.back().post_hash;
    bad.rewrites.push_back(forged);
    EXPECT_GE(rewrite_validity_errors(r.program, bad), 1);
}

TEST(RewriteAudit, RejectsATamperedPreOptProgram) {
    const compiler::CompileResult& r = compiled_buggy_cms();
    compiler::CompileArtifacts bad = *r.artifacts;
    bad.pre_opt_program = r.program;  // pretend nothing was rewritten away
    EXPECT_GE(rewrite_validity_errors(r.program, bad), 1);
}

// ---------------------------------------------------------------------------
// Resilient portfolio: -O0 retry after an audit rejection
// ---------------------------------------------------------------------------

TEST(ResilientOpt, PortfolioFallsBackToOptLevelZeroAfterAuditRejection) {
    // An external gate that distrusts every optimized compile: the ILP rungs
    // all get rejected, and the ilp-O0 rung must rescue the compile with the
    // optimizer disabled.
    compiler::ResilienceOptions res;
    res.budget_seconds = 60.0;
    res.external_gate = [](const ir::Program&, const compiler::CompileArtifacts& art) {
        return art.optimized ? std::string("policy: optimized compiles are not trusted")
                             : std::string();
    };
    const compiler::CompileResult r =
        compiler::compile_resilient_source(kBuggyCms, {}, res, "cms");
    EXPECT_EQ(r.resilience.final_backend, "ilp-O0");
    ASSERT_NE(r.artifacts, nullptr);
    EXPECT_FALSE(r.artifacts->optimized);
    EXPECT_TRUE(r.artifacts->rewrites.empty());

    bool saw_rejection = false;
    bool saw_o0 = false;
    for (const compiler::AttemptReport& a : r.resilience.attempts) {
        saw_rejection =
            saw_rejection || a.outcome == compiler::AttemptOutcome::AuditRejected;
        saw_o0 = saw_o0 || a.backend == "ilp-O0";
    }
    EXPECT_TRUE(saw_rejection);
    EXPECT_TRUE(saw_o0);
}

}  // namespace
}  // namespace p4all::opt
