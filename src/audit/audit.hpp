// p4all-audit: translation validation of compiled layouts.
//
// A post-compilation static-analysis layer that re-derives everything the
// compiler claims from scratch, using only the elaborated IR, the
// TargetSpec, and the final CompileArtifacts — deliberately sharing no code
// with the compiler-side audit_layout()/compute_usage() checkers so a bug
// in the compiler's accounting cannot hide itself. Exposed as eight lint
// passes in the standard verify registry:
//
//   layout-resource-overcommit   per-stage memory / ALU / hash / PHV
//                                re-accounting against the TargetSpec, and
//                                the compiler's own usage report re-checked
//   layout-dependency-violation  dependency-graph respect by the stage
//                                assignment (precedence, write-after-read,
//                                exclusion, register sharing, co-location)
//   layout-symbol-mismatch       every symbol satisfies all assume bounds
//                                and matches the emitted unrolling; claimed
//                                utility re-evaluated from the bindings
//   ilp-infeasible-incumbent     exact rational feasibility + integrality of
//                                the incumbent; claimed objective == c·x
//   ilp-certificate-gap          weak-duality certificate of the root
//                                relaxation bounds the incumbent
//   register-bounds-proof        re-runs the abstract-interpretation bounds
//                                engine over the artifacts' layout and
//                                rejects any claimed-proved fact the
//                                re-derivation cannot reproduce
//   proof-fact-consistency       geometric validity of every shipped
//                                ProofFact against the layout and program
//                                (no engine re-run; pure cross-checking)
//   rewrite-validity             replays the optimizer's certificate chain
//                                from the pre-optimization IR, re-deriving
//                                each rewrite's justification; any forged,
//                                tampered, or missing certificate rejects
//                                the compile
//
// The passes read their input through an ArtifactsPayload and no-op when a
// lint run carries none, so they are safe to leave registered globally.
#pragma once

#include <functional>
#include <string>

#include "compiler/artifacts.hpp"
#include "verify/lint.hpp"

namespace p4all::audit {

/// Hands the compiled artifacts to the audit passes through the generic
/// lint-payload hook. Not owned; must outlive the run.
struct ArtifactsPayload : verify::LintPayload {
    const compiler::CompileArtifacts* artifacts = nullptr;
};

/// The eight audit check ids, registration order.
inline constexpr const char* kAuditChecks[] = {
    "layout-resource-overcommit", "layout-dependency-violation", "layout-symbol-mismatch",
    "ilp-infeasible-incumbent",   "ilp-certificate-gap",         "register-bounds-proof",
    "proof-fact-consistency",     "rewrite-validity",
};

/// Registers the audit passes into `registry` (idempotent per registry).
void register_audit_passes(verify::PassRegistry& registry);

/// Runs exactly the eight audit passes over `prog` + `artifacts` (against the
/// artifacts' own target spec). Findings of severity Error mean the compile
/// must be rejected.
[[nodiscard]] verify::LintResult audit_artifacts(const ir::Program& prog,
                                                 const compiler::CompileArtifacts& artifacts,
                                                 bool werror = false);

/// Acceptance gate for the resilient driver (compiler/resilient.hpp): runs
/// the eight audit passes and returns "" when the layout is clean, otherwise
/// the rendered error findings. Injected as ResilienceOptions::external_gate
/// — the compiler library cannot call this layer directly (it links the
/// other way), so anytime incumbents get independently re-checked before the
/// portfolio accepts them.
[[nodiscard]] std::function<std::string(const ir::Program&, const compiler::CompileArtifacts&)>
make_resilience_gate(bool werror = false);

}  // namespace p4all::audit
