//===-- analysis/Analysis.h - Whole-program static pre-analysis -*- C++ -*-===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The combined static information-flow pre-analysis: per-procedure taint
/// (analysis/Taint.h) plus the lint suite (analysis/Lint.h), producing one
/// deterministic, location-ordered diagnostic stream and a per-procedure /
/// whole-program verdict. `ProvablyLow` is a sound static answer: every
/// public sink is statically independent of high inputs, so the NI sweep
/// cannot find a leak. Anything else is a `CandidateLeak` — a work item
/// for the verifier, not a refutation. Neither is a verification verdict:
/// the `analyze` verb reports them and the fuzz oracle cross-checks them,
/// while a procedure is verified only by the relational proof.
///
//===----------------------------------------------------------------------===//

#ifndef COMMCSL_ANALYSIS_ANALYSIS_H
#define COMMCSL_ANALYSIS_ANALYSIS_H

#include "analysis/Taint.h"
#include "support/Diagnostics.h"

namespace commcsl {

enum class StaticVerdict : uint8_t { ProvablyLow, CandidateLeak };

const char *staticVerdictName(StaticVerdict V);

/// Per-procedure outcome.
struct ProcStaticResult {
  std::string Proc;
  StaticVerdict Verdict = StaticVerdict::CandidateLeak;
};

/// Whole-program outcome.
struct ProgramStaticResult {
  std::vector<ProcStaticResult> Procs;
  /// Taint sinks (`lint-high-sink`) and lint warnings, ordered by source
  /// location within each procedure, procedures in declaration order.
  DiagnosticEngine Diags;

  /// Every procedure is ProvablyLow and no lint fired.
  bool ProvablyLow = false;

  const ProcStaticResult *findProc(const std::string &Name) const {
    for (const ProcStaticResult &P : Procs)
      if (P.Proc == Name)
        return &P;
    return nullptr;
  }
};

/// Analyzes every procedure of \p Prog in declaration order, threading
/// summaries through call sites. Deterministic: depends only on \p Prog.
ProgramStaticResult analyzeProgram(const Program &Prog);

} // namespace commcsl

#endif // COMMCSL_ANALYSIS_ANALYSIS_H
