//===-- analysis/Analysis.cpp - Whole-program static pre-analysis ---------===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//

#include "analysis/Analysis.h"

#include "analysis/Lint.h"

#include <algorithm>

using namespace commcsl;

const char *commcsl::staticVerdictName(StaticVerdict V) {
  switch (V) {
  case StaticVerdict::ProvablyLow:
    return "provably-low";
  case StaticVerdict::CandidateLeak:
    return "candidate-leak";
  }
  return "?";
}

ProgramStaticResult commcsl::analyzeProgram(const Program &Prog) {
  ProgramStaticResult R;
  R.ProvablyLow = true;
  std::map<std::string, ProcTaintSummary> Summaries;

  for (const ProcDecl &Proc : Prog.Procs) {
    ProcTaintResult T = analyzeProcTaint(Prog, Proc, &Summaries);
    Summaries[Proc.Name] = T.Summary;

    // Merge lints and taint sinks into one location-ordered stream.
    DiagnosticEngine Lints;
    lintProc(Proc, Lints);
    std::vector<Diagnostic> Merged = Lints.diagnostics();
    for (const TaintFinding &F : T.Findings)
      Merged.push_back(
          {DiagKind::Warning, DiagCode::LintHighSink, F.Loc, F.Message});
    std::stable_sort(Merged.begin(), Merged.end(),
                     [](const Diagnostic &A, const Diagnostic &B) {
                       if (A.Loc.Line != B.Loc.Line)
                         return A.Loc.Line < B.Loc.Line;
                       if (A.Loc.Column != B.Loc.Column)
                         return A.Loc.Column < B.Loc.Column;
                       if (A.Code != B.Code)
                         return static_cast<int>(A.Code) <
                                static_cast<int>(B.Code);
                       return A.Message < B.Message;
                     });
    bool AnyLint = !Merged.empty();
    for (const Diagnostic &D : Merged)
      R.Diags.report(D.Kind, D.Code, D.Loc, D.Message);

    ProcStaticResult PR;
    PR.Proc = Proc.Name;
    PR.Verdict = T.ProvablyLow && !AnyLint ? StaticVerdict::ProvablyLow
                                           : StaticVerdict::CandidateLeak;
    if (PR.Verdict != StaticVerdict::ProvablyLow)
      R.ProvablyLow = false;
    R.Procs.push_back(std::move(PR));
  }
  return R;
}
