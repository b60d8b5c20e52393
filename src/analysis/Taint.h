//===-- analysis/Taint.h - Flow-sensitive security-type analysis *- C++ -*-===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A flow-sensitive taint analysis over security levels in the style of
/// VERONICA's dependency tracking: every variable carries a level from the
/// two-point lattice low (0) < high (1), expression levels are joins of
/// their free variables, and implicit flows are captured by a
/// program-counter level derived from the conditions a node is
/// control-dependent on. Shared resources are handled conservatively
/// through their spec's alpha abstraction: only `alpha(state)` is governed
/// by the logic, so values read back out of a resource (`perform` results,
/// `resval`) are top, the accumulated state level tracks everything that
/// flowed in, and performing an action whose declared precondition demands
/// a `low` argument with a high-level argument (or under a high pc) is a
/// sink violation. Scheduling is a channel too: values written by sibling
/// `par` branches — and resource state performed on inside `par` — are
/// schedule-dependent and read as top.
///
/// The analysis is sound-by-construction for the NI harness's observation
/// model (public outputs + low-contracted returns): `ProvablyLow` means no
/// high input can influence any public sink. It makes no completeness
/// claim; anything it cannot prove is a `CandidateLeak` for the verifier.
/// It never replaces the relational proof: `ProvablyLow` feeds the
/// `analyze` report and the fuzz oracle, not a verdict.
///
//===----------------------------------------------------------------------===//

#ifndef COMMCSL_ANALYSIS_TAINT_H
#define COMMCSL_ANALYSIS_TAINT_H

#include "analysis/CFG.h"
#include "support/Diagnostics.h"

#include <map>
#include <set>
#include <string>
#include <vector>

namespace commcsl {

/// One sink violation or proof obstacle, with a location for reporting.
struct TaintFinding {
  SourceLoc Loc;
  std::string Message;
};

/// Interprocedural summary of an analyzed procedure, used at call sites.
/// Procedures are summarised in declaration order; calls to procedures
/// without a summary (forward references, recursion) are fully havocked.
struct ProcTaintSummary {
  /// Parameters the procedure's own analysis assumed to be low.
  std::set<std::string> LowParams;
  /// Exit level of every return variable under those assumptions.
  std::map<std::string, unsigned> ReturnLevels;
  /// True iff the procedure itself was ProvablyLow: it performs no high
  /// flow into any public sink of its own.
  bool Secure = false;
  /// Effect footprint (transitively conservative): callers havoc the heap /
  /// all resource states when set.
  bool WritesHeap = false;
  bool TouchesResources = false;
};

/// Result of analyzing a single procedure.
struct ProcTaintResult {
  std::string Proc;
  /// No high flow reaches any public sink, and every bare-low ensures atom
  /// holds at exit.
  bool ProvablyLow = false;
  /// Sink violations / proof obstacles, ordered by source location.
  std::vector<TaintFinding> Findings;
  /// Final level of each return variable at procedure exit.
  std::map<std::string, unsigned> ReturnLevels;
  /// Summary for use at later call sites.
  ProcTaintSummary Summary;
};

/// Analyzes \p Proc within \p Prog. \p Summaries maps already-analyzed
/// procedure names to their summaries (may be null). Levels come from the
/// contracts, with the same convention as the NI harness: a parameter or
/// return is low iff the contract contains a bare `low(x)` atom for it (no
/// condition, plain variable), or a level guard that folds to true;
/// everything else is high.
ProcTaintResult
analyzeProcTaint(const Program &Prog, const ProcDecl &Proc,
                 const std::map<std::string, ProcTaintSummary> *Summaries =
                     nullptr);

} // namespace commcsl

#endif // COMMCSL_ANALYSIS_TAINT_H
