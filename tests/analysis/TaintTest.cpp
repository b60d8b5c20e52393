//===-- tests/analysis/TaintTest.cpp - Taint analysis tests ----------------===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Behavioural tests for the flow-sensitive taint analysis: explicit flows,
/// implicit (pc) flows, scheduling channels introduced by `par`, the
/// conservative resource rules, interprocedural summaries, and static
/// level guards and declassify.
///
//===----------------------------------------------------------------------===//

#include "analysis/Taint.h"

#include "tests/common/TestUtil.h"

#include <gtest/gtest.h>

using namespace commcsl;
using namespace commcsl::test;

namespace {

ProcTaintResult analyze(const std::string &Source,
                        const std::string &ProcName = "main") {
  Program P = parseChecked(Source);
  const ProcDecl *Proc = P.findProc(ProcName);
  EXPECT_NE(Proc, nullptr);
  return analyzeProcTaint(P, *Proc);
}

} // namespace

TEST(TaintTest, ExplicitFlowToLowReturnIsCaught) {
  ProcTaintResult R = analyze("procedure main(h: int) returns (out: int)\n"
                              "  ensures low(out)\n"
                              "{\n"
                              "  out := h;\n"
                              "}\n");
  EXPECT_FALSE(R.ProvablyLow);
  ASSERT_FALSE(R.Findings.empty());
}

TEST(TaintTest, LowToLowIsProvable) {
  ProcTaintResult R = analyze("procedure main(l: int) returns (out: int)\n"
                              "  requires low(l)\n"
                              "  ensures low(out)\n"
                              "{\n"
                              "  out := l + 1;\n"
                              "}\n");
  EXPECT_TRUE(R.ProvablyLow) << (R.Findings.empty()
                                     ? ""
                                     : R.Findings.front().Message);
  EXPECT_TRUE(R.Summary.Secure);
}

TEST(TaintTest, ImplicitFlowThroughBranchIsCaught) {
  // No assignment of h itself: the leak is purely control-dependence.
  ProcTaintResult R = analyze("procedure main(h: int) returns (out: int)\n"
                              "  ensures low(out)\n"
                              "{\n"
                              "  if (h > 0) { out := 1; } else { out := 0; }\n"
                              "}\n");
  EXPECT_FALSE(R.ProvablyLow);
}

TEST(TaintTest, BranchOnLowDataIsFine) {
  ProcTaintResult R = analyze("procedure main(l: int) returns (out: int)\n"
                              "  requires low(l)\n"
                              "  ensures low(out)\n"
                              "{\n"
                              "  if (l > 0) { out := 1; } else { out := 0; }\n"
                              "}\n");
  EXPECT_TRUE(R.ProvablyLow);
}

TEST(TaintTest, HighDataConfinedToScratchIsFine) {
  // h flows into a local that never reaches a sink.
  ProcTaintResult R = analyze("procedure main(h: int) returns (out: int)\n"
                              "  ensures low(out)\n"
                              "{\n"
                              "  var scratch: int := h * 2;\n"
                              "  out := 7;\n"
                              "}\n");
  EXPECT_TRUE(R.ProvablyLow);
}

TEST(TaintTest, OutputOfHighIsASink) {
  ProcTaintResult R = analyze("procedure main(h: int) returns (out: int)\n"
                              "  ensures low(out)\n"
                              "{\n"
                              "  out := 0;\n"
                              "  output h;\n"
                              "}\n");
  EXPECT_FALSE(R.ProvablyLow);
}

TEST(TaintTest, OutputInsideParIsScheduleDependent) {
  // Even low outputs inside par leak through emission order.
  ProcTaintResult R = analyze("procedure main(l: int) returns (out: int)\n"
                              "  requires low(l)\n"
                              "  ensures low(out)\n"
                              "{\n"
                              "  out := 0;\n"
                              "  par { output l; } and { output l + 1; }\n"
                              "}\n");
  EXPECT_FALSE(R.ProvablyLow);
}

TEST(TaintTest, CrossParWriteReadsAsTop) {
  // The left branch reads b while the right branch writes it: the observed
  // value depends on the schedule even though both sources are low.
  ProcTaintResult R = analyze("procedure main(l: int) returns (out: int)\n"
                              "  requires low(l)\n"
                              "  ensures low(out)\n"
                              "{\n"
                              "  var a: int := 0;\n"
                              "  var b: int := 0;\n"
                              "  par { a := b; } and { b := l; }\n"
                              "  out := a;\n"
                              "}\n");
  EXPECT_FALSE(R.ProvablyLow);
}

TEST(TaintTest, DisjointParBranchesStayPrecise) {
  ProcTaintResult R = analyze("procedure main(l: int) returns (out: int)\n"
                              "  requires low(l)\n"
                              "  ensures low(out)\n"
                              "{\n"
                              "  var a: int := 0;\n"
                              "  var b: int := 0;\n"
                              "  par { a := l; } and { b := l + 1; }\n"
                              "  out := a + b;\n"
                              "}\n");
  EXPECT_TRUE(R.ProvablyLow) << (R.Findings.empty()
                                     ? ""
                                     : R.Findings.front().Message);
}

TEST(TaintTest, UnshareOfSequentiallyLowResourceIsConservativeButClean) {
  // Sequential share/perform/unshare with low data: the state level stays
  // low, so publishing the unshared value is fine.
  ProcTaintResult R = analyze(
      "resource Counter {\n"
      "  state: int;\n"
      "  alpha(v) = v;\n"
      "  shared action Add(a: int) { apply(v, a) = v + a; requires low(a); }\n"
      "}\n"
      "procedure main(l: int) returns (out: int)\n"
      "  requires low(l)\n"
      "  ensures low(out)\n"
      "{\n"
      "  share c: Counter := 0;\n"
      "  atomic c { perform c.Add(l); }\n"
      "  var fin: int := 0;\n"
      "  fin := unshare c;\n"
      "  out := fin;\n"
      "}\n");
  EXPECT_TRUE(R.ProvablyLow) << (R.Findings.empty()
                                     ? ""
                                     : R.Findings.front().Message);
}

TEST(TaintTest, HighArgToLowActionIsASink) {
  ProcTaintResult R = analyze(
      "resource Counter {\n"
      "  state: int;\n"
      "  alpha(v) = v;\n"
      "  shared action Add(a: int) { apply(v, a) = v + a; requires low(a); }\n"
      "}\n"
      "procedure main(h: int) returns (out: int)\n"
      "  ensures low(out)\n"
      "{\n"
      "  share c: Counter := 0;\n"
      "  atomic c { perform c.Add(h); }\n"
      "  var fin: int := 0;\n"
      "  fin := unshare c;\n"
      "  out := 0;\n"
      "}\n");
  EXPECT_FALSE(R.ProvablyLow);
  bool SawSink = false;
  for (const TaintFinding &F : R.Findings)
    SawSink |= F.Message.find("low argument") != std::string::npos;
  EXPECT_TRUE(SawSink);
}

TEST(TaintTest, ResvalIsAlwaysTop) {
  ProcTaintResult R = analyze(
      "resource Counter {\n"
      "  state: int;\n"
      "  alpha(v) = v;\n"
      "  shared action Add(a: int) { apply(v, a) = v + a; requires low(a); }\n"
      "}\n"
      "procedure main(l: int) returns (out: int)\n"
      "  requires low(l)\n"
      "  ensures low(out)\n"
      "{\n"
      "  share c: Counter := 0;\n"
      "  var seen: int := 0;\n"
      "  atomic c { seen := resval(c); perform c.Add(l); }\n"
      "  var fin: int := 0;\n"
      "  fin := unshare c;\n"
      "  out := seen;\n"
      "}\n");
  EXPECT_FALSE(R.ProvablyLow);
}

TEST(TaintTest, InterproceduralSummaryPropagates) {
  const char *Src = "procedure double(l: int) returns (r: int)\n"
                    "  requires low(l)\n"
                    "  ensures low(r)\n"
                    "{\n"
                    "  r := l * 2;\n"
                    "}\n"
                    "procedure main(l: int) returns (out: int)\n"
                    "  requires low(l)\n"
                    "  ensures low(out)\n"
                    "{\n"
                    "  out := call double(l);\n"
                    "}\n";
  Program P = parseChecked(Src);
  std::map<std::string, ProcTaintSummary> Summaries;
  ProcTaintResult Callee =
      analyzeProcTaint(P, *P.findProc("double"), &Summaries);
  ASSERT_TRUE(Callee.ProvablyLow);
  Summaries["double"] = Callee.Summary;
  ProcTaintResult Caller =
      analyzeProcTaint(P, *P.findProc("main"), &Summaries);
  EXPECT_TRUE(Caller.ProvablyLow) << (Caller.Findings.empty()
                                          ? ""
                                          : Caller.Findings.front().Message);
  // Without the summary the same call havocs the result.
  ProcTaintResult Blind = analyzeProcTaint(P, *P.findProc("main"), nullptr);
  EXPECT_FALSE(Blind.ProvablyLow);
}

TEST(TaintTest, FindingsAreLocationOrdered) {
  ProcTaintResult R = analyze("procedure main(h: int) returns (out: int)\n"
                              "  ensures low(out)\n"
                              "{\n"
                              "  output h;\n"
                              "  out := h;\n"
                              "}\n");
  ASSERT_GE(R.Findings.size(), 2u);
  for (size_t I = 1; I < R.Findings.size(); ++I) {
    const SourceLoc &A = R.Findings[I - 1].Loc;
    const SourceLoc &B = R.Findings[I].Loc;
    EXPECT_TRUE(A.Line < B.Line || (A.Line == B.Line && A.Column <= B.Column));
  }
}

//===----------------------------------------------------------------------===//
// Level guards, declassify and loops
//===----------------------------------------------------------------------===//

TEST(TaintTest, ClosedTrueLevelGuardReadsAsLow) {
  // A level guard with no free variables folds statically: `1 > 0` is
  // true, so the conditionally-low parameter is low for the whole run.
  ProcTaintResult R =
      analyze("procedure main(c: int) returns (out: int)\n"
              "  requires level(c) = if 1 > 0 then low else high\n"
              "  ensures low(out)\n"
              "{\n"
              "  out := c;\n"
              "}\n");
  EXPECT_TRUE(R.ProvablyLow) << (R.Findings.empty()
                                     ? ""
                                     : R.Findings.front().Message);
}

TEST(TaintTest, ClosedFalseLevelGuardReadsAsHigh) {
  ProcTaintResult R =
      analyze("procedure main(c: int) returns (out: int)\n"
              "  requires level(c) = if 0 > 1 then low else high\n"
              "  ensures low(out)\n"
              "{\n"
              "  out := c;\n"
              "}\n");
  EXPECT_FALSE(R.ProvablyLow);
  ASSERT_FALSE(R.Findings.empty());
}

TEST(TaintTest, OpenLevelGuardJoinsToHighWithExplanation) {
  // The guard depends on an input, so the static fragment cannot decide
  // it: the parameter is top and the conditional ensures atom is flagged
  // as beyond the fragment (the relational verifier owns it).
  const char *Src =
      "procedure main(l: int, c: int) returns (out: int)\n"
      "  requires low(l)\n"
      "  requires level(c) = if l > 0 then low else high\n"
      "  ensures level(out) = if l > 0 then low else high\n"
      "{\n"
      "  if (l > 0) { out := c; } else { out := 0; }\n"
      "}\n";
  ProcTaintResult R = analyze(Src);
  EXPECT_FALSE(R.ProvablyLow);
  bool Explained = false;
  for (const TaintFinding &F : R.Findings)
    if (F.Message.find("not statically decidable") != std::string::npos)
      Explained = true;
  EXPECT_TRUE(Explained);
}

TEST(TaintTest, DeclassifyIsAnExplicitLintedSink) {
  // declassify() launders the level (its result is statically low) but
  // every release site is linted: the program is secure only under
  // delimited release, never under plain non-interference.
  const char *Src = "procedure main(h: int) returns (out: int)\n"
                    "  ensures low(out)\n"
                    "{\n"
                    "  out := declassify(h % 2);\n"
                    "}\n";
  ProcTaintResult R = analyze(Src);
  EXPECT_FALSE(R.ProvablyLow);
  bool Linted = false;
  for (const TaintFinding &F : R.Findings)
    if (F.Message.find("declassify release") != std::string::npos)
      Linted = true;
  EXPECT_TRUE(Linted);
}

TEST(TaintTest, LoopTargetsWithoutInvariantStayPrecise) {
  // The loop pins nothing low, yet the analysis follows `x` through the
  // loop fixpoint and sees it stays low.
  const char *Src = "procedure main(l: int) returns (out: int)\n"
                    "  requires low(l)\n"
                    "  ensures low(out)\n"
                    "{\n"
                    "  var x: int := 0;\n"
                    "  var i: int := 0;\n"
                    "  while (i < l) invariant low(i) { x := x + 1; i := i + 1; }\n"
                    "  out := x;\n"
                    "}\n";
  EXPECT_TRUE(analyze(Src).ProvablyLow);
}
