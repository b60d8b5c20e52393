//===-- tests/absint/AbsintTest.cpp - Differencing tier unit tests ---------===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for the differencing abstract interpreter (DESIGN §13): the
/// term normalizer, the difference-domain fact store, and the per-spec
/// obligation analysis. The end-to-end wiring into the validity checker is
/// covered by rspec/ValidityTest.cpp; cross-tier agreement by the property
/// suite there.
///
//===----------------------------------------------------------------------===//

#include "absint/Differencing.h"

#include "tests/common/TestUtil.h"

#include <gtest/gtest.h>

using namespace commcsl;
using namespace commcsl::absint;
using namespace commcsl::test;

namespace {

/// Parses a one-spec program and runs the differencing analysis on it.
SpecAbsResult analyze(const std::string &Source, AbsOptions Opts = {}) {
  static std::vector<std::unique_ptr<Program>> Keep;
  Keep.push_back(std::make_unique<Program>(parseChecked(Source)));
  Program &P = *Keep.back();
  EXPECT_EQ(P.Specs.size(), 1u);
  return analyzeSpec(P.Specs[0], &P, Opts);
}

} // namespace

//===----------------------------------------------------------------------===//
// Normalizer
//===----------------------------------------------------------------------===//

TEST(AbsintNormalizeTest, AddIsFlattenedSortedAndFolded) {
  TermFactory F;
  FactCtx Ctx(F);
  Normalizer N(F, Ctx);
  const ATerm *X = F.sym("x"), *Y = F.sym("y");
  // (x + 2) + (y + 3) and 5 + (y + x) must meet in one normal form.
  const ATerm *A =
      F.add2(F.add2(X, F.intConst(2)), F.add2(Y, F.intConst(3)));
  const ATerm *B = F.add2(F.intConst(5), F.add2(Y, X));
  EXPECT_EQ(N.normalize(A), N.normalize(B));
}

TEST(AbsintNormalizeTest, SubtractionCancels) {
  TermFactory F;
  FactCtx Ctx(F);
  Normalizer N(F, Ctx);
  const ATerm *X = F.sym("x");
  // x + (-1)*x == 0
  const ATerm *T = F.add2(X, F.mul2(F.intConst(-1), X));
  EXPECT_TRUE(N.normalize(T)->isInt(0));
}

TEST(AbsintNormalizeTest, MultisetAddsCommute) {
  TermFactory F;
  FactCtx Ctx(F);
  Normalizer N(F, Ctx);
  const ATerm *M = F.sym("m"), *X = F.sym("x"), *Y = F.sym("y");
  auto MsAdd = [&](const ATerm *B, const ATerm *E) {
    return F.bi(BuiltinKind::MsAdd, {B, E});
  };
  EXPECT_EQ(N.normalize(MsAdd(MsAdd(M, X), Y)),
            N.normalize(MsAdd(MsAdd(M, Y), X)));
}

TEST(AbsintNormalizeTest, SeqToMsHomomorphism) {
  TermFactory F;
  FactCtx Ctx(F);
  Normalizer N(F, Ctx);
  const ATerm *S = F.sym("s"), *X = F.sym("x"), *Y = F.sym("y");
  auto App = [&](const ATerm *B, const ATerm *E) {
    return F.bi(BuiltinKind::SeqAppend, {B, E});
  };
  auto ToMs = [&](const ATerm *T) { return F.bi(BuiltinKind::SeqToMs, {T}); };
  EXPECT_EQ(N.normalize(ToMs(App(App(S, X), Y))),
            N.normalize(ToMs(App(App(S, Y), X))));
}

TEST(AbsintNormalizeTest, SeqSumHasNoAppendRule) {
  // sum() saturates concretely, so the normalizer must NOT treat it as a
  // homomorphism — both orders stay stuck (and distinct from plain sums).
  TermFactory F;
  FactCtx Ctx(F);
  Normalizer N(F, Ctx);
  const ATerm *S = F.sym("s"), *X = F.sym("x");
  const ATerm *T = F.bi(
      BuiltinKind::SeqSum, {F.bi(BuiltinKind::SeqAppend, {S, X})});
  const ATerm *NT = N.normalize(T);
  ASSERT_NE(NT, nullptr);
  EXPECT_EQ(NT, T) << NT->str();
}

TEST(AbsintNormalizeTest, MapPutsReorderUnderDisequality) {
  TermFactory F;
  FactCtx Ctx(F);
  const ATerm *M = F.sym("m"), *K1 = F.sym("k1"), *K2 = F.sym("k2");
  Ctx.addDiseq(K1, K2);
  Normalizer N(F, Ctx);
  auto Put = [&](const ATerm *Mp, const ATerm *K, const ATerm *V) {
    return F.bi(BuiltinKind::MapPut, {Mp, K, V});
  };
  const ATerm *V1 = F.intConst(1), *V2 = F.intConst(2);
  EXPECT_EQ(N.normalize(Put(Put(M, K1, V1), K2, V2)),
            N.normalize(Put(Put(M, K2, V2), K1, V1)));
}

TEST(AbsintNormalizeTest, UndecidedKeyEqualityBecomesBlockedGuard) {
  TermFactory F;
  FactCtx Ctx(F);
  Normalizer N(F, Ctx);
  const ATerm *M = F.sym("m"), *K1 = F.sym("k1"), *K2 = F.sym("k2");
  const ATerm *T = F.bi(
      BuiltinKind::MapGet,
      {F.bi(BuiltinKind::MapPut, {M, K1, F.intConst(7)}), K2});
  N.normalize(T);
  ASSERT_FALSE(N.blockedGuards().empty());
  EXPECT_EQ(N.blockedGuards()[0], F.eq(K1, K2));
}

TEST(AbsintNormalizeTest, IntervalFactsDecideKeyOrder) {
  // fst splits with sign information (the DisjointMap pattern): k1 < 0 and
  // k2 >= 0 makes the keys provably distinct.
  TermFactory F;
  FactCtx Ctx(F);
  const ATerm *K1 = F.sym("k1"), *K2 = F.sym("k2");
  ASSERT_TRUE(Ctx.addBool(F.app(AOp::Lt, {K1, F.intConst(0)}), true));
  ASSERT_TRUE(Ctx.addBool(F.app(AOp::Le, {F.intConst(0), K2}), true));
  EXPECT_EQ(Ctx.decideEq(K1, K2), Tri::False);
}

TEST(AbsintNormalizeTest, GuardedEqualityWaitsForItsGuard) {
  // `k > 0 ==> a == b`: nothing is known until the facts decide the guard,
  // here through a differently written bound (k >= 1).
  TermFactory F;
  FactCtx Ctx(F);
  const ATerm *K = F.sym("k"), *A = F.sym("a"), *B = F.sym("b");
  ASSERT_TRUE(Ctx.addGuardedEq(F.app(AOp::Lt, {F.intConst(0), K}), A, B));
  EXPECT_EQ(Ctx.decideEq(A, B), Tri::Unknown);
  FactCtx Else = Ctx;
  ASSERT_TRUE(Else.addBool(F.app(AOp::Le, {K, F.intConst(0)}), true));
  EXPECT_EQ(Else.decideEq(A, B), Tri::Unknown);
  ASSERT_TRUE(Ctx.addBool(F.app(AOp::Le, {F.intConst(1), K}), true));
  EXPECT_EQ(Ctx.decideEq(A, B), Tri::True);

  // A conjunctive guard holds once a split assumes the conjunction, which
  // the fact store records as its conjuncts.
  FactCtx Conj(F);
  const ATerm *P = F.sym("p"), *Q = F.sym("q");
  const ATerm *PQ = F.app(AOp::And, {P, Q});
  ASSERT_TRUE(Conj.addGuardedEq(PQ, A, B));
  ASSERT_TRUE(Conj.addBool(PQ, true));
  EXPECT_EQ(Conj.decideEq(A, B), Tri::True);
}

TEST(AbsintNormalizeTest, SortIsAFunctionOfTheElementMultiset) {
  TermFactory F;
  FactCtx Ctx(F);
  Normalizer N(F, Ctx);
  const ATerm *S = F.sym("s"), *X = F.sym("x"), *Y = F.sym("y");
  auto App = [&](const ATerm *B, const ATerm *E) {
    return F.bi(BuiltinKind::SeqAppend, {B, E});
  };
  auto Sort = [&](const ATerm *T) { return F.bi(BuiltinKind::SeqSort, {T}); };
  EXPECT_EQ(N.normalize(Sort(App(App(S, X), Y))),
            N.normalize(Sort(App(App(S, Y), X))));
}

//===----------------------------------------------------------------------===//
// Per-spec analysis
//===----------------------------------------------------------------------===//

TEST(AbsintSpecTest, CounterIsProvedUnbounded) {
  SpecAbsResult R = analyze(R"(
    resource Counter {
      state: int;
      alpha(v) = v;
      shared action Add(a: int) {
        apply(v, a) = v + a;
        requires low(a);
      }
    }
  )");
  ASSERT_TRUE(R.Applicable);
  EXPECT_TRUE(R.AllProved);
  ASSERT_EQ(R.Actions.size(), 1u);
  ASSERT_NE(R.Actions[0].U, nullptr);
  EXPECT_EQ(R.Actions[0].Pre, ObStatus::Proved);
  ASSERT_EQ(R.Pairs.size(), 1u);
  EXPECT_EQ(R.Pairs[0].Comm, ObStatus::Proved);
}

TEST(AbsintSpecTest, MapKeySetIsProvedUnbounded) {
  SpecAbsResult R = analyze(R"(
    resource MapKS {
      state: map<int, int>;
      alpha(v) = dom(v);
      shared action Put(a: pair<int, int>) {
        apply(v, a) = map_put(v, fst(a), snd(a));
        requires low(fst(a));
      }
    }
  )");
  ASSERT_TRUE(R.Applicable);
  EXPECT_TRUE(R.AllProved) << "pre=" << obStatusName(R.Actions[0].Pre)
                           << " comm=" << obStatusName(R.Pairs[0].Comm);
}

TEST(AbsintSpecTest, GhostSumPairIsProvedUnbounded) {
  // The debt_sum shape: raw list plus ghost wrap-add sum, alpha = snd.
  SpecAbsResult R = analyze(R"(
    resource DebtList {
      state: pair<seq<pair<int, int>>, int>;
      alpha(v) = snd(v);
      shared action Append(a: pair<int, int>) {
        apply(v, a) = pair(append(fst(v), a), snd(v) + snd(a));
        requires low(snd(a));
      }
    }
  )");
  ASSERT_TRUE(R.Applicable);
  EXPECT_TRUE(R.AllProved);
  // alpha = snd(v) is a single component, so the template uses slot 0.
  ASSERT_NE(R.Actions[0].U, nullptr);
  EXPECT_TRUE(mentionsSym(R.Actions[0].U, slotSymName(0)))
      << R.Actions[0].U->str();
}

TEST(AbsintSpecTest, CountMapWithGetOrIsProvedUnbounded) {
  // The count_purchases shape: per-key counters via map_get_or.
  SpecAbsResult R = analyze(R"(
    resource PurchaseCounts {
      state: map<int, int>;
      alpha(v) = v;
      shared action AddCount(a: pair<int, int>) {
        apply(v, a) = map_put(v, fst(a), map_get_or(v, fst(a), 0) + snd(a));
        requires low(fst(a)) && low(snd(a));
      }
    }
  )");
  ASSERT_TRUE(R.Applicable);
  EXPECT_TRUE(R.AllProved) << "pre=" << obStatusName(R.Actions[0].Pre)
                           << " comm=" << obStatusName(R.Pairs[0].Comm);
  EXPECT_GT(R.Splits, 0u); // needs genuine key-equality case splits
}

TEST(AbsintSpecTest, Figure1AssignIsRefuted) {
  // Fig. 1: plain assignment does not commute modulo identity alpha.
  SpecAbsResult R = analyze(R"(
    resource Cell {
      state: int;
      alpha(v) = v;
      shared action Assign(a: int) {
        apply(v, a) = a;
        requires low(a);
      }
    }
  )");
  ASSERT_TRUE(R.Applicable);
  EXPECT_FALSE(R.AllProved);
  ASSERT_EQ(R.Pairs.size(), 1u);
  EXPECT_EQ(R.Pairs[0].Comm, ObStatus::Refuted);
  // The A' obligation still holds: low(a) forces equal arguments.
  EXPECT_EQ(R.Actions[0].Pre, ObStatus::Proved);
}

TEST(AbsintSpecTest, HighArgumentWithoutLowPreIsNotLowPreserving) {
  // No `low(a)` precondition: two runs may add different arguments, so
  // alpha equality is not preserved — A' must not be proved.
  SpecAbsResult R = analyze(R"(
    resource FreeAdd {
      state: int;
      alpha(v) = v;
      shared action Add(a: int) {
        apply(v, a) = v + a;
      }
    }
  )");
  ASSERT_TRUE(R.Applicable);
  EXPECT_NE(R.Actions[0].Pre, ObStatus::Proved);
  // Commutativity itself is fine (wrap-add commutes).
  EXPECT_EQ(R.Pairs[0].Comm, ObStatus::Proved);
}

TEST(AbsintSpecTest, SaturatingSumAlphaStaysInconclusive) {
  // alpha goes through sum(), whose concrete fold saturates: the tier must
  // refuse to prove it (there is no sound append-homomorphism rule).
  SpecAbsResult R = analyze(R"(
    resource SumList {
      state: seq<int>;
      alpha(v) = sum(v);
      shared action Push(a: int) {
        apply(v, a) = append(v, a);
        requires low(a);
      }
    }
  )");
  ASSERT_TRUE(R.Applicable);
  EXPECT_FALSE(R.AllProved);
  EXPECT_EQ(R.Pairs[0].Comm, ObStatus::Inconclusive);
}

TEST(AbsintSpecTest, MultisetAbstractionIsProvedUnbounded) {
  SpecAbsResult R = analyze(R"(
    resource EventList {
      state: seq<int>;
      alpha(v) = seq_to_mset(v);
      shared action Log(a: int) {
        apply(v, a) = append(v, a);
        requires low(a);
      }
    }
  )");
  ASSERT_TRUE(R.Applicable);
  EXPECT_TRUE(R.AllProved);
}

TEST(AbsintSpecTest, MaxMapIsProvedUnbounded) {
  // The max_map shape: keep the per-key maximum.
  SpecAbsResult R = analyze(R"(
    resource MaxMap {
      state: map<int, int>;
      alpha(v) = v;
      shared action PutMax(a: pair<int, int>) {
        apply(v, a) =
          map_put(v, fst(a), max(map_get_or(v, fst(a), snd(a)), snd(a)));
        requires low(fst(a)) && low(snd(a));
      }
    }
  )");
  ASSERT_TRUE(R.Applicable);
  EXPECT_TRUE(R.AllProved) << "pre=" << obStatusName(R.Actions[0].Pre)
                           << " comm=" << obStatusName(R.Pairs[0].Comm);
}

TEST(AbsintSpecTest, UniqueSelfPairsAreSkipped) {
  SpecAbsResult R = analyze(R"(
    resource Once {
      state: int;
      alpha(v) = v;
      unique action Set(a: int) {
        apply(v, a) = v + a;
        requires low(a);
      }
    }
  )");
  ASSERT_TRUE(R.Applicable);
  EXPECT_TRUE(R.Pairs.empty());
  EXPECT_TRUE(R.AllProved);
}

namespace {

/// `c ==> low(e)` (Sec. 3.4): the flag is low, the payload only where the
/// flag holds. Read as the verifier reads it, a template that ignores the
/// payload closes at once, and one that adds the payload under the flag
/// closes with one split on the flag.
const char *RecordLogSource = R"(
    resource RecordLog {
      state: seq<pair<bool, int>>;
      alpha(v) = len(v);
      shared action Append(a: pair<bool, int>) {
        apply(v, a) = append(v, a);
        requires low(fst(a)) && fst(a) ==> low(snd(a));
      }
    }
  )";

const char *PublicSumSource = R"(
    resource PublicSum {
      state: int;
      alpha(v) = v;
      shared action Add(a: pair<bool, int>) {
        apply(v, a) = ite(fst(a), v + snd(a), v);
        requires low(fst(a)) && fst(a) ==> low(snd(a));
      }
    }
  )";

} // namespace

TEST(AbsintSpecTest, ConditionalLowPayloadOutsideTheTemplateIsALeaf) {
  SpecAbsResult R = analyze(RecordLogSource);
  ASSERT_TRUE(R.Applicable);
  EXPECT_TRUE(R.AllProved) << "pre=" << obStatusName(R.Actions[0].Pre)
                           << " comm=" << obStatusName(R.Pairs[0].Comm);
  ASSERT_NE(R.Actions[0].PreTree, nullptr);
  EXPECT_EQ(R.Actions[0].PreTree->Guard, nullptr);
  ASSERT_NE(R.Pairs[0].Tree, nullptr);
  EXPECT_EQ(R.Pairs[0].Tree->Guard, nullptr);
}

TEST(AbsintSpecTest, ConditionalLowPayloadSplitsOnTheFlag) {
  SpecAbsResult R = analyze(PublicSumSource);
  ASSERT_TRUE(R.Applicable);
  ASSERT_EQ(R.Actions[0].Pre, ObStatus::Proved);
  const SplitNode *Tree = R.Actions[0].PreTree.get();
  ASSERT_NE(Tree, nullptr);
  ASSERT_NE(Tree->Guard, nullptr);
  // The flag of either run: the precondition equates the two.
  TermFactory &F = *R.Factory;
  const ATerm *FlagX = F.bi(BuiltinKind::Fst, {F.sym(argSymA())});
  const ATerm *FlagX2 = F.bi(BuiltinKind::Fst, {F.sym(argSymA2())});
  EXPECT_TRUE(Tree->Guard == FlagX || Tree->Guard == FlagX2)
      << Tree->Guard->str();
  EXPECT_EQ(Tree->depth(), 1u);
}

TEST(AbsintSpecTest, PayloadAddedWithoutItsFlagIsNotLowPreserving) {
  // The payload is only low under the flag; adding it unconditionally
  // leaks it when the flag is false.
  SpecAbsResult R = analyze(R"(
    resource LeakySum {
      state: int;
      alpha(v) = v;
      shared action Add(a: pair<bool, int>) {
        apply(v, a) = v + snd(a);
        requires low(fst(a)) && fst(a) ==> low(snd(a));
      }
    }
  )");
  ASSERT_TRUE(R.Applicable);
  EXPECT_NE(R.Actions[0].Pre, ObStatus::Proved);
  EXPECT_FALSE(R.AllProved);
}

TEST(AbsintSpecTest, AnalysisIsDeterministic) {
  const char *Source = R"(
    resource PurchaseCounts {
      state: map<int, int>;
      alpha(v) = v;
      shared action AddCount(a: pair<int, int>) {
        apply(v, a) = map_put(v, fst(a), map_get_or(v, fst(a), 0) + snd(a));
        requires low(fst(a)) && low(snd(a));
      }
    }
  )";
  SpecAbsResult A = analyze(Source);
  SpecAbsResult B = analyze(Source);
  ASSERT_EQ(A.Actions.size(), B.Actions.size());
  ASSERT_NE(A.Actions[0].U, nullptr);
  ASSERT_NE(B.Actions[0].U, nullptr);
  // Distinct factories, identical structure.
  EXPECT_EQ(A.Actions[0].U->str(), B.Actions[0].U->str());
  EXPECT_EQ(A.Splits, B.Splits);
  EXPECT_EQ(A.RewriteSteps, B.RewriteSteps);
}

TEST(AbsintSpecTest, ReplayAcceptsRecordedTreesAndRejectsTruncation) {
  static std::vector<std::unique_ptr<Program>> Keep;
  Keep.push_back(std::make_unique<Program>(parseChecked(R"(
    resource PurchaseCounts {
      state: map<int, int>;
      alpha(v) = v;
      shared action AddCount(a: pair<int, int>) {
        apply(v, a) = map_put(v, fst(a), map_get_or(v, fst(a), 0) + snd(a));
        requires low(fst(a)) && low(snd(a));
      }
    }
  )")));
  Program &P = *Keep.back();
  SpecAbsResult R = analyzeSpec(P.Specs[0], &P);
  ASSERT_TRUE(R.AllProved);
  ASSERT_EQ(R.Pairs.size(), 1u);
  ASSERT_NE(R.Pairs[0].Tree, nullptr);
  ASSERT_NE(R.Pairs[0].Tree->Guard, nullptr); // the proof needed splits

  TermFactory &F = *R.Factory;
  const ActionDecl &Act = P.Specs[0].Actions[0];
  const ATerm *L = nullptr, *Rt = nullptr;
  ASSERT_TRUE(buildCommObligation(F, P.Specs[0], &P, Act, Act, F.sym(argSymA()),
                                  F.sym(argSymB()), L, Rt));
  FactCtx Ctx(F);
  addUnaryPreFacts(Ctx, F, &P, Act, F.sym(argSymA()));
  addUnaryPreFacts(Ctx, F, &P, Act, F.sym(argSymB()));
  EXPECT_TRUE(replaySplitTree(F, L, Rt, Ctx, R.Pairs[0].Tree.get(), {}));

  // A truncated tree (bare leaf where splits are needed) must not check.
  SplitNode Leaf;
  EXPECT_FALSE(replaySplitTree(F, L, Rt, Ctx, &Leaf, {}));

  // The same for an A' tree that splits on a conditional precondition's
  // guard: replay installs the guarded payload equality in the then-branch.
  Keep.push_back(std::make_unique<Program>(parseChecked(PublicSumSource)));
  Program &SumP = *Keep.back();
  SpecAbsResult SumR = analyzeSpec(SumP.Specs[0], &SumP);
  const ActionAbs &Add = SumR.Actions[0];
  ASSERT_EQ(Add.Pre, ObStatus::Proved);
  ASSERT_NE(Add.PreTree->Guard, nullptr);
  TermFactory &SF = *SumR.Factory;
  const ATerm *Arg = SF.sym(argSymName());
  const ATerm *X = SF.sym(argSymA()), *X2 = SF.sym(argSymA2());
  FactCtx PreCtx(SF);
  PreFacts PF =
      addRelationalPreFacts(PreCtx, SF, &SumP, SumP.Specs[0].Actions[0], X, X2);
  ASSERT_TRUE(PF.Supported);
  ASSERT_FALSE(PF.Infeasible);
  const ATerm *PL = substTerm(SF, Add.U, {{Arg, X}});
  const ATerm *PR = substTerm(SF, Add.U, {{Arg, X2}});
  EXPECT_TRUE(replaySplitTree(SF, PL, PR, PreCtx, Add.PreTree.get(), {}));
  EXPECT_FALSE(replaySplitTree(SF, PL, PR, PreCtx, &Leaf, {}));
}

TEST(AbsintSpecTest, InjectUnsoundCorruptsTemplateButNotVerdicts) {
  AbsOptions Opts;
  Opts.InjectUnsound = true;
  SpecAbsResult R = analyze(R"(
    resource Counter {
      state: int;
      alpha(v) = v;
      shared action Add(a: int) {
        apply(v, a) = v + a;
        requires low(a);
      }
    }
  )",
                            Opts);
  ASSERT_TRUE(R.AllProved); // proof ran against the real template
  ASSERT_NE(R.Actions[0].U, nullptr);
  EXPECT_TRUE(R.Actions[0].U->isInt(42)); // ...but the record is corrupted
}
