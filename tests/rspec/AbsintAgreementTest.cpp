//===-- tests/rspec/AbsintAgreementTest.cpp - Tier agreement ---------------===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Cross-checks the abstract (unbounded) validity tier against the concrete
/// bounded tier on every finite-scope spec we have: the whole spec library
/// plus a family of known-invalid specs. The contract under test is
/// soundness of the abstraction — an obligation the differencing analysis
/// proves must never have a concrete counterexample, and turning the tier
/// on must never change a verdict or the reported counterexample, at any
/// job count.
///
//===----------------------------------------------------------------------===//

#include "absint/Differencing.h"
#include "rspec/SpecLibrary.h"
#include "rspec/Validity.h"

#include "tests/common/TestUtil.h"

#include <gtest/gtest.h>

using namespace commcsl;
using namespace commcsl::test;

namespace {

/// Known-invalid specs: the Fig. 1 assignment pair, the identity-abstraction
/// map (Fig. 3 without dom()), a value leak through alpha, a missing
/// low-argument precondition, and a payload that is only low under its flag
/// (`c ==> low(e)`) but is added whatever the flag says.
const char *InvalidSources[] = {
    R"(
      resource AssignPair {
        state: int;
        alpha(v) = v;
        shared action SetA(a: int) { apply(v, a) = a; requires low(a); }
        shared action SetB(a: int) { apply(v, a) = a; requires low(a); }
      }
    )",
    R"(
      resource MapIdLeak {
        state: map<int, int>;
        alpha(v) = v;
        scope int -1 .. 1;
        scope size 2;
        shared action Put(a: pair<int, int>) {
          apply(v, a) = map_put(v, fst(a), snd(a));
          requires low(fst(a));
        }
      }
    )",
    R"(
      resource HighAdd {
        state: int;
        alpha(v) = v;
        shared action Add(a: int) { apply(v, a) = v + a; }
      }
    )",
    R"(
      resource SubLeak {
        state: int;
        alpha(v) = v;
        shared action Sub(a: int) { apply(v, a) = a - v; requires low(a); }
      }
    )",
    R"(
      resource LeakySum {
        state: int;
        alpha(v) = v;
        shared action Add(a: pair<bool, int>) {
          apply(v, a) = v + snd(a);
          requires low(fst(a)) && fst(a) ==> low(snd(a));
        }
      }
    )",
};

struct SpecUnderTest {
  const Program *Prog;
  const ResourceSpecDecl *Spec;
  std::string Name;
};

std::vector<SpecUnderTest> allSpecs() {
  std::vector<SpecUnderTest> Out;
  for (const SpecTemplate *T : SpecTemplate::all())
    Out.push_back({&T->program(), &T->spec(), T->name()});
  static std::vector<std::unique_ptr<Program>> Keep;
  if (Keep.empty())
    for (const char *Src : InvalidSources)
      Keep.push_back(std::make_unique<Program>(parseChecked(Src)));
  for (const auto &P : Keep)
    Out.push_back({P.get(), &P->Specs.front(), P->Specs.front().Name});
  return Out;
}

ValidityResult runCheck(const SpecUnderTest &S, const ValidityConfig &Cfg) {
  RSpecRuntime Runtime(*S.Spec, S.Prog);
  ValidityChecker Checker(Runtime, Cfg);
  return Checker.check();
}

} // namespace

/// Obligation-level soundness: whenever the concrete tiers find a
/// counterexample, the abstract tier must not have proved the failing
/// obligation.
TEST(AbsintAgreementTest, AbstractProofNeverContradictsConcreteRefutation) {
  for (const SpecUnderTest &S : allSpecs()) {
    SCOPED_TRACE(S.Name);
    ValidityConfig Off;
    Off.RunAbsintTier = false;
    Off.Jobs = 1;
    ValidityResult Ref = runCheck(S, Off);

    absint::SpecAbsResult Abs = absint::analyzeSpec(*S.Spec, S.Prog);
    if (Abs.Applicable && Abs.AllProved) {
      EXPECT_TRUE(Ref.Valid)
          << S.Name << ": abstract tier proved a spec the bounded tier "
          << "refutes: " << (Ref.CE ? Ref.CE->describe() : "");
    }
    if (!Ref.Valid && Abs.Applicable) {
      const ValidityCounterexample &CE = *Ref.CE;
      if (CE.Prop == ValidityCounterexample::Property::Precondition) {
        if (const absint::ActionAbs *AA = Abs.action(CE.ActionA)) {
          EXPECT_NE(AA->Pre, absint::ObStatus::Proved)
              << S.Name << ": A' proved for '" << CE.ActionA
              << "' despite concrete CE: " << CE.describe();
        }
      } else if (CE.Prop == ValidityCounterexample::Property::Commutativity) {
        if (const absint::PairAbs *PA = Abs.pair(CE.ActionA, CE.ActionB)) {
          EXPECT_NE(PA->Comm, absint::ObStatus::Proved)
              << S.Name << ": B1 proved for (" << CE.ActionA << ", "
              << CE.ActionB << ") despite concrete CE: " << CE.describe();
        }
      }
    }
  }
}

/// Verdict-level agreement: the abstract tier only ever *removes* work from
/// the concrete tiers (skipping obligations it proved), so the verdict and
/// any counterexample must be identical with the tier on or off — at every
/// job count.
TEST(AbsintAgreementTest, TierOnOffVerdictsAgreeAcrossJobCounts) {
  for (const SpecUnderTest &S : allSpecs()) {
    SCOPED_TRACE(S.Name);
    ValidityConfig Off;
    Off.RunAbsintTier = false;
    Off.Jobs = 1;
    ValidityResult Ref = runCheck(S, Off);

    for (unsigned Jobs : {1u, 3u}) {
      ValidityConfig On;
      On.Jobs = Jobs;
      ValidityResult R = runCheck(S, On);
      EXPECT_EQ(R.Valid, Ref.Valid) << S.Name << " Jobs=" << Jobs;
      ASSERT_EQ(R.CE.has_value(), Ref.CE.has_value())
          << S.Name << " Jobs=" << Jobs;
      if (R.CE) {
        EXPECT_EQ(R.CE->describe(), Ref.CE->describe())
            << S.Name << " Jobs=" << Jobs;
      }
    }
  }
}

/// Determinism of the combined pipeline: the full result (verdict, CE,
/// check counts, absint counters) is byte-identical across job counts with
/// the tier on.
TEST(AbsintAgreementTest, AbsintResultsAreIdenticalAcrossJobCounts) {
  for (const SpecUnderTest &S : allSpecs()) {
    SCOPED_TRACE(S.Name);
    ValidityConfig Cfg1;
    Cfg1.Jobs = 1;
    ValidityResult R1 = runCheck(S, Cfg1);
    ValidityConfig Cfg3;
    Cfg3.Jobs = 3;
    ValidityResult R3 = runCheck(S, Cfg3);
    EXPECT_EQ(R1.Valid, R3.Valid) << S.Name;
    EXPECT_EQ(R1.Unbounded, R3.Unbounded) << S.Name;
    EXPECT_EQ(R1.BoundedChecks, R3.BoundedChecks) << S.Name;
    EXPECT_EQ(R1.RandomChecks, R3.RandomChecks) << S.Name;
    EXPECT_EQ(R1.AbsintObligations, R3.AbsintObligations) << S.Name;
    EXPECT_EQ(R1.AbsintProved, R3.AbsintProved) << S.Name;
    EXPECT_EQ(R1.AbsintSteps, R3.AbsintSteps) << S.Name;
    EXPECT_EQ(R1.AbsintSplits, R3.AbsintSplits) << S.Name;
    ASSERT_EQ(R1.CE.has_value(), R3.CE.has_value()) << S.Name;
    if (R1.CE) {
      EXPECT_EQ(R1.CE->describe(), R3.CE->describe()) << S.Name;
    }
  }
}

/// The flagship unbounded proofs the issue asks for: specs that were only
/// sampleable before now conclude Valid for the whole domain.
TEST(AbsintAgreementTest, PreviouslySampleOnlySpecsConcludeUnbounded) {
  const SpecTemplate *Flagships[] = {
      &SpecTemplate::counterAdd(),          // unbounded int domain
      &SpecTemplate::mapKeySet(),           // unbounded key/value maps
      &SpecTemplate::listAppendSumCount(),  // debt_sum / mean_salary family
      &SpecTemplate::mapAddValue(),         // count_* family
      &SpecTemplate::listAppendMultiset(),  // email-metadata multiset
  };
  for (const SpecTemplate *T : Flagships) {
    SCOPED_TRACE(T->name());
    SpecUnderTest S{&T->program(), &T->spec(), T->name()};
    ValidityResult R = runCheck(S, {});
    EXPECT_TRUE(R.Valid) << (R.CE ? R.CE->describe() : "");
    EXPECT_TRUE(R.Unbounded) << T->name()
                             << ": proved " << R.AbsintProved << "/"
                             << R.AbsintObligations << " obligations";
    EXPECT_EQ(R.BoundedChecks, 0u) << T->name();
    EXPECT_EQ(R.RandomChecks, 0u) << T->name();
  }
}
