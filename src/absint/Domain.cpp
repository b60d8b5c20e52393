//===-- absint/Domain.cpp - Difference-domain product ----------------------===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//

#include "absint/Domain.h"
#include "absint/Normalize.h"

#include <algorithm>

using namespace commcsl;
using namespace commcsl::absint;

//===----------------------------------------------------------------------===//
// Interval
//===----------------------------------------------------------------------===//

namespace {

/// Saturating add for interval endpoints (mathematical integers, so the
/// abstraction saturates rather than wraps; a saturated bound is only ever
/// *widened*, never tightened, which keeps it sound).
int64_t satAdd(int64_t A, int64_t B) {
  if (B > 0 && A > INT64_MAX - B)
    return INT64_MAX;
  if (B < 0 && A < INT64_MIN - B)
    return INT64_MIN;
  return A + B;
}

bool mulOverflows(int64_t A, int64_t B, int64_t &Out) {
  return __builtin_mul_overflow(A, B, &Out);
}

} // namespace

bool Interval::meet(const Interval &O) {
  if (!O.LoInf && (LoInf || O.Lo > Lo)) {
    LoInf = false;
    Lo = O.Lo;
  }
  if (!O.HiInf && (HiInf || O.Hi < Hi)) {
    HiInf = false;
    Hi = O.Hi;
  }
  return LoInf || HiInf || Lo <= Hi;
}

void Interval::join(const Interval &O) {
  if (O.LoInf || (!LoInf && O.Lo < Lo)) {
    LoInf = O.LoInf;
    Lo = O.Lo;
  }
  if (O.HiInf || (!HiInf && O.Hi > Hi)) {
    HiInf = O.HiInf;
    Hi = O.Hi;
  }
}

void Interval::widen(const Interval &Prev) {
  if (!Prev.LoInf && (LoInf || Lo < Prev.Lo))
    LoInf = true;
  if (!Prev.HiInf && (HiInf || Hi > Prev.Hi))
    HiInf = true;
}

Interval Interval::add(const Interval &A, const Interval &B) {
  Interval R;
  R.LoInf = A.LoInf || B.LoInf;
  R.HiInf = A.HiInf || B.HiInf;
  if (!R.LoInf)
    R.Lo = satAdd(A.Lo, B.Lo);
  if (!R.HiInf)
    R.Hi = satAdd(A.Hi, B.Hi);
  return R;
}

Interval Interval::negate(const Interval &A) {
  Interval R;
  R.LoInf = A.HiInf;
  R.HiInf = A.LoInf;
  if (!R.LoInf)
    R.Lo = A.Hi == INT64_MIN ? INT64_MAX : -A.Hi;
  if (!R.HiInf)
    R.Hi = A.Lo == INT64_MIN ? INT64_MAX : -A.Lo;
  return R;
}

Interval Interval::mulConst(const Interval &A, int64_t C) {
  if (C == 0)
    return point(0);
  Interval Base = C < 0 ? negate(A) : A;
  int64_t M = C < 0 ? (C == INT64_MIN ? INT64_MAX : -C) : C;
  Interval R;
  R.LoInf = Base.LoInf;
  R.HiInf = Base.HiInf;
  int64_t P;
  if (!R.LoInf) {
    if (mulOverflows(Base.Lo, M, P))
      R.LoInf = true;
    else
      R.Lo = P;
  }
  if (!R.HiInf) {
    if (mulOverflows(Base.Hi, M, P))
      R.HiInf = true;
    else
      R.Hi = P;
  }
  return R;
}

//===----------------------------------------------------------------------===//
// Linear forms
//===----------------------------------------------------------------------===//

void LinForm::add(const LinForm &O, int64_t Scale) {
  Const += static_cast<int64_t>(static_cast<uint64_t>(O.Const) *
                                static_cast<uint64_t>(Scale));
  for (const auto &[Atom, C] : O.Coeffs) {
    int64_t Inc = static_cast<int64_t>(static_cast<uint64_t>(C) *
                                       static_cast<uint64_t>(Scale));
    int64_t &Slot = Coeffs[Atom];
    Slot = static_cast<int64_t>(static_cast<uint64_t>(Slot) +
                                static_cast<uint64_t>(Inc));
    if (Slot == 0)
      Coeffs.erase(Atom);
  }
}

LinForm commcsl::absint::linearize(const ATerm *T) {
  LinForm L;
  switch (T->K) {
  case AOp::IntConst:
    L.Const = T->IntVal;
    return L;
  case AOp::Add:
    for (const ATerm *Kid : T->Kids)
      L.add(linearize(Kid), 1);
    return L;
  case AOp::Mul:
    // Canonical Mul keeps a constant factor first when present.
    if (T->Kids.size() >= 2 && T->Kids[0]->K == AOp::IntConst) {
      const ATerm *Rest;
      if (T->Kids.size() == 2) {
        Rest = T->Kids[1];
      } else {
        L.Coeffs[T] = 1; // non-linear beyond const * atom
        return L;
      }
      LinForm Inner = linearize(Rest);
      L.add(Inner, T->Kids[0]->IntVal);
      return L;
    }
    L.Coeffs[T] = 1;
    return L;
  default:
    L.Coeffs[T] = 1;
    return L;
  }
}

//===----------------------------------------------------------------------===//
// FactCtx
//===----------------------------------------------------------------------===//

const ATerm *FactCtx::rewriteOf(const ATerm *T) const {
  auto It = Rewrites.find(T);
  return It == Rewrites.end() ? nullptr : It->second;
}

std::optional<bool> FactCtx::boolFact(const ATerm *T) const {
  auto It = BoolFacts.find(T);
  if (It == BoolFacts.end())
    return std::nullopt;
  return It->second;
}

bool FactCtx::addEq(const ATerm *A, const ATerm *B) {
  if (A == B)
    return true;
  if (decideEq(A, B) == Tri::False) {
    Infeasible = true;
    return false;
  }
  // Orient: structurally larger side rewrites to the smaller one. Chains
  // are flattened through existing rewrites where possible.
  if (const ATerm *R = rewriteOf(A))
    A = R;
  if (const ATerm *R = rewriteOf(B))
    B = R;
  if (A == B)
    return true;
  const ATerm *From = A, *To = B;
  if (ATerm::compare(From, To) < 0)
    std::swap(From, To);
  Rewrites[From] = To;
  // Numeric content: from == to, i.e. from - to ∈ [0, 0].
  LinForm D = linearize(From);
  D.add(linearize(To), -1);
  if (!D.isConst()) {
    LinForm Neg;
    Neg.add(D, -1);
    LeZero.push_back(D);   // from - to <= 0
    LeZero.push_back(Neg); // to - from <= 0
    propagate();
  } else if (D.Const != 0) {
    Infeasible = true;
    return false;
  }
  return fireGuarded();
}

void FactCtx::addDiseq(const ATerm *A, const ATerm *B) {
  if (ATerm::compare(A, B) > 0)
    std::swap(A, B);
  Diseqs.emplace_back(A, B);
}

bool FactCtx::addBool(const ATerm *T, bool Truth) {
  // Push negations inward so the stored fact is positive.
  if (T->K == AOp::Not)
    return addBool(T->Kids[0], !Truth);
  if (T->K == AOp::BoolConst) {
    if (T->BoolVal != Truth)
      Infeasible = true;
    return !Infeasible;
  }
  if (T->K == AOp::And && Truth) {
    for (const ATerm *Kid : T->Kids)
      if (!addBool(Kid, true))
        return false;
    return true;
  }
  if (T->K == AOp::Or && !Truth) {
    for (const ATerm *Kid : T->Kids)
      if (!addBool(Kid, false))
        return false;
    return true;
  }
  auto Existing = BoolFacts.find(T);
  if (Existing != BoolFacts.end() && Existing->second != Truth) {
    Infeasible = true;
    return false;
  }
  BoolFacts[T] = Truth;
  if (T->K == AOp::Eq)
    return Truth ? addEq(T->Kids[0], T->Kids[1])
                 : (addDiseq(T->Kids[0], T->Kids[1]), fireGuarded());
  if (T->K == AOp::Lt || T->K == AOp::Le) {
    // A < B  ==  A - B <= -1;  A <= B  ==  A - B <= 0. Negations flip.
    const ATerm *A = T->Kids[0], *B = T->Kids[1];
    bool Strict = T->K == AOp::Lt;
    LinForm D;
    if (Truth) {
      D = linearize(A);
      D.add(linearize(B), -1);
      D.Const = satAdd(D.Const, Strict ? 1 : 0); // A - B + strict <= 0
    } else {
      // !(A < B) == B <= A;  !(A <= B) == B < A.
      D = linearize(B);
      D.add(linearize(A), -1);
      D.Const = satAdd(D.Const, Strict ? 0 : 1);
    }
    if (D.isConst()) {
      if (D.Const > 0) {
        Infeasible = true;
        return false;
      }
      return fireGuarded();
    }
    LeZero.push_back(std::move(D));
    propagate();
  }
  return fireGuarded();
}

bool FactCtx::addGuardedEq(const ATerm *Guard, const ATerm *A,
                           const ATerm *B) {
  Pending.push_back({Guard, A, B});
  return fireGuarded();
}

bool FactCtx::fireGuarded() {
  for (size_t I = 0; I < Pending.size() && !Infeasible;) {
    // The guard holds when the branch facts normalize it to `true`.
    Normalizer N(F, *this);
    if (N.normalize(Pending[I].Guard) != F.boolConst(true)) {
      ++I;
      continue;
    }
    GuardedEq G = Pending[I];
    Pending.erase(Pending.begin() + I);
    if (!addEq(G.A, G.B))
      return false;
    I = 0; // the new equality may decide a guard already passed over
  }
  return !Infeasible;
}

Interval FactCtx::boundOf(const ATerm *Atom) const {
  if (Atom->K == AOp::IntConst)
    return Interval::point(Atom->IntVal);
  auto It = Bounds.find(Atom);
  return It == Bounds.end() ? Interval::top() : It->second;
}

std::optional<Interval> FactCtx::diffBound(const ATerm *A,
                                           const ATerm *B) const {
  bool Flip = ATerm::compare(A, B) > 0;
  if (Flip)
    std::swap(A, B);
  auto It = Diffs.find({A, B});
  if (It == Diffs.end())
    return std::nullopt;
  return Flip ? Interval::negate(It->second) : It->second;
}

void FactCtx::propagate() {
  // Fixpoint over the <=0 constraint store. Each sweep tightens atom
  // intervals (single-atom residue) and pairwise difference intervals
  // (two-atom ±1 residue). After `WidenAfter` sweeps, any bound still in
  // motion is widened to infinity, so the loop terminates on every input.
  constexpr unsigned WidenAfter = 3;
  constexpr unsigned HardCap = 16;
  for (unsigned Sweep = 0; Sweep < HardCap; ++Sweep) {
    bool Changed = false;
    auto PrevBounds = Bounds;
    auto PrevDiffs = Diffs;
    for (const LinForm &L : LeZero) {
      // For each atom a with coefficient c: c*a <= -(const + rest-min).
      for (const auto &[Atom, C] : L.Coeffs) {
        if (C != 1 && C != -1)
          continue; // octagon fragment only
        // rest = const + Σ other terms; bound rest from below.
        Interval Rest = Interval::point(L.Const);
        bool RestKnown = true;
        for (const auto &[OA, OC] : L.Coeffs) {
          if (OA == Atom)
            continue;
          Interval AV = boundOf(OA);
          Interval Scaled = Interval::mulConst(AV, OC);
          Rest = Interval::add(Rest, Scaled);
          if (Rest.LoInf && Rest.HiInf)
            RestKnown = false;
        }
        (void)RestKnown;
        Interval Tight = Interval::top();
        if (C == 1) {
          // a <= -rest  -> upper bound from rest's lower bound.
          if (!Rest.LoInf)
            Tight = Interval::atMost(Rest.Lo == INT64_MIN ? INT64_MAX
                                                          : -Rest.Lo);
        } else {
          // -a + rest <= 0  ->  a >= rest's lower bound.
          if (!Rest.LoInf)
            Tight = Interval::atLeast(Rest.Lo);
        }
        if (Tight.LoInf && Tight.HiInf)
          continue;
        Interval &Slot =
            Bounds.emplace(Atom, Interval::top()).first->second;
        Interval Before = Slot;
        if (!Slot.meet(Tight)) {
          Infeasible = true;
          return;
        }
        if (!(Slot == Before))
          Changed = true;
      }
      // Two-atom ±1 differences feed the octagon store.
      if (L.Coeffs.size() == 2) {
        auto It = L.Coeffs.begin();
        auto [A1, C1] = *It++;
        auto [A2, C2] = *It;
        if (C1 == 1 && C2 == -1) {
          // A1 - A2 <= -Const.
          Interval &Slot =
              Diffs.emplace(std::make_pair(A1, A2), Interval::top())
                  .first->second;
          Interval Before = Slot;
          if (!Slot.meet(Interval::atMost(
                  L.Const == INT64_MIN ? INT64_MAX : -L.Const))) {
            Infeasible = true;
            return;
          }
          if (!(Slot == Before))
            Changed = true;
        } else if (C1 == -1 && C2 == 1) {
          Interval &Slot =
              Diffs.emplace(std::make_pair(A1, A2), Interval::top())
                  .first->second;
          Interval Before = Slot;
          if (!Slot.meet(Interval::atLeast(L.Const))) {
            Infeasible = true;
            return;
          }
          if (!(Slot == Before))
            Changed = true;
        }
      }
    }
    if (!Changed)
      return;
    if (Sweep + 1 >= WidenAfter) {
      // Widen: any interval that moved this sweep loses its moving bounds.
      for (auto &[Atom, Iv] : Bounds) {
        auto It = PrevBounds.find(Atom);
        if (It != PrevBounds.end() && !(Iv == It->second)) {
          Iv.widen(It->second);
          ++Widenings;
        }
      }
      for (auto &[Pair, Iv] : Diffs) {
        auto It = PrevDiffs.find(Pair);
        if (It != PrevDiffs.end() && !(Iv == It->second)) {
          Iv.widen(It->second);
          ++Widenings;
        }
      }
    }
  }
}

AbsVal FactCtx::absOfLin(const LinForm &L) const {
  AbsVal V;
  V.Iv = Interval::point(L.Const);
  V.Par = Parity::of(L.Const);
  for (const auto &[Atom, C] : L.Coeffs) {
    Interval AV = boundOf(Atom);
    V.Iv = Interval::add(V.Iv, Interval::mulConst(AV, C));
    Parity AP = Parities.count(Atom) ? Parities.at(Atom) : Parity::top();
    if (AV.isPoint())
      AP = Parity::of(AV.Lo);
    V.Par = Parity::add(V.Par, Parity::mulConst(AP, C));
  }
  return V;
}

AbsVal FactCtx::absOf(const ATerm *T) const { return absOfLin(linearize(T)); }

Tri FactCtx::decideEq(const ATerm *A, const ATerm *B) const {
  if (A == B)
    return Tri::True;
  // Recorded rewrites identify terms.
  const ATerm *RA = rewriteOf(A), *RB = rewriteOf(B);
  if ((RA ? RA : A) == (RB ? RB : B))
    return Tri::True;
  // Distinct constants.
  if (A->K == AOp::IntConst && B->K == AOp::IntConst)
    return triOf(A->IntVal == B->IntVal);
  if (A->K == AOp::BoolConst && B->K == AOp::BoolConst)
    return triOf(A->BoolVal == B->BoolVal);
  if (A->K == AOp::StrConst && B->K == AOp::StrConst)
    return triOf(A->Str == B->Str);
  // Pair congruence: equal iff both components equal.
  if (A->K == AOp::Bi && B->K == AOp::Bi &&
      A->B == BuiltinKind::PairMk && B->B == BuiltinKind::PairMk) {
    Tri L = decideEq(A->Kids[0], B->Kids[0]);
    Tri R = decideEq(A->Kids[1], B->Kids[1]);
    if (L == Tri::False || R == Tri::False)
      return Tri::False;
    if (L == Tri::True && R == Tri::True)
      return Tri::True;
    return Tri::Unknown;
  }
  // Recorded disequalities.
  {
    const ATerm *X = A, *Y = B;
    if (ATerm::compare(X, Y) > 0)
      std::swap(X, Y);
    for (const auto &[DA, DB] : Diseqs)
      if (DA == X && DB == Y)
        return Tri::False;
  }
  // Numeric difference: interval excluding zero, or odd parity.
  LinForm D = linearize(A);
  D.add(linearize(B), -1);
  if (D.isConst())
    return triOf(D.Const == 0);
  // Octagon lookup for a pure two-atom difference.
  if (D.Coeffs.size() == 2) {
    auto It = D.Coeffs.begin();
    auto [A1, C1] = *It++;
    auto [A2, C2] = *It;
    if (C1 == 1 && C2 == -1) {
      if (auto DB = diffBound(A1, A2)) {
        Interval Sum = Interval::add(*DB, Interval::point(D.Const));
        if (!Sum.contains(0))
          return Tri::False;
        if (Sum.isPoint() && Sum.Lo == 0)
          return Tri::True;
      }
    }
  }
  AbsVal V = absOfLin(D);
  if (!V.Iv.contains(0))
    return Tri::False;
  if (V.Iv.isPoint() && V.Iv.Lo == 0)
    return Tri::True;
  if (V.Par.excludesZero())
    return Tri::False;
  return Tri::Unknown;
}

Tri FactCtx::decideCmp(const ATerm *A, const ATerm *B, bool Strict) const {
  LinForm D = linearize(A);
  D.add(linearize(B), -1); // A - B
  if (D.isConst())
    return triOf(Strict ? D.Const < 0 : D.Const <= 0);
  Interval Iv;
  bool Have = false;
  if (D.Coeffs.size() == 2) {
    auto It = D.Coeffs.begin();
    auto [A1, C1] = *It++;
    auto [A2, C2] = *It;
    if (C1 == 1 && C2 == -1) {
      if (auto DB = diffBound(A1, A2)) {
        Iv = Interval::add(*DB, Interval::point(D.Const));
        Have = true;
      }
    }
  }
  if (!Have)
    Iv = absOfLin(D).Iv;
  // A - B ∈ Iv; decide Iv vs 0.
  if (!Iv.HiInf && (Strict ? Iv.Hi < 0 : Iv.Hi <= 0))
    return Tri::True;
  if (!Iv.LoInf && (Strict ? Iv.Lo >= 0 : Iv.Lo > 0))
    return Tri::False;
  return Tri::Unknown;
}
