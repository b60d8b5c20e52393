//===-- cert/Check.cpp - Independent certificate checker -------------------===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//

#include "cert/Check.h"

#include "cert/AbsCheck.h"
#include "cert/Evidence.h"

#include <functional>

using namespace commcsl;
using namespace commcsl::cert;

//===----------------------------------------------------------------------===//
// CheckSolver: the solver's decision procedure over pool ids
//===----------------------------------------------------------------------===//

uint32_t CheckSolver::find(uint32_t Id) {
  auto It = Parent.find(Id);
  if (It == Parent.end()) {
    Parent[Id] = Id;
    return Id;
  }
  if (It->second == Id)
    return Id;
  uint32_t Root = find(It->second);
  Parent[Id] = Root;
  return Root;
}

namespace {

bool isCommutativeNode(const CTerm &T) {
  if (T.K == CTerm::Kind::Binary)
    return T.BOp == BinaryOp::Add || T.BOp == BinaryOp::Mul ||
           T.BOp == BinaryOp::And || T.BOp == BinaryOp::Or ||
           T.BOp == BinaryOp::Eq;
  if (T.K == CTerm::Kind::Builtin)
    return T.BK == BuiltinKind::MsUnion || T.BK == BuiltinKind::SetUnion ||
           T.BK == BuiltinKind::SetInter || T.BK == BuiltinKind::Min ||
           T.BK == BuiltinKind::Max;
  return false;
}

bool isInjectiveCtor(const CTerm &T) {
  return T.K == CTerm::Kind::Builtin &&
         (T.BK == BuiltinKind::SeqAppend || T.BK == BuiltinKind::PairMk);
}

} // namespace

std::vector<uint64_t> CheckSolver::signatureOf(uint32_t Id) {
  const CTerm &T = Pool->at(Id);
  std::vector<uint64_t> Sig;
  Sig.reserve(T.Args.size() + 2);
  uint64_t Tag = static_cast<uint64_t>(T.K) << 32;
  switch (T.K) {
  case CTerm::Kind::Unary:
    Tag |= static_cast<uint64_t>(T.UOp);
    break;
  case CTerm::Kind::Binary:
    Tag |= static_cast<uint64_t>(T.BOp) << 8;
    break;
  case CTerm::Kind::Builtin:
    Tag |= static_cast<uint64_t>(T.BK) << 16;
    break;
  default:
    break;
  }
  Sig.push_back(Tag);
  for (uint32_t A : T.Args)
    Sig.push_back(find(A));
  if (isCommutativeNode(T) && Sig.size() == 3 && Sig[1] > Sig[2])
    std::swap(Sig[1], Sig[2]);
  return Sig;
}

void CheckSolver::registerTerm(uint32_t Id) {
  if (Registered.count(Id))
    return;
  Registered[Id] = true;
  Parent[Id] = Id;
  // Copy: interning below (intConst, merge) may grow the pool and
  // invalidate references into it.
  const CTerm T = Pool->at(Id);
  if (T.isConst())
    ClassConst[Id] = Id;
  if (isInjectiveCtor(T))
    CtorMembers[Id].push_back(Id);
  if (T.K == CTerm::Kind::Builtin &&
      (T.BK == BuiltinKind::Abs || T.BK == BuiltinKind::SeqLen ||
       T.BK == BuiltinKind::SetSize || T.BK == BuiltinKind::MsCard ||
       T.BK == BuiltinKind::MapSize || T.BK == BuiltinKind::MsCount))
    LeFacts.push_back({Pool->intConst(0), Id, 0});
  for (uint32_t A : T.Args) {
    registerTerm(A);
    Uses[find(A)].push_back(Id);
  }
  if (!T.Args.empty()) {
    std::vector<uint64_t> Sig = signatureOf(Id);
    auto It = Sigs.find(Sig);
    if (It == Sigs.end())
      Sigs.emplace(std::move(Sig), Id);
    else if (find(It->second) != find(Id))
      merge(Id, It->second);
  }
  if (T.K == CTerm::Kind::Builtin && T.BK == BuiltinKind::Ite) {
    auto CIt = ClassConst.find(find(T.Args[0]));
    if (CIt != ClassConst.end() &&
        Pool->at(CIt->second).ConstVal->isBool())
      merge(Id, Pool->at(CIt->second).ConstVal->getBool() ? T.Args[1]
                                                          : T.Args[2]);
  }
}

void CheckSolver::propagateClass(
    uint32_t Rep, std::vector<std::pair<uint32_t, uint32_t>> &Pending) {
  auto CIt = ClassConst.find(Rep);
  if (CIt != ClassConst.end() && Pool->at(CIt->second).ConstVal->isBool()) {
    bool Cond = Pool->at(CIt->second).ConstVal->getBool();
    auto UIt = Uses.find(Rep);
    if (UIt != Uses.end()) {
      for (uint32_t U : UIt->second) {
        const CTerm &TU = Pool->at(U);
        if (TU.K == CTerm::Kind::Builtin && TU.BK == BuiltinKind::Ite &&
            find(TU.Args[0]) == Rep)
          Pending.emplace_back(U, Cond ? TU.Args[1] : TU.Args[2]);
      }
    }
  }
  auto MIt = CtorMembers.find(Rep);
  if (MIt != CtorMembers.end() && MIt->second.size() > 1) {
    const std::vector<uint32_t> &Members = MIt->second;
    const CTerm &First = Pool->at(Members.front());
    for (size_t I = 1; I < Members.size(); ++I) {
      const CTerm &M = Pool->at(Members[I]);
      if (M.BK != First.BK)
        continue;
      for (size_t J = 0; J < First.Args.size(); ++J)
        if (find(First.Args[J]) != find(M.Args[J]))
          Pending.emplace_back(First.Args[J], M.Args[J]);
    }
  }
}

void CheckSolver::merge(uint32_t A, uint32_t B) {
  registerTerm(A);
  registerTerm(B);
  std::vector<std::pair<uint32_t, uint32_t>> Pending = {{A, B}};
  while (!Pending.empty()) {
    auto [X, Y] = Pending.back();
    Pending.pop_back();
    uint32_t Rx = find(X);
    uint32_t Ry = find(Y);
    if (Rx == Ry)
      continue;
    if (Uses[Rx].size() > Uses[Ry].size())
      std::swap(Rx, Ry);
    Parent[Rx] = Ry;
    auto CxIt = ClassConst.find(Rx);
    auto CyIt = ClassConst.find(Ry);
    if (CxIt != ClassConst.end()) {
      if (CyIt != ClassConst.end()) {
        if (!Value::equal(Pool->at(CxIt->second).ConstVal,
                          Pool->at(CyIt->second).ConstVal))
          Contradiction = true;
      } else {
        ClassConst[Ry] = CxIt->second;
      }
    }
    auto MxIt = CtorMembers.find(Rx);
    if (MxIt != CtorMembers.end()) {
      auto &Dst = CtorMembers[Ry];
      Dst.insert(Dst.end(), MxIt->second.begin(), MxIt->second.end());
      CtorMembers.erase(Rx);
    }
    std::vector<uint32_t> Moved = std::move(Uses[Rx]);
    Uses.erase(Rx);
    for (uint32_t U : Moved) {
      Uses[Ry].push_back(U);
      std::vector<uint64_t> Sig = signatureOf(U);
      auto It = Sigs.find(Sig);
      if (It == Sigs.end())
        Sigs.emplace(std::move(Sig), U);
      else if (find(It->second) != find(U))
        Pending.emplace_back(U, It->second);
    }
    propagateClass(Ry, Pending);
  }
}

void CheckSolver::assumeEq(uint32_t A, uint32_t B) {
  registerTerm(A);
  registerTerm(B);
  merge(A, B);
}

void CheckSolver::assumeLe(uint32_t A, uint32_t B, int64_t Bias) {
  registerTerm(A);
  registerTerm(B);
  LeFacts.push_back({A, B, Bias});
}

void CheckSolver::assumeTrue(uint32_t B) {
  // Copy: boolConst interning below may grow the pool.
  const CTerm T = Pool->at(B);
  if (T.isTrue())
    return;
  if (T.isFalse()) {
    Contradiction = true;
    return;
  }
  registerTerm(B);
  merge(B, Pool->boolConst(true));

  if (T.K == CTerm::Kind::Binary) {
    if (T.BOp == BinaryOp::And) {
      assumeTrue(T.Args[0]);
      assumeTrue(T.Args[1]);
      return;
    }
    if (T.BOp == BinaryOp::Eq) {
      assumeEq(T.Args[0], T.Args[1]);
      return;
    }
    if (T.BOp == BinaryOp::Le) {
      LeFacts.push_back({T.Args[0], T.Args[1], 0});
      return;
    }
  }
  if (T.K == CTerm::Kind::Unary && T.UOp == UnaryOp::Not) {
    uint32_t Inner = T.Args[0];
    registerTerm(Inner);
    const CTerm TI = Pool->at(Inner);
    if (TI.K == CTerm::Kind::Binary && TI.BOp == BinaryOp::Eq)
      Disequals.emplace_back(TI.Args[0], TI.Args[1]);
    if (TI.K == CTerm::Kind::Binary && TI.BOp == BinaryOp::Le) {
      // !(a <= b)  ==>  b + 1 <= a  (integers).
      LeFacts.push_back({TI.Args[1], TI.Args[0], 1});
    }
    merge(Inner, Pool->boolConst(false));
    return;
  }
}

void CheckSolver::LinForm::addScaled(const LinForm &O, int64_t K) {
  Const += K * O.Const;
  for (const auto &[Id, C] : O.Coeffs) {
    int64_t &Slot = Coeffs[Id];
    Slot += K * C;
    if (Slot == 0)
      Coeffs.erase(Id);
  }
}

CheckSolver::LinForm CheckSolver::linearize(uint32_t Id) {
  LinForm F;
  const CTerm &T = Pool->at(Id);
  if (T.isConst() && T.ConstVal->isInt()) {
    F.Const = T.ConstVal->getInt();
    return F;
  }
  if (T.K == CTerm::Kind::Binary && T.BOp == BinaryOp::Add) {
    F = linearize(T.Args[0]);
    F.addScaled(linearize(T.Args[1]), 1);
    return F;
  }
  if (T.K == CTerm::Kind::Binary && T.BOp == BinaryOp::Mul) {
    uint32_t L = T.Args[0], R = T.Args[1];
    const CTerm &TL = Pool->at(L);
    const CTerm &TR = Pool->at(R);
    if (TL.isConst() && TL.ConstVal->isInt()) {
      F = linearize(R);
      LinForm Out;
      Out.addScaled(F, TL.ConstVal->getInt());
      return Out;
    }
    if (TR.isConst() && TR.ConstVal->isInt()) {
      F = linearize(L);
      LinForm Out;
      Out.addScaled(F, TR.ConstVal->getInt());
      return Out;
    }
  }
  registerTerm(Id);
  uint32_t Rep = find(Id);
  auto It = ClassConst.find(Rep);
  if (It != ClassConst.end() && Pool->at(It->second).ConstVal->isInt()) {
    F.Const = Pool->at(It->second).ConstVal->getInt();
    return F;
  }
  F.Coeffs[Rep] = 1;
  return F;
}

bool CheckSolver::leImplied(uint32_t A, uint32_t B, int64_t Bias) {
  // Goal: 0 <= B - (A + Bias).
  LinForm Goal = linearize(B);
  Goal.addScaled(linearize(A), -1);
  Goal.Const -= Bias;
  if (Goal.isConst())
    return Goal.Const >= 0;

  std::vector<LinForm> Facts;
  Facts.reserve(LeFacts.size());
  for (const LeFact &LF : LeFacts) {
    LinForm F = linearize(LF.Y);
    F.addScaled(linearize(LF.X), -1); // F - Bias >= 0
    F.Const -= LF.Bias;
    Facts.push_back(std::move(F));
  }
  for (const LinForm &F : Facts) {
    LinForm D = Goal;
    D.addScaled(F, -1);
    if (D.isConst() && D.Const >= 0)
      return true;
  }
  for (size_t I = 0; I < Facts.size(); ++I) {
    for (size_t J = I; J < Facts.size(); ++J) {
      LinForm D = Goal;
      D.addScaled(Facts[I], -1);
      D.addScaled(Facts[J], -1);
      if (D.isConst() && D.Const >= 0)
        return true;
    }
  }
  return false;
}

uint32_t CheckSolver::findUndecidedIteCond(uint32_t Id, unsigned FuelDepth) {
  if (FuelDepth == 0)
    return NoTerm;
  // Copy: registerTerm below may intern and grow the pool.
  const CTerm T = Pool->at(Id);
  if (T.K == CTerm::Kind::Builtin && T.BK == BuiltinKind::Ite) {
    registerTerm(Id);
    auto CIt = ClassConst.find(find(T.Args[0]));
    if (CIt == ClassConst.end() || !Pool->at(CIt->second).ConstVal->isBool())
      return T.Args[0];
  }
  for (uint32_t A : T.Args)
    if (uint32_t C = findUndecidedIteCond(A, FuelDepth - 1); C != NoTerm)
      return C;
  return NoTerm;
}

bool CheckSolver::caseSplitEq(uint32_t A, uint32_t B, unsigned Depth) {
  if (Depth == 0)
    return false;
  uint32_t Cond = findUndecidedIteCond(A, 8);
  if (Cond == NoTerm)
    Cond = findUndecidedIteCond(B, 8);
  if (Cond == NoTerm)
    return false;
  CheckSolver Pos = *this;
  Pos.assumeTrue(Cond);
  if (!Pos.provesEqCore(A, B) && !Pos.caseSplitEq(A, B, Depth - 1))
    return false;
  CheckSolver Neg = *this;
  Neg.assumeTrue(Pool->mkNot(Cond));
  return Neg.provesEqCore(A, B) || Neg.caseSplitEq(A, B, Depth - 1);
}

bool CheckSolver::caseSplitTrue(uint32_t B, unsigned Depth) {
  if (Depth == 0)
    return false;
  uint32_t Cond = findUndecidedIteCond(B, 8);
  if (Cond == NoTerm)
    return false;
  CheckSolver Pos = *this;
  Pos.assumeTrue(Cond);
  if (!Pos.provesTrueCore(B) && !Pos.caseSplitTrue(B, Depth - 1))
    return false;
  CheckSolver Neg = *this;
  Neg.assumeTrue(Pool->mkNot(Cond));
  return Neg.provesTrueCore(B) || Neg.caseSplitTrue(B, Depth - 1);
}

namespace {

int acOpKey(const CTerm &T) {
  if (T.K == CTerm::Kind::Binary) {
    switch (T.BOp) {
    case BinaryOp::Add:
      return 1;
    case BinaryOp::Mul:
      return 2;
    case BinaryOp::And:
      return 3;
    case BinaryOp::Or:
      return 4;
    default:
      return -1;
    }
  }
  if (T.K == CTerm::Kind::Builtin) {
    switch (T.BK) {
    case BuiltinKind::MsUnion:
      return 5;
    case BuiltinKind::SetUnion:
      return 6;
    case BuiltinKind::MsAdd:
      return 7;
    case BuiltinKind::SetAdd:
      return 8;
    default: // SeqConcat is NOT commutative; excluded
      return -1;
    }
  }
  return -1;
}

void flattenAC(const TermPool &Pool, uint32_t Id, int Key,
               std::vector<uint32_t> &Out) {
  const CTerm &T = Pool.at(Id);
  if (acOpKey(T) == Key) {
    flattenAC(Pool, T.Args[0], Key, Out);
    flattenAC(Pool, T.Args[1], Key, Out);
    return;
  }
  Out.push_back(Id);
}

} // namespace

bool CheckSolver::acChainsEq(uint32_t A, uint32_t B, unsigned Depth) {
  if (Depth == 0)
    return false;
  int Key = acOpKey(Pool->at(A));
  if (Key < 0 || acOpKey(Pool->at(B)) != Key)
    return false;
  std::vector<uint32_t> Xs, Ys;
  flattenAC(*Pool, A, Key, Xs);
  flattenAC(*Pool, B, Key, Ys);
  if (Xs.size() != Ys.size() || Xs.size() > 6)
    return false;
  std::vector<bool> Used(Ys.size(), false);
  std::function<bool(size_t)> Match = [&](size_t I) -> bool {
    if (I == Xs.size())
      return true;
    for (size_t J = 0; J < Ys.size(); ++J) {
      if (Used[J])
        continue;
      if ((Key == 7 || Key == 8) && ((I == 0) != (J == 0)))
        continue; // bases must align
      bool Eq = false;
      registerTerm(Xs[I]);
      registerTerm(Ys[J]);
      if (Xs[I] == Ys[J] || find(Xs[I]) == find(Ys[J]))
        Eq = true;
      else
        Eq = acChainsEq(Xs[I], Ys[J], Depth - 1);
      if (!Eq)
        continue;
      Used[J] = true;
      if (Match(I + 1))
        return true;
      Used[J] = false;
    }
    return false;
  };
  return Match(0);
}

bool CheckSolver::provesEqCore(uint32_t A, uint32_t B) {
  if (Contradiction)
    return true;
  if (A == B)
    return true;
  registerTerm(A);
  registerTerm(B);
  if (find(A) == find(B))
    return true;
  if (leImplied(A, B, 0) && leImplied(B, A, 0))
    return true;
  if (acChainsEq(A, B, 4))
    return true;
  return false;
}

bool CheckSolver::provesEq(uint32_t A, uint32_t B) {
  if (provesEqCore(A, B))
    return true;
  return caseSplitEq(A, B, 4);
}

bool CheckSolver::provesTrue(uint32_t B) {
  if (provesTrueCore(B))
    return true;
  return caseSplitTrue(B, 4);
}

bool CheckSolver::provesTrueCore(uint32_t B) {
  if (Contradiction)
    return true;
  // Copy: the recursive provesEqCore/registerTerm calls below may intern
  // and grow the pool.
  const CTerm T = Pool->at(B);
  if (T.isTrue())
    return true;
  if (T.isFalse())
    return false;
  if (T.K == CTerm::Kind::Binary) {
    if (T.BOp == BinaryOp::And)
      return provesTrueCore(T.Args[0]) && provesTrueCore(T.Args[1]);
    if (T.BOp == BinaryOp::Or) {
      if (provesTrueCore(T.Args[0]) || provesTrueCore(T.Args[1]))
        return true;
      // fall through to propositional lookup
    }
    if (T.BOp == BinaryOp::Eq && provesEqCore(T.Args[0], T.Args[1]))
      return true;
    if (T.BOp == BinaryOp::Le && leImplied(T.Args[0], T.Args[1], 0))
      return true;
  }
  if (T.K == CTerm::Kind::Unary && T.UOp == UnaryOp::Not) {
    uint32_t Inner = T.Args[0];
    registerTerm(Inner);
    registerTerm(Pool->boolConst(false));
    if (find(Inner) == find(Pool->boolConst(false)))
      return true;
    const CTerm TI = Pool->at(Inner);
    if (TI.K == CTerm::Kind::Binary && TI.BOp == BinaryOp::Eq) {
      uint32_t X = TI.Args[0], Y = TI.Args[1];
      registerTerm(X);
      registerTerm(Y);
      uint32_t Rx = find(X), Ry = find(Y);
      auto Cx = ClassConst.find(Rx);
      auto Cy = ClassConst.find(Ry);
      if (Cx != ClassConst.end() && Cy != ClassConst.end() &&
          !Value::equal(Pool->at(Cx->second).ConstVal,
                        Pool->at(Cy->second).ConstVal))
        return true;
      for (const auto &[P, Q] : Disequals) {
        uint32_t Rp = find(P), Rq = find(Q);
        if ((Rp == Rx && Rq == Ry) || (Rp == Ry && Rq == Rx))
          return true;
      }
      // Strict bound separation: x + 1 <= y or y + 1 <= x.
      if (leImplied(X, Y, 1) || leImplied(Y, X, 1))
        return true;
    }
    if (TI.K == CTerm::Kind::Binary && TI.BOp == BinaryOp::Le) {
      // !(a <= b)  <=>  b + 1 <= a.
      if (leImplied(TI.Args[1], TI.Args[0], 1))
        return true;
    }
    return false;
  }
  registerTerm(B);
  registerTerm(Pool->boolConst(true));
  return find(B) == find(Pool->boolConst(true));
}

//===----------------------------------------------------------------------===//
// Document-level checking rules
//===----------------------------------------------------------------------===//

namespace {

struct Failure {
  CheckResult &R;
  bool fail(const std::string &Msg) {
    if (R.Ok) {
      R.Ok = false;
      R.Error = Msg;
    }
    return false;
  }
};

bool checkBounded(const CertBounded &B, const ResourceSpecDecl &Decl,
                  const Program &Prog, const std::string &Where, Failure &F) {
  if (B.ScopeLo != Decl.ScopeIntLo || B.ScopeHi != Decl.ScopeIntHi ||
      B.ScopeBound != Decl.ScopeCollectionBound)
    return F.fail(Where + "recorded scope differs from the declaration");
  if (B.StatesCap < MinStatesCap || B.ArgsCap < MinArgsCap)
    return F.fail(Where + "universe caps below the checker floor");

  SpecEvidence Ev = computeSpecEvidence(Decl, &Prog, B.StatesCap, B.ArgsCap,
                                        SampleDraws);
  if (Ev.NumStates != B.NumStates || Ev.NumAlphaPairs != B.NumAlphaPairs)
    return F.fail(Where + "recomputed state universe differs");
  if (Ev.ArgCounts != B.ArgCounts)
    return F.fail(Where + "recomputed argument universe differs");
  if (Ev.SampleCount != B.SampleCount || Ev.SampleDigest != B.SampleDigest)
    return F.fail(Where + "recomputed sample digest differs");
  if (!Ev.AllSamplesHold)
    return F.fail(Where + "claimed valid but a recomputed sample violates "
                          "the property");
  return true;
}

/// One proof object per unit: the absint section for a spec proved
/// unbounded, the bounded evidence for any other valid spec, the
/// counterexample for an invalid one.
bool checkSpecUnit(const CertSpecUnit &S, const ResourceSpecDecl &Decl,
                   const Program &Prog, Failure &F) {
  std::string Where = "spec '" + S.Name + "': ";
  int Objects = int(S.Bounded.has_value()) + int(S.Absint.has_value()) +
                int(S.CE.has_value());
  if (Objects == 0)
    return F.fail(Where + "carries no proof object");
  if (Objects > 1)
    return F.fail(Where + "carries more than one proof object");

  if (!S.Valid) {
    if (!S.CE)
      return F.fail(Where + "invalid unit has no counterexample");
    if (!ceViolates(Decl, &Prog, *S.CE))
      return F.fail(Where + "counterexample does not re-execute as a "
                            "violation");
    return true;
  }
  if (S.CE)
    return F.fail(Where + "valid unit carries a counterexample");
  if (S.Bounded)
    return checkBounded(*S.Bounded, Decl, Prog, Where, F);
  if (!S.Absint->Unbounded)
    return F.fail(Where + "absint section does not claim unbounded validity");
  std::string AbsError;
  if (!checkAbsintSection(*S.Absint, Decl, Prog, AbsError))
    return F.fail(Where + AbsError);
  return true;
}

bool checkProcUnit(const CertProcUnit &P, Failure &F) {
  std::string Where = "proc '" + P.Name + "': ";
  // The replay interns case-split negations into the pool; work on a copy
  // so the certificate object itself stays untouched.
  TermPool Pool = P.Pool;
  bool AllObOk = true;
  for (const CertObligation &Ob : P.Obligations) {
    bool AllProved = true;
    for (size_t QI = 0; QI < Ob.Queries.size(); ++QI) {
      const CertQuery &Q = Ob.Queries[QI];
      CheckSolver S(Pool);
      for (uint32_t FI : Q.Ctx) {
        const CertFact &Fact = P.Facts[FI];
        switch (Fact.K) {
        case CertFact::Kind::Eq:
          S.assumeEq(Fact.A, Fact.B);
          break;
        case CertFact::Kind::True:
          S.assumeTrue(Fact.A);
          break;
        case CertFact::Kind::Le:
          S.assumeLe(Fact.A, Fact.B, Fact.Bias);
          break;
        }
      }
      bool Got = Q.IsEq ? S.provesEq(Q.A, Q.B) : S.provesTrue(Q.A);
      if (Got != Q.Proved)
        return F.fail(Where + "obligation '" + Ob.Label + "' query " +
                      std::to_string(QI) + " replays as " +
                      (Got ? "proved" : "refuted") + " but was recorded " +
                      (Q.Proved ? "proved" : "refuted"));
      AllProved &= Q.Proved;
    }
    if (Ob.Ok != AllProved)
      return F.fail(Where + "obligation '" + Ob.Label +
                    "' status contradicts its queries");
    AllObOk &= Ob.Ok;
  }
  bool ExpectOk = AllObOk && !P.StructuralFail;
  if (P.Ok != ExpectOk)
    return F.fail(Where + "proc status contradicts its obligations");
  return true;
}

} // namespace

CheckResult cert::checkCertificate(const Certificate &C, const Program &Prog) {
  CheckResult R;
  Failure F{R};
  uint64_t Digest = fnv64(Prog.str());
  if (C.ProgramDigest != Digest) {
    F.fail("program digest mismatch (certificate was issued for a different "
           "program)");
    return R;
  }
  if (C.Specs.size() != Prog.Specs.size()) {
    F.fail("certificate covers " + std::to_string(C.Specs.size()) +
           " specs, program declares " + std::to_string(Prog.Specs.size()));
    return R;
  }
  for (size_t I = 0; I < C.Specs.size(); ++I) {
    if (C.Specs[I].Name != Prog.Specs[I].Name) {
      F.fail("spec unit " + std::to_string(I) + " names '" + C.Specs[I].Name +
             "', program declares '" + Prog.Specs[I].Name + "'");
      return R;
    }
    if (!checkSpecUnit(C.Specs[I], Prog.Specs[I], Prog, F))
      return R;
  }
  if (C.Procs.size() != Prog.Procs.size()) {
    F.fail("certificate covers " + std::to_string(C.Procs.size()) +
           " procs, program declares " + std::to_string(Prog.Procs.size()));
    return R;
  }
  for (size_t I = 0; I < C.Procs.size(); ++I) {
    if (C.Procs[I].Name != Prog.Procs[I].Name) {
      F.fail("proc unit " + std::to_string(I) + " names '" + C.Procs[I].Name +
             "', program declares '" + Prog.Procs[I].Name + "'");
      return R;
    }
    if (!checkProcUnit(C.Procs[I], F))
      return R;
  }
  bool AllSpecs = true, AllProcs = true;
  for (const CertSpecUnit &S : C.Specs)
    AllSpecs &= S.Valid;
  for (const CertProcUnit &P : C.Procs)
    AllProcs &= P.Ok;
  bool Expect = AllSpecs && AllProcs;
  if (C.Verified != Expect)
    F.fail(std::string("verdict '") + (C.Verified ? "verified" : "rejected") +
           "' contradicts the units");
  return R;
}
