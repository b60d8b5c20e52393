//===-- verifier/CertEmit.cpp - Certificate emission -----------------------===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//

#include "verifier/CertEmit.h"

#include "absint/Differencing.h"
#include "absint/TermIO.h"
#include "cert/Check.h"
#include "cert/Evidence.h"

#include <unordered_map>

using namespace commcsl;

namespace {

/// Memoized arena-term -> pool-id translation. Interning on both sides makes
/// the mapping injective on structure, so shared subterms stay shared.
class PoolBuilder {
public:
  explicit PoolBuilder(cert::TermPool &Pool) : Pool(Pool) {}

  uint32_t idOf(TermRef T) {
    auto It = Memo.find(T);
    if (It != Memo.end())
      return It->second;
    uint32_t Id = 0;
    switch (T->K) {
    case Term::Kind::Const:
      Id = Pool.constant(T->ConstVal);
      break;
    case Term::Kind::Sym:
      Id = Pool.sym(T->SymId, T->SymName);
      break;
    case Term::Kind::Unary:
      Id = Pool.unary(T->UOp, idOf(T->Args[0]));
      break;
    case Term::Kind::Binary:
      Id = Pool.binary(T->BOp, idOf(T->Args[0]), idOf(T->Args[1]));
      break;
    case Term::Kind::Builtin: {
      std::vector<uint32_t> Args;
      Args.reserve(T->Args.size());
      for (TermRef A : T->Args)
        Args.push_back(idOf(A));
      Id = Pool.builtin(T->BK, std::move(Args));
      break;
    }
    }
    Memo.emplace(T, Id);
    return Id;
  }

private:
  cert::TermPool &Pool;
  std::unordered_map<TermRef, uint32_t> Memo;
};

/// Flattens a split tree pre-order: guard text for interior nodes, "" for
/// leaves (including a missing subtree — replay treats both identically).
void flattenTree(const absint::SplitNode *N, std::vector<std::string> &Out) {
  if (!N || !N->Guard) {
    Out.emplace_back();
    return;
  }
  Out.push_back(absint::printTerm(N->Guard));
  flattenTree(N->Then.get(), Out);
  flattenTree(N->Else.get(), Out);
}

} // namespace

cert::CertProcUnit commcsl::buildProcCertUnit(const ProofLog &Log,
                                              const std::string &Name,
                                              bool Ok) {
  cert::CertProcUnit U;
  U.Name = Name;
  U.Ok = Ok;
  PoolBuilder B(U.Pool);

  U.Facts.reserve(Log.Facts.size());
  for (const ProofFact &F : Log.Facts) {
    cert::CertFact CF;
    CF.K = F.K == ProofFact::Kind::Eq ? cert::CertFact::Kind::Eq
                                      : cert::CertFact::Kind::True;
    CF.A = B.idOf(F.A);
    CF.B = F.B ? B.idOf(F.B) : 0;
    U.Facts.push_back(CF);
  }

  bool AllObOk = true;
  U.Obligations.reserve(Log.Obligations.size());
  for (const ProofObligation &Ob : Log.Obligations) {
    cert::CertObligation CO;
    CO.Label = Ob.Label;
    CO.Ok = Ob.Ok;
    AllObOk &= Ob.Ok;
    CO.Queries.reserve(Ob.Queries.size());
    for (const ProofQuery &Q : Ob.Queries) {
      cert::CertQuery CQ;
      CQ.IsEq = Q.IsEq;
      CQ.A = B.idOf(Q.A);
      CQ.B = Q.B ? B.idOf(Q.B) : 0;
      CQ.Proved = Q.Proved;
      CQ.Ctx = Q.Ctx;
      CO.Queries.push_back(std::move(CQ));
    }
    U.Obligations.push_back(std::move(CO));
  }

  // A rejection no failed query explains is structural (missing guard
  // fraction, heap misuse, racing par branches, ...).
  U.StructuralFail = !Ok && AllObOk;
  return U;
}

cert::CertSpecUnit commcsl::buildSpecCertUnit(const ResourceSpecDecl &Spec,
                                              const Program &Prog,
                                              const ValidityConfig &Cfg,
                                              const ValidityResult &R,
                                              bool Forge) {
  cert::CertSpecUnit U;
  U.Name = Spec.Name;
  U.Valid = R.Valid || Forge;

  // One proof object per unit. An unbounded proof records the update
  // templates and every obligation's split tree verbatim, for search-free
  // replay.
  if (R.Unbounded && R.Absint) {
    cert::CertAbsSection AS;
    AS.Unbounded = true;
    AS.NumComps = static_cast<uint32_t>(R.Absint->Comps.size());
    for (const absint::ActionAbs &A : R.Absint->Actions) {
      if (!A.U)
        continue;
      AS.Templates.emplace_back(A.Name, absint::printTerm(A.U));
      if (A.Pre == absint::ObStatus::Proved) {
        cert::CertAbsOb Ob;
        Ob.IsPre = true;
        Ob.ActionA = A.Name;
        flattenTree(A.PreTree.get(), Ob.Tree);
        AS.Obligations.push_back(std::move(Ob));
      }
    }
    for (const absint::PairAbs &P : R.Absint->Pairs) {
      if (P.Comm != absint::ObStatus::Proved)
        continue;
      cert::CertAbsOb Ob;
      Ob.IsPre = false;
      Ob.ActionA = P.First;
      Ob.ActionB = P.Second;
      flattenTree(P.Tree.get(), Ob.Tree);
      AS.Obligations.push_back(std::move(Ob));
    }
    U.Absint = std::move(AS);
    return U;
  }

  if (U.Valid) {
    cert::CertBounded B;
    B.ScopeLo = Spec.ScopeIntLo;
    B.ScopeHi = Spec.ScopeIntHi;
    B.ScopeBound = Spec.ScopeCollectionBound;
    B.StatesCap = Cfg.MaxStates;
    B.ArgsCap = Cfg.MaxArgs;
    cert::SpecEvidence Ev = cert::computeSpecEvidence(
        Spec, &Prog, B.StatesCap, B.ArgsCap, cert::SampleDraws);
    B.NumStates = Ev.NumStates;
    B.NumAlphaPairs = Ev.NumAlphaPairs;
    B.ArgCounts = Ev.ArgCounts;
    B.SampleCount = Ev.SampleCount;
    B.SampleDigest = Ev.SampleDigest;
    U.Bounded = std::move(B);
    return U;
  }

  if (R.CE) {
    cert::CertCE CE;
    switch (R.CE->Prop) {
    case ValidityCounterexample::Property::Precondition:
      CE.P = cert::CertCE::Prop::Precondition;
      break;
    case ValidityCounterexample::Property::Commutativity:
      CE.P = cert::CertCE::Prop::Commutativity;
      break;
    case ValidityCounterexample::Property::History:
      CE.P = cert::CertCE::Prop::History;
      break;
    case ValidityCounterexample::Property::Invariant:
      CE.P = cert::CertCE::Prop::Invariant;
      break;
    }
    CE.ActionA = R.CE->ActionA;
    CE.ActionB = R.CE->ActionB;
    CE.V1 = R.CE->V1;
    CE.V2 = R.CE->V2;
    CE.Arg1 = R.CE->Arg1;
    CE.Arg2 = R.CE->Arg2;
    CE.AlphaLeft = R.CE->AlphaLeft;
    CE.AlphaRight = R.CE->AlphaRight;
    U.CE = std::move(CE);
  }
  return U;
}
