//===-- absint/Differencing.cpp - Unbounded validity analysis --------------===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//

#include "absint/Differencing.h"

#include <algorithm>
#include <functional>

using namespace commcsl;
using namespace commcsl::absint;

const char *commcsl::absint::obStatusName(ObStatus S) {
  switch (S) {
  case ObStatus::Proved:
    return "proved";
  case ObStatus::Refuted:
    return "refuted";
  case ObStatus::Inconclusive:
    return "inconclusive";
  }
  return "?";
}

std::string commcsl::absint::slotSymName(unsigned I) {
  return "%g" + std::to_string(I);
}

const ActionAbs *SpecAbsResult::action(const std::string &Name) const {
  for (const ActionAbs &A : Actions)
    if (A.Name == Name)
      return &A;
  return nullptr;
}

const PairAbs *SpecAbsResult::pair(const std::string &A,
                                   const std::string &B) const {
  for (const PairAbs &P : Pairs)
    if ((P.First == A && P.Second == B) || (P.First == B && P.Second == A))
      return &P;
  return nullptr;
}

//===----------------------------------------------------------------------===//
// Expression translation
//===----------------------------------------------------------------------===//

namespace {

const ATerm *trExpr(TermFactory &F, const Expr &E,
                    const std::map<std::string, const ATerm *> &Env,
                    const Program *Prog, unsigned Depth) {
  if (Depth > 32)
    return nullptr;
  switch (E.Kind) {
  case ExprKind::IntLit:
    return F.intConst(E.IntVal);
  case ExprKind::BoolLit:
    return F.boolConst(E.BoolVal);
  case ExprKind::StringLit:
    return F.strConst(E.Name);
  case ExprKind::UnitLit:
    return F.unitConst();
  case ExprKind::Var: {
    auto It = Env.find(E.Name);
    return It == Env.end() ? nullptr : It->second;
  }
  case ExprKind::Unary: {
    const ATerm *A = trExpr(F, *E.Args[0], Env, Prog, Depth);
    if (!A)
      return nullptr;
    // vops::neg wraps like multiplication by -1 does.
    return E.UOp == UnaryOp::Neg ? F.mul2(F.intConst(-1), A) : F.notT(A);
  }
  case ExprKind::Binary: {
    const ATerm *A = trExpr(F, *E.Args[0], Env, Prog, Depth);
    const ATerm *B = A ? trExpr(F, *E.Args[1], Env, Prog, Depth) : nullptr;
    if (!B)
      return nullptr;
    switch (E.BOp) {
    case BinaryOp::Add:
      return F.add2(A, B);
    case BinaryOp::Sub:
      return F.add2(A, F.mul2(F.intConst(-1), B));
    case BinaryOp::Mul:
      return F.mul2(A, B);
    case BinaryOp::Div:
      return F.app(AOp::Div, {A, B});
    case BinaryOp::Mod:
      return F.app(AOp::Mod, {A, B});
    case BinaryOp::Eq:
      return F.eq(A, B);
    case BinaryOp::Ne:
      return F.notT(F.eq(A, B));
    case BinaryOp::Lt:
      return F.app(AOp::Lt, {A, B});
    case BinaryOp::Le:
      return F.app(AOp::Le, {A, B});
    case BinaryOp::Gt:
      return F.app(AOp::Lt, {B, A});
    case BinaryOp::Ge:
      return F.app(AOp::Le, {B, A});
    case BinaryOp::And:
      return F.app(AOp::And, {A, B});
    case BinaryOp::Or:
      return F.app(AOp::Or, {A, B});
    case BinaryOp::Implies:
      return F.app(AOp::Or, {F.notT(A), B});
    }
    return nullptr;
  }
  case ExprKind::Builtin: {
    std::vector<const ATerm *> Args;
    Args.reserve(E.Args.size());
    for (const ExprRef &Arg : E.Args) {
      const ATerm *T = trExpr(F, *Arg, Env, Prog, Depth);
      if (!T)
        return nullptr;
      Args.push_back(T);
    }
    if (E.Builtin == BuiltinKind::Ite && Args.size() == 3)
      return F.ite(Args[0], Args[1], Args[2]);
    return F.bi(E.Builtin, std::move(Args));
  }
  case ExprKind::Call: {
    const FuncDecl *Fn = Prog ? Prog->findFunc(E.Name) : nullptr;
    if (!Fn || !Fn->Body || Fn->Params.size() != E.Args.size())
      return nullptr;
    std::map<std::string, const ATerm *> Inner;
    for (size_t I = 0; I < E.Args.size(); ++I) {
      const ATerm *T = trExpr(F, *E.Args[I], Env, Prog, Depth);
      if (!T)
        return nullptr;
      Inner[Fn->Params[I].Name] = T;
    }
    return trExpr(F, *Fn->Body, Inner, Prog, Depth + 1);
  }
  }
  return nullptr;
}

} // namespace

const ATerm *commcsl::absint::translateExpr(
    TermFactory &F, const Expr &E,
    const std::map<std::string, const ATerm *> &Env, const Program *Prog) {
  return trExpr(F, E, Env, Prog, 0);
}

std::vector<const ATerm *> commcsl::absint::pairComps(const ATerm *T) {
  std::vector<const ATerm *> Out;
  std::function<void(const ATerm *)> Go = [&](const ATerm *N) {
    if (N->K == AOp::Bi && N->B == BuiltinKind::PairMk) {
      Go(N->Kids[0]);
      Go(N->Kids[1]);
      return;
    }
    Out.push_back(N);
  };
  Go(T);
  return Out;
}

const ATerm *
commcsl::absint::substTerm(TermFactory &F, const ATerm *T,
                           const std::map<const ATerm *, const ATerm *> &Map) {
  auto It = Map.find(T);
  if (It != Map.end())
    return It->second;
  if (T->Kids.empty())
    return T;
  std::vector<const ATerm *> Kids;
  Kids.reserve(T->Kids.size());
  bool Changed = false;
  for (const ATerm *Kid : T->Kids) {
    const ATerm *NK = substTerm(F, Kid, Map);
    Changed |= NK != Kid;
    Kids.push_back(NK);
  }
  if (!Changed)
    return T;
  if (T->K == AOp::Eq) // keep the canonical child order invariant
    return F.eq(Kids[0], Kids[1]);
  return T->K == AOp::Bi ? F.bi(T->B, std::move(Kids))
                         : F.app(T->K, std::move(Kids));
}

bool commcsl::absint::mentionsSym(const ATerm *T, const std::string &Sym) {
  if (T->K == AOp::Sym)
    return T->Str == Sym;
  for (const ATerm *Kid : T->Kids)
    if (mentionsSym(Kid, Sym))
      return true;
  return false;
}

//===----------------------------------------------------------------------===//
// Precondition facts
//===----------------------------------------------------------------------===//

PreFacts commcsl::absint::addRelationalPreFacts(FactCtx &Ctx, TermFactory &F,
                                                const Program *Prog,
                                                const ActionDecl &Act,
                                                const ATerm *X,
                                                const ATerm *X2) {
  PreFacts Out;
  const std::map<std::string, const ATerm *> Env1{{Act.ArgName, X}};
  const std::map<std::string, const ATerm *> Env2{{Act.ArgName, X2}};
  for (const ContractAtom &At : Act.Pre) {
    switch (At.AtomKind) {
    case ContractAtom::Kind::Low: {
      const ATerm *E1 = At.E ? translateExpr(F, *At.E, Env1, Prog) : nullptr;
      const ATerm *E2 = At.E ? translateExpr(F, *At.E, Env2, Prog) : nullptr;
      if (!E1 || !E2) {
        Out.Supported = false;
        return Out;
      }
      if (!At.Cond) {
        if (!Ctx.addEq(E1, E2))
          Out.Infeasible = true;
        break;
      }
      // `c ==> low(e)`, read as the verifier and the bounded tier read it:
      // both runs agree on `c`, and on `e` wherever `c` holds.
      const ATerm *C1 = translateExpr(F, *At.Cond, Env1, Prog);
      const ATerm *C2 = translateExpr(F, *At.Cond, Env2, Prog);
      if (!C1 || !C2) {
        Out.Supported = false;
        return Out;
      }
      if (!Ctx.addEq(C1, C2) || !Ctx.addGuardedEq(C1, E1, E2))
        Out.Infeasible = true;
      break;
    }
    case ContractAtom::Kind::Bool: {
      const ATerm *E1 = At.E ? translateExpr(F, *At.E, Env1, Prog) : nullptr;
      const ATerm *E2 = At.E ? translateExpr(F, *At.E, Env2, Prog) : nullptr;
      if (!E1 || !E2) {
        Out.Supported = false;
        return Out;
      }
      if (!Ctx.addBool(E1, true) || !Ctx.addBool(E2, true))
        Out.Infeasible = true;
      break;
    }
    default:
      Out.Supported = false;
      return Out;
    }
  }
  if (Ctx.infeasible())
    Out.Infeasible = true;
  return Out;
}

PreFacts commcsl::absint::addUnaryPreFacts(FactCtx &Ctx, TermFactory &F,
                                           const Program *Prog,
                                           const ActionDecl &Act,
                                           const ATerm *X) {
  PreFacts Out;
  const std::map<std::string, const ATerm *> Env{{Act.ArgName, X}};
  for (const ContractAtom &At : Act.Pre) {
    switch (At.AtomKind) {
    case ContractAtom::Kind::Low:
      // With the same argument on both sides, low(e) — conditional or not —
      // is vacuous.
      break;
    case ContractAtom::Kind::Bool: {
      const ATerm *E = At.E ? translateExpr(F, *At.E, Env, Prog) : nullptr;
      if (!E) {
        Out.Supported = false;
        return Out;
      }
      if (!Ctx.addBool(E, true))
        Out.Infeasible = true;
      break;
    }
    default:
      Out.Supported = false;
      return Out;
    }
  }
  if (Ctx.infeasible())
    Out.Infeasible = true;
  return Out;
}

bool commcsl::absint::buildCommObligation(TermFactory &F,
                                          const ResourceSpecDecl &Spec,
                                          const Program *Prog,
                                          const ActionDecl &A,
                                          const ActionDecl &B, const ATerm *X,
                                          const ATerm *Y, const ATerm *&L,
                                          const ATerm *&R) {
  if (!Spec.Alpha || !A.Apply || !B.Apply)
    return false;
  const ATerm *S = F.sym(stateSymName());
  auto applyOf = [&](const ActionDecl &Act, const ATerm *State,
                     const ATerm *Arg) -> const ATerm * {
    const std::map<std::string, const ATerm *> Env{{Act.StateName, State},
                                                   {Act.ArgName, Arg}};
    return translateExpr(F, *Act.Apply, Env, Prog);
  };
  auto alphaOf = [&](const ATerm *State) -> const ATerm * {
    const std::map<std::string, const ATerm *> Env{{Spec.AlphaParam, State}};
    return translateExpr(F, *Spec.Alpha, Env, Prog);
  };
  const ATerm *FA = applyOf(A, S, X);
  const ATerm *FBA = FA ? applyOf(B, FA, Y) : nullptr;
  const ATerm *FB = applyOf(B, S, Y);
  const ATerm *FAB = FB ? applyOf(A, FB, X) : nullptr;
  if (!FBA || !FAB)
    return false;
  L = alphaOf(FBA);
  R = alphaOf(FAB);
  return L && R;
}

//===----------------------------------------------------------------------===//
// Split-search prover
//===----------------------------------------------------------------------===//

namespace {

std::unique_ptr<SplitNode> leafNode(bool Ok, bool Infeasible = false) {
  auto N = std::make_unique<SplitNode>();
  N->Ok = Ok;
  N->ViaInfeasible = Infeasible;
  return N;
}

struct ProveOut {
  ObStatus St = ObStatus::Inconclusive;
  std::unique_ptr<SplitNode> Tree;
};

class Prover {
public:
  Prover(TermFactory &F, const AbsOptions &O, SpecAbsResult &R)
      : F(F), O(O), Res(R) {}

  ProveOut prove(const ATerm *L, const ATerm *R, const FactCtx &Ctx,
                 unsigned Depth) {
    ProveOut Out;
    if (Ctx.infeasible()) {
      Out.St = ObStatus::Proved;
      Out.Tree = leafNode(true, true);
      return Out;
    }
    Normalizer N(F, Ctx, O.Limits);
    const ATerm *NL = N.normalize(L);
    const ATerm *NR = NL ? N.normalize(R) : nullptr;
    Res.RewriteSteps += N.steps();
    if (!NL || !NR) {
      Out.Tree = leafNode(false);
      return Out;
    }
    if (NL == NR) {
      Out.St = ObStatus::Proved;
      Out.Tree = leafNode(true);
      return Out;
    }
    bool SawRefuted = false;
    if (Depth > 0) {
      unsigned Tried = 0;
      for (const ATerm *G : N.blockedGuards()) {
        if (Tried >= MaxGuardsPerNode || Res.Splits >= O.MaxSplits)
          break;
        ++Tried;
        ++Res.Splits;
        FactCtx CT = Ctx;
        FactCtx CF = Ctx;
        bool FeasT = CT.addBool(G, true);
        bool FeasF = CF.addBool(G, false);
        ProveOut TB;
        if (!FeasT) {
          TB.St = ObStatus::Proved;
          TB.Tree = leafNode(true, true);
        } else {
          TB = prove(L, R, CT, Depth - 1);
        }
        SawRefuted |= TB.St == ObStatus::Refuted;
        if (TB.St != ObStatus::Proved)
          continue;
        ProveOut EB;
        if (!FeasF) {
          EB.St = ObStatus::Proved;
          EB.Tree = leafNode(true, true);
        } else {
          EB = prove(L, R, CF, Depth - 1);
        }
        SawRefuted |= EB.St == ObStatus::Refuted;
        if (EB.St != ObStatus::Proved)
          continue;
        auto Node = std::make_unique<SplitNode>();
        Node->Guard = G;
        Node->Then = std::move(TB.Tree);
        Node->Else = std::move(EB.Tree);
        Out.St = ObStatus::Proved;
        Out.Tree = std::move(Node);
        return Out;
      }
    }
    Out.St = (SawRefuted || (isDecided(NL) && isDecided(NR)))
                 ? ObStatus::Refuted
                 : ObStatus::Inconclusive;
    Out.Tree = leafNode(false);
    return Out;
  }

private:
  /// A fully-interpreted normal form: constants, free symbols, arithmetic,
  /// and pairs thereof. Distinct decided forms are a strong
  /// counterexample hint (some instantiation separates them) — as opposed
  /// to forms stuck on an uninterpreted operation, where the rewrite
  /// system simply ran out of rules. The hint is validated concretely by
  /// the caller either way.
  static bool isDecided(const ATerm *T) {
    switch (T->K) {
    case AOp::IntConst:
    case AOp::BoolConst:
    case AOp::StrConst:
    case AOp::UnitConst:
    case AOp::Sym:
      break;
    case AOp::Add:
    case AOp::Mul:
      break;
    case AOp::Bi:
      if (T->B != BuiltinKind::PairMk)
        return false;
      break;
    default:
      return false;
    }
    for (const ATerm *Kid : T->Kids)
      if (!isDecided(Kid))
        return false;
    return true;
  }

  static constexpr unsigned MaxGuardsPerNode = 4;

  TermFactory &F;
  const AbsOptions &O;
  SpecAbsResult &Res;
};

} // namespace

//===----------------------------------------------------------------------===//
// Replay (used by the certificate checker)
//===----------------------------------------------------------------------===//

bool commcsl::absint::replaySplitTree(TermFactory &F, const ATerm *L,
                                      const ATerm *R, const FactCtx &Ctx,
                                      const SplitNode *Tree,
                                      const NormLimits &Limits,
                                      uint64_t *StepsOut) {
  if (Ctx.infeasible())
    return true;
  if (!Tree || !Tree->Guard) {
    Normalizer N(F, Ctx, Limits);
    const ATerm *NL = N.normalize(L);
    const ATerm *NR = NL ? N.normalize(R) : nullptr;
    if (StepsOut)
      *StepsOut += N.steps();
    return NL && NR && NL == NR;
  }
  FactCtx CT = Ctx;
  FactCtx CF = Ctx;
  bool FeasT = CT.addBool(Tree->Guard, true);
  bool FeasF = CF.addBool(Tree->Guard, false);
  if (FeasT &&
      !replaySplitTree(F, L, R, CT, Tree->Then.get(), Limits, StepsOut))
    return false;
  if (FeasF &&
      !replaySplitTree(F, L, R, CF, Tree->Else.get(), Limits, StepsOut))
    return false;
  return true;
}

//===----------------------------------------------------------------------===//
// Top-level per-spec analysis
//===----------------------------------------------------------------------===//

SpecAbsResult commcsl::absint::analyzeSpec(const ResourceSpecDecl &Spec,
                                           const Program *Prog,
                                           const AbsOptions &Opts) {
  SpecAbsResult R;
  R.Factory = std::make_shared<TermFactory>();
  TermFactory &F = *R.Factory;

  const ATerm *S = F.sym(stateSymName());
  const ATerm *NAlpha = nullptr;
  {
    const std::map<std::string, const ATerm *> Env{{Spec.AlphaParam, S}};
    const ATerm *AlphaS =
        Spec.Alpha ? translateExpr(F, *Spec.Alpha, Env, Prog) : nullptr;
    if (!AlphaS)
      return R;
    FactCtx Empty(F);
    Normalizer N(F, Empty, Opts.Limits);
    NAlpha = N.normalize(AlphaS);
    R.RewriteSteps += N.steps();
    if (!NAlpha)
      return R;
  }
  R.Applicable = true;
  R.Comps = pairComps(NAlpha);

  // Components mentioning the state become slots; state-free components are
  // literal values shared by construction. Duplicate components share the
  // first slot (emplace keeps the earliest index).
  std::map<const ATerm *, const ATerm *> SlotMap;
  for (unsigned I = 0; I < R.Comps.size(); ++I)
    if (mentionsSym(R.Comps[I], stateSymName()))
      SlotMap.emplace(R.Comps[I], F.sym(slotSymName(I)));

  Prover P(F, Opts, R);
  FactCtx Empty(F);
  const ATerm *Arg = F.sym(argSymName());

  for (const ActionDecl &Act : Spec.Actions) {
    ActionAbs AA;
    AA.Name = Act.Name;

    // C1: factorize alpha(f_a(s, arg)) through the slots.
    const std::map<std::string, const ATerm *> Env{{Act.StateName, S},
                                                   {Act.ArgName, Arg}};
    const ATerm *FA =
        Act.Apply ? translateExpr(F, *Act.Apply, Env, Prog) : nullptr;
    if (FA) {
      const std::map<std::string, const ATerm *> AEnv{{Spec.AlphaParam, FA}};
      const ATerm *AFA = translateExpr(F, *Spec.Alpha, AEnv, Prog);
      if (AFA) {
        Normalizer N(F, Empty, Opts.Limits);
        if (const ATerm *NA = N.normalize(AFA)) {
          const ATerm *U = substTerm(F, NA, SlotMap);
          if (!mentionsSym(U, stateSymName()))
            AA.U = U;
        }
        R.RewriteSteps += N.steps();
      }
    }

    // A': the relational precondition preserves equal abstractions.
    ++R.Obligations;
    if (AA.U) {
      const ATerm *X = F.sym(argSymA());
      const ATerm *X2 = F.sym(argSymA2());
      FactCtx Ctx(F);
      PreFacts PF = addRelationalPreFacts(Ctx, F, Prog, Act, X, X2);
      if (PF.Supported) {
        if (PF.Infeasible || Ctx.infeasible()) {
          AA.Pre = ObStatus::Proved;
          AA.PreTree = leafNode(true, true);
        } else {
          const ATerm *L = substTerm(F, AA.U, {{Arg, X}});
          const ATerm *Rt = substTerm(F, AA.U, {{Arg, X2}});
          ProveOut PO = P.prove(L, Rt, Ctx, Opts.MaxSplitDepth);
          AA.Pre = PO.St;
          AA.PreTree = std::move(PO.Tree);
        }
        if (AA.Pre == ObStatus::Proved)
          ++R.ProvedCount;
      }
    }
    R.Actions.push_back(std::move(AA));
  }

  // B1: pairwise commutativity modulo alpha on the universal state.
  const ATerm *X = F.sym(argSymA());
  const ATerm *Y = F.sym(argSymB());
  for (size_t I = 0; I < Spec.Actions.size(); ++I) {
    for (size_t J = I; J < Spec.Actions.size(); ++J) {
      const ActionDecl &A = Spec.Actions[I];
      const ActionDecl &B = Spec.Actions[J];
      if (I == J && A.Unique)
        continue; // a unique action never races itself
      PairAbs PA;
      PA.First = A.Name;
      PA.Second = B.Name;
      ++R.Obligations;
      // Enabledness conditions change which interleavings are concretely
      // reachable; the abstract obligation would be needlessly stronger.
      // Leave such pairs to the bounded tiers.
      if (!A.Enabled && !B.Enabled) {
        const ATerm *L = nullptr, *Rt = nullptr;
        if (buildCommObligation(F, Spec, Prog, A, B, X, Y, L, Rt)) {
          FactCtx Ctx(F);
          PreFacts PFA = addUnaryPreFacts(Ctx, F, Prog, A, X);
          PreFacts PFB = addUnaryPreFacts(Ctx, F, Prog, B, Y);
          if (PFA.Supported && PFB.Supported) {
            if (PFA.Infeasible || PFB.Infeasible || Ctx.infeasible()) {
              PA.Comm = ObStatus::Proved;
              PA.Tree = leafNode(true, true);
            } else {
              ProveOut PO = P.prove(L, Rt, Ctx, Opts.MaxSplitDepth);
              PA.Comm = PO.St;
              PA.Tree = std::move(PO.Tree);
            }
            if (PA.Comm == ObStatus::Proved)
              ++R.ProvedCount;
          }
        }
      }
      R.Pairs.push_back(std::move(PA));
    }
  }

  R.AllProved = true;
  for (const ActionAbs &A : R.Actions)
    R.AllProved &= A.U && A.Pre == ObStatus::Proved;
  for (const PairAbs &PA : R.Pairs)
    R.AllProved &= PA.Comm == ObStatus::Proved;

  if (Opts.InjectUnsound && !R.Actions.empty())
    R.Actions[0].U = F.intConst(42);

  return R;
}
