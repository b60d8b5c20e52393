//===-- analysis/Taint.cpp - Flow-sensitive security-type analysis --------===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//

#include "analysis/Taint.h"

#include "analysis/Dataflow.h"
#include "lang/ExprEval.h"

#include <algorithm>
#include <functional>
#include <optional>
#include <sstream>

using namespace commcsl;

namespace {

std::string resKey(const std::string &Res) { return "!res:" + Res; }

/// If \p A is a bare `low(x)` atom over a plain variable, returns the
/// variable name; null otherwise.
const std::string *bareLowVar(const ContractAtom &A) {
  if (A.AtomKind != ContractAtom::Kind::Low || A.Cond || !A.E ||
      A.E->Kind != ExprKind::Var)
    return nullptr;
  return &A.E->Name;
}

/// If \p A is a conditional classification over a plain variable
/// (`level(x) = if g then low else high`, or `g ==> low(x)`), returns the
/// variable name; null otherwise.
const std::string *condLowVar(const ContractAtom &A) {
  if (A.AtomKind != ContractAtom::Kind::Low || !A.Cond || !A.E ||
      A.E->Kind != ExprKind::Var)
    return nullptr;
  return &A.E->Name;
}

bool exprHasCall(const ExprRef &E) {
  if (!E)
    return false;
  if (E->Kind == ExprKind::Call)
    return true;
  for (const ExprRef &A : E->Args)
    if (exprHasCall(A))
      return true;
  return false;
}

bool exprHasDivMod(const ExprRef &E);

/// Statically evaluates a level guard when it is closed (no free
/// variables, no function calls, no div/mod whose abort semantics the
/// total folder would miss). Everything else is statically unknown: the
/// analysis must then join the classified variable to High — the in-state
/// truth of the guard is only available to the relational verifier and
/// the NI harness.
std::optional<bool> closedGuardValue(const ExprRef &G) {
  if (!G)
    return std::nullopt;
  std::vector<std::string> Vars;
  G->freeVars(Vars);
  if (!Vars.empty() || exprHasCall(G) || exprHasDivMod(G))
    return std::nullopt;
  ExprEvaluator Eval(nullptr);
  return Eval.eval(*G, EvalEnv())->getBool();
}

bool exprHasDeclassify(const ExprRef &E) {
  if (!E)
    return false;
  if (E->Kind == ExprKind::Builtin && E->Builtin == BuiltinKind::Declassify)
    return true;
  for (const ExprRef &A : E->Args)
    if (exprHasDeclassify(A))
      return true;
  return false;
}

/// The two-point lattice: low < high.
constexpr unsigned High = 1;

/// Levels assumed for a procedure's parameters and demanded of its returns.
struct TaintLevels {
  /// Parameters assumed low; every other parameter is high (an
  /// uncontracted parameter is a potential secret).
  std::set<std::string> LowParams;
  /// Returns that must end low.
  std::set<std::string> LowReturns;
};

using State = std::map<std::string, unsigned>;

unsigned levelOf(const State &S, const std::string &V) {
  auto It = S.find(V);
  return It == S.end() ? 0 : It->second;
}

/// Sets \p V to \p L; a weak update joins with the existing level instead
/// (required inside `par` branches, where the write races with siblings'
/// reads of the old value across the fork fixpoint).
void setLevel(State &S, const std::string &V, unsigned L, bool Weak) {
  if (Weak)
    L = std::max(L, levelOf(S, V));
  if (L == 0)
    S.erase(V);
  else
    S[V] = L;
}

bool crossTop(const CFGNode &N, const std::string &V) {
  if (N.CrossParTop.count(V))
    return true;
  // A callee in a sibling branch may touch any resource.
  return V.rfind("!res:", 0) == 0 && N.CrossParTop.count("!res:*");
}

bool exprHasDivMod(const ExprRef &E) {
  if (!E)
    return false;
  if (E->Kind == ExprKind::Binary &&
      (E->BOp == BinaryOp::Div || E->BOp == BinaryOp::Mod))
    return true;
  for (const ExprRef &A : E->Args)
    if (exprHasDivMod(A))
      return true;
  return false;
}

/// The dataflow problem: levels for every variable plus the pseudo keys
/// `!heap` and `!res:<r>`. The per-node pc level lives outside the state
/// (recomputed by an outer fixpoint), so the transfer reads it from `PC`.
struct TaintProblem {
  using State = ::State;

  const Program &Prog;
  const TaintLevels &Levels;
  const std::map<std::string, ProcTaintSummary> *Summaries;
  const std::map<std::string, std::string> &HandleSpecs;
  std::vector<unsigned> PC; // per node id

  State bottom(const CFG &) const { return {}; }

  State boundary(const CFG &G) const {
    State S;
    for (const Param &P : G.proc().Params) {
      setLevel(S, P.Name, Levels.LowParams.count(P.Name) ? 0 : High,
               /*Weak=*/false);
      // A resource handed in carries an unknown accumulated state.
      if (P.Ty && P.Ty->kind() == TypeKind::Resource)
        setLevel(S, resKey(P.Name), High, /*Weak=*/false);
    }
    return S;
  }

  bool join(State &Dst, const State &Src) const {
    bool Changed = false;
    for (const auto &[V, L] : Src) {
      unsigned &Slot = Dst[V];
      if (L > Slot) {
        Slot = L;
        Changed = true;
      }
    }
    return Changed;
  }

  unsigned exprLevel(const ExprRef &E, const State &S,
                     const CFGNode &N) const {
    if (!E)
      return 0;
    switch (E->Kind) {
    case ExprKind::Var: {
      unsigned L = levelOf(S, E->Name);
      if (crossTop(N, E->Name))
        L = High;
      return L;
    }
    case ExprKind::Builtin:
      if (E->Builtin == BuiltinKind::Declassify)
        return 0; // released: audited separately as an explicit sink
      break;
    default:
      break;
    }
    unsigned L = 0;
    for (const ExprRef &A : E->Args)
      L = std::max(L, exprLevel(A, S, N));
    return L;
  }

  /// Level of the condition governing pc-successors of node \p Id.
  unsigned condLevel(const CFG &G, unsigned Id, const State &In) const {
    const CFGNode &N = G.node(Id);
    switch (N.Kind) {
    case CFGNodeKind::Branch:
    case CFGNodeKind::LoopHead:
      return exprLevel(N.Cmd->Exprs[0], In, N);
    case CFGNodeKind::AtomicEnter: {
      // `atomic r when A`: proceeding at all reveals the enabledness of A
      // on the shared state.
      std::string Key = resKey(N.Res);
      unsigned L = levelOf(In, Key);
      if (crossTop(N, Key))
        L = High;
      return L;
    }
    default:
      return 0;
    }
  }

  State transfer(const CFG &G, unsigned Id, const State &In) const {
    const CFGNode &N = G.node(Id);
    State Out = In;
    unsigned Pc = PC[Id];
    bool Weak = N.InPar;

    switch (N.Kind) {
    case CFGNodeKind::Entry:
    case CFGNodeKind::Exit:
    case CFGNodeKind::Branch:
    case CFGNodeKind::Join:
    case CFGNodeKind::ParFork:
    case CFGNodeKind::AtomicEnter:
    case CFGNodeKind::AtomicExit:
    case CFGNodeKind::LoopHead:
      return Out;

    case CFGNodeKind::ParJoin:
      // Values written by two or more branches are schedule-dependent.
      for (const std::string &V : N.CrossParTop)
        setLevel(Out, V, High, /*Weak=*/true);
      return Out;

    case CFGNodeKind::Stmt:
      break;
    }

    const Command &C = *N.Cmd;
    switch (C.Kind) {
    case CmdKind::Skip:
    case CmdKind::AssertGhost:
    case CmdKind::Output: // sink; checked in the reporting pass
    case CmdKind::Block:  // empty block placeholder
      break;

    case CmdKind::VarDecl: {
      unsigned L = C.Exprs.empty() ? 0 : exprLevel(C.Exprs[0], In, N);
      setLevel(Out, C.Var, std::max(L, Pc), Weak);
      break;
    }
    case CmdKind::Assign:
      setLevel(Out, C.Var, std::max(exprLevel(C.Exprs[0], In, N), Pc), Weak);
      break;

    case CmdKind::HeapRead: {
      unsigned L = levelOf(In, CFG::HeapVar);
      if (crossTop(N, CFG::HeapVar))
        L = High;
      L = std::max({L, exprLevel(C.Exprs[0], In, N), Pc});
      setLevel(Out, C.Var, L, Weak);
      break;
    }
    case CmdKind::HeapWrite:
      setLevel(Out, CFG::HeapVar,
               std::max({exprLevel(C.Exprs[0], In, N),
                         exprLevel(C.Exprs[1], In, N), Pc}),
               /*Weak=*/true);
      break;
    case CmdKind::Alloc:
      // Addresses are allocation-order dependent: the count of prior
      // allocations is a function of every branch taken so far (and of the
      // schedule under par), which the pc rule does not capture. Top.
      setLevel(Out, C.Var, High, Weak);
      setLevel(Out, CFG::HeapVar,
               std::max(exprLevel(C.Exprs[0], In, N), Pc), /*Weak=*/true);
      break;

    case CmdKind::Share:
      setLevel(Out, resKey(C.Var), std::max(exprLevel(C.Exprs[0], In, N), Pc),
               Weak);
      break;
    case CmdKind::Perform: {
      std::string Key = resKey(C.Aux);
      setLevel(Out, Key, std::max(exprLevel(C.Exprs[0], In, N), Pc),
               /*Weak=*/true);
      // Interleaving order of concurrent actions is a channel of its own:
      // the paper recovers low(alpha(state)) only for *valid* specs, and
      // the concrete state underneath is schedule-dependent regardless.
      if (N.InPar)
        setLevel(Out, Key, High, /*Weak=*/true);
      // The action's return value is computed from the hidden pre-state;
      // only alpha(state) is governed by the contract, so it is top (this
      // matches the verifier's fresh-high-symbol rule).
      if (!C.Var.empty())
        setLevel(Out, C.Var, High, Weak);
      break;
    }
    case CmdKind::ResVal:
      setLevel(Out, C.Var, High, Weak);
      break;
    case CmdKind::Unshare: {
      std::string Key = resKey(C.Aux);
      unsigned L = levelOf(In, Key);
      if (crossTop(N, Key))
        L = High;
      setLevel(Out, C.Var, std::max(L, Pc), Weak);
      break;
    }

    case CmdKind::CallProc: {
      const ProcDecl *Callee = Prog.findProc(C.Aux);
      const ProcTaintSummary *S = nullptr;
      if (Summaries) {
        auto It = Summaries->find(C.Aux);
        if (It != Summaries->end())
          S = &It->second;
      }
      bool AssumeOk = S && Callee;
      if (AssumeOk)
        for (size_t I = 0; I < Callee->Params.size() && I < C.Exprs.size();
             ++I)
          if (S->LowParams.count(Callee->Params[I].Name) &&
              exprLevel(C.Exprs[I], In, N) > 0) {
            AssumeOk = false;
            break;
          }
      // Ret target I receives callee return variable I's summarised exit
      // level (top when the summary's low-param assumptions are not met).
      for (size_t I = 0; I < C.Rets.size(); ++I) {
        unsigned L = High;
        if (AssumeOk && I < Callee->Returns.size()) {
          auto It = S->ReturnLevels.find(Callee->Returns[I].Name);
          L = It == S->ReturnLevels.end() ? High : It->second;
        }
        setLevel(Out, C.Rets[I], std::max(L, Pc), Weak);
      }
      if (!S || S->WritesHeap)
        setLevel(Out, CFG::HeapVar, High, /*Weak=*/true);
      if (!S || S->TouchesResources)
        for (const auto &[Handle, Spec] : HandleSpecs) {
          (void)Spec;
          setLevel(Out, resKey(Handle), High, /*Weak=*/true);
        }
      break;
    }

    case CmdKind::If:
    case CmdKind::While:
    case CmdKind::Par:
    case CmdKind::Atomic:
      break; // represented by dedicated node kinds
    }
    return Out;
  }
};

/// Maps every resource handle that appears in the procedure to its spec
/// name: `share` sites bind handle -> spec, resource-typed parameters carry
/// it in their type.
std::map<std::string, std::string> handleSpecs(const ProcDecl &Proc) {
  std::map<std::string, std::string> M;
  for (const Param &P : Proc.Params)
    if (P.Ty && P.Ty->kind() == TypeKind::Resource)
      M[P.Name] = P.Ty->resourceSpec();
  std::function<void(const Command &)> Walk = [&](const Command &C) {
    if (C.Kind == CmdKind::Share)
      M[C.Var] = C.Aux;
    for (const CommandRef &Child : C.Children)
      if (Child)
        Walk(*Child);
  };
  if (Proc.Body)
    Walk(*Proc.Body);
  return M;
}

std::string levelStr(unsigned L) { return L == 0 ? "low" : "high"; }

/// Derives the levels from a procedure's contracts (see analyzeProcTaint).
TaintLevels taintLevelsFromContracts(const ProcDecl &Proc) {
  TaintLevels L;
  std::set<std::string> LowReq, LowEns;
  for (const ContractAtom &A : Proc.Requires) {
    if (const std::string *V = bareLowVar(A))
      LowReq.insert(*V);
    // A conditional classification whose guard folds to true statically is
    // a bare low; any other guard is statically unknown, so the parameter
    // stays high (the relational verifier and the NI harness evaluate the
    // guard in-state instead).
    else if (const std::string *CV = condLowVar(A))
      if (closedGuardValue(A.Cond) == std::optional<bool>(true))
        LowReq.insert(*CV);
  }
  for (const ContractAtom &A : Proc.Ensures) {
    if (const std::string *V = bareLowVar(A))
      LowEns.insert(*V);
    else if (const std::string *CV = condLowVar(A))
      if (closedGuardValue(A.Cond) == std::optional<bool>(true))
        LowEns.insert(*CV);
  }
  for (const Param &P : Proc.Params)
    if (LowReq.count(P.Name))
      L.LowParams.insert(P.Name);
  for (const Param &R : Proc.Returns)
    if (LowEns.count(R.Name))
      L.LowReturns.insert(R.Name);
  return L;
}

} // namespace

ProcTaintResult commcsl::analyzeProcTaint(
    const Program &Prog, const ProcDecl &Proc,
    const std::map<std::string, ProcTaintSummary> *Summaries) {
  ProcTaintResult R;
  R.Proc = Proc.Name;

  CFG G = CFG::build(Proc);
  std::map<std::string, std::string> Handles = handleSpecs(Proc);
  const TaintLevels Levels = taintLevelsFromContracts(Proc);

  TaintProblem P{Prog, Levels, Summaries, Handles,
                 std::vector<unsigned>(G.size(), 0)};

  // Outer pc fixpoint: solve with the current pc assignment, recompute
  // every node's pc from the governing conditions' levels, repeat until
  // stable. Levels only grow, so this terminates within 2 * |nodes|
  // rounds.
  DataflowResult<TaintProblem> DF;
  for (unsigned Round = 0; Round <= 2 * G.size() + 1; ++Round) {
    DF = solveDataflow(G, P);
    std::vector<unsigned> Cond(G.size(), 0);
    for (unsigned I = 0; I < G.size(); ++I)
      Cond[I] = P.condLevel(G, I, DF.In[I]);
    bool Changed = false;
    for (unsigned I = 0; I < G.size(); ++I) {
      unsigned Pc = 0;
      for (unsigned D : G.node(I).PCDeps)
        Pc = std::max(Pc, Cond[D]);
      if (Pc != P.PC[I]) {
        P.PC[I] = std::max(P.PC[I], Pc);
        Changed = true;
      }
    }
    if (!Changed)
      break;
  }

  // Reporting pass over the fixpoint states.
  std::vector<TaintFinding> Findings;
  auto Report = [&](SourceLoc Loc, std::string Msg) {
    Findings.push_back({Loc, std::move(Msg)});
  };

  for (unsigned Id = 0; Id < G.size(); ++Id) {
    const CFGNode &N = G.node(Id);
    const State &In = DF.In[Id];
    unsigned Pc = P.PC[Id];

    if (N.Kind != CFGNodeKind::Stmt)
      continue;
    const Command &C = *N.Cmd;

    switch (C.Kind) {
    case CmdKind::Output: {
      unsigned L = P.exprLevel(C.Exprs[0], In, N);
      if (N.InPar)
        Report(C.Loc, "output inside par: emission order is "
                      "schedule-dependent");
      if (L > 0)
        Report(C.Loc, "public output depends on " + levelStr(L) + " data");
      else if (Pc > 0)
        Report(C.Loc,
               "public output under " + levelStr(Pc) + " control flow");
      break;
    }
    case CmdKind::Perform: {
      // Performing an action whose declared relational precondition
      // demands a low argument is a sink: check against the spec.
      auto HIt = Handles.find(C.Aux);
      const ResourceSpecDecl *Spec =
          HIt == Handles.end() ? nullptr : Prog.findSpec(HIt->second);
      const ActionDecl *Act =
          Spec && !C.Rets.empty() ? Spec->findAction(C.Rets[0]) : nullptr;
      if (Act) {
        bool NeedsLow = false;
        for (const ContractAtom &A : Act->Pre)
          if (A.AtomKind == ContractAtom::Kind::Low && !A.Cond)
            NeedsLow = true;
        if (NeedsLow) {
          unsigned L = std::max(P.exprLevel(C.Exprs[0], In, N), Pc);
          if (L > 0)
            Report(C.Loc, "action '" + Act->Name +
                              "' requires a low argument but receives " +
                              levelStr(L) + " data");
        }
      }
      break;
    }
    case CmdKind::CallProc: {
      const ProcDecl *Callee = Prog.findProc(C.Aux);
      const ProcTaintSummary *S = nullptr;
      if (Summaries) {
        auto It = Summaries->find(C.Aux);
        if (It != Summaries->end())
          S = &It->second;
      }
      if (!S || !Callee) {
        Report(C.Loc, "call to procedure '" + C.Aux +
                          "' with no prior static summary");
        break;
      }
      if (!S->Secure)
        Report(C.Loc, "call to procedure '" + C.Aux +
                          "' that is not statically secure");
      if (Pc > 0)
        Report(C.Loc,
               "procedure call under " + levelStr(Pc) + " control flow");
      for (size_t I = 0; I < Callee->Params.size() && I < C.Exprs.size();
           ++I)
        if (S->LowParams.count(Callee->Params[I].Name)) {
          unsigned L = P.exprLevel(C.Exprs[I], In, N);
          if (L > 0)
            Report(C.Loc, "argument for low parameter '" +
                              Callee->Params[I].Name + "' of '" + C.Aux +
                              "' has " + levelStr(L) + " data");
        }
      break;
    }
    default:
      break;
    }
  }

  // Exit obligations: bare-low ensures atoms must hold; anything beyond
  // the bare fragment is out of static reach.
  const State &ExitIn = DF.In[G.exit()];
  for (const Param &Ret : Proc.Returns)
    R.ReturnLevels[Ret.Name] = levelOf(ExitIn, Ret.Name);
  for (const std::string &V : Levels.LowReturns)
    if (levelOf(ExitIn, V) > 0)
      Report(Proc.Loc, "return '" + V + "' must be low but has " +
                           levelStr(levelOf(ExitIn, V)) + " data at exit");
  for (const ContractAtom &A : Proc.Ensures) {
    if (bareLowVar(A))
      continue;
    if (const std::string *V = condLowVar(A)) {
      std::optional<bool> G = closedGuardValue(A.Cond);
      if (G == std::optional<bool>(true))
        continue; // enforced via Levels.LowReturns above
      if (G == std::optional<bool>(false))
        continue; // vacuous: classifies nothing
      Report(A.Loc.isValid() ? A.Loc : Proc.Loc,
             "level guard for '" + *V +
                 "' is not statically decidable; treating it as high "
                 "(the relational verifier evaluates it in-state)");
      continue;
    }
    Report(A.Loc.isValid() ? A.Loc : Proc.Loc,
           "ensures atom beyond the static fragment: " + A.str());
  }

  // Every declassify site is an explicit, audited release: surface it so
  // the analysis never reports a releasing body as plainly non-interferent.
  {
    std::function<void(const Command &)> WalkRelease = [&](const Command &C) {
      for (const ExprRef &E : C.Exprs)
        if (exprHasDeclassify(E))
          Report(C.Loc, "declassify release: secure only under delimited "
                        "release, not plain non-interference");
      for (const CommandRef &Child : C.Children)
        if (Child)
          WalkRelease(*Child);
    };
    if (Proc.Body)
      WalkRelease(*Proc.Body);
  }

  std::stable_sort(Findings.begin(), Findings.end(),
                   [](const TaintFinding &A, const TaintFinding &B) {
                     if (A.Loc.Line != B.Loc.Line)
                       return A.Loc.Line < B.Loc.Line;
                     if (A.Loc.Column != B.Loc.Column)
                       return A.Loc.Column < B.Loc.Column;
                     return A.Message < B.Message;
                   });
  Findings.erase(std::unique(Findings.begin(), Findings.end(),
                             [](const TaintFinding &A,
                                const TaintFinding &B) {
                               return A.Loc.Line == B.Loc.Line &&
                                      A.Loc.Column == B.Loc.Column &&
                                      A.Message == B.Message;
                             }),
                 Findings.end());
  R.Findings = std::move(Findings);
  R.ProvablyLow = R.Findings.empty();

  // Summary for later call sites.
  R.Summary.LowParams = Levels.LowParams;
  R.Summary.ReturnLevels = R.ReturnLevels;
  R.Summary.Secure = R.ProvablyLow;
  for (const CFGNode &N : G.nodes()) {
    if (N.Kind == CFGNodeKind::Stmt && N.Cmd) {
      switch (N.Cmd->Kind) {
      case CmdKind::HeapWrite:
      case CmdKind::Alloc:
        R.Summary.WritesHeap = true;
        break;
      case CmdKind::CallProc:
        R.Summary.WritesHeap = true;
        R.Summary.TouchesResources = true;
        break;
      case CmdKind::Share:
      case CmdKind::Unshare:
      case CmdKind::Perform:
      case CmdKind::ResVal:
        R.Summary.TouchesResources = true;
        break;
      default:
        break;
      }
    }
    if (N.Kind == CFGNodeKind::AtomicEnter)
      R.Summary.TouchesResources = true;
  }
  return R;
}
