//===-- absint/Differencing.h - Unbounded validity analysis ------*- C++ -*-===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The differencing abstract interpreter (DESIGN §13): proves Def. 3.1
/// validity obligations for *all* states and arguments, not just a finite
/// scope, by comparing the two execution orders symbolically.
///
/// Per spec the analysis establishes, over universal symbols `s` (state) and
/// per-action argument symbols:
///
///  - **Factorization (C1)**: `alpha(f_a(s, arg))` factors through the
///    components of `alpha(s)` — normalizing it and substituting each
///    state-dependent component `comp_i` of `alpha(s)`'s pair tree by a slot
///    symbol `g_i` leaves no free `s`. The residue `U_a(g, arg)` is the
///    action's *update template*.
///  - **Low preservation (A')**: under the relational precondition facts,
///    `U_a(g, x) == U_a(g, x')`. With C1 and injectivity of pairing this is
///    exactly Def. 3.1's condition (A) on arbitrary `v, v'` with
///    `alpha(v) == alpha(v')`.
///  - **Commutativity (B1)**: under both unary preconditions,
///    `alpha(f_B(f_A(s, x), y)) == alpha(f_A(f_B(s, y), x))` — Def. 3.1's
///    condition (B), directly on the universal state.
///
/// Equalities are discharged by the Normalize.h rewrite system; undecided
/// guards (key equalities, map/set membership, `ite` conditions) become
/// case splits whose branches accumulate facts in a `FactCtx`. A branch
/// closes when the normal forms coincide or the fact store turns
/// contradictory. The resulting split trees are recorded verbatim in
/// certificates; the checker *replays* them (no search, no widening) via
/// `replaySplitTree`.
///
/// Everything here is deterministic and independent of thread count: no
/// randomness, no pointer-ordered iteration, structural term ordering only.
///
//===----------------------------------------------------------------------===//

#ifndef COMMCSL_ABSINT_DIFFERENCING_H
#define COMMCSL_ABSINT_DIFFERENCING_H

#include "absint/Normalize.h"
#include "lang/Program.h"

#include <memory>

namespace commcsl {
namespace absint {

enum class ObStatus : uint8_t {
  Proved,       ///< holds for all states/arguments of the type
  Refuted,      ///< a branch reduced to distinct ground values (CE hint)
  Inconclusive, ///< rewriting got stuck or budgets ran out
};

const char *obStatusName(ObStatus S);

/// A recorded case-split proof. Interior nodes split on `Guard`; leaves
/// (null guard) closed either by normal-form equality or branch
/// infeasibility. Failed leaves only appear in non-Proved obligations.
struct SplitNode {
  const ATerm *Guard = nullptr;
  bool Ok = false;            ///< leaf: closed
  bool ViaInfeasible = false; ///< leaf: closed by contradiction
  std::unique_ptr<SplitNode> Then, Else;

  unsigned depth() const {
    if (!Guard)
      return 0;
    return 1 + std::max(Then ? Then->depth() : 0, Else ? Else->depth() : 0);
  }
};

struct ActionAbs {
  std::string Name;
  /// Update template over slot symbols g0.. and the argument symbol
  /// (`argSymName()`); null when factorization failed.
  const ATerm *U = nullptr;
  ObStatus Pre = ObStatus::Inconclusive; ///< the A' obligation
  std::unique_ptr<SplitNode> PreTree;
};

struct PairAbs {
  std::string First, Second;
  ObStatus Comm = ObStatus::Inconclusive; ///< the B1 obligation
  std::unique_ptr<SplitNode> Tree;
};

struct AbsOptions {
  unsigned MaxSplitDepth = 8;
  uint64_t MaxSplits = 4096; ///< global split budget per spec
  NormLimits Limits;
  /// Fault injection for certificate tests: records a corrupted update
  /// template for the first action *after* proving with the real one, so
  /// the emitted certificate is unsound and the checker must reject it.
  bool InjectUnsound = false;
};

struct SpecAbsResult {
  /// False when alpha could not be translated/normalized at all; no
  /// obligation was even attempted.
  bool Applicable = false;
  /// Components of normalized `alpha(s)`, split on pair constructors.
  std::vector<const ATerm *> Comps;
  std::vector<ActionAbs> Actions;
  std::vector<PairAbs> Pairs;
  /// Every action factorized with A' proved and every pair's B1 proved.
  bool AllProved = false;

  uint64_t RewriteSteps = 0;
  uint64_t Splits = 0;
  uint64_t Obligations = 0;
  uint64_t ProvedCount = 0;
  uint64_t Widenings = 0;

  /// Owns every ATerm referenced above.
  std::shared_ptr<TermFactory> Factory;

  const ActionAbs *action(const std::string &Name) const;
  const PairAbs *pair(const std::string &A, const std::string &B) const;
};

/// Universal symbol names. Shared with the certificate checker so that
/// re-translation in a fresh factory reproduces identical terms.
inline const char *stateSymName() { return "s"; }
inline const char *argSymName() { return "%arg"; }
inline const char *argSymA() { return "%x"; }
inline const char *argSymB() { return "%y"; }
inline const char *argSymA2() { return "%x'"; }
std::string slotSymName(unsigned I);

/// Runs the analysis on one spec. Never throws; inapplicable or
/// budget-exhausted obligations come back Inconclusive.
SpecAbsResult analyzeSpec(const ResourceSpecDecl &Spec, const Program *Prog,
                          const AbsOptions &Opts = {});

//===----------------------------------------------------------------------===//
// Building blocks shared with the certificate checker (cert/AbsCheck). The
// checker re-derives obligations and replays recorded trees instead of
// trusting the analysis run.
//===----------------------------------------------------------------------===//

/// Translates a surface expression to a term. `Env` maps free variable
/// names to terms; user function calls are inlined through \p Prog.
/// Returns null on unsupported input (never throws).
const ATerm *translateExpr(TermFactory &F, const Expr &E,
                           const std::map<std::string, const ATerm *> &Env,
                           const Program *Prog);

/// Splits a (normalized) term into its pair-tree components, left to right.
std::vector<const ATerm *> pairComps(const ATerm *T);

/// Exact-node substitution, applied top-down (a mapped node is replaced
/// before its children are visited).
const ATerm *substTerm(TermFactory &F, const ATerm *T,
                       const std::map<const ATerm *, const ATerm *> &Map);

/// True when \p Sym occurs in \p T.
bool mentionsSym(const ATerm *T, const std::string &Sym);

struct PreFacts {
  bool Supported = true;   ///< false: contract uses atoms the tier can't model
  bool Infeasible = false; ///< facts contradictory (obligation vacuous)
};

/// Adds the relational precondition facts of \p Act over two argument
/// symbols: `low(e)` atoms equate `e[arg:=X]` with `e[arg:=X2]`, boolean
/// atoms hold of both, and `c ==> low(e)` equates `c[arg:=X]` with
/// `c[arg:=X2]` and registers the `e` equality guarded by `c[arg:=X]`, so
/// it holds in every branch where the guard does. Supported goes false only
/// for atoms that do not translate (callers fall back to the bounded tiers).
PreFacts addRelationalPreFacts(FactCtx &Ctx, TermFactory &F,
                               const Program *Prog, const ActionDecl &Act,
                               const ATerm *X, const ATerm *X2);

/// Adds the unary precondition facts (both executions run the same
/// argument): boolean atoms hold of \p X; low atoms are vacuous.
PreFacts addUnaryPreFacts(FactCtx &Ctx, TermFactory &F, const Program *Prog,
                          const ActionDecl &Act, const ATerm *X);

/// Builds the B1 obligation sides for a pair over symbols \p X, \p Y:
/// L = alpha(f_B(f_A(s,X),Y)), R = alpha(f_A(f_B(s,Y),X)).
/// Returns false when translation fails.
bool buildCommObligation(TermFactory &F, const ResourceSpecDecl &Spec,
                         const Program *Prog, const ActionDecl &A,
                         const ActionDecl &B, const ATerm *X, const ATerm *Y,
                         const ATerm *&L, const ATerm *&R);

/// Replays a recorded split tree: true iff every feasible branch closes
/// (equal normal forms or contradictory facts). This is the checker's
/// search-free re-validation; \p StepsOut (optional) accumulates rewrite
/// steps.
bool replaySplitTree(TermFactory &F, const ATerm *L, const ATerm *R,
                     const FactCtx &Ctx, const SplitNode *Tree,
                     const NormLimits &Limits, uint64_t *StepsOut = nullptr);

} // namespace absint
} // namespace commcsl

#endif // COMMCSL_ABSINT_DIFFERENCING_H
