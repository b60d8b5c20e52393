//===-- cert/Check.h - Independent certificate checker ----------*- C++ -*-===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The independent certificate checker. It re-derives every step of a
/// certificate from the program AST alone:
///
///  - the program digest must match the parsed program;
///  - each spec unit must carry exactly one proof object, and it is
///    re-derived: an unbounded claim's differencing section is replayed
///    (cert/AbsCheck.h); bounded evidence has its universe counts and sample
///    digest recomputed (cert/Evidence.h), and every recomputed sample must
///    hold; an "invalid" claim's counterexample must re-execute as a real
///    violation;
///  - each recorded entailment query is replayed on `CheckSolver` — a
///    self-contained port of the solver's decision procedure (congruence
///    closure, difference bounds, AC-chain matching, Ite case splits) over
///    interned pool ids — and must reproduce the recorded verdict;
///  - the final verdict must follow from the units: verified iff all specs
///    valid and all procs ok.
///
/// Trust story (DESIGN §12): the checker shares no code with the verifier
/// or solver libraries, so a bug (or injected fault) that makes the
/// verifier accept produces a certificate whose steps the checker cannot
/// re-derive. What remains trusted is obligation *enumeration* — that the
/// verifier emitted an obligation for every side condition the program
/// needs — and, for spec units, the shared absint normalizer behind
/// unbounded proofs and the probabilistic coverage of the sample draws
/// behind bounded evidence.
///
//===----------------------------------------------------------------------===//

#ifndef COMMCSL_CERT_CHECK_H
#define COMMCSL_CERT_CHECK_H

#include "cert/Cert.h"
#include "lang/Program.h"

#include <map>
#include <unordered_map>

namespace commcsl {
namespace cert {

/// Number of deterministic evidence samples drawn per spec unit, shared by
/// the emitter and the checker.
inline constexpr unsigned SampleDraws = 64;

/// Floors on the recorded universe caps: a certificate claiming a smaller
/// swept universe than the default validity configuration is rejected, so a
/// forged certificate cannot shrink its own evidence base.
inline constexpr uint64_t MinStatesCap = 300;
inline constexpr uint64_t MinArgsCap = 50;

struct CheckResult {
  bool Ok = true;
  std::string Error; ///< first failing step, human-readable
};

/// Checks \p C against \p Prog (which must be type-checked, so spec
/// expressions evaluate). Returns the first failing step.
CheckResult checkCertificate(const Certificate &C, const Program &Prog);

/// The solver port the query replay runs on. Public so unit tests can
/// exercise the decision procedure directly; everything operates on pool
/// ids of the attached TermPool (which grows when case splits intern new
/// negations). Copyable value type, like the solver it mirrors.
class CheckSolver {
public:
  explicit CheckSolver(TermPool &Pool) : Pool(&Pool) {}

  void assumeTrue(uint32_t B);
  void assumeEq(uint32_t A, uint32_t B);
  /// Assumes the linear bound A + Bias <= B.
  void assumeLe(uint32_t A, uint32_t B, int64_t Bias);
  bool provesTrue(uint32_t B);
  bool provesEq(uint32_t A, uint32_t B);
  bool inContradiction() const { return Contradiction; }

private:
  static constexpr uint32_t NoTerm = 0xFFFFFFFFu;

  uint32_t find(uint32_t Id);
  void registerTerm(uint32_t T);
  void merge(uint32_t A, uint32_t B);
  std::vector<uint64_t> signatureOf(uint32_t T);
  void propagateClass(uint32_t Rep,
                      std::vector<std::pair<uint32_t, uint32_t>> &Pending);

  struct LinForm {
    std::map<uint32_t, int64_t> Coeffs;
    int64_t Const = 0;
    void addScaled(const LinForm &O, int64_t K);
    bool isConst() const { return Coeffs.empty(); }
  };
  /// One assumed bound X + Bias <= Y. Bounds carry an explicit bias instead
  /// of a normalized `x + 1` term, which is what lets this checker avoid
  /// reimplementing the arena's normalizing constructors.
  struct LeFact {
    uint32_t X, Y;
    int64_t Bias;
  };
  LinForm linearize(uint32_t T);
  bool leImplied(uint32_t A, uint32_t B, int64_t Bias);

  bool caseSplitTrue(uint32_t B, unsigned Depth);
  bool caseSplitEq(uint32_t A, uint32_t B, unsigned Depth);
  uint32_t findUndecidedIteCond(uint32_t T, unsigned FuelDepth);
  bool provesEqCore(uint32_t A, uint32_t B);
  bool provesTrueCore(uint32_t B);
  bool acChainsEq(uint32_t A, uint32_t B, unsigned Depth);

  TermPool *Pool;
  bool Contradiction = false;
  std::unordered_map<uint32_t, uint32_t> Parent;
  std::unordered_map<uint32_t, bool> Registered;
  std::unordered_map<uint32_t, std::vector<uint32_t>> Uses;
  std::unordered_map<uint32_t, uint32_t> ClassConst; ///< rep -> const term id
  std::unordered_map<uint32_t, std::vector<uint32_t>> CtorMembers;
  std::map<std::vector<uint64_t>, uint32_t> Sigs;
  std::vector<LeFact> LeFacts;
  std::vector<std::pair<uint32_t, uint32_t>> Disequals;
};

} // namespace cert
} // namespace commcsl

#endif // COMMCSL_CERT_CHECK_H
