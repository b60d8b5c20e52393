//===-- perfbench/CorpusVerify.cpp - The corpus-verify workload ------------===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The CLI one-shot path: every operation is a fresh `Driver` at Jobs=1
/// with private caches, verifying one file of the known-answer corpus, in
/// seeded shuffled passes, one stream per core (like one-shot CLI runs
/// side by side). The traced run replays `Driver`'s pipeline through the
/// public layer calls (`Driver::parseAndCheck`, `Verifier::verifySpec`,
/// `Verifier::verifyProc`) so each gets a span.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "hyperviper/Driver.h"
#include "support/trace/Metrics.h"

using namespace perfbench;
using namespace commcsl;

namespace {


bool verifyOnce(const CorpusFile &F) {
  DriverOptions DO;
  DO.Jobs = 1;
  Driver D(DO);
  return D.verifySource(F.Source, F.Path).Verified == F.ExpectVerified;
}

/// Concrete (bounded + random) validity checks the registry has counted.
uint64_t concreteChecks() {
  MetricsRegistry &M = MetricsRegistry::global();
  uint64_t N = 0;
  for (const char *P : {"preconditions", "commutativity", "history"}) {
    N += M.counter(std::string("validity.") + P + ".bounded_checks").value();
    N += M.counter(std::string("validity.") + P + ".random_checks").value();
  }
  return N;
}

struct PipelineTally {
  uint64_t Loc = 0;
  uint64_t Obligations = 0;
  uint64_t Specs = 0;
  uint64_t SpecsUnbounded = 0;
};

/// `Driver`'s pipeline at Jobs=1, one public call per layer, each under
/// a span. Returns whether the verdict matches the known answer. \p T,
/// when given, receives the work counts; the spec-level count reads
/// process-wide counters, so it is exact only with no concurrent stream.
bool verifyTraced(const CorpusFile &F, SpanRecorder &Spans, uint64_t Op,
                  PipelineTally *T) {
  SpanRecorder::Scope OpSpan(Spans, "bench.op", Op);
  DriverOptions DO;
  DO.Jobs = 1;
  Driver D(DO);
  ParsedUnit U;
  {
    SpanRecorder::Scope S(Spans, "parser.parse_check", Op);
    U = D.parseAndCheck(F.Source, F.Path);
  }
  if (T)
    T->Loc += U.Metrics.LinesOfCode;
  if (!U.Ok)
    return !F.ExpectVerified;
  VerifierConfig VC;
  VC.Validity.Jobs = 1;
  bool Ok = true;
  for (const ResourceSpecDecl &Spec : U.Prog->Specs) {
    uint64_t Before = T ? concreteChecks() : 0;
    bool SpecOk;
    {
      SpanRecorder::Scope S(Spans, "rspec.verify_spec", Op);
      DiagnosticEngine Diags;
      Verifier V(*U.Prog, Diags, VC);
      SpecOk = V.verifySpec(Spec);
    }
    if (T) {
      // A valid spec that needed no concrete check was proved for the
      // unbounded domains.
      ++T->Specs;
      T->SpecsUnbounded += SpecOk && concreteChecks() == Before ? 1 : 0;
    }
    Ok &= SpecOk;
  }
  for (const ProcDecl &Proc : U.Prog->Procs) {
    SpanRecorder::Scope S(Spans, "verifier.verify_proc", Op);
    DiagnosticEngine Diags;
    Verifier V(*U.Prog, Diags, VC);
    ProcVerdict PV = V.verifyProc(Proc);
    if (T)
      T->Obligations += PV.NumObligations;
    Ok &= PV.Ok;
  }
  return Ok == F.ExpectVerified;
}

} // namespace

Report perfbench::runCorpusVerify(const Options &O) {
  Report R;
  std::vector<CorpusFile> Files;
  std::vector<double> Setup;
  const unsigned Streams = defaultStreams();
  // Set-up: load the inputs with their answers, then one warm-up pass per
  // stream (the first pass in a process is the slowest). Repeated so
  // setup_s is a median.
  std::mutex NotesMu;
  for (unsigned Rep = 0; Rep < SetupRepeats; ++Rep) {
    Clock::time_point T0 = Clock::now();
    std::string Error;
    Files = loadCorpus(Error);
    if (Files.empty()) {
      R.Correct = false;
      R.note("setup failed: " + Error);
      return R;
    }
    onEveryStream(Streams, [&] {
      for (const CorpusFile &F : Files)
        if (!verifyOnce(F)) {
          std::lock_guard<std::mutex> Lock(NotesMu);
          R.note("warm-up: unexpected verdict on " + F.Path);
        }
    });
    Setup.push_back(secondsSince(T0));
  }
  R.note("corpus: " + std::to_string(Files.size()) + " files, " +
         std::to_string(Streams) + " streams");
  auto Plain = [&](size_t I, unsigned, uint64_t) {
    return verifyOnce(Files[I]);
  };

  if (!O.Trace) {
    reportFileRun(
        R, O.Workload, Files,
        runStreams(Files.size(), O.Seed, O.Seconds, Streams, Plain), Setup);
    return R;
  }

  // Traced run. First an untraced reference segment for the overhead,
  // then the determinism self-check, then the traced segment.
  double Half = O.Seconds / 2;
  StreamRun Ref = runStreams(Files.size(), O.Seed, Half, Streams, Plain);
  std::vector<std::string> Drift = countDrift(
      [&] {
        for (const CorpusFile &F : Files)
          verifyOnce(F);
      },
      R);

  // Work counts per file, from one single-stream pass (exact).
  SpanRecorder Off(false);
  PipelineTally T;
  for (const CorpusFile &F : Files)
    verifyTraced(F, Off, 0, &T);
  double PerPass = static_cast<double>(Files.size());

  SpanRecorder Spans(true);
  MetricsRegistry::global().resetAll();
  double Cpu0 = processCpuSeconds();
  StreamRun Run = runStreams(
      Files.size(), O.Seed, Half, Streams,
      [&](size_t I, unsigned, uint64_t Op) {
        return verifyTraced(Files[I], Spans, Op, nullptr);
      });
  double Cpu = processCpuSeconds() - Cpu0;
  R.Attempted = Ref.Ops + Run.Ops;
  R.Failed = Ref.Failed + Run.Failed;
  double Ops = static_cast<double>(Run.Ops);

  LayerMetrics L;
  L.fillFromRegistry(snapshotRegistry(), Ops);
  L.fillSelfTimes(Spans, Ops);
  L.set("parser.loc", static_cast<double>(T.Loc) / PerPass);
  L.set("verifier.obligations", static_cast<double>(T.Obligations) / PerPass);
  L.set("rspec.unbounded_ratio",
        T.Specs ? static_cast<double>(T.SpecsUnbounded) /
                      static_cast<double>(T.Specs)
                : 0);
  L.set("process.cpu_over_wall", Cpu / Run.ElapsedS);
  L.set("bench.trace_overhead_frac", traceOverhead(Ref, Run));
  L.set("bench.nondeterministic_counts", static_cast<double>(Drift.size()));
  L.set("failed_frac", static_cast<double>(R.Failed) /
                           static_cast<double>(R.Attempted));
  L.emit(R);
  R.note("traced ops " + std::to_string(Run.Ops) + ", spans " +
         std::to_string(Spans.size()) + ", specs " + std::to_string(T.Specs) +
         " (" + std::to_string(T.SpecsUnbounded) + " unbounded)");
  Spans.write(O.Workload, R);
  R.Correct = R.Failed == 0;
  return R;
}
