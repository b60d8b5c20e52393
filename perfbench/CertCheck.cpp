//===-- perfbench/CertCheck.cpp - The cert-check workload ------------------===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The certificate consumer: every operation parses and type-checks one
/// corpus file (`Driver::parseAndCheck`), parses its committed `.cert`
/// sidecar (`cert::parse`) and re-derives it (`cert::checkCertificate`),
/// in seeded shuffled passes, one stream per core. The verifier does no
/// work here, so a change to the cert layer shows on this workload and not
/// on corpus-verify.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "cert/Cert.h"
#include "cert/Check.h"
#include "hyperviper/Driver.h"
#include "support/trace/Metrics.h"

#include <cmath>

using namespace perfbench;
using namespace commcsl;

namespace {

/// Repetitions per file for the check-over-verify rows.
constexpr unsigned RowRepeats = 5;

struct CheckTally {
  uint64_t Loc = 0;
  uint64_t Bytes = 0;
  uint64_t Specs = 0;
  uint64_t SpecsUnbounded = 0;
};

/// One operation; returns whether the certificate checks and claims the
/// known verdict. \p T, when given, receives the work counts. \p CheckMs,
/// when given, receives the certificate side alone (parse + check, not the
/// program parse): the quantity bench_cert compares with verification.
bool checkOnce(const CorpusFile &F, SpanRecorder &Spans, uint64_t Op,
               CheckTally *T, double *CheckMs) {
  SpanRecorder::Scope OpSpan(Spans, "bench.op", Op);
  DriverOptions DO;
  DO.Jobs = 1;
  Driver D(DO);
  ParsedUnit U;
  {
    SpanRecorder::Scope S(Spans, "parser.parse_check", Op);
    U = D.parseAndCheck(F.Source, F.Path);
  }
  if (!U.Ok)
    return false;
  Clock::time_point C0 = Clock::now();
  std::optional<cert::Certificate> C;
  {
    SpanRecorder::Scope S(Spans, "cert.parse", Op);
    std::string Error;
    C = cert::parse(F.Cert, &Error);
  }
  if (!C)
    return false;
  cert::CheckResult CR;
  {
    SpanRecorder::Scope S(Spans, "cert.check", Op);
    CR = cert::checkCertificate(*C, *U.Prog);
  }
  if (CheckMs)
    *CheckMs = msBetween(C0, Clock::now());
  if (T) {
    T->Loc += U.Metrics.LinesOfCode;
    T->Bytes += F.Cert.size();
    for (const cert::CertSpecUnit &SU : C->Specs) {
      ++T->Specs;
      T->SpecsUnbounded += SU.Absint && SU.Absint->Unbounded ? 1 : 0;
    }
  }
  return CR.Ok && C->Verified == F.ExpectVerified;
}

} // namespace

Report perfbench::runCertCheck(const Options &O) {
  Report R;
  std::vector<CorpusFile> Files;
  std::vector<double> Setup;
  SpanRecorder Off(false);
  const unsigned Streams = defaultStreams();
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
        if (!checkOnce(F, Off, 0, nullptr, nullptr)) {
          std::lock_guard<std::mutex> Lock(NotesMu);
          R.note("warm-up: certificate check failed on " + F.Path);
        }
    });
    Setup.push_back(secondsSince(T0));
  }
  R.note("corpus: " + std::to_string(Files.size()) + " certificates, " +
         std::to_string(Streams) + " streams");
  auto Plain = [&](size_t I, unsigned, uint64_t) {
    return checkOnce(Files[I], Off, 0, nullptr, nullptr);
  };

  if (!O.Trace) {
    reportFileRun(
        R, O.Workload, Files,
        runStreams(Files.size(), O.Seed, O.Seconds, Streams, Plain), Setup);
    return R;
  }

  double Half = O.Seconds / 2;
  StreamRun Ref = runStreams(Files.size(), O.Seed, Half, Streams, Plain);
  std::vector<std::string> Drift = countDrift(
      [&] {
        for (const CorpusFile &F : Files)
          checkOnce(F, Off, 0, nullptr, nullptr);
      },
      R);

  SpanRecorder Spans(true);
  MetricsRegistry::global().resetAll();
  double Cpu0 = processCpuSeconds();
  StreamRun Run = runStreams(Files.size(), O.Seed, Half, Streams,
                             [&](size_t I, unsigned, uint64_t Op) {
                               return checkOnce(Files[I], Spans, Op, nullptr,
                                                nullptr);
                             });
  double Cpu = processCpuSeconds() - Cpu0;
  RegistrySnapshot Delta = snapshotRegistry();
  R.Attempted = Ref.Ops + Run.Ops;
  R.Failed = Ref.Failed + Run.Failed;
  double Ops = static_cast<double>(Run.Ops);

  // Per-file rows, single stream: certificate side against the full
  // pipeline with certificate emission (bench_cert's comparison). The
  // emitted certificate must equal the committed sidecar byte for byte.
  CheckTally T;
  double LogSum = 0;
  unsigned EmitMismatches = 0;
  for (const CorpusFile &F : Files) {
    std::vector<double> CheckMs, VerifyMs;
    for (unsigned Rep = 0; Rep < RowRepeats; ++Rep) {
      double Ms = 0;
      checkOnce(F, Off, 0, Rep == 0 ? &T : nullptr, &Ms);
      CheckMs.push_back(Ms);
      DriverOptions DO;
      DO.Jobs = 1;
      DO.Verifier.EmitCert = true;
      Driver D(DO);
      Clock::time_point A = Clock::now();
      DriverResult DR = D.verifySource(F.Source, F.Path);
      VerifyMs.push_back(msBetween(A, Clock::now()));
      if (Rep == 0 && DR.Cert != F.Cert) {
        ++EmitMismatches;
        R.note("emitted certificate differs from " + F.Path + ".cert");
      }
    }
    double Check = median(CheckMs), Verify = median(VerifyMs);
    LogSum += std::log(Check / Verify);
    R.note("row cert-check " + F.Path + " check_ms " + fmt(Check, 4) +
           " verify_ms " + fmt(Verify, 4) + " check_over_verify " +
           fmt(Check / Verify, 4));
  }
  double PerPass = static_cast<double>(Files.size());

  LayerMetrics L;
  L.fillFromRegistry(Delta, Ops);
  L.fillSelfTimes(Spans, Ops);
  L.set("parser.loc", static_cast<double>(T.Loc) / PerPass);
  L.set("cert.bytes", static_cast<double>(T.Bytes) / PerPass);
  L.set("cert.check_over_verify", std::exp(LogSum / PerPass));
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
  R.note("cert.check_over_verify: geometric mean over " +
         std::to_string(Files.size()) +
         " files of (cert parse + check) / (verify with emission), per-file "
         "medians of " + std::to_string(RowRepeats) + " single-stream runs");
  Spans.write(O.Workload, R);
  R.Correct = R.Failed == 0 && EmitMismatches == 0;
  return R;
}
