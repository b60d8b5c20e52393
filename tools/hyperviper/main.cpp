//===-- tools/hyperviper/main.cpp - HyperViper CLI --------------*- C++ -*-===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `hyperviper` command line. Every verb's options come from the one
/// option table in service/Options.h, which also answers `hyperviper
/// <verb> --help`; this file holds what each verb does with them.
///
//===----------------------------------------------------------------------===//

#include "cert/Cert.h"
#include "cert/Check.h"
#include "fuzz/Campaign.h"
#include "fuzz/Corpus.h"
#include "hyperviper/Analyze.h"
#include "hyperviper/Driver.h"
#include "lang/TypeChecker.h"
#include "parser/Parser.h"
#include "rspec/Suggest.h"
#include "service/Options.h"
#include "service/Server.h"
#include "support/Signals.h"
#include "support/trace/Metrics.h"
#include "support/trace/Trace.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace commcsl;

namespace {

/// Writes the --trace / --metrics-json files of a run. Returns false (with
/// a message on stderr) when a write failed.
bool writeSinks(const std::string &Prog, const std::string &TracePath,
                const std::string &MetricsPath) {
  bool Ok = true;
  if (!TracePath.empty() &&
      !TraceRecorder::global().writeChromeTrace(TracePath)) {
    std::fprintf(stderr, "%s: error: cannot write trace file %s\n",
                 Prog.c_str(), TracePath.c_str());
    Ok = false;
  }
  if (!MetricsPath.empty() &&
      !MetricsRegistry::global().writeJson(MetricsPath)) {
    std::fprintf(stderr, "%s: error: cannot write metrics file %s\n",
                 Prog.c_str(), MetricsPath.c_str());
    Ok = false;
  }
  return Ok;
}

int runFuzz(VerbArgs &A) {
  const char *Sub = "hyperviper fuzz";
  A.Req.Fuzz.Oracle.Inject = oracleFaultByName(A.Inject).value();
  CampaignReport Report = runCampaign(A.Req.Fuzz);

  std::string Json = Report.json();
  if (A.ReportPath == "-") {
    std::fputs(Json.c_str(), stdout);
  } else {
    std::ofstream Out(A.ReportPath);
    if (!Out) {
      std::fprintf(stderr, "%s: error: cannot write %s\n", Sub,
                   A.ReportPath.c_str());
      return 2;
    }
    Out << Json;
  }

  if (!A.CorpusDir.empty()) {
    CorpusWriteResult W = writeCorpusFiles(Report, A.CorpusDir);
    if (!W.Unwritten.empty()) {
      std::fprintf(stderr, "%s: error: cannot write %s\n", Sub,
                   W.Unwritten.c_str());
      return 2;
    }
    std::fprintf(stderr, "%s: wrote %zu corpus file(s) to %s\n", Sub,
                 W.Paths.size(), A.CorpusDir.c_str());
  }

  std::fprintf(stderr,
               "%s: %u seeds run (%u skipped): %u agree, "
               "%u soundness-violation, %u analysis-unsound, "
               "%u completeness-gap, %u cert-invalid, %u flake, "
               "%u generator-invalid; %u statically secure\n",
               Sub, Report.SeedsRun, Report.SeedsSkipped, Report.Agree,
               Report.SoundnessViolations, Report.AnalysisUnsound,
               Report.CompletenessGaps, Report.CertInvalids, Report.Flakes,
               Report.GeneratorInvalids, Report.StaticSecureSeeds);
  return Report.clean() ? 0 : 1;
}

int runAnalyzeCmd(VerbArgs &A) {
  const char *Sub = "hyperviper analyze";
  if (A.Inputs.empty()) {
    std::fprintf(stderr, "%s: error: no inputs\n", Sub);
    return 2;
  }
  if (A.Analyze.Check && A.Analyze.Write) {
    std::fprintf(stderr,
                 "%s: error: --check and --write are mutually exclusive\n",
                 Sub);
    return 2;
  }
  AnalyzeResult R = runAnalyze(A.Inputs, A.Analyze);
  std::fputs(R.str().c_str(), stdout);
  if (!R.UnwrittenSidecar.empty()) {
    std::fprintf(stderr, "%s: error: cannot write %s\n", Sub,
                 R.UnwrittenSidecar.c_str());
    return 2;
  }
  if (A.Analyze.Check && !R.Ok) {
    std::fprintf(stderr,
                 "%s: error: report does not match the committed .analysis "
                 "sidecars\n",
                 Sub);
    return 1;
  }
  return 0;
}

int runServe(VerbArgs &A) {
  const char *Sub = "hyperviper serve";
  Server Srv(A.Session, static_cast<uint16_t>(A.Port), A.Workers,
             A.MaxQueue);
  if (!Srv.start()) {
    std::fprintf(stderr, "%s: error: %s\n", Sub, Srv.error().c_str());
    return 2;
  }
  // First signal: graceful drain (run() returns, sinks flush, exit
  // 128+sig below). Second signal while draining: the watcher's hard
  // path flushes and force-exits.
  setGracefulSignalHandler([&Srv](int) { Srv.stop(); });

  std::printf("listening on 127.0.0.1:%u\n",
              static_cast<unsigned>(Srv.port()));
  std::fflush(stdout);
  Srv.run();
  setGracefulSignalHandler({});
  int Sig = consumedSignal();
  return Sig != 0 ? 128 + Sig : 0;
}

/// `hyperviper check-cert <prog.hv> <cert>`: parse and type-check the
/// program, parse the certificate, and re-derive every step with the
/// independent checker. Deliberately bypasses the Driver so no solver or
/// verifier code runs on this path.
int runCheckCert(VerbArgs &A) {
  const char *Sub = "hyperviper check-cert";
  const std::vector<std::string> &Inputs = A.Inputs;
  if (Inputs.size() != 2) {
    std::fprintf(stderr, "%s: error: expected <prog.hv> <cert>\n", Sub);
    return 2;
  }
  auto Slurp = [&](const std::string &Path,
                   std::string &Out) {
    std::ifstream In(Path);
    if (!In) {
      std::fprintf(stderr, "%s: error: cannot open '%s'\n", Sub,
                   Path.c_str());
      return false;
    }
    std::ostringstream SS;
    SS << In.rdbuf();
    Out = SS.str();
    return true;
  };
  std::string ProgText, CertText;
  if (!Slurp(Inputs[0], ProgText) || !Slurp(Inputs[1], CertText))
    return 2;

  DiagnosticEngine Diags;
  Program Prog = Parser::parse(ProgText, Diags);
  if (!Diags.hasErrors()) {
    TypeChecker Checker(Prog, Diags);
    Checker.check();
  }
  if (Diags.hasErrors()) {
    std::fprintf(stderr, "%s", Diags.str(Inputs[0]).c_str());
    std::fprintf(stderr, "%s: error: program does not parse\n", Sub);
    return 2;
  }

  std::string ParseError;
  std::optional<cert::Certificate> C = cert::parse(CertText, &ParseError);
  if (!C) {
    std::printf("%s: INVALID (parse: %s)\n", Inputs[1].c_str(),
                ParseError.c_str());
    return 1;
  }
  cert::CheckResult R = cert::checkCertificate(*C, Prog);
  if (!R.Ok) {
    std::printf("%s: INVALID (%s)\n", Inputs[1].c_str(), R.Error.c_str());
    return 1;
  }
  std::printf("%s: OK\n", Inputs[1].c_str());
  return 0;
}

/// `hyperviper suggest-spec`: enumerate candidate abstractions (and
/// `low(arg)` precondition strengthenings) for each resource spec and rank
/// them by what the validity tiers establish — unbounded differencing
/// proofs first. Purely deterministic output.
int runSuggestSpec(VerbArgs &A) {
  const char *Sub = "hyperviper suggest-spec";
  const std::vector<std::string> &Inputs = A.Inputs;
  if (Inputs.size() != 1) {
    std::fprintf(stderr, "%s: error: expected exactly one <prog.hv>\n", Sub);
    return 2;
  }

  std::ifstream In(Inputs[0]);
  if (!In) {
    std::fprintf(stderr, "%s: error: cannot open '%s'\n", Sub,
                 Inputs[0].c_str());
    return 2;
  }
  std::ostringstream SS;
  SS << In.rdbuf();

  DiagnosticEngine Diags;
  Program Prog = Parser::parse(SS.str(), Diags);
  if (!Diags.hasErrors()) {
    TypeChecker Checker(Prog, Diags);
    Checker.check();
  }
  if (Diags.hasErrors()) {
    std::fprintf(stderr, "%s", Diags.str(Inputs[0]).c_str());
    std::fprintf(stderr, "%s: error: program does not parse\n", Sub);
    return 2;
  }
  if (Prog.Specs.empty()) {
    std::fprintf(stderr, "%s: error: program declares no resource specs\n",
                 Sub);
    return 2;
  }

  std::vector<SuggestResult> Results;
  for (const ResourceSpecDecl &Spec : Prog.Specs) {
    if (!A.Spec.empty() && Spec.Name != A.Spec)
      continue;
    Results.push_back(suggestSpec(Spec, Prog, A.Suggest));
  }
  if (Results.empty()) {
    std::fprintf(stderr, "%s: error: no spec named '%s'\n", Sub,
                 A.Spec.c_str());
    return 2;
  }
  std::fputs(renderSuggestReport(Prog, Results, Inputs[0]).c_str(), stdout);
  return 0;
}

int runVerify(VerbArgs &A) {
  const char *Sub = "hyperviper";
  DriverOptions Options;
  Options.Jobs = A.Req.Jobs;
  Options.Verifier.SkipValidityCheck = A.Req.NoValidity;
  Options.Verifier.EmitCert = !A.CertPath.empty();
  Options.Verifier.ForgeAcceptAll = A.Inject == "accept-all";
  Options.Verifier.Validity.Absint.InjectUnsound =
      A.Inject == "absint-unsound";
  const std::string &CertPath = A.CertPath;
  if (A.Inputs.empty()) {
    std::fprintf(stderr, "%s: error: no input files\n", Sub);
    return 2;
  }
  // Directories expand to their `.hv` files in sorted order, matching the
  // analyze verb.
  std::vector<std::pair<std::string, std::string>> Files =
      expandHvInputs(A.Inputs);
  if (Files.empty()) {
    std::fprintf(stderr, "%s: error: no .hv files in the given inputs\n",
                 Sub);
    return 2;
  }
  if (!CertPath.empty() && Files.size() != 1) {
    std::fprintf(stderr,
                 "%s: error: --emit-cert expects exactly one input file "
                 "(got %zu)\n",
                 Sub, Files.size());
    return 2;
  }

  Driver D(Options);
  int Exit = 0;
  for (const auto &[Display, Path] : Files) {
    DriverResult R = D.verifyFile(Path);
    if (!R.Verified) {
      Exit = 1;
      if (!A.Quiet)
        std::fputs(R.Diags.str(Display).c_str(), stderr);
    }
    std::printf("%s: %s\n", Display.c_str(),
                R.Verified ? "verified" : "REJECTED");
    if (!CertPath.empty()) {
      if (R.Cert.empty()) {
        std::fprintf(stderr,
                     "%s: error: no certificate (file did not parse)\n",
                     Sub);
        Exit = Exit ? Exit : 1;
      } else if (CertPath == "-") {
        std::fputs(R.Cert.c_str(), stdout);
      } else {
        std::ofstream Out(CertPath, std::ios::binary);
        if (!Out || !(Out << R.Cert)) {
          std::fprintf(stderr, "%s: error: cannot write %s\n", Sub,
                       CertPath.c_str());
          return 2;
        }
      }
    }
    if (A.PrintMetrics && R.ParseOk) {
      auto Us = [](double Seconds) { return std::llround(Seconds * 1e6); };
      std::printf("  LOC %u  Ann. %u  parse %lldus  validity %lldus  "
                  "verify %lldus  total %lldus\n",
                  R.Metrics.LinesOfCode, R.Metrics.AnnotationLines,
                  Us(R.ParseSeconds), Us(R.ValiditySeconds),
                  Us(R.VerifySeconds), Us(R.totalSeconds()));
      const CacheStats &C = R.Verification.SpecCache;
      std::printf("  spec memo: %llu hits  %llu misses  %llu entries  "
                  "%llu evictions\n",
                  static_cast<unsigned long long>(C.hits()),
                  static_cast<unsigned long long>(C.misses()),
                  static_cast<unsigned long long>(C.Entries),
                  static_cast<unsigned long long>(C.Evictions));
    }
    if (!A.Req.Proc.empty() && R.ParseOk) {
      NIReport Report = D.runEmpirical(R, A.Req.Proc);
      if (Report.secure()) {
        std::printf("  empirical non-interference: no violation in %llu "
                    "runs (%llu pairs)\n",
                    static_cast<unsigned long long>(Report.Runs),
                    static_cast<unsigned long long>(Report.PairsCompared));
        if (A.PrintMetrics)
          std::printf("  ni memo: %llu hits  %llu misses  %llu entries\n",
                      static_cast<unsigned long long>(Report.Cache.hits()),
                      static_cast<unsigned long long>(Report.Cache.misses()),
                      static_cast<unsigned long long>(Report.Cache.Entries));
      } else {
        std::printf("  empirical non-interference: VIOLATION after %llu "
                    "runs\n%s",
                    static_cast<unsigned long long>(Report.Runs),
                    Report.Violation->describe().c_str());
        Exit = 1;
      }
    }
  }
  return Exit;
}

} // namespace

int main(int Argc, char **Argv) {
  // Before any other thread exists: every thread created from here on
  // inherits the blocked SIGINT/SIGTERM mask, so only the watcher thread
  // ever receives them.
  installSignalWatcher();
  // The default verb, verify, is not spelled out on the command line.
  const std::pair<const char *, int (*)(VerbArgs &)> Verbs[] = {
      {"verify", runVerify},        {"fuzz", runFuzz},
      {"analyze", runAnalyzeCmd},   {"serve", runServe},
      {"check-cert", runCheckCert}, {"suggest-spec", runSuggestSpec}};
  const auto *V = &Verbs[0];
  for (const auto &W : Verbs)
    if (&W != &Verbs[0] && Argc > 1 && std::strcmp(Argv[1], W.first) == 0)
      V = &W;
  const int Skip = V == &Verbs[0] ? 1 : 2;
  const std::string Verb = V->first;
  VerbArgs A;
  if (std::optional<int> Exit =
          parseCommandLine(Verb, Argc - Skip, Argv + Skip, A))
    return *Exit;
  // The trace and metrics files are written when the verb ends, or on an
  // interrupt before the process exits 128+sig; a verb that stops with a
  // usage or I/O error (exit 2) writes none.
  if (!A.TracePath.empty())
    TraceRecorder::global().enable();
  auto Sinks = [Prog = programName(Verb), Trace = A.TracePath,
                Metrics = A.MetricsPath] {
    return writeSinks(Prog, Trace, Metrics);
  };
  addSignalFlushAction([Sinks] { Sinks(); });
  const int Exit = V->second(A);
  return Exit != 2 && !Sinks() ? 2 : Exit;
}
