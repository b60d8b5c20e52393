//===-- tests/hyperviper/CliTest.cpp - hyperviper CLI contract tests -------===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// End-to-end tests of the installed `hyperviper` binary (path injected as
/// COMMCSL_HYPERVIPER_BIN): the unified `--jobs` contract across the
/// verify / analyze / fuzz subcommands, and the observability flags —
/// `--trace` emits Chrome trace-event JSON, `--metrics-json` emits a
/// registry dump whose "counts" object is identical at any job count.
///
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <sys/wait.h>
#include <vector>

namespace {

struct CmdResult {
  int Exit = -1;
  std::string Output; ///< stdout + stderr, interleaved
};

/// Runs \p Args under the shell with stderr folded into stdout.
CmdResult run(const std::string &Args) {
  std::string Cmd = std::string(COMMCSL_HYPERVIPER_BIN) + " " + Args + " 2>&1";
  FILE *P = popen(Cmd.c_str(), "r");
  EXPECT_NE(P, nullptr) << Cmd;
  CmdResult R;
  char Buf[4096];
  size_t N;
  while ((N = fread(Buf, 1, sizeof(Buf), P)) > 0)
    R.Output.append(Buf, N);
  int Status = pclose(P);
  R.Exit = WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
  return R;
}

std::string slurp(const std::string &Path) {
  std::ifstream In(Path);
  EXPECT_TRUE(In.good()) << Path;
  std::ostringstream OS;
  OS << In.rdbuf();
  return OS.str();
}

std::string tmpPath(const std::string &Name) {
  return ::testing::TempDir() + "hyperviper-cli-" + Name;
}

std::string example(const std::string &Name) {
  return std::string(COMMCSL_EXAMPLES_DIR) + "/" + Name;
}

/// The `"counts"` object of a metrics export — the part contracted to be
/// identical at every `--jobs` setting.
std::string countsSection(const std::string &Json) {
  size_t Begin = Json.find("\"counts\"");
  size_t End = Json.find("\"timings\"");
  EXPECT_NE(Begin, std::string::npos);
  EXPECT_NE(End, std::string::npos);
  return Json.substr(Begin, End - Begin);
}

} // namespace

TEST(CliJobsTest, VerifyRejectsBadJobsValues) {
  for (const char *Bad : {"4x", "0", "-2", "+4", "abc", "4294967296"}) {
    CmdResult R = run(std::string("--jobs ") + Bad + " " +
                      example("figure1.hv"));
    EXPECT_EQ(R.Exit, 2) << Bad;
    EXPECT_NE(R.Output.find(std::string("invalid --jobs value '") + Bad),
              std::string::npos)
        << R.Output;
  }
}

TEST(CliJobsTest, AnalyzeRejectsBadJobsValues) {
  for (const char *Bad : {"4x", "0", "-2"}) {
    CmdResult R = run(std::string("analyze --jobs ") + Bad + " " +
                      example("figure1.hv"));
    EXPECT_EQ(R.Exit, 2) << Bad;
    EXPECT_NE(R.Output.find(std::string("invalid --jobs value '") + Bad),
              std::string::npos)
        << R.Output;
  }
}

TEST(CliJobsTest, FuzzRejectsBadJobsValues) {
  for (const char *Bad : {"4x", "0", "-2"}) {
    CmdResult R = run(std::string("fuzz --seeds 1 --jobs ") + Bad);
    EXPECT_EQ(R.Exit, 2) << Bad;
    EXPECT_NE(R.Output.find(std::string("invalid --jobs value '") + Bad),
              std::string::npos)
        << R.Output;
  }
}

TEST(CliJobsTest, MissingJobsValueIsAnError) {
  EXPECT_EQ(run("--jobs").Exit, 2);
  EXPECT_EQ(run("analyze --jobs").Exit, 2);
  EXPECT_EQ(run("fuzz --jobs").Exit, 2);
}

TEST(CliJobsTest, ValidJobsValueAcceptedEverywhere) {
  EXPECT_EQ(run("--quiet --jobs 2 " + example("figure1.hv")).Exit, 0);
  EXPECT_EQ(run("analyze --jobs 2 " + example("figure1.hv")).Exit, 0);
  // Fuzz exit reflects the campaign's findings (0 clean, 1 findings);
  // what matters here is that a valid --jobs is not a usage error.
  int FuzzExit = run("fuzz --seeds 2 --jobs 2 --no-shrink --report " +
                     tmpPath("fuzz-jobs.json"))
                     .Exit;
  EXPECT_TRUE(FuzzExit == 0 || FuzzExit == 1) << FuzzExit;
}

TEST(CliNumericFlagTest, OutOfRangeAndMalformedValuesAreRejected) {
  // Each value is out of range for its field or not a number. Narrowed or
  // half-parsed, it would become a different setting: 4294967297 seeds
  // would run 1 seed, `--max 4294967296` would mean 0 ("no cap"), and an
  // unparsable or negative time budget would mean no budget.
  const std::string Fig1 = example("figure1.hv");
  const std::pair<std::string, std::string> Cases[] = {
      {"fuzz --seeds 4294967297", "--seeds"},
      {"fuzz --seeds 1 --target-statements 4294967296", "--target-statements"},
      {"fuzz --seeds 1 --shrink-budget 4294967296", "--shrink-budget"},
      {"fuzz --seeds 1 --time-budget abc", "--time-budget"},
      {"fuzz --seeds 1 --time-budget -5", "--time-budget"},
      {"fuzz --seeds 1 --time-budget 5s", "--time-budget"},
      {"fuzz --seeds 1 --time-budget inf", "--time-budget"},
      {"suggest-spec --max 4294967296 " + Fig1, "--max"},
      {"suggest-spec --jobs 4294967296 " + Fig1, "--jobs"},
      {"serve --port 70000", "--port"},
      {"serve --workers 0", "--workers"},
      {"serve --max-queue 0", "--max-queue"},
  };
  for (const auto &[Args, Flag] : Cases) {
    CmdResult R = run(Args);
    EXPECT_EQ(R.Exit, 2) << Args;
    EXPECT_NE(R.Output.find("invalid " + Flag + " value '"),
              std::string::npos)
        << Args << "\n"
        << R.Output;
  }
}

TEST(CliNumericFlagTest, InRangeValuesAreAccepted) {
  int FuzzExit = run("fuzz --seeds 1 --time-budget 0.5 --target-statements 4 "
                     "--shrink-budget 4294967295 --report " +
                     tmpPath("fuzz-numeric.json"))
                     .Exit;
  EXPECT_TRUE(FuzzExit == 0 || FuzzExit == 1) << FuzzExit;
  EXPECT_EQ(run("suggest-spec --max 4294967295 " + example("figure1.hv")).Exit,
            0);
}

TEST(CliAnalyzeTest, CheckWithWriteIsAUsageErrorThatLeavesSidecars) {
  // `--check --write` would rewrite every sidecar and then check the files
  // it had just written, so a stale sidecar passed the check.
  const std::string Dir = tmpPath("analyze-stale");
  std::filesystem::create_directories(Dir);
  std::filesystem::copy_file(example("figure1.hv"), Dir + "/figure1.hv",
                             std::filesystem::copy_options::overwrite_existing);
  const std::string Sidecar = Dir + "/figure1.hv.analysis";
  {
    std::ofstream Out(Sidecar);
    Out << "stale\n";
  }
  CmdResult Both = run("analyze --check --write " + Dir);
  EXPECT_EQ(Both.Exit, 2) << Both.Output;
  EXPECT_EQ(slurp(Sidecar), "stale\n");
  EXPECT_EQ(run("analyze --check " + Dir).Exit, 1);
  std::filesystem::remove_all(Dir);
}

TEST(CliAnalyzeTest, UnwritableSidecarIsAnIoError) {
  // A directory stands where the sidecar should go: the run must name it
  // and exit 2 rather than report success.
  const std::string Dir = tmpPath("analyze-unwritable");
  std::filesystem::remove_all(Dir);
  const std::string Sidecar = Dir + "/figure1.hv.analysis";
  std::filesystem::create_directories(Sidecar);
  std::filesystem::copy_file(example("figure1.hv"), Dir + "/figure1.hv");
  CmdResult R = run("analyze --write " + Dir);
  EXPECT_EQ(R.Exit, 2) << R.Output;
  EXPECT_NE(R.Output.find("hyperviper analyze: error: cannot write " + Sidecar),
            std::string::npos)
      << R.Output;
  std::filesystem::remove_all(Dir);
}

TEST(CliFuzzTest, UncreatableCorpusDirIsAnIoError) {
  // A corpus directory below a regular file cannot be created: the run
  // must name it and exit 2, not die with an uncaught exception.
  const std::string File = tmpPath("corpus-parent-is-a-file");
  {
    std::ofstream Out(File);
    Out << "not a directory\n";
  }
  const std::string Dir = File + "/sub";
  CmdResult R = run("fuzz --seeds 2 --report /dev/null --corpus-dir " + Dir);
  EXPECT_EQ(R.Exit, 2) << R.Output;
  EXPECT_NE(R.Output.find("hyperviper fuzz: error: cannot write " + Dir),
            std::string::npos)
      << R.Output;
  std::filesystem::remove(File);
}

TEST(CliRemovedOptionTest, TriageIsRefusedByName) {
  // Serve refuses the flag before it reads `--help`, so no daemon starts.
  const std::string Cases[] = {"--triage " + example("figure1.hv"),
                               "serve --triage --help"};
  for (const std::string &Args : Cases) {
    CmdResult R = run(Args);
    EXPECT_EQ(R.Exit, 2) << Args << "\n" << R.Output;
    EXPECT_NE(R.Output.find("unknown option '--triage'"), std::string::npos)
        << Args << "\n"
        << R.Output;
  }
}

TEST(CliObservabilityTest, TraceFlagEmitsChromeTraceJson) {
  std::string Trace = tmpPath("verify.trace.json");
  CmdResult R = run("--quiet --trace " + Trace + " " + example("figure1.hv"));
  EXPECT_EQ(R.Exit, 0) << R.Output;
  std::string Json = slurp(Trace);
  EXPECT_EQ(Json.rfind("{", 0), 0u);
  EXPECT_NE(Json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(Json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  // The verify pipeline's phases appear as spans.
  EXPECT_NE(Json.find("\"name\":\"parse\""), std::string::npos);
  EXPECT_NE(Json.find("\"ph\":\"X\""), std::string::npos);
}

TEST(CliObservabilityTest, MetricsCountsIdenticalAcrossJobCounts) {
  std::string M1 = tmpPath("metrics-j1.json");
  std::string M3 = tmpPath("metrics-j3.json");
  std::string Files = example("figure1.hv") + " " + example("figure2.hv") +
                      " " + example("count_purchases.hv");
  EXPECT_EQ(
      run("--quiet --jobs 1 --metrics-json " + M1 + " " + Files).Exit, 0);
  EXPECT_EQ(
      run("--quiet --jobs 3 --metrics-json " + M3 + " " + Files).Exit, 0);
  std::string A = slurp(M1), B = slurp(M3);
  EXPECT_EQ(countsSection(A), countsSection(B));
  // Both carry a timings object too (whose values legitimately differ).
  EXPECT_NE(A.find("\"timings\""), std::string::npos);
}

TEST(CliObservabilityTest, FuzzMetricsCountsIdenticalAcrossJobCounts) {
  std::string M1 = tmpPath("fuzz-metrics-j1.json");
  std::string M2 = tmpPath("fuzz-metrics-j2.json");
  std::string Common = "fuzz --seeds 6 --base-seed 7 --no-shrink --report ";
  int E1 = run(Common + tmpPath("fuzz-r1.json") + " --jobs 1 --metrics-json " +
               M1)
               .Exit;
  int E2 = run(Common + tmpPath("fuzz-r2.json") + " --jobs 2 --metrics-json " +
               M2)
               .Exit;
  EXPECT_EQ(E1, E2); // the campaign verdict itself is jobs-independent
  EXPECT_TRUE(E1 == 0 || E1 == 1) << E1;
  EXPECT_EQ(countsSection(slurp(M1)), countsSection(slurp(M2)));
}

TEST(CliObservabilityTest, CorruptCorpusSeedReportsParseFailure) {
  // End-to-end regression for the `// seed: abc` crash: a corrupt header
  // must be a parse failure, not an uncaught exception.
  std::string Bad = tmpPath("bad-corpus.hv");
  {
    std::ofstream Out(Bad);
    Out << "// fuzz-corpus v1\n// class: soundness-violation\n"
           "// seed: abc\n\nvar x: Int := 0;\n";
  }
  // The corpus parser is only reachable from tests/tools; what must hold
  // here is that the verifier front door treats the file as ordinary
  // (broken) source rather than dying on the malformed header.
  CmdResult R = run(Bad);
  EXPECT_EQ(R.Exit, 1) << R.Output;
  EXPECT_NE(R.Output.find("REJECTED"), std::string::npos) << R.Output;
}

TEST(CliSuggestSpecTest, RanksDeclaredSpecAndFlagsInvalidCandidates) {
  CmdResult R = run("suggest-spec " + example("debt_sum.hv"));
  ASSERT_EQ(R.Exit, 0) << R.Output;
  // The declared abstraction (reveal only the running sum) must rank first
  // with an unbounded proof; the identity abstraction must surface as
  // invalid (it would leak the individual debts).
  EXPECT_NE(R.Output.find("1. alpha(v) = snd(v) [declared] -- valid "
                          "(unbounded)"),
            std::string::npos)
      << R.Output;
  EXPECT_NE(R.Output.find("alpha(v) = v -- invalid"), std::string::npos)
      << R.Output;
}

TEST(CliSuggestSpecTest, OutputIsDeterministicAcrossRuns) {
  CmdResult A = run("suggest-spec " + example("sick_employee_names.hv"));
  CmdResult B = run("suggest-spec " + example("sick_employee_names.hv"));
  ASSERT_EQ(A.Exit, 0) << A.Output;
  EXPECT_EQ(A.Output, B.Output);
}

TEST(CliSuggestSpecTest, UsageErrors) {
  EXPECT_EQ(run("suggest-spec").Exit, 2);
  EXPECT_EQ(run("suggest-spec --spec NoSuch " + example("figure1.hv")).Exit,
            2);
  EXPECT_EQ(run("suggest-spec " + example("public_stats.hv")).Exit, 2);
  EXPECT_EQ(run("suggest-spec --help").Exit, 0);
}

TEST(CliSuggestSpecTest, MaxZeroLiftsTheCap) {
  // `--max 0` means no cap: every enumerated candidate is tried and the
  // report is never marked truncated.
  CmdResult R = run("suggest-spec --max 0 " + example("figure1.hv"));
  ASSERT_EQ(R.Exit, 0) << R.Output;
  EXPECT_EQ(R.Output.find("(truncated)"), std::string::npos) << R.Output;
}

TEST(CliSuggestSpecTest, JobsDoNotChangeReportBytes) {
  CmdResult J1 = run("suggest-spec --jobs 1 " + example("figure1.hv"));
  CmdResult J3 = run("suggest-spec --jobs 3 " + example("figure1.hv"));
  ASSERT_EQ(J1.Exit, 0) << J1.Output;
  ASSERT_EQ(J3.Exit, 0) << J3.Output;
  EXPECT_EQ(J1.Output, J3.Output);
}

TEST(CliSuggestSpecTest, MaxTruncatesDeterministically) {
  CmdResult R = run("suggest-spec --max 3 " + example("debt_sum.hv"));
  ASSERT_EQ(R.Exit, 0) << R.Output;
  EXPECT_NE(R.Output.find("tried 3 candidates (truncated)"),
            std::string::npos)
      << R.Output;
}
