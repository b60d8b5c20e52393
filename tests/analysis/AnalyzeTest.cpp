//===-- tests/analysis/AnalyzeTest.cpp - analyze verb tests ---------------===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// End-to-end tests of the static pre-analysis as wired into the toolchain:
///
///  * exhaustiveness over examples/programs/ — every shipped program
///    carries a committed expected-diagnostics sidecar
///    (`<file>.analysis`), clean files included, the same contract CI
///    enforces with `hyperviper analyze --check`;
///  * determinism — the analyze report is byte-identical at every job
///    count.
///
//===----------------------------------------------------------------------===//

#include "hyperviper/Analyze.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

using namespace commcsl;

namespace {

std::string examplesDir() {
  return std::filesystem::path(COMMCSL_EXAMPLES_DIR).string();
}

} // namespace

TEST(AnalyzeTest, EveryExampleHasAMatchingSidecar) {
  AnalyzeOptions Options;
  Options.Check = true;
  AnalyzeResult R = runAnalyze({examplesDir()}, Options);
  ASSERT_FALSE(R.Files.empty());
  for (const AnalyzeFileResult &F : R.Files)
    EXPECT_TRUE(F.SidecarOk)
        << F.Display << ": analysis block missing or not matching its "
        << "committed sidecar (run `hyperviper analyze --write`). Block:\n"
        << F.Block;
  EXPECT_TRUE(R.Ok);
}

TEST(AnalyzeTest, MissingSidecarFailsCheck) {
  // The exhaustiveness contract has no "clean files need none" escape
  // hatch: a program without a committed sidecar must fail --check even
  // when it is provably low.
  namespace fs = std::filesystem;
  fs::path Dir = fs::temp_directory_path() / "commcsl-analyze-nosidecar";
  fs::create_directories(Dir);
  {
    std::ofstream Out(Dir / "clean.hv");
    Out << "procedure main(l: int) returns (o: int)\n"
           "  requires low(l)\n  ensures low(o)\n{ o := l; }\n";
  }
  AnalyzeOptions Options;
  Options.Check = true;
  AnalyzeResult R = runAnalyze({Dir.string()}, Options);
  ASSERT_EQ(R.Files.size(), 1u);
  EXPECT_EQ(R.Files[0].Verdict, "provably-low");
  EXPECT_FALSE(R.Files[0].SidecarOk);
  EXPECT_FALSE(R.Ok);

  // --write creates it; --check then passes.
  AnalyzeOptions W;
  W.Write = true;
  runAnalyze({Dir.string()}, W);
  AnalyzeResult R2 = runAnalyze({Dir.string()}, Options);
  ASSERT_EQ(R2.Files.size(), 1u);
  EXPECT_TRUE(R2.Files[0].SidecarOk);
  EXPECT_TRUE(R2.Ok);
  fs::remove_all(Dir);
}

TEST(AnalyzeTest, ReportIsByteIdenticalAtEveryJobCount) {
  std::string Ref;
  for (unsigned Jobs : {1u, 2u, 5u, 13u}) {
    AnalyzeOptions Options;
    Options.Jobs = Jobs;
    AnalyzeResult R = runAnalyze({examplesDir()}, Options);
    if (Ref.empty())
      Ref = R.str();
    else
      EXPECT_EQ(R.str(), Ref) << "analyze diverges at --jobs " << Jobs;
  }
  EXPECT_FALSE(Ref.empty());
}

TEST(AnalyzeTest, ParseErrorProducesParseErrorBlock) {
  AnalyzeFileResult F =
      analyzeSourceBlock("procedure main( {", "bad.hv");
  EXPECT_EQ(F.Verdict, "parse-error");
  EXPECT_EQ(F.Block.rfind("verdict: parse-error\n", 0), 0u);
}
