//===-- tests/fuzz/CampaignTest.cpp - Campaign runner tests ----------------===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Campaign-scale properties: a clean campaign over generated seeds, the
/// job-count determinism contract (byte-identical JSON at --jobs 1 and
/// --jobs 8, with and without findings to shrink), fault-injected finding
/// production, the time-budget escape hatch, and corpus file round-trips.
///
//===----------------------------------------------------------------------===//

#include "fuzz/Campaign.h"
#include "fuzz/Corpus.h"

#include "tests/common/TestUtil.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

using namespace commcsl;

namespace {

/// Small campaign config shared by the determinism tests.
CampaignConfig smallConfig() {
  CampaignConfig Config;
  Config.BaseSeed = 2026;
  Config.NumSeeds = 24;
  return Config;
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  std::ostringstream OS;
  OS << In.rdbuf();
  return OS.str();
}

} // namespace

TEST(CampaignTest, CleanCampaignOverGeneratedSeeds) {
  CampaignConfig Config = smallConfig();
  CampaignReport R = runCampaign(Config);
  EXPECT_TRUE(R.clean()) << R.json();
  EXPECT_EQ(R.SeedsRun, Config.NumSeeds);
  EXPECT_EQ(R.SeedsSkipped, 0u);
  EXPECT_EQ(R.Agree, R.SeedsRun) << R.json();
  EXPECT_EQ(R.SoundnessViolations, 0u);
  EXPECT_EQ(R.GeneratorInvalids, 0u);
  // The generator mixes leaky and secure programs; both cells of the
  // agreement diagonal must be populated.
  EXPECT_GT(R.TaintedSeeds, 0u);
  EXPECT_GT(R.VerifiedSeeds, 0u);
  EXPECT_LT(R.VerifiedSeeds, R.SeedsRun);
  EXPECT_TRUE(R.Findings.empty());
}

TEST(CampaignTest, JsonIsByteIdenticalAcrossJobCounts) {
  CampaignConfig Config = smallConfig();
  Config.Jobs = 1;
  std::string Sequential = runCampaign(Config).json();
  Config.Jobs = 8;
  std::string Parallel = runCampaign(Config).json();
  EXPECT_EQ(Sequential, Parallel);
}

TEST(CampaignTest, JsonWithShrunkFindingsIsByteIdenticalAcrossJobCounts) {
  // The stronger determinism claim: parallel shrinking of findings (the
  // expensive phase) merges in seed order too.
  CampaignConfig Config;
  Config.BaseSeed = 11;
  Config.NumSeeds = 6;
  Config.Gen.TargetStatements = 8;
  Config.Oracle.Inject = OracleFault::AcceptAll;
  Config.Shrink.MaxOracleRuns = 40;

  Config.Jobs = 1;
  CampaignReport Sequential = runCampaign(Config);
  Config.Jobs = 8;
  CampaignReport Parallel = runCampaign(Config);
  ASSERT_GT(Sequential.Findings.size(), 0u)
      << "accept-all injection produced no findings to shrink";
  EXPECT_EQ(Sequential.json(), Parallel.json());
}

TEST(CampaignTest, InjectedFaultProducesShrunkFindings) {
  CampaignConfig Config;
  Config.BaseSeed = 11;
  Config.NumSeeds = 6;
  Config.Gen.TargetStatements = 8;
  Config.Oracle.Inject = OracleFault::AcceptAll;
  Config.Shrink.MaxOracleRuns = 40;
  CampaignReport R = runCampaign(Config);

  EXPECT_FALSE(R.clean());
  EXPECT_GT(R.SoundnessViolations, 0u);
  EXPECT_EQ(R.Findings.size(),
            size_t(R.SoundnessViolations + R.CompletenessGaps + R.Flakes +
                   R.GeneratorInvalids));
  for (const CampaignFinding &F : R.Findings) {
    EXPECT_EQ(F.Class, OracleClass::SoundnessViolation);
    EXPECT_TRUE(F.GenTainted);
    EXPECT_LE(F.StatementsAfter, F.StatementsBefore);
    EXPECT_GT(F.ShrinkOracleRuns, 0u);
    DiagnosticEngine Diags;
    Parser::parse(F.Source, Diags);
    EXPECT_FALSE(Diags.hasErrors()) << F.Source;
  }
}

TEST(CampaignTest, JsonCarriesTheReportShape) {
  CampaignConfig Config = smallConfig();
  Config.NumSeeds = 4;
  std::string J = runCampaign(Config).json();
  for (const char *Key :
       {"\"fuzz_campaign\"", "\"base_seed\": 2026", "\"seeds_run\": 4",
        "\"counts\"", "\"soundness_violation\": 0", "\"generator_invalid\": 0",
        "\"verdicts\"", "\"findings\": []"})
    EXPECT_NE(J.find(Key), std::string::npos) << "missing " << Key << "\n" << J;
  // The determinism contract forbids timing data in the report.
  EXPECT_EQ(J.find("time"), std::string::npos) << J;
}

TEST(CampaignTest, TimeBudgetSkipsTrailingSeeds) {
  CampaignConfig Config = smallConfig();
  Config.Jobs = 1;
  Config.TimeBudgetSeconds = 1e-9;
  CampaignReport R = runCampaign(Config);
  EXPECT_EQ(R.SeedsRun + R.SeedsSkipped, Config.NumSeeds);
  EXPECT_GT(R.SeedsSkipped, 0u);
}

//===----------------------------------------------------------------------===//
// Corpus serialization.
//===----------------------------------------------------------------------===//

TEST(CorpusTest, RenderParseRoundTrip) {
  CampaignFinding F;
  F.SeedIndex = 3;
  F.Seed = 123456789;
  F.Class = OracleClass::SoundnessViolation;
  F.GenTainted = true;
  F.Detail = "injected acceptance of a generator-tainted program\nsecond line";
  F.StatementsBefore = 53;
  F.StatementsAfter = 1;
  F.Source = "procedure main(l: int, h: int) returns (out: int)\n"
             "  requires low(l)\n  ensures low(out)\n{\n  out := h;\n}\n";

  std::string Content = renderCorpusEntry(F, OracleFault::AcceptAll);
  std::optional<CorpusEntry> E = parseCorpusEntry(Content);
  ASSERT_TRUE(E.has_value()) << Content;
  EXPECT_EQ(E->Class, F.Class);
  EXPECT_EQ(E->Seed, F.Seed);
  EXPECT_EQ(E->SeedIndex, F.SeedIndex);
  EXPECT_EQ(E->GenTainted, F.GenTainted);
  EXPECT_EQ(E->Inject, OracleFault::AcceptAll);
  EXPECT_EQ(E->Source, F.Source);
  // Multi-line details are flattened into the one-line header field.
  EXPECT_EQ(E->Detail.find('\n'), std::string::npos);
}

TEST(CorpusTest, MalformedContentIsRejected) {
  EXPECT_FALSE(parseCorpusEntry("").has_value());
  EXPECT_FALSE(parseCorpusEntry("procedure main() {}").has_value());
  EXPECT_FALSE(parseCorpusEntry("// fuzz-corpus v1\n").has_value());
}

TEST(CorpusTest, FileNameIsClassAndSeedIndex) {
  CampaignFinding F;
  F.SeedIndex = 7;
  F.Class = OracleClass::CompletenessGap;
  EXPECT_EQ(corpusFileName(F), "completeness-gap-seed7.hv");
}

TEST(CorpusTest, WriteCorpusFilesWritesReplayableEntries) {
  CampaignConfig Config;
  Config.BaseSeed = 11;
  Config.NumSeeds = 4;
  Config.Gen.TargetStatements = 8;
  Config.Oracle.Inject = OracleFault::AcceptAll;
  Config.Shrink.MaxOracleRuns = 30;
  CampaignReport R = runCampaign(Config);
  ASSERT_GT(R.Findings.size(), 0u);

  std::string Dir = ::testing::TempDir() + "/commcsl-corpus-test";
  std::filesystem::remove_all(Dir);
  CorpusWriteResult W = writeCorpusFiles(R, Dir);
  EXPECT_EQ(W.Unwritten, "");
  const std::vector<std::string> &Paths = W.Paths;
  ASSERT_EQ(Paths.size(), R.Findings.size());
  for (size_t I = 0; I < Paths.size(); ++I) {
    std::optional<CorpusEntry> E = parseCorpusEntry(readFile(Paths[I]));
    ASSERT_TRUE(E.has_value()) << Paths[I];
    EXPECT_EQ(E->Class, R.Findings[I].Class);
    EXPECT_EQ(E->Seed, R.Findings[I].Seed);
    EXPECT_EQ(E->Inject, OracleFault::AcceptAll);
  }
  std::filesystem::remove_all(Dir);
}
