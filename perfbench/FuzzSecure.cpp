//===-- perfbench/FuzzSecure.cpp - The fuzz-secure workload ----------------===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed-seed differential fuzz campaign: 200 secure-by-construction
/// seeds (the `--secure-only` generator), shrinking on, at 2 jobs, run as
/// 50 `runCampaign` calls of 4 seeds so that the campaign latency has
/// enough samples, two campaigns at a time. `--seed` only orders the
/// campaigns.
///
/// The traced run rebuilds each campaign from its public calls
/// (`deriveSeed`, `generateProgram`, `DifferentialOracle::evaluate`,
/// `shrinkProgram`), snapshots the metrics registry between the evaluate
/// and the shrink phase so shrinker probes land under `fuzz.shrink.*`, and
/// asserts that the rebuilt report equals `runCampaign`'s JSON.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "analysis/Analysis.h"
#include "fuzz/Campaign.h"
#include "hyperviper/Driver.h"
#include "support/ThreadPool.h"
#include "support/trace/Metrics.h"

#include <algorithm>
#include <atomic>
#include <thread>

using namespace perfbench;
using namespace commcsl;

namespace {

constexpr uint64_t BaseSeed = 1;
constexpr unsigned SeedsPerCampaign = 4;
constexpr unsigned NumCampaigns = 50;
constexpr unsigned Jobs = 2;
constexpr unsigned CampaignStreams = 2;
/// A campaign outside the measured set, used to warm up. Its seeds all
/// agree, so warming up never shrinks.
constexpr uint64_t WarmupIndex = 1000;

CampaignConfig campaignConfig(uint64_t Index, unsigned JobCount = Jobs) {
  CampaignConfig C;
  C.BaseSeed = deriveSeed(BaseSeed, Index);
  C.NumSeeds = SeedsPerCampaign;
  C.Jobs = JobCount;
  C.Gen.AllowLeakyOutput = false; // --secure-only
  C.ShrinkFindings = true;
  return C;
}

/// Classes that must never occur. Completeness gaps are the fuzzer's
/// known incompleteness: reported, not counted as failed operations.
bool mustNotOccur(OracleClass C) {
  return C != OracleClass::Agree && C != OracleClass::CompletenessGap;
}

struct SeedTally {
  uint64_t Seeds = 0;
  uint64_t NonAgree = 0;
  uint64_t Gaps = 0;
};

void tallyCampaign(const CampaignReport &Rep, Report &R, SeedTally &T) {
  T.Seeds += Rep.SeedsRun;
  T.NonAgree += Rep.SeedsRun - Rep.Agree;
  T.Gaps += Rep.CompletenessGaps;
  uint64_t Bad = 0;
  for (const CampaignFinding &F : Rep.Findings)
    Bad += mustNotOccur(F.Class) ? 1 : 0;
  R.Attempted += Rep.SeedsRun;
  R.Failed += Bad + Rep.SeedsSkipped;
}

/// One pass over the campaigns in seeded order.
std::vector<uint64_t> passOrder(uint64_t Seed, uint64_t Pass) {
  std::vector<uint64_t> Out;
  for (size_t I : shuffledOrder(NumCampaigns, deriveSeed(Seed, Pass)))
    Out.push_back(I);
  return Out;
}

/// The rebuilt campaign: runCampaign's two phases from public calls, with
/// spans and a registry snapshot between the phases.
struct Rebuild {
  SpanRecorder &Spans;
  RegistrySnapshot Eval, Shrink;
  uint64_t ShrinkOracleRuns = 0;
  std::vector<std::string> Sources; ///< generated programs, for analysis

  CampaignReport run(uint64_t Index) {
    CampaignConfig C = campaignConfig(Index);
    CampaignReport Rep;
    Rep.Config = C;
    DifferentialOracle Oracle(C.Oracle);
    struct Outcome {
      OracleResult Result;
      GeneratedProgram GP;
      uint64_t Seed = 0;
    };
    std::vector<Outcome> Out(C.NumSeeds);
    RegistrySnapshot S0 = snapshotRegistry();
    ThreadPool::shared().parallelForChunks(
        C.NumSeeds, C.Jobs, [&](uint64_t Begin, uint64_t End, unsigned) {
          for (uint64_t I = Begin; I < End; ++I) {
            uint64_t Op = Index * SeedsPerCampaign + I;
            SpanRecorder::Scope OpSpan(Spans, "bench.op", Op);
            GenConfig GC = C.Gen;
            GC.Seed = deriveSeed(C.BaseSeed, I);
            Out[I].Seed = GC.Seed;
            {
              SpanRecorder::Scope S(Spans, "testgen.generate", Op);
              Out[I].GP = generateProgram(GC);
            }
            SpanRecorder::Scope S(Spans, "fuzz.oracle", Op);
            Out[I].Result = Oracle.evaluate(
                Out[I].GP.Source, Out[I].GP.OutputTainted, GC.Seed);
          }
        });
    RegistrySnapshot S1 = snapshotRegistry();
    Eval += S1 - S0;

    for (unsigned I = 0; I < C.NumSeeds; ++I) {
      const Outcome &O = Out[I];
      Sources.push_back(O.GP.Source);
      ++Rep.SeedsRun;
      Rep.TaintedSeeds += O.GP.OutputTainted ? 1 : 0;
      Rep.VerifiedSeeds += O.Result.Verdicts.Verified ? 1 : 0;
      Rep.StaticSecureSeeds += O.Result.Verdicts.StaticSecure ? 1 : 0;
      switch (O.Result.Class) {
      case OracleClass::Agree:
        ++Rep.Agree;
        continue;
      case OracleClass::SoundnessViolation:
        ++Rep.SoundnessViolations;
        break;
      case OracleClass::AnalysisUnsound:
        ++Rep.AnalysisUnsound;
        break;
      case OracleClass::CompletenessGap:
        ++Rep.CompletenessGaps;
        break;
      case OracleClass::CertInvalid:
        ++Rep.CertInvalids;
        break;
      case OracleClass::Flake:
        ++Rep.Flakes;
        break;
      case OracleClass::GeneratorInvalid:
        ++Rep.GeneratorInvalids;
        break;
      }
      CampaignFinding F;
      F.SeedIndex = I;
      F.Seed = O.Seed;
      F.Class = O.Result.Class;
      F.GenTainted = O.GP.OutputTainted;
      F.Detail = O.Result.Detail;
      F.StatementsBefore = F.StatementsAfter = O.GP.Statements;
      F.Source = O.GP.Source;
      Rep.Findings.push_back(std::move(F));
    }

    ShrinkConfig SC = C.Shrink;
    SC.Oracle = C.Oracle;
    std::vector<unsigned> Runs(Rep.Findings.size(), 0);
    ThreadPool::shared().parallelForChunks(
        Rep.Findings.size(), C.Jobs,
        [&](uint64_t Begin, uint64_t End, unsigned) {
          for (uint64_t I = Begin; I < End; ++I) {
            CampaignFinding &F = Rep.Findings[I];
            if (F.Class == OracleClass::GeneratorInvalid)
              continue;
            SpanRecorder::Scope S(Spans, "fuzz.shrink",
                                  Index * SeedsPerCampaign + F.SeedIndex);
            ShrinkResult SR =
                shrinkProgram(F.Source, F.GenTainted, F.Class, F.Seed, SC);
            Runs[I] = SR.Stats.OracleRuns;
            if (SR.Class != F.Class)
              continue;
            F.Source = SR.Source;
            F.StatementsBefore = SR.Stats.StatementsBefore;
            F.StatementsAfter = SR.Stats.StatementsAfter;
            F.ShrinkOracleRuns = SR.Stats.OracleRuns;
          }
        });
    for (unsigned N : Runs)
      ShrinkOracleRuns += N;
    Shrink += snapshotRegistry() - S1;
    return Rep;
  }
};

} // namespace

Report perfbench::runFuzzSecure(const Options &O) {
  Report R;
  std::vector<double> Setup;
  for (unsigned Rep = 0; Rep < SetupRepeats; ++Rep) {
    Clock::time_point T0 = Clock::now();
    CampaignReport W = runCampaign(campaignConfig(WarmupIndex));
    if (W.Agree != W.SeedsRun)
      R.note("warm-up campaign had findings; warm-up is no longer cheap");
    Setup.push_back(secondsSince(T0));
  }

  SeedTally Seeds;
  if (!O.Trace) {
    // Whole passes only, so every run measures the same seeds and the same
    // number of campaign latencies. The pass count follows the run length:
    // one pass per 3.75 s asked for (a pass takes 4-5 s with two streams
    // on a 4-core machine).
    const unsigned NumPasses =
        std::max(1u, static_cast<unsigned>(O.Seconds / 3.75 + 0.5));
    std::vector<uint64_t> Todo;
    for (uint64_t Pass = 0; Pass < NumPasses; ++Pass)
      for (uint64_t K : passOrder(O.Seed, Pass))
        Todo.push_back(K);
    // Campaign streams run side by side (each campaign at 2 jobs, so at
    // most 4 busy threads): alone, the shrinker's long serial stretches
    // would time one core of a shared machine. They take campaigns from
    // one list, so neither idles while the other finishes a long tail.
    std::atomic<size_t> Next{0};
    std::vector<Sample> StreamLat[CampaignStreams];
    std::vector<CampaignReport> StreamReps[CampaignStreams];
    Clock::time_point T0 = Clock::now();
    auto Body = [&](unsigned S) {
      for (size_t I; (I = Next.fetch_add(1)) < Todo.size();) {
        Clock::time_point A = Clock::now();
        StreamReps[S].push_back(runCampaign(campaignConfig(Todo[I])));
        Clock::time_point B = Clock::now();
        StreamLat[S].push_back({msBetween(T0, B) / 1000.0, msBetween(A, B)});
      }
    };
    std::vector<std::thread> Threads;
    for (unsigned S = 1; S < CampaignStreams; ++S)
      Threads.emplace_back(Body, S);
    Body(0);
    for (std::thread &T : Threads)
      T.join();
    double Elapsed = secondsSince(T0);
    std::vector<Sample> Lat;
    for (unsigned S = 0; S < CampaignStreams; ++S) {
      Lat.insert(Lat.end(), StreamLat[S].begin(), StreamLat[S].end());
      for (const CampaignReport &Rep : StreamReps[S])
        tallyCampaign(Rep, R, Seeds);
    }
    addEndToEnd(R, Setup, Seeds.Seeds, Elapsed, Lat);
    R.note("fuzz-secure latency is per 4-seed campaign; seeds " +
           std::to_string(Seeds.Seeds) + ", non-agree " +
           std::to_string(Seeds.NonAgree) + " (completeness gaps " +
           std::to_string(Seeds.Gaps) +
           ", known incompleteness, not counted as failed)");
    R.Correct = R.Failed == 0;
    return R;
  }

  // Traced run. First the determinism self-check, which also warms the
  // shrinker up: the first campaign with findings and the first without
  // run twice at 2 jobs and once at 1 job; registry counts and reports
  // must agree.
  MetricsRegistry &M = MetricsRegistry::global();
  std::vector<std::string> Drift;
  bool Probed[2] = {false, false}; // [has findings]
  for (uint64_t K = 0; K < NumCampaigns && !(Probed[0] && Probed[1]); ++K) {
    M.resetAll();
    std::string First = runCampaign(campaignConfig(K)).json();
    bool HasFindings = First.find("\"seed_index\"") != std::string::npos;
    if (Probed[HasFindings])
      continue;
    Probed[HasFindings] = true;
    RegistrySnapshot Base = snapshotRegistry();
    for (unsigned JobCount : {Jobs, 1u}) {
      M.resetAll();
      std::string Again = runCampaign(campaignConfig(K, JobCount)).json();
      for (const std::string &Key : differingCounts(Base, snapshotRegistry()))
        if (std::find(Drift.begin(), Drift.end(), Key) == Drift.end())
          Drift.push_back(Key);
      // The report carries the job count nowhere, so it must be identical.
      if (Again != First)
        Drift.push_back("campaign report " + std::to_string(K));
    }
  }
  for (const std::string &K : Drift)
    R.note("non-deterministic count: " + K);

  // One pass, each campaign run by runCampaign (the untraced reference
  // and the expected report) and then rebuilt with spans, so drift over
  // the run charges both sides alike. The rebuild snapshots the
  // process-wide registry between phases, so nothing runs beside it.
  SpanRecorder Spans(true);
  Rebuild RB{Spans, {}, {}, 0, {}};
  M.resetAll();
  double RefS = 0, TracedS = 0, Cpu = 0;
  uint64_t Mismatches = 0;
  for (uint64_t K : passOrder(O.Seed, 0)) {
    Clock::time_point A = Clock::now();
    CampaignReport Ref = runCampaign(campaignConfig(K));
    RefS += secondsSince(A);
    tallyCampaign(Ref, R, Seeds);
    double Cpu0 = processCpuSeconds();
    Clock::time_point B = Clock::now();
    CampaignReport Rep = RB.run(K);
    TracedS += secondsSince(B);
    Cpu += processCpuSeconds() - Cpu0;
    tallyCampaign(Rep, R, Seeds);
    if (Rep.json() != Ref.json()) {
      ++Mismatches;
      R.note("rebuilt campaign " + std::to_string(K) +
             " differs from runCampaign's report");
    }
  }
  double SeedsD = static_cast<double>(NumCampaigns * SeedsPerCampaign);

  // Static analysis runs inside the oracle where no span can reach it;
  // time the same call on the same programs on the side.
  for (size_t I = 0; I < RB.Sources.size(); ++I) {
    Driver D;
    ParsedUnit U = D.parseAndCheck(RB.Sources[I], "<fuzz>");
    if (!U.Ok)
      continue;
    SpanRecorder::Scope S(Spans, "analysis.analyze", I);
    analyzeProgram(*U.Prog);
  }

  std::map<std::string, double> Self = Spans.selfMsByName();
  std::map<std::string, double> Longest = Spans.maxMsByName();
  double Gen = Self["testgen.generate"], Orc = Self["fuzz.oracle"],
         Shr = Self["fuzz.shrink"];
  LayerMetrics L;
  L.fillFromRegistry(RB.Eval, SeedsD);
  RegistrySnapshot Both = RB.Eval;
  Both += RB.Shrink;
  L.set("threadpool.tasks_executed",
        Both.get("threadpool.tasks_executed") / SeedsD);
  L.set("threadpool.tasks_stolen", Both.get("threadpool.tasks_stolen") / SeedsD);
  L.fillSelfTimes(Spans, SeedsD);
  L.set("fuzz.shrink_share", Gen + Orc + Shr > 0 ? Shr / (Gen + Orc + Shr) : 0);
  L.set("fuzz.shrink_oracle_runs",
        static_cast<double>(RB.ShrinkOracleRuns) / SeedsD);
  L.set("fuzz.shrink.ni_runs", RB.Shrink.get("ni.runs") / SeedsD);
  L.set("fuzz.critical_path_ms",
        std::max(Longest["bench.op"], Longest["fuzz.shrink"]));
  L.set("fuzz.non_agree_frac", static_cast<double>(Seeds.NonAgree) /
                                   static_cast<double>(Seeds.Seeds));
  L.set("process.cpu_over_wall", Cpu / TracedS);
  L.set("bench.trace_overhead_frac", TracedS / RefS - 1.0);
  L.set("bench.nondeterministic_counts", static_cast<double>(Drift.size()));
  L.set("failed_frac",
        static_cast<double>(R.Failed) / static_cast<double>(R.Attempted));
  L.emit(R);

  R.note("seeds " + std::to_string(Seeds.Seeds) + ", non-agree " +
         std::to_string(Seeds.NonAgree) + " (completeness gaps " +
         std::to_string(Seeds.Gaps) +
         ", known incompleteness, not counted as failed)");
  R.note("registry counts split at the evaluate/shrink boundary "
         "(eval | fuzz.shrink.*):");
  for (const auto &[K, V] : RB.Eval.Counts) {
    double S = RB.Shrink.Counts.count(K) ? RB.Shrink.Counts.at(K) : 0;
    if (V != 0 || S != 0)
      R.note("  " + K + " " + fmt(V, 0) + " | fuzz.shrink." + K + " " +
             fmt(S, 0));
  }
  Spans.write(O.Workload, R);
  R.Correct = R.Failed == 0 && Mismatches == 0;
  return R;
}
