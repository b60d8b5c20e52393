//===-- perfbench/Harness.cpp - End-to-end benchmark harness ---------------===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "service/Json.h"
#include "support/ThreadPool.h"
#include "support/trace/Metrics.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <thread>

using namespace perfbench;
using commcsl::JsonValue;

void Report::metric(const std::string &Name, double Value,
                    const std::string &Unit) {
  // A result line must stay valid JSON; no computed metric is allowed to
  // go non-finite, but a zero denominator upstream would make it so.
  Metrics.push_back({Name, std::isfinite(Value) ? Value : 0.0, Unit});
}

void Report::note(const std::string &Line) { Notes.push_back(Line); }

std::string perfbench::fmt(double V, int Decimals) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.*f", Decimals, V);
  return Buf;
}

static std::string jsonNumber(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

void perfbench::printReport(const Report &R) {
  for (const std::string &L : R.Notes)
    std::printf("# %s\n", L.c_str());
  for (const Report::Metric &M : R.Metrics)
    std::printf("%-36s %14s %s\n", M.Name.c_str(), fmt(M.Value, 6).c_str(),
                M.Unit.c_str());
  std::string Line = "{\"correct\": ";
  Line += R.Correct ? "true" : "false";
  Line += ", \"attempted\": " + std::to_string(R.Attempted);
  Line += ", \"failed\": " + std::to_string(R.Failed);
  Line += ", \"metrics\": {";
  for (size_t I = 0; I < R.Metrics.size(); ++I) {
    const Report::Metric &M = R.Metrics[I];
    Line += (I ? ", \"" : "\"") + M.Name + "\": {\"value\": " +
            jsonNumber(M.Value) + ", \"unit\": \"" + M.Unit + "\"}";
  }
  Line += "}}";
  std::printf("%s\n", Line.c_str());
  std::fflush(stdout);
}

double perfbench::quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  return V[Lo] + (V[Hi] - V[Lo]) * Frac;
}

double perfbench::median(std::vector<double> V) {
  return quantile(std::move(V), 0.5);
}

std::vector<double> perfbench::millis(const std::vector<Sample> &Samples) {
  std::vector<double> Out;
  Out.reserve(Samples.size());
  for (const Sample &S : Samples)
    Out.push_back(S.Ms);
  return Out;
}

LatencySummary perfbench::summarizeLatency(std::vector<Sample> Samples) {
  constexpr size_t MinPerWindow = 1000, MaxWindows = 10;
  LatencySummary S;
  S.N = Samples.size();
  if (Samples.empty())
    return S;
  std::stable_sort(Samples.begin(), Samples.end(),
                   [](const Sample &A, const Sample &B) {
                     return A.EndS < B.EndS;
                   });
  S.Windows = std::max<size_t>(1, std::min(MaxWindows, S.N / MinPerWindow));
  std::vector<double> P50s, Tops;
  S.TopQuantile = 0.99;
  for (size_t W = 0; W < S.Windows; ++W) {
    std::vector<double> Ms;
    for (size_t I = W * S.N / S.Windows; I < (W + 1) * S.N / S.Windows; ++I)
      Ms.push_back(Samples[I].Ms);
    // p99 needs 1000 samples to leave ten beyond it; below that, take the
    // highest percentile that does (never below the median).
    double Q = std::max(
        0.5, std::min(0.99, 1.0 - 10.0 / static_cast<double>(Ms.size())));
    S.TopQuantile = std::min(S.TopQuantile, Q);
    P50s.push_back(quantile(Ms, 0.5));
    Tops.push_back(quantile(std::move(Ms), Q));
  }
  S.P50 = median(std::move(P50s));
  S.Top = median(std::move(Tops));
  return S;
}

double perfbench::peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

double perfbench::processCpuSeconds() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  auto Sec = [](const timeval &T) {
    return static_cast<double>(T.tv_sec) +
           static_cast<double>(T.tv_usec) / 1e6;
  };
  return Sec(U.ru_utime) + Sec(U.ru_stime);
}

void perfbench::addEndToEnd(Report &R, const std::vector<double> &SetupSeconds,
                            uint64_t Ops, double ElapsedSeconds,
                            const std::vector<Sample> &Latency,
                            std::optional<double> P50) {
  LatencySummary L = summarizeLatency(Latency);
  R.metric("setup_s", median(SetupSeconds), "s");
  R.metric("ops_per_s",
           ElapsedSeconds > 0 ? static_cast<double>(Ops) / ElapsedSeconds : 0,
           "1/s");
  R.metric("latency_ms.p50", P50 ? *P50 : L.P50, "ms");
  R.metric("latency_ms.p99", L.Top, "ms");
  R.metric("peak_rss_mb", peakRssMb(), "MiB");
  R.note(std::string(P50 ? "latency_ms.p50: median over files of each "
                           "file's median; latency_ms.p99"
                         : "latency_ms.p50/p99") +
         ": medians over " + std::to_string(L.Windows) + " windows of " +
         std::to_string(L.N) + " samples in completion order; p99 is p" +
         fmt(L.TopQuantile * 100, 1) +
         " (highest percentile with >= 10 samples beyond it in a window, "
         "capped at p99)");
  R.note("setup repeated " + std::to_string(SetupSeconds.size()) +
         " times; setup_s is the median");
  R.note("failed_frac = " + std::to_string(R.Failed) + "/" +
         std::to_string(R.Attempted) + " = " +
         fmt(R.Attempted ? static_cast<double>(R.Failed) /
                               static_cast<double>(R.Attempted)
                         : 0,
             6));
}

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

namespace {
thread_local int64_t CurrentSpan = -1;
std::atomic<unsigned> NextThreadId{0};
thread_local unsigned ThreadId = NextThreadId.fetch_add(1);
} // namespace

uint64_t SpanRecorder::nowUs() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                            Epoch)
          .count());
}

SpanRecorder::Scope::Scope(SpanRecorder &R, const char *Name, uint64_t Op) {
  if (!R.Enabled)
    return;
  Rec = &R;
  Saved = CurrentSpan;
  Span S;
  S.Name = Name;
  S.Parent = CurrentSpan;
  S.Op = Op;
  S.Thread = ThreadId;
  std::lock_guard<std::mutex> Lock(R.Mu);
  S.StartUs = R.nowUs();
  Index = R.Spans.size();
  R.Spans.push_back(std::move(S));
  CurrentSpan = static_cast<int64_t>(Index);
}

SpanRecorder::Scope::~Scope() {
  if (!Rec)
    return;
  CurrentSpan = Saved;
  std::lock_guard<std::mutex> Lock(Rec->Mu);
  Rec->Spans[Index].EndUs = Rec->nowUs();
}

void SpanRecorder::record(const char *Name, Clock::time_point Start,
                          Clock::time_point End, uint64_t Op) {
  if (!Enabled)
    return;
  auto Us = [&](Clock::time_point T) {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(T - Epoch)
            .count());
  };
  Span S;
  S.Name = Name;
  S.StartUs = Us(Start);
  S.EndUs = Us(End);
  S.Op = Op;
  S.Thread = ThreadId;
  std::lock_guard<std::mutex> Lock(Mu);
  Spans.push_back(std::move(S));
}

std::map<std::string, double> SpanRecorder::selfMsByName() const {
  std::lock_guard<std::mutex> Lock(Mu);
  std::vector<double> ChildUs(Spans.size(), 0.0);
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      ChildUs[static_cast<size_t>(S.Parent)] +=
          static_cast<double>(S.EndUs - S.StartUs);
  std::map<std::string, double> Out;
  for (size_t I = 0; I < Spans.size(); ++I) {
    double Dur = static_cast<double>(Spans[I].EndUs - Spans[I].StartUs);
    Out[Spans[I].Name] += std::max(0.0, Dur - ChildUs[I]) / 1000.0;
  }
  return Out;
}

std::map<std::string, double> SpanRecorder::maxMsByName() const {
  std::lock_guard<std::mutex> Lock(Mu);
  std::map<std::string, double> Out;
  for (const Span &S : Spans) {
    double &M = Out[S.Name];
    M = std::max(M, static_cast<double>(S.EndUs - S.StartUs) / 1000.0);
  }
  return Out;
}

size_t SpanRecorder::size() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Spans.size();
}

void SpanRecorder::write(const std::string &Workload, Report &R) const {
  std::ostringstream OS;
  OS << "[\n";
  {
    std::lock_guard<std::mutex> Lock(Mu);
    for (size_t I = 0; I < Spans.size(); ++I) {
      const Span &S = Spans[I];
      OS << (I ? ",\n" : "") << "{\"id\": " << I << ", \"name\": \""
         << S.Name << "\", \"start_us\": " << S.StartUs
         << ", \"end_us\": " << S.EndUs << ", \"parent\": " << S.Parent
         << ", \"op\": " << S.Op << ", \"thread\": " << S.Thread << "}";
    }
  }
  OS << "\n]\n";
  std::string Path = ".bench_out/spans-" + Workload + ".json";
  if (!writeFile(Path, OS.str()))
    R.note("could not write " + Path);
}

//===----------------------------------------------------------------------===//
// Registry snapshots
//===----------------------------------------------------------------------===//

double RegistrySnapshot::get(const std::string &Name) const {
  auto It = All.find(Name);
  return It == All.end() ? 0.0 : It->second;
}

RegistrySnapshot RegistrySnapshot::operator-(const RegistrySnapshot &B) const {
  auto Diff = [](const std::map<std::string, double> &X,
                 const std::map<std::string, double> &Y) {
    std::map<std::string, double> D = X;
    for (const auto &[K, V] : Y)
      D[K] -= V;
    return D;
  };
  return {Diff(Counts, B.Counts), Diff(All, B.All)};
}

RegistrySnapshot &RegistrySnapshot::operator+=(const RegistrySnapshot &O) {
  for (const auto &[K, V] : O.Counts)
    Counts[K] += V;
  for (const auto &[K, V] : O.All)
    All[K] += V;
  return *this;
}

RegistrySnapshot perfbench::snapshotRegistry() {
  RegistrySnapshot S;
  std::optional<JsonValue> J =
      JsonValue::parse(commcsl::MetricsRegistry::global().json());
  if (!J || !J->isObject())
    return S;
  for (const char *Section : {"counts", "timings"}) {
    const JsonValue *Sec = J->find(Section);
    if (!Sec || !Sec->isObject())
      continue;
    for (const auto &[K, V] : Sec->members()) {
      if (V.kind() != JsonValue::Kind::Number)
        continue; // histograms
      S.All[K] = V.asDouble();
      if (std::string(Section) == "counts")
        S.Counts[K] = V.asDouble();
    }
  }
  return S;
}

std::vector<std::string> perfbench::differingCounts(const RegistrySnapshot &A,
                                                    const RegistrySnapshot &B) {
  std::vector<std::string> Out;
  std::map<std::string, double> Keys = A.Counts;
  Keys.insert(B.Counts.begin(), B.Counts.end());
  for (const auto &[K, V] : Keys) {
    (void)V;
    auto IA = A.Counts.find(K), IB = B.Counts.find(K);
    double VA = IA == A.Counts.end() ? 0 : IA->second;
    double VB = IB == B.Counts.end() ? 0 : IB->second;
    if (VA != VB)
      Out.push_back(K);
  }
  return Out;
}

std::vector<std::string> perfbench::countDrift(const std::function<void()> &Pass,
                                               Report &R) {
  RegistrySnapshot Runs[2];
  for (RegistrySnapshot &S : Runs) {
    commcsl::MetricsRegistry::global().resetAll();
    Pass();
    S = snapshotRegistry();
  }
  std::vector<std::string> Drift = differingCounts(Runs[0], Runs[1]);
  for (const std::string &K : Drift)
    R.note("non-deterministic count: " + K);
  return Drift;
}

//===----------------------------------------------------------------------===//
// Per-layer metrics
//===----------------------------------------------------------------------===//

LayerMetrics::LayerMetrics() {
  Order = {
      {"parser.parse_check_ms", "ms/op"},
      {"parser.loc", "count/op"},
      {"rspec.verify_spec_ms", "ms/op"},
      {"rspec.bounded_checks", "count/op"},
      {"rspec.random_checks", "count/op"},
      {"rspec.history_checks", "count/op"},
      {"rspec.unbounded_ratio", "ratio"},
      {"rspec.memo_hit_ratio", "ratio"},
      {"absint.obligations", "count/op"},
      {"absint.proved_ratio", "ratio"},
      {"absint.rewrite_steps", "count/op"},
      {"absint.splits", "count/op"},
      {"verifier.verify_proc_ms", "ms/op"},
      {"verifier.obligations", "count/op"},
      {"cert.parse_ms", "ms/op"},
      {"cert.check_ms", "ms/op"},
      {"cert.bytes", "B/op"},
      {"cert.check_over_verify", "ratio"},
      {"hyper.ni_ms", "ms/op"},
      {"hyper.ni_runs", "count/op"},
      {"hyper.ni_pairs", "count/op"},
      {"analysis.analyze_ms", "ms/op"},
      {"testgen.generate_ms", "ms/op"},
      {"fuzz.oracle_ms", "ms/op"},
      {"fuzz.shrink_ms", "ms/op"},
      {"fuzz.shrink_share", "ratio"},
      {"fuzz.shrink_oracle_runs", "count/op"},
      {"fuzz.shrink.ni_runs", "count/op"},
      {"fuzz.critical_path_ms", "ms"},
      {"fuzz.non_agree_frac", "ratio"},
      {"service.rtt_ms.verify", "ms"},
      {"service.rtt_ms.verify_cert", "ms"},
      {"service.rtt_ms.validity", "ms"},
      {"service.rtt_ms.analyze", "ms"},
      {"service.program_cache_hit_ratio", "ratio"},
      {"service.busy_frac", "ratio"},
      {"service.backlog_max", "count"},
      {"threadpool.tasks_executed", "count/op"},
      {"threadpool.tasks_stolen", "count/op"},
      {"process.cpu_over_wall", "ratio"},
      {"bench.sender_late_ms.p99", "ms"},
      {"bench.trace_overhead_frac", "ratio"},
      {"bench.nondeterministic_counts", "count"},
      {"failed_frac", "ratio"},
  };
  for (const auto &[Name, Unit] : Order) {
    (void)Unit;
    Values[Name] = 0;
  }
}

void LayerMetrics::set(const std::string &Name, double Value) {
  // Only declared names may be set: a typo must not create a metric the
  // benchmark definition does not know.
  auto It = Values.find(Name);
  if (It == Values.end()) {
    std::fprintf(stderr, "perfbench: internal error: unknown metric %s\n",
                 Name.c_str());
    std::abort();
  }
  It->second = Value;
}

static double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0; }

void LayerMetrics::fillFromRegistry(const RegistrySnapshot &D, double Ops) {
  const char *Props[] = {"preconditions", "commutativity", "history"};
  double Bounded = 0, Random = 0;
  for (const char *P : Props) {
    Bounded += D.get(std::string("validity.") + P + ".bounded_checks");
    Random += D.get(std::string("validity.") + P + ".random_checks");
  }
  set("rspec.bounded_checks", ratio(Bounded, Ops));
  set("rspec.random_checks", ratio(Random, Ops));
  set("rspec.history_checks",
      ratio(D.get("validity.history.bounded_checks") +
                D.get("validity.history.random_checks"),
            Ops));
  // The registry has no per-spec verdicts. A spec is unbounded only if
  // both its precondition and its commutation checks are, so the smaller
  // of the two counts per spec checked is an upper bound. Workloads that
  // see individual specs overwrite this with the exact ratio.
  set("rspec.unbounded_ratio",
      ratio(std::min(D.get("validity.preconditions.unbounded"),
                     D.get("validity.commutativity.unbounded")),
            D.get("validity.absint.specs")));
  double Hits = D.get("cache.spec.hits"), Misses = D.get("cache.spec.misses");
  set("rspec.memo_hit_ratio", ratio(Hits, Hits + Misses));
  set("absint.obligations", ratio(D.get("validity.absint.obligations"), Ops));
  set("absint.proved_ratio", ratio(D.get("validity.absint.proved"),
                                   D.get("validity.absint.obligations")));
  set("absint.rewrite_steps",
      ratio(D.get("validity.absint.rewrite_steps"), Ops));
  set("absint.splits", ratio(D.get("validity.absint.splits"), Ops));
  set("hyper.ni_ms", ratio(D.get("ni.wall_seconds") * 1000.0, Ops));
  set("hyper.ni_runs", ratio(D.get("ni.runs"), Ops));
  set("hyper.ni_pairs", ratio(D.get("ni.pairs_compared"), Ops));
  set("threadpool.tasks_executed",
      ratio(D.get("threadpool.tasks_executed"), Ops));
  set("threadpool.tasks_stolen", ratio(D.get("threadpool.tasks_stolen"), Ops));
}

void LayerMetrics::fillSelfTimes(const SpanRecorder &Spans, double Ops) {
  for (const auto &[Name, Ms] : Spans.selfMsByName()) {
    std::string Metric = Name + "_ms";
    if (Values.count(Metric))
      set(Metric, ratio(Ms, Ops));
  }
}

void LayerMetrics::emit(Report &R) const {
  for (const auto &[Name, Unit] : Order)
    R.metric(Name, Values.at(Name), Unit);
}

//===----------------------------------------------------------------------===//
// Corpus
//===----------------------------------------------------------------------===//

bool perfbench::writeFile(const std::string &Path, const std::string &Text) {
  std::error_code EC;
  std::filesystem::path P(Path);
  if (P.has_parent_path())
    std::filesystem::create_directories(P.parent_path(), EC);
  std::ofstream Out(Path, std::ios::binary);
  Out << Text;
  return static_cast<bool>(Out);
}

static std::optional<std::string> readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return std::nullopt;
  std::ostringstream OS;
  OS << In.rdbuf();
  return OS.str();
}

static std::vector<std::string> hvFilesIn(const std::string &Dir) {
  std::vector<std::string> Out;
  std::error_code EC;
  for (const auto &E : std::filesystem::directory_iterator(Dir, EC))
    if (E.is_regular_file() && E.path().extension() == ".hv")
      Out.push_back(Dir + "/" + E.path().filename().string());
  std::sort(Out.begin(), Out.end());
  return Out;
}

std::vector<CorpusFile> perfbench::loadCorpus(std::string &Error) {
  struct Group {
    const char *Dir;
    enum { Examples, Broken, FuzzCorpus } Kind;
  };
  const Group Groups[] = {{"examples/programs", Group::Examples},
                          {"examples/programs/broken", Group::Broken},
                          {"tests/corpus", Group::FuzzCorpus}};
  std::vector<CorpusFile> Files;
  for (const Group &G : Groups) {
    std::vector<std::string> Paths = hvFilesIn(G.Dir);
    if (Paths.empty()) {
      Error = std::string("no .hv files under ") + G.Dir;
      return {};
    }
    for (const std::string &P : Paths) {
      CorpusFile F;
      F.Path = P;
      std::optional<std::string> Src = readFile(P);
      std::optional<std::string> Cert = readFile(P + ".cert");
      if (!Src || !Cert) {
        Error = "cannot read " + P + (Src ? ".cert" : "");
        return {};
      }
      F.Source = std::move(*Src);
      F.Cert = std::move(*Cert);
      F.Analysis = readFile(P + ".analysis");
      switch (G.Kind) {
      case Group::Examples:
        F.ExpectVerified = P != "examples/programs/figure1_reject.hv";
        break;
      case Group::Broken:
        F.ExpectVerified = false;
        break;
      case Group::FuzzCorpus: {
        // Witnesses carry the generator's own taint verdict.
        size_t At = F.Source.find("// gen-tainted: ");
        if (At == std::string::npos) {
          Error = P + " has no gen-tainted header";
          return {};
        }
        F.ExpectVerified = F.Source[At + 16] == '0';
        break;
      }
      }
      Files.push_back(std::move(F));
    }
  }
  return Files;
}

unsigned perfbench::defaultStreams() {
  unsigned N = std::thread::hardware_concurrency();
  return std::max(1u, std::min(4u, N));
}

void perfbench::onEveryStream(unsigned Streams,
                              const std::function<void()> &Pass) {
  std::vector<std::thread> Threads;
  for (unsigned S = 1; S < Streams; ++S)
    Threads.emplace_back(Pass);
  Pass();
  for (std::thread &T : Threads)
    T.join();
}

StreamRun perfbench::runStreams(
    size_t NumFiles, uint64_t Seed, double Seconds, unsigned Streams,
    const std::function<bool(size_t, unsigned, uint64_t)> &Op) {
  std::vector<StreamRun> Parts(Streams);
  std::vector<Clock::time_point> Ends(Streams);
  Clock::time_point T0 = Clock::now();
  Clock::time_point Deadline =
      T0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(Seconds));
  auto Body = [&](unsigned S) {
    StreamRun &P = Parts[S];
    P.PerFileMs.resize(NumFiles);
    uint64_t StreamSeed = commcsl::deriveSeed(Seed, S);
    for (uint64_t Pass = 0; Clock::now() < Deadline; ++Pass)
      for (size_t I :
           shuffledOrder(NumFiles, commcsl::deriveSeed(StreamSeed, Pass))) {
        Clock::time_point A = Clock::now();
        bool Ok = Op(I, S, P.Ops * Streams + S);
        Clock::time_point B = Clock::now();
        double Ms = msBetween(A, B);
        ++P.Ops;
        P.Failed += Ok ? 0 : 1;
        P.Latency.push_back({msBetween(T0, B) / 1000.0, Ms});
        P.PerFileMs[I].push_back(Ms);
        if (Clock::now() >= Deadline)
          break;
      }
    Ends[S] = Clock::now();
  };
  std::vector<std::thread> Threads;
  for (unsigned S = 1; S < Streams; ++S)
    Threads.emplace_back(Body, S);
  Body(0);
  for (std::thread &T : Threads)
    T.join();

  StreamRun Out;
  Out.PerFileMs.resize(NumFiles);
  Clock::time_point End = T0;
  for (unsigned S = 0; S < Streams; ++S) {
    StreamRun &P = Parts[S];
    End = std::max(End, Ends[S]);
    Out.Ops += P.Ops;
    Out.Failed += P.Failed;
    Out.Latency.insert(Out.Latency.end(), P.Latency.begin(),
                       P.Latency.end());
    for (size_t I = 0; I < NumFiles; ++I)
      Out.PerFileMs[I].insert(Out.PerFileMs[I].end(), P.PerFileMs[I].begin(),
                              P.PerFileMs[I].end());
  }
  Out.ElapsedS = std::chrono::duration<double>(End - T0).count();
  return Out;
}

double perfbench::traceOverhead(const StreamRun &Untraced,
                                const StreamRun &Traced) {
  return (Traced.ElapsedS / static_cast<double>(Traced.Ops)) /
             (Untraced.ElapsedS / static_cast<double>(Untraced.Ops)) -
         1.0;
}

void perfbench::reportFileRun(Report &R, const std::string &Workload,
                              const std::vector<CorpusFile> &Files,
                              const StreamRun &Run,
                              const std::vector<double> &SetupSeconds) {
  R.Attempted = Run.Ops;
  R.Failed = Run.Failed;
  std::vector<double> FileP50s;
  for (size_t I = 0; I < Files.size(); ++I) {
    FileP50s.push_back(median(Run.PerFileMs[I]));
    R.note("row " + Workload + " " + Files[I].Path + " p50_ms " +
           fmt(FileP50s.back(), 4) + " n " +
           std::to_string(Run.PerFileMs[I].size()));
  }
  addEndToEnd(R, SetupSeconds, Run.Ops, Run.ElapsedS, Run.Latency,
              median(std::move(FileP50s)));
  R.Correct = R.Failed == 0;
}

std::vector<size_t> perfbench::shuffledOrder(size_t N, uint64_t Seed) {
  std::vector<size_t> Order(N);
  for (size_t I = 0; I < N; ++I)
    Order[I] = I;
  std::mt19937_64 Rng(Seed);
  for (size_t I = N; I > 1; --I) {
    size_t J = static_cast<size_t>(Rng() % I);
    std::swap(Order[I - 1], Order[J]);
  }
  return Order;
}
