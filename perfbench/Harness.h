//===-- perfbench/Harness.h - End-to-end benchmark harness ------*- C++ -*-===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared pieces of the end-to-end benchmark: options, the result record
/// and its printer, latency summaries, the benchmark's own span recorder,
/// metrics-registry snapshots, and the known-answer corpus.
///
/// The harness drives every layer from outside through its public
/// functions and adds no instrumentation to the program: per-layer time
/// comes from spans recorded here around those calls, per-layer work from
/// the counters the program already exports through `MetricsRegistry`.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

inline double msBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  /// Per-layer run: spans on, per-layer metrics instead of end-to-end ones.
  bool Trace = false;
};

/// What one run reports: the known-answer tally and its metrics.
struct Report {
  bool Correct = true;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  struct Metric {
    std::string Name;
    double Value = 0;
    std::string Unit;
  };
  std::vector<Metric> Metrics;
  /// Human-readable lines printed before the result (rows, health, notes).
  std::vector<std::string> Notes;

  void metric(const std::string &Name, double Value, const std::string &Unit);
  void note(const std::string &Line);
};

/// Prints the notes, every metric with its unit, and the final JSON line.
void printReport(const Report &R);

/// One operation's latency and when it completed, in seconds into the run.
struct Sample {
  double EndS = 0;
  double Ms = 0;
};
std::vector<double> millis(const std::vector<Sample> &Samples);

/// Latency over consecutive windows of completion order: each window of at
/// least 1000 samples (at most ten windows, at least one) gets its median
/// and its highest percentile (at most p99) that still has at least ten
/// samples beyond it; the summary is the median of each over the windows,
/// so a burst of interference that covers fewer than half of the windows
/// does not move it.
struct LatencySummary {
  size_t N = 0;
  size_t Windows = 0;
  double P50 = 0;
  double Top = 0;
  double TopQuantile = 0; ///< the lowest over the windows
};
LatencySummary summarizeLatency(std::vector<Sample> Samples);

/// Linear-interpolated quantile of an unsorted sample.
double quantile(std::vector<double> V, double Q);
double median(std::vector<double> V);

/// Set-up repetitions per run; setup_s is their median.
constexpr unsigned SetupRepeats = 5;

/// The end-to-end metrics every workload reports (tracing off). \p P50,
/// when given, is reported as latency_ms.p50 instead of the windowed
/// sample median.
void addEndToEnd(Report &R, const std::vector<double> &SetupSeconds,
                 uint64_t Ops, double ElapsedSeconds,
                 const std::vector<Sample> &Latency,
                 std::optional<double> P50 = std::nullopt);

/// Peak resident set of this process, in MiB.
double peakRssMb();
/// User + system CPU seconds of this process so far.
double processCpuSeconds();

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

/// The benchmark's own span recorder: name, start, end, parent, and the
/// operation the span belongs to. Spans live in memory and are written out
/// when the run ends. A disabled recorder makes every Scope inert.
class SpanRecorder {
public:
  struct Span {
    std::string Name;
    uint64_t StartUs = 0;
    uint64_t EndUs = 0;
    int64_t Parent = -1;
    uint64_t Op = 0;
    unsigned Thread = 0;
  };

  explicit SpanRecorder(bool Enabled) : Enabled(Enabled) {}
  SpanRecorder(const SpanRecorder &) = delete;
  SpanRecorder &operator=(const SpanRecorder &) = delete;

  bool enabled() const { return Enabled; }

  /// RAII span. Its parent is the innermost open span on the same thread.
  class Scope {
  public:
    Scope(SpanRecorder &R, const char *Name, uint64_t Op);
    ~Scope();
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    SpanRecorder *Rec = nullptr;
    size_t Index = 0;
    int64_t Saved = -1;
  };

  /// Records a finished span that no scope could bracket (a request whose
  /// send and receive happen on different threads). It has no parent.
  void record(const char *Name, Clock::time_point Start,
              Clock::time_point End, uint64_t Op);

  /// Total self time per span name: each span's duration minus the part
  /// its child spans cover.
  std::map<std::string, double> selfMsByName() const;
  /// Longest single span per name.
  std::map<std::string, double> maxMsByName() const;
  size_t size() const;
  /// Writes every span to `.bench_out/spans-<workload>.json`; a failure
  /// becomes a note in \p R.
  void write(const std::string &Workload, Report &R) const;

private:
  uint64_t nowUs() const;

  bool Enabled;
  Clock::time_point Epoch = Clock::now();
  mutable std::mutex Mu; ///< guards Spans
  std::vector<Span> Spans;
};

//===----------------------------------------------------------------------===//
// Metrics registry snapshots
//===----------------------------------------------------------------------===//

/// The program's `MetricsRegistry` export, flattened: `Counts` are the
/// deterministic section, `All` also holds the scalar timings.
struct RegistrySnapshot {
  std::map<std::string, double> Counts;
  std::map<std::string, double> All;

  double get(const std::string &Name) const;
  /// Key-wise difference (keys of either side).
  RegistrySnapshot operator-(const RegistrySnapshot &Before) const;
  RegistrySnapshot &operator+=(const RegistrySnapshot &Other);
};
RegistrySnapshot snapshotRegistry();

/// Keys of the deterministic `counts` section whose values differ.
std::vector<std::string> differingCounts(const RegistrySnapshot &A,
                                         const RegistrySnapshot &B);

/// The determinism self-check for a file-set workload: runs \p Pass twice
/// from a zeroed registry and returns the counts that differ, each also
/// named in \p R's notes.
std::vector<std::string> countDrift(const std::function<void()> &Pass,
                                    Report &R);

//===----------------------------------------------------------------------===//
// Per-layer metrics
//===----------------------------------------------------------------------===//

/// Every per-layer metric, in a fixed order with its unit. A traced run
/// prints all of them on every workload; a layer the workload does not
/// exercise (or cannot observe from outside) reads 0.
class LayerMetrics {
public:
  LayerMetrics();
  void set(const std::string &Name, double Value);
  /// Fills the metrics read back from registry counters, per operation.
  void fillFromRegistry(const RegistrySnapshot &Delta, double Ops);
  /// Fills `<layer>_ms` metrics from span self times, per operation.
  void fillSelfTimes(const SpanRecorder &Spans, double Ops);
  void emit(Report &R) const;

private:
  std::vector<std::pair<std::string, std::string>> Order; ///< name, unit
  std::map<std::string, double> Values;
};

//===----------------------------------------------------------------------===//
// The known-answer corpus
//===----------------------------------------------------------------------===//

/// One `.hv` file of the corpus with its answers. Expected verdicts come
/// from outside the verifier: the directory a file sits in, or the
/// `gen-tainted` header of a fuzz-corpus witness.
struct CorpusFile {
  std::string Path; ///< relative to the checkout root, as the CLI names it
  std::string Source;
  bool ExpectVerified = false;
  std::string Cert;                    ///< committed `.cert` sidecar
  std::optional<std::string> Analysis; ///< committed `.analysis` sidecar
};

/// Loads `examples/programs/*.hv`, `examples/programs/broken/*.hv` and
/// `tests/corpus/*.hv` with their sidecars, sorted by path. Returns an
/// empty vector (with \p Error set) when a file or sidecar is missing.
std::vector<CorpusFile> loadCorpus(std::string &Error);

/// Seeded Fisher-Yates permutation of [0, N).
std::vector<size_t> shuffledOrder(size_t N, uint64_t Seed);

/// Concurrent closed-loop streams over a file set. Each stream runs its
/// own seeded shuffled passes until \p Seconds have elapsed; one stream
/// per core averages out interference that slows one core of a shared
/// machine for seconds at a time.
struct StreamRun {
  double ElapsedS = 0;
  uint64_t Ops = 0;
  uint64_t Failed = 0;
  std::vector<Sample> Latency;
  std::vector<std::vector<double>> PerFileMs; ///< indexed by file
};
/// \p Op(File, Stream, OpId) runs one operation and returns whether its
/// outcome matched the known answer. OpIds are unique across streams.
StreamRun runStreams(size_t NumFiles, uint64_t Seed, double Seconds,
                     unsigned Streams,
                     const std::function<bool(size_t, unsigned, uint64_t)> &Op);

/// Streams the file-set workloads run: one per core, at most four.
unsigned defaultStreams();

/// Runs \p Pass on \p Streams threads at once and waits for all of them:
/// the warm-up of a file-set workload. Set-up time then follows the
/// slowest of the cores the streams use, not whichever core a single
/// thread happened to get (one core of a shared machine can run 40%
/// slower than another for seconds at a time).
void onEveryStream(unsigned Streams, const std::function<void()> &Pass);

/// Tracing overhead: traced time per operation over untraced, minus 1.
double traceOverhead(const StreamRun &Untraced, const StreamRun &Traced);

/// Finishes an untraced file-set run: the known-answer tally, one p50 row
/// per file, and the end-to-end metrics. latency_ms.p50 is the median of
/// the per-file medians. The files' latencies are far apart and each
/// pass weighs them equally, so the sample median falls in the gap
/// between the two middle files (0.44 and 0.57 ms on corpus-verify) and
/// jumped across it between runs; each file's median does not.
void reportFileRun(Report &R, const std::string &Workload,
                   const std::vector<CorpusFile> &Files, const StreamRun &Run,
                   const std::vector<double> &SetupSeconds);

bool writeFile(const std::string &Path, const std::string &Text);

/// Formats a double with fixed decimals.
std::string fmt(double V, int Decimals = 3);

// Workload entry points.
Report runCorpusVerify(const Options &O);
Report runCertCheck(const Options &O);
Report runFuzzSecure(const Options &O);
Report runServeOpen(const Options &O);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_H
