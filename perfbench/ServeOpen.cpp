//===-- perfbench/ServeOpen.cpp - The serve-open workload ------------------===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serve daemon under open-loop load: an in-process `Server` with the
/// CLI defaults (2 workers, queue 64, 32 cached programs) on an ephemeral
/// loopback port, fed seeded Poisson arrivals at a fixed rate by one
/// sender over 2 connections. Latency is timed from each request's due
/// time, so a stall also charges the requests queued behind it. A
/// closed-loop segment after it, with the same request mix, measures the
/// throughput the server sustains (`ops_per_s`); the open-loop rate alone
/// would only repeat the load generator's setting.
///
/// Requests are drawn from the 48 corpus sources, more than the program
/// cache holds, so cache hits and misses both occur. Every response is
/// checked against an answer that does not come from the server: the
/// directory rule for verdicts, the committed `.cert` sidecar for
/// certificates and spec validity, and the `.analysis` sidecar for the
/// static analysis report.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "cert/Cert.h"
#include "service/Json.h"
#include "service/Server.h"
#include "support/ThreadPool.h"
#include "support/trace/Metrics.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <memory>
#include <random>
#include <sstream>
#include <thread>

using namespace perfbench;
using namespace commcsl;

namespace {

/// Arrival rate, chosen once at a fifth to a third of the saturated
/// throughput of the in-process server on a 4-core machine (the
/// closed-loop segment serves 1000-1600 requests/s of this mix). At half
/// of saturation, a neighbour loading a shared host doubled the median
/// latency; at a third it moved it by a quarter.
constexpr double RatePerSecond = 350;
constexpr unsigned NumConnections = 2;
constexpr unsigned Workers = 2;
constexpr size_t MaxQueue = 64;
/// Share of the run given to the open-loop segment (latency); the rest is
/// the closed-loop segment (served throughput). In a 20 s run the open
/// loop gets about 4200 samples, four latency windows, and the closed loop
/// serves about 10000 requests.
constexpr double OpenLoopShare = 0.6;
/// Closed-loop clients, each with one request outstanding: two per worker,
/// so a worker never waits for work.
constexpr unsigned SaturationClients = 2 * Workers;
/// Health limits: beyond these the run measured the sender or an
/// overloaded queue, not the service, and is marked invalid.
constexpr double MaxSenderLateP99Ms = 10;
constexpr double BacklogGrowthFactor = 2;

enum class Kind { Verify, VerifyCert, Validity, Analyze };
const char *kindName(Kind K) {
  switch (K) {
  case Kind::Verify:
    return "verify";
  case Kind::VerifyCert:
    return "verify_cert";
  case Kind::Validity:
    return "validity";
  case Kind::Analyze:
    return "analyze";
  }
  return "?";
}

/// One corpus file's request bodies (without an id) and expected answers.
struct Target {
  const CorpusFile *File = nullptr;
  std::string Body[4];
  std::string ValidityLines; ///< "spec N: valid|INVALID" lines, in order
  bool AllSpecsValid = true;
  std::string AnalyzeReport; ///< empty when the file has no sidecar
};

std::string requestBody(const CorpusFile &F, Kind K) {
  JsonValue J = JsonValue::object();
  J.set("verb", JsonValue::string(K == Kind::VerifyCert ? "verify"
                                                        : kindName(K)));
  J.set("name", JsonValue::string(F.Path));
  J.set("source", JsonValue::string(F.Source));
  J.set("jobs", JsonValue::number(uint64_t{1}));
  if (K == Kind::VerifyCert)
    J.set("emit_cert", JsonValue::boolean(true));
  return J.dump();
}

bool buildTargets(const std::vector<CorpusFile> &Files,
                  std::vector<Target> &Out, std::string &Error) {
  Out.clear();
  for (const CorpusFile &F : Files) {
    Target T;
    T.File = &F;
    for (Kind K : {Kind::Verify, Kind::VerifyCert, Kind::Validity,
                   Kind::Analyze})
      T.Body[static_cast<int>(K)] = requestBody(F, K);
    std::optional<cert::Certificate> C = cert::parse(F.Cert, &Error);
    if (!C) {
      Error = F.Path + ".cert: " + Error;
      return false;
    }
    for (const cert::CertSpecUnit &SU : C->Specs) {
      T.ValidityLines +=
          "spec " + SU.Name + ": " + (SU.Valid ? "valid" : "INVALID") + "\n";
      T.AllSpecsValid &= SU.Valid;
    }
    if (F.Analysis) {
      // The CLI's analyze report: the file header, then the sidecar's
      // diagnostics indented (its first line repeats the verdict).
      std::istringstream In(*F.Analysis);
      std::string Line;
      std::getline(In, Line);
      const std::string Prefix = "verdict: ";
      T.AnalyzeReport = F.Path + ": " + Line.substr(Prefix.size()) + "\n";
      while (std::getline(In, Line))
        T.AnalyzeReport += "  " + Line + "\n";
    }
    Out.push_back(std::move(T));
  }
  return true;
}

bool endsWith(const std::string &S, const std::string &Suffix) {
  return S.size() >= Suffix.size() &&
         S.compare(S.size() - Suffix.size(), Suffix.size(), Suffix) == 0;
}

/// Checks one response against the target's known answer.
bool answerOk(const JsonValue &Resp, const Target &T, Kind K) {
  if (Resp.find("error"))
    return false;
  bool Ok = Resp.getBool("ok");
  std::string Report = Resp.getString("report");
  const CorpusFile &F = *T.File;
  switch (K) {
  case Kind::Verify:
  case Kind::VerifyCert:
    if (Ok != F.ExpectVerified ||
        !endsWith(Report, F.Path + (F.ExpectVerified ? ": verified\n"
                                                     : ": REJECTED\n")))
      return false;
    return K == Kind::Verify || Resp.getString("cert") == F.Cert;
  case Kind::Validity:
    return Ok == T.AllSpecsValid && endsWith(Report, T.ValidityLines);
  case Kind::Analyze:
    return Report == T.AnalyzeReport;
  }
  return false;
}

//===----------------------------------------------------------------------===//
// Loopback client
//===----------------------------------------------------------------------===//

int connectLoopback(uint16_t Port) {
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0)
    return -1;
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  Addr.sin_port = htons(Port);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0) {
    ::close(Fd);
    return -1;
  }
  int One = 1;
  ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
  return Fd;
}

bool sendAll(int Fd, const std::string &Data) {
  size_t Off = 0;
  while (Off < Data.size()) {
    ssize_t N = ::send(Fd, Data.data() + Off, Data.size() - Off, MSG_NOSIGNAL);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      return false;
    Off += static_cast<size_t>(N);
  }
  return true;
}

/// Buffered line reader over a socket.
class LineReader {
public:
  explicit LineReader(int Fd) : Fd(Fd) {}
  /// Next line without its newline; false on EOF or error.
  bool next(std::string &Line) {
    for (;;) {
      size_t NL = Buf.find('\n', Start);
      if (NL != std::string::npos) {
        Line = Buf.substr(Start, NL - Start);
        Start = NL + 1;
        return true;
      }
      Buf.erase(0, Start);
      Start = 0;
      char Chunk[65536];
      ssize_t N = ::recv(Fd, Chunk, sizeof(Chunk), 0);
      if (N < 0 && errno == EINTR)
        continue;
      if (N <= 0)
        return false;
      Buf.append(Chunk, static_cast<size_t>(N));
    }
  }

private:
  int Fd;
  std::string Buf;
  size_t Start = 0;
};

/// A synchronous request on a connection no one else reads.
std::optional<JsonValue> roundTrip(int Fd, LineReader &In,
                                   const std::string &Line) {
  std::string Resp;
  if (!sendAll(Fd, Line + "\n") || !In.next(Resp))
    return std::nullopt;
  return JsonValue::parse(Resp);
}

/// The in-process daemon plus a control connection.
class Daemon {
public:
  Daemon() : Srv(SessionOptions{}, 0, Workers, MaxQueue) {}
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;
  ~Daemon() { stop(); }

  bool start() {
    if (!Srv.start())
      return false;
    Runner = std::thread([this] { Srv.run(); });
    Control = connectLoopback(Srv.port());
    ControlIn = std::make_unique<LineReader>(Control);
    return Control >= 0;
  }
  uint16_t port() const { return Srv.port(); }

  std::optional<JsonValue> request(const std::string &Line) {
    return roundTrip(Control, *ControlIn, Line);
  }

  /// Sends every line at once, then reads one response per line, in the
  /// order the workers finish them. Lines that fail to parse are dropped.
  std::vector<JsonValue> requestAll(const std::vector<std::string> &Lines) {
    std::string All;
    for (const std::string &L : Lines)
      All += L + "\n";
    std::vector<JsonValue> Out;
    if (!sendAll(Control, All))
      return Out;
    std::string Resp;
    for (size_t I = 0; I < Lines.size() && ControlIn->next(Resp); ++I)
      if (std::optional<JsonValue> J = JsonValue::parse(Resp))
        Out.push_back(std::move(*J));
    return Out;
  }

  /// Program-cache hits and misses so far, from the `stats` verb.
  std::pair<double, double> cacheCounts() {
    std::optional<JsonValue> J = request("{\"verb\":\"stats\"}");
    const JsonValue *S = J ? J->find("stats") : nullptr;
    const JsonValue *PC = S ? S->find("program_cache") : nullptr;
    if (!PC)
      return {0, 0};
    return {static_cast<double>(PC->getU64("hits")),
            static_cast<double>(PC->getU64("misses"))};
  }

  /// Stops the server (draining queued requests), joins it, and closes
  /// the control connection.
  void stop() {
    if (Runner.joinable()) {
      Srv.stop();
      Runner.join();
    }
    if (Control >= 0)
      ::close(Control);
    Control = -1;
  }

private:
  Server Srv;
  std::thread Runner;
  int Control = -1;
  std::unique_ptr<LineReader> ControlIn;
};

struct Planned {
  double DueS = 0;
  Kind K = Kind::Verify;
  size_t Target = 0;
};

/// The request mix: the four request kinds (verify, verify with
/// certificate emission, validity, analyze) in equal shares. There is no
/// record of real traffic to weight them by, so no weighting is assumed.
/// The source is drawn uniformly from the files that have a known answer
/// for the kind: every file, or for analyze the files with a committed
/// `.analysis` sidecar.
class RequestMix {
public:
  explicit RequestMix(const std::vector<Target> &Targets)
      : NumTargets(Targets.size()) {
    for (size_t I = 0; I < Targets.size(); ++I)
      if (!Targets[I].AnalyzeReport.empty())
        Analyzable.push_back(I);
  }
  bool usable() const { return NumTargets && !Analyzable.empty(); }

  Planned draw(std::mt19937_64 &Rng) const {
    Planned P;
    P.K = static_cast<Kind>(std::uniform_int_distribution<int>(0, 3)(Rng));
    if (P.K == Kind::Analyze)
      P.Target = Analyzable[std::uniform_int_distribution<size_t>(
          0, Analyzable.size() - 1)(Rng)];
    else
      P.Target = std::uniform_int_distribution<size_t>(0, NumTargets - 1)(Rng);
    return P;
  }

private:
  size_t NumTargets;
  std::vector<size_t> Analyzable;
};

/// Seeded Poisson arrivals over \p Seconds.
std::vector<Planned> schedule(uint64_t Seed, double Seconds,
                              const RequestMix &Mix) {
  std::mt19937_64 Rng(Seed);
  std::exponential_distribution<double> Gap(RatePerSecond);
  std::vector<Planned> Out;
  for (double T = Gap(Rng); T < Seconds; T += Gap(Rng)) {
    Planned P = Mix.draw(Rng);
    P.DueS = T;
    Out.push_back(P);
  }
  return Out;
}

/// What one open-loop segment observed.
struct Segment {
  std::vector<Sample> Latency; ///< from due time
  std::vector<double> LateMs;  ///< sender lateness
  std::map<std::string, std::vector<double>> RttMs; ///< by kind
  uint64_t Sent = 0, Answered = 0, Failed = 0;
  double ElapsedS = 0;
  uint64_t BacklogMax = 0;
  double BacklogFirstQuarter = 0, BacklogLastQuarter = 0;
  double BusyFrac = 0;
  bool Complete = true;
};

Segment openLoop(Daemon &D, const std::vector<Target> &Targets,
                 const std::vector<Planned> &Plan, SpanRecorder &Spans,
                 bool PollStats) {
  Segment S;
  struct Slot {
    Clock::time_point Sent, Received;
    bool Done = false, Ok = false;
  };
  std::vector<Slot> Slots(Plan.size());
  std::atomic<uint64_t> Received{0};
  int Fds[NumConnections];
  for (int &Fd : Fds)
    Fd = connectLoopback(D.port());
  std::vector<std::thread> Readers;
  for (int Fd : Fds)
    Readers.emplace_back([&, Fd] {
      LineReader In(Fd);
      std::string Line;
      while (In.next(Line)) {
        Clock::time_point Now = Clock::now();
        std::optional<JsonValue> J = JsonValue::parse(Line);
        const JsonValue *Id = J ? J->find("id") : nullptr;
        std::optional<uint64_t> I = Id ? Id->asU64() : std::nullopt;
        if (!I || *I >= Slots.size())
          continue;
        Slot &Sl = Slots[*I];
        Sl.Received = Now;
        Sl.Ok = answerOk(*J, Targets[Plan[*I].Target], Plan[*I].K);
        Sl.Done = true;
        Received.fetch_add(1, std::memory_order_release);
      }
    });

  // Queue occupancy seen by the server, for busy_frac (traced runs only:
  // each poll is one more request on the reader thread).
  std::atomic<bool> Polling{PollStats};
  double InFlightSum = 0;
  uint64_t Polls = 0;
  std::thread Poller;
  if (PollStats)
    Poller = std::thread([&] {
      while (Polling.load()) {
        std::optional<JsonValue> J = D.request("{\"verb\":\"stats\"}");
        const JsonValue *St = J ? J->find("stats") : nullptr;
        if (St) {
          InFlightSum += static_cast<double>(St->getU64("in_flight"));
          ++Polls;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
    });

  std::vector<double> Backlog(Plan.size(), 0);
  Clock::time_point T0 = Clock::now();
  for (size_t I = 0; I < Plan.size(); ++I) {
    Clock::time_point Due =
        T0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(Plan[I].DueS));
    std::this_thread::sleep_until(Due);
    Slots[I].Sent = Clock::now();
    S.LateMs.push_back(msBetween(Due, Slots[I].Sent));
    uint64_t Outstanding =
        I - Received.load(std::memory_order_acquire);
    Backlog[I] = static_cast<double>(Outstanding);
    S.BacklogMax = std::max(S.BacklogMax, Outstanding);
    std::string Line = "{\"id\":" + std::to_string(I) + "," +
                       Targets[Plan[I].Target]
                           .Body[static_cast<int>(Plan[I].K)]
                           .substr(1) +
                       "\n";
    if (!sendAll(Fds[I % NumConnections], Line))
      break;
    ++S.Sent;
  }
  // Drain: every request sent must be answered.
  Clock::time_point Deadline = Clock::now() + std::chrono::seconds(60);
  while (Received.load(std::memory_order_acquire) < S.Sent &&
         Clock::now() < Deadline)
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  S.Complete = Received.load() == S.Sent && S.Sent == Plan.size();
  Polling.store(false);
  if (Poller.joinable())
    Poller.join();
  for (int Fd : Fds)
    ::shutdown(Fd, SHUT_RDWR);
  for (std::thread &T : Readers)
    T.join();
  for (int Fd : Fds)
    ::close(Fd);

  Clock::time_point Last = T0;
  for (size_t I = 0; I < S.Sent; ++I) {
    const Slot &Sl = Slots[I];
    if (!Sl.Done) {
      ++S.Failed;
      continue;
    }
    ++S.Answered;
    S.Failed += Sl.Ok ? 0 : 1;
    Last = std::max(Last, Sl.Received);
    Clock::time_point Due =
        T0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(Plan[I].DueS));
    S.Latency.push_back(
        {msBetween(T0, Sl.Received) / 1000.0, msBetween(Due, Sl.Received)});
    S.RttMs[kindName(Plan[I].K)].push_back(msBetween(Sl.Sent, Sl.Received));
    Spans.record("service.request", Sl.Sent, Sl.Received, I);
  }
  S.ElapsedS = std::chrono::duration<double>(Last - T0).count();
  size_t Q = Backlog.size() / 4;
  for (size_t I = 0; I < Q; ++I) {
    S.BacklogFirstQuarter += Backlog[I] / static_cast<double>(Q);
    S.BacklogLastQuarter += Backlog[Backlog.size() - Q + I] /
                            static_cast<double>(Q);
  }
  S.BusyFrac = Polls ? InFlightSum / static_cast<double>(Polls) / Workers : 0;
  return S;
}

/// What the closed-loop segment observed.
struct Saturation {
  uint64_t Sent = 0, Answered = 0, Failed = 0;
  double ElapsedS = 0;
};

/// Served throughput: SaturationClients connections, each sending its next
/// request as soon as the previous one is answered, until \p Seconds have
/// passed. Every answer is checked like the open loop's.
Saturation closedLoop(Daemon &D, const std::vector<Target> &Targets,
                      const RequestMix &Mix, uint64_t Seed, double Seconds) {
  Saturation S;
  std::atomic<uint64_t> Sent{0}, Answered{0}, Failed{0};
  Clock::time_point T0 = Clock::now();
  Clock::time_point Deadline =
      T0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(Seconds));
  std::vector<std::thread> Clients;
  for (unsigned C = 0; C < SaturationClients; ++C)
    Clients.emplace_back([&, C] {
      int Fd = connectLoopback(D.port());
      if (Fd < 0) {
        Sent.fetch_add(1);
        Failed.fetch_add(1);
        return;
      }
      LineReader In(Fd);
      std::mt19937_64 Rng(deriveSeed(Seed, C));
      for (uint64_t N = 0; Clock::now() < Deadline; ++N) {
        Planned P = Mix.draw(Rng);
        const Target &T = Targets[P.Target];
        std::optional<JsonValue> J = roundTrip(
            Fd, In,
            "{\"id\":" + std::to_string(N) + "," +
                T.Body[static_cast<int>(P.K)].substr(1));
        Sent.fetch_add(1);
        if (!J) {
          Failed.fetch_add(1);
          break;
        }
        Answered.fetch_add(1);
        Failed.fetch_add(answerOk(*J, T, P.K) ? 0 : 1);
      }
      ::close(Fd);
    });
  for (std::thread &T : Clients)
    T.join();
  S.ElapsedS = secondsSince(T0);
  S.Sent = Sent.load();
  S.Answered = Answered.load();
  S.Failed = Failed.load();
  return S;
}

/// The determinism self-check: a fresh daemon answers each target's four
/// requests one at a time in seeded order, twice; returns the registry
/// counts that differ between the two.
std::vector<std::string> serveCountDrift(const std::vector<Target> &Targets,
                                         uint64_t Seed, Report &R) {
  return countDrift(
      [&] {
        Daemon D;
        if (!D.start())
          return;
        for (size_t I : shuffledOrder(Targets.size() * 4, Seed))
          D.request("{\"id\":" + std::to_string(I) + "," +
                    Targets[I / 4].Body[I % 4].substr(1));
      },
      R);
}

/// Marks a run invalid when it measured the sender or a growing queue.
void checkHealth(const Segment &S, Report &R) {
  double LateP99 = quantile(S.LateMs, 0.99);
  R.note("sender lateness p99 " + fmt(LateP99, 3) + " ms; backlog max " +
         std::to_string(S.BacklogMax) + ", mean first/last quarter " +
         fmt(S.BacklogFirstQuarter, 2) + "/" + fmt(S.BacklogLastQuarter, 2));
  std::string Why;
  if (!S.Complete)
    Why = "not every request was sent and answered";
  else if (LateP99 > MaxSenderLateP99Ms)
    Why = "the sender fell behind its schedule";
  else if (S.BacklogMax >= MaxQueue ||
           S.BacklogLastQuarter >
               BacklogGrowthFactor * S.BacklogFirstQuarter + 4)
    Why = "the backlog kept growing";
  if (!Why.empty()) {
    R.Correct = false;
    R.note("INVALID RUN: " + Why + "; its latency is not a measurement");
  }
}

/// Set-up: inputs, expected answers, a running daemon, and one warm-up
/// verify request per file (which also fills the program cache). The
/// warm-up requests go out together: answered one at a time, the set-up
/// time followed how fast one thread woke up and ran on whichever core it
/// got, and the median of ten runs moved by up to half.
bool setUp(std::vector<CorpusFile> &Files, std::vector<Target> &Targets,
           std::unique_ptr<Daemon> &D, Report &R) {
  std::string Error;
  Files = loadCorpus(Error);
  if (Files.empty() || !buildTargets(Files, Targets, Error)) {
    R.note("setup failed: " + Error);
    return false;
  }
  if (!RequestMix(Targets).usable()) {
    R.note("setup failed: no file has a committed .analysis sidecar");
    return false;
  }
  D = std::make_unique<Daemon>();
  if (!D->start()) {
    R.note("setup failed: cannot start the server");
    return false;
  }
  std::vector<std::string> Lines;
  for (size_t I = 0; I < Targets.size(); ++I)
    Lines.push_back("{\"id\":" + std::to_string(I) + "," +
                    Targets[I].Body[0].substr(1));
  std::vector<bool> Ok(Targets.size(), false);
  for (const JsonValue &J : D->requestAll(Lines)) {
    const JsonValue *Id = J.find("id");
    std::optional<uint64_t> I = Id ? Id->asU64() : std::nullopt;
    if (I && *I < Targets.size())
      Ok[*I] = answerOk(J, Targets[*I], Kind::Verify);
  }
  for (size_t I = 0; I < Targets.size(); ++I)
    if (!Ok[I])
      R.note("warm-up: unexpected answer for " + Targets[I].File->Path);
  return true;
}

} // namespace

Report perfbench::runServeOpen(const Options &O) {
  Report R;
  std::vector<CorpusFile> Files;
  std::vector<Target> Targets;
  std::unique_ptr<Daemon> D;
  std::vector<double> Setup;
  for (unsigned Rep = 0; Rep < SetupRepeats; ++Rep) {
    D.reset(); // the previous repetition's daemon
    Clock::time_point T0 = Clock::now();
    if (!setUp(Files, Targets, D, R)) {
      R.Correct = false;
      return R;
    }
    Setup.push_back(secondsSince(T0));
  }
  R.note("serve-open: " + fmt(RatePerSecond, 0) + " req/s Poisson over " +
         std::to_string(NumConnections) + " connections, " +
         std::to_string(Targets.size()) + " sources, " +
         std::to_string(Workers) + " workers; mix verify, verify+emit_cert, "
         "validity, analyze in equal shares");

  SpanRecorder Off(false);
  const RequestMix Mix(Targets);
  auto Tally = [&](const Segment &S) {
    R.Attempted += S.Sent;
    R.Failed += S.Failed;
  };

  if (!O.Trace) {
    double OpenS = O.Seconds * OpenLoopShare;
    std::pair<double, double> C0 = D->cacheCounts();
    Segment S = openLoop(*D, Targets,
                         schedule(deriveSeed(O.Seed, 0), OpenS, Mix), Off,
                         false);
    std::pair<double, double> C1 = D->cacheCounts();
    Saturation Sat = closedLoop(*D, Targets, Mix, deriveSeed(O.Seed, 3),
                                O.Seconds - OpenS);
    D->stop();
    Tally(S);
    R.Attempted += Sat.Sent;
    R.Failed += Sat.Failed;
    addEndToEnd(R, Setup, Sat.Answered, Sat.ElapsedS, S.Latency);
    R.note("ops_per_s is the closed-loop segment's served throughput: " +
           std::to_string(Sat.Answered) + " requests in " +
           fmt(Sat.ElapsedS, 3) + " s over " +
           std::to_string(SaturationClients) +
           " connections; latency comes from the open-loop segment (" +
           std::to_string(S.Answered) + " requests in " +
           fmt(S.ElapsedS, 3) + " s)");
    checkHealth(S, R);
    double Hits = C1.first - C0.first, Misses = C1.second - C0.second;
    R.note("program cache hit ratio " +
           fmt(Hits + Misses > 0 ? Hits / (Hits + Misses) : 0, 4));
    R.Correct = R.Correct && R.Failed == 0;
    return R;
  }

  double Half = O.Seconds / 2;
  Segment Ref = openLoop(*D, Targets, schedule(deriveSeed(O.Seed, 1), Half, Mix),
                         Off, false);

  SpanRecorder Spans(true);
  MetricsRegistry::global().resetAll();
  std::pair<double, double> C0 = D->cacheCounts();
  double Cpu0 = processCpuSeconds();
  Segment S = openLoop(*D, Targets, schedule(deriveSeed(O.Seed, 2), Half, Mix),
                       Spans, true);
  double Cpu = processCpuSeconds() - Cpu0;
  std::pair<double, double> C1 = D->cacheCounts();
  RegistrySnapshot Delta = snapshotRegistry();
  D->stop();
  Tally(Ref);
  Tally(S);
  checkHealth(Ref, R);
  checkHealth(S, R);
  std::vector<std::string> Drift = serveCountDrift(Targets, O.Seed, R);

  double Ops = static_cast<double>(S.Answered);
  LayerMetrics L;
  L.fillFromRegistry(Delta, Ops);
  for (const auto &[Verb, Ms] : S.RttMs)
    L.set("service.rtt_ms." + Verb, median(Ms));
  double Hits = C1.first - C0.first, Misses = C1.second - C0.second;
  L.set("service.program_cache_hit_ratio",
        Hits + Misses > 0 ? Hits / (Hits + Misses) : 0);
  L.set("service.busy_frac", S.BusyFrac);
  L.set("service.backlog_max", static_cast<double>(S.BacklogMax));
  L.set("process.cpu_over_wall", Cpu / S.ElapsedS);
  L.set("bench.sender_late_ms.p99", quantile(S.LateMs, 0.99));
  L.set("bench.trace_overhead_frac",
        median(millis(S.Latency)) / median(millis(Ref.Latency)) - 1.0);
  L.set("bench.nondeterministic_counts", static_cast<double>(Drift.size()));
  L.set("failed_frac", static_cast<double>(R.Failed) /
                           static_cast<double>(R.Attempted));
  L.emit(R);
  R.note("bench.trace_overhead_frac on serve-open compares median latency "
         "(the load is open loop, so throughput is fixed by the rate)");
  Spans.write(O.Workload, R);
  R.Correct = R.Correct && R.Failed == 0;
  return R;
}
