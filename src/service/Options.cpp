//===-- service/Options.cpp - One option table for both front ends --------===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//

#include "service/Options.h"

#include "support/Numeric.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string_view>
#include <type_traits>

using namespace commcsl;

namespace {

Option flag(const char *Flag, const char *Key, bool &Field, const char *Help,
            bool On = true) {
  return {.Flag = Flag, .Key = Key, .Target = &Field, .Help = Help,
          .Expected = "a boolean", .On = On};
}

template <typename T>
Option integer(const char *Flag, const char *Key, T &Field, const char *Help,
               uint64_t Min = 0, uint64_t Max = std::numeric_limits<T>::max()) {
  return {.Flag = Flag, .Key = Key, .Target = &Field, .Meta = "N",
          .Help = Help,
          .Expected = "an integer in " + std::to_string(Min) + ".." +
                      std::to_string(Max),
          .Min = Min, .Max = Max,
          .Default = Field ? std::to_string(Field) : ""};
}

Option text(const char *Flag, const char *Key, std::string &Field,
            const char *Meta, const char *Help,
            const char *Choices = nullptr) {
  return {.Flag = Flag, .Key = Key, .Target = &Field,
          .Meta = Choices ? Choices : Meta, .Help = Help,
          .Expected = Choices ? std::string("one of ") + Choices : "a string",
          .Choices = Choices, .Default = Field};
}

/// The one `jobs` row: a positive integer; absent keeps the field's default.
Option jobs(unsigned &Field) {
  return integer("--jobs", "jobs", Field,
                 "worker threads (default: all cores); same output at any N",
                 1);
}

const VerbInfo *findVerb(const std::string &Name) {
  for (const VerbInfo &V : verbs())
    if (Name == V.Name)
      return &V;
  return nullptr;
}

/// Parses \p Text as a value of \p O's kind into its field. False when the
/// text is not such a value; the field is then unchanged.
bool store(const Option &O, const std::string &Text) {
  return std::visit(
      [&](auto *Field) {
        using T = std::remove_pointer_t<decltype(Field)>;
        if constexpr (std::is_same_v<T, bool>) {
          return false; // a flag takes no value
        } else if constexpr (std::is_same_v<T, std::string>) {
          if (O.Choices && ("|" + std::string(O.Choices) + "|")
                                   .find("|" + Text + "|") == std::string::npos)
            return false;
          *Field = Text;
          return true;
        } else if constexpr (std::is_same_v<T, double>) {
          // strtod alone would also take a sign, leading spaces, `inf` and
          // `nan`.
          char *End = nullptr;
          double V = 0;
          if (std::isdigit(static_cast<unsigned char>(Text[0])) ||
              Text[0] == '.')
            V = std::strtod(Text.c_str(), &End);
          if (!End || *End != '\0' || !std::isfinite(V))
            return false;
          *Field = V;
          return true;
        } else {
          std::optional<uint64_t> V = parseUnsigned64(Text);
          if (!V || *V < O.Min || *V > O.Max)
            return false;
          *Field = static_cast<T>(*V);
          return true;
        }
      },
      O.Target);
}

/// A JSON value into \p O's field: a flag takes a boolean, a string row a
/// string, and a number row a number, parsed from its literal text.
bool storeJson(const Option &O, const JsonValue &V) {
  if (bool *const *Field = std::get_if<bool *>(&O.Target)) {
    if (V.kind() != JsonValue::Kind::Bool)
      return false;
    **Field = V.asBool() == O.On;
    return true;
  }
  if (std::holds_alternative<std::string *>(O.Target))
    return V.isString() && store(O, V.asString());
  return V.kind() == JsonValue::Kind::Number && store(O, V.dump());
}

std::string helpText(const VerbInfo &V, const std::vector<Option> &Rows) {
  std::string Options;
  for (const Option &O : Rows)
    if (O.Flag)
      Options += std::string("  ") + O.Flag + (O.Meta ? " " : "") +
                 (O.Meta ? O.Meta : "") + "\n      " + O.Help +
                 (O.Default.empty() ? "" : " (default " + O.Default + ")") +
                 "\n";
  std::string Out = "usage: " + programName(V.Name) +
                    (Options.empty() ? "" : " [options]") +
                    (*V.Synopsis ? " " : "") + V.Synopsis + "\n\n" + V.About;
  if (&V == &verbs().front()) {
    Out += "\nOther verbs (each has --help):";
    for (const VerbInfo &W : verbs())
      if (W.Cli && &W != &V)
        Out += std::string(" ") + W.Name;
    Out += "\n";
  }
  return Out + (Options.empty() ? "" : "\noptions:\n" + Options);
}

} // namespace

const std::vector<VerbInfo> &commcsl::verbs() {
  using V = ServiceRequest::Verb;
  static const std::vector<VerbInfo> Verbs = {
      {"verify", true, true, V::Verify, "file-or-dir.hv ...",
       "Verifies each program (a directory stands for its .hv files, in\n"
       "sorted order). Exits 1 if any is REJECTED, 2 on a usage error.\n"},
      {"validity", false, true, V::Validity, "", ""},
      {"analyze", true, true, V::Analyze, "file-or-dir ...",
       "Runs the static information-flow pre-analysis (CFG, taint, lints)\n"
       "without verification, one report block per .hv file.\n"},
      {"ni", false, true, V::NI, "", ""},
      {"fuzz", true, true, V::Fuzz, "",
       "Runs a differential soundness-fuzzing campaign (src/fuzz/) and\n"
       "shrinks each disagreement. Exits 1 on any soundness-violation,\n"
       "analysis-unsound, cert-invalid or generator-invalid finding.\n"},
      {"serve", true, false, {}, "",
       "Runs the verification daemon: newline-delimited JSON over TCP on\n"
       "127.0.0.1 (see DESIGN.md §11); prints the bound port. SIGINT/SIGTERM\n"
       "drain in-flight requests, flush the trace/metrics files and exit\n"
       "128+signal.\n"},
      {"check-cert", true, false, {}, "<prog.hv> <cert>",
       "Re-checks a proof certificate with the independent checker (no\n"
       "solver or verifier code runs). Exit 0 = OK, 1 = INVALID, 2 = usage.\n"},
      {"suggest-spec", true, false, {}, "<prog.hv>",
       "Ranks candidate abstractions and `low(arg)` preconditions for each\n"
       "resource spec by what the validity tiers prove, unbounded proofs\n"
       "first. The report is the same at any job count.\n"},
      {"stats", false, true, {}, "", ""},
      {"reset", false, true, {}, "", ""},
      {"shutdown", false, true, {}, "", ""},
  };
  return Verbs;
}

std::vector<Option> commcsl::verbOptions(const std::string &Verb,
                                         VerbArgs &A) {
  ServiceRequest &R = A.Req;
  CampaignConfig &F = R.Fuzz;
  const Option Source = text(nullptr, "source", R.Source, nullptr, "");
  const Option Name = text(nullptr, "name", R.Name, nullptr, "");
  const Option BudgetMs = integer(nullptr, "budget_ms", R.BudgetMs, "");
  const Option MaxSteps = integer(nullptr, "max_steps", R.MaxSteps, "");
  const Option Trace =
      text("--trace", nullptr, A.TracePath, "FILE",
           "record scoped spans into FILE as Chrome trace-event JSON");
  const Option Metrics =
      text("--metrics-json", nullptr, A.MetricsPath, "FILE",
           "export the metrics registry; its \"counts\" match at any --jobs");

  if (Verb == "verify")
    return {
        flag("--no-validity", "no_validity", R.NoValidity,
             "skip resource-spec validity checking (Def. 3.1)"),
        jobs(R.Jobs),
        flag("--metrics", nullptr, A.PrintMetrics,
             "print Table-1-style metrics (LOC, Ann., time) and memo counters"),
        flag("--quiet", nullptr, A.Quiet, "only print the verdict lines"),
        text("--ni", "proc", R.Proc, "PROC",
             "also run the empirical non-interference harness on PROC"),
        text("--emit-cert", nullptr, A.CertPath, "FILE",
             "write a proof certificate ('-' = stdout); one input"),
        flag(nullptr, "emit_cert", R.EmitCert, ""),
        text("--inject", nullptr, A.Inject, nullptr,
             "seeded fault that check-cert must refute (testing only)",
             "none|accept-all|absint-unsound"),
        Trace, Metrics, Source, Name, BudgetMs, MaxSteps,
    };
  if (Verb == "validity")
    return {Source, Name, jobs(R.Jobs), BudgetMs, MaxSteps};
  if (Verb == "analyze")
    return {
        jobs(A.Analyze.Jobs),
        flag("--check", nullptr, A.Analyze.Check,
             "exit 1 unless each block matches its <file>.analysis sidecar"),
        flag("--write", nullptr, A.Analyze.Write,
             "rewrite every <file>.analysis sidecar (not with --check)"),
        Trace, Metrics, Source, Name,
    };
  if (Verb == "ni")
    return {Source, Name, text(nullptr, "proc", R.Proc, nullptr, ""),
            jobs(R.Jobs)};
  if (Verb == "fuzz")
    return {
        integer("--seeds", "seeds", F.NumSeeds, "campaign size"),
        integer("--base-seed", "base_seed", F.BaseSeed,
                "base of the per-seed derived streams"),
        jobs(F.Jobs),
        {.Flag = "--time-budget", .Target = &F.TimeBudgetSeconds,
         .Meta = "SEC",
         .Help = "wall-clock cap; later seeds are skipped (trades determinism)",
         .Expected = "a non-negative number of seconds"},
        integer("--target-statements", nullptr, F.Gen.TargetStatements,
                "generated program size"),
        flag("--no-concurrency", nullptr, F.Gen.EnableConcurrency,
             "generate no par blocks or shared resources", false),
        flag("--no-collections", nullptr, F.Gen.EnableCollections,
             "generate no shared collection resources", false),
        flag("--no-unique-par", nullptr, F.Gen.EnableUniquePar,
             "generate no par blocks over unique actions", false),
        flag("--no-value-dependent", nullptr, F.Gen.EnableValueDependent,
             "generate no value-dependent record logs", false),
        flag("--no-loops", nullptr, F.Gen.EnableLoops, "generate no loops",
             false),
        flag("--secure-only", nullptr, F.Gen.AllowLeakyOutput,
             "generate only secure-by-construction programs", false),
        flag("--no-shrink", nullptr, F.ShrinkFindings,
             "keep findings unminimized", false),
        integer("--shrink-budget", nullptr, F.Shrink.MaxOracleRuns,
                "oracle evaluations per shrink"),
        text("--corpus-dir", nullptr, A.CorpusDir, "DIR",
             "write each finding as a replayable corpus file"),
        text("--report", nullptr, A.ReportPath, "FILE",
             "write the JSON report to FILE, '-' for stdout"),
        text("--inject", nullptr, A.Inject, nullptr,
             "synthetic verifier fault (testing only)",
             "none|accept-all|reject-all"),
        Trace, Metrics,
    };
  if (Verb == "serve")
    return {
        integer("--port", nullptr, A.Port,
                "TCP port on 127.0.0.1; 0 binds an ephemeral one", 0, 65535),
        jobs(A.Session.Jobs),
        integer("--workers", nullptr, A.Workers, "requests in flight", 1,
                256),
        integer("--max-queue", nullptr, A.MaxQueue,
                "queued requests beyond which new work is refused", 1),
        integer("--max-programs", nullptr, A.Session.MaxCachedPrograms,
                "parsed programs kept warm; 0 keeps none"),
        Trace, Metrics,
    };
  if (Verb == "suggest-spec")
    return {
        text("--spec", nullptr, A.Spec, "NAME", "only the spec named NAME"),
        integer("--max", nullptr, A.Suggest.MaxCandidates,
                "candidates tried per spec; 0 lifts the cap"),
        integer("--jobs", nullptr, A.Suggest.Jobs,
                "worker threads; 0 uses all cores"),
    };
  return {}; // check-cert, stats, reset, shutdown
}

std::string commcsl::programName(const std::string &Verb) {
  return Verb == verbs().front().Name ? "hyperviper" : "hyperviper " + Verb;
}

std::optional<int> commcsl::parseCommandLine(const std::string &Verb,
                                             int Argc, char **Argv,
                                             VerbArgs &A) {
  const VerbInfo &Info = *findVerb(Verb);
  auto UsageError = [&](const std::string &Message) {
    std::fprintf(stderr, "%s: error: %s\n", programName(Verb).c_str(),
                 Message.c_str());
    return 2;
  };
  const std::vector<Option> Rows = verbOptions(Verb, A);
  for (int I = 0; I < Argc; ++I) {
    const std::string Arg = Argv[I];
    if (Arg == "--help" || Arg == "-h") {
      std::fputs(helpText(Info, Rows).c_str(), stdout);
      return 0;
    }
    if (*Info.Synopsis && (Arg.empty() || Arg[0] != '-')) {
      A.Inputs.push_back(Arg);
      continue;
    }
    auto O = std::find_if(Rows.begin(), Rows.end(), [&](const Option &Row) {
      return Row.Flag && Arg == Row.Flag;
    });
    if (O == Rows.end())
      return UsageError("unknown option '" + Arg + "'");
    if (bool *const *Field = std::get_if<bool *>(&O->Target))
      **Field = O->On;
    else if (I + 1 == Argc)
      return UsageError(Arg + " expects a value");
    else if (!store(*O, Argv[++I]))
      return UsageError("invalid " + Arg + " value '" + Argv[I] +
                        "' (expected " + O->Expected + ")");
  }
  return std::nullopt;
}

ParsedRequest commcsl::parseRequest(const JsonValue &J) {
  ParsedRequest P;
  auto Fail = [&](const char *Type, std::string Message) {
    P.ErrorType = Type;
    P.Error = std::move(Message);
    return P;
  };
  auto Invalid = [&](const std::string &Key, const JsonValue &V,
                     const std::string &Expected) {
    std::string Text = V.dump();
    if (Text.size() > 64) // `source` may be a whole program
      Text = Text.substr(0, 61) + "...";
    return Fail("bad-request", "invalid \"" + Key + "\" value " + Text +
                                   " (expected " + Expected + ")");
  };

  const JsonValue *VerbValue = J.find("verb");
  if (!VerbValue || (VerbValue->isString() && VerbValue->asString().empty()))
    return Fail("bad-request", "missing \"verb\"");
  if (!VerbValue->isString())
    return Invalid("verb", *VerbValue, "a string");
  P.Verb = VerbValue->asString();
  const VerbInfo *Info = findVerb(P.Verb);
  if (!Info || !Info->Daemon)
    return Fail("unknown-verb", "unknown verb: " + P.Verb);

  VerbArgs A;
  const std::vector<Option> Rows = verbOptions(P.Verb, A);
  auto Row = [&](std::string_view Key) {
    return std::find_if(Rows.begin(), Rows.end(), [&](const Option &O) {
      return O.Key && Key == O.Key;
    });
  };
  for (const auto &[Key, Value] : J.members()) {
    if (Key == "id" || Key == "verb")
      continue;
    auto O = Row(Key);
    if (O == Rows.end())
      return Fail("bad-request",
                  "verb \"" + P.Verb + "\" takes no key \"" + Key + "\"");
    if (!storeJson(*O, Value))
      return Invalid(Key, Value, O->Expected);
  }
  if (Row("source") != Rows.end() && A.Req.Source.empty())
    return Fail("bad-request",
                "verb \"" + P.Verb + "\" requires a nonempty \"source\"");
  if (P.Verb == "ni" && A.Req.Proc.empty())
    return Fail("bad-request", "verb \"ni\" requires \"proc\"");
  if (Info->Work)
    A.Req.V = *Info->Work;
  P.Req = std::move(A.Req);
  return P;
}
