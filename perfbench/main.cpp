//===-- perfbench/main.cpp - End-to-end benchmark entry point --------------===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `perfbench --workload W --seed N --seconds S --trace 0|1`.
/// Run from the repository root: the corpus paths are relative to it, and
/// traced runs write their spans under `.bench_out/` there. Prints every
/// metric with its unit, then one JSON result line.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace perfbench;

namespace {

int usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload "
               "corpus-verify|cert-check|fuzz-secure|serve-open\n"
               "                 --seed N --seconds S --trace 0|1\n",
               Why);
  return 2;
}

bool parseNumber(const char *Text, double &Out) {
  char *End = nullptr;
  Out = std::strtod(Text, &End);
  return End && *End == '\0' && End != Text;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  bool HaveWorkload = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (I + 1 >= Argc)
      return usage(("missing value for " + Arg).c_str());
    const char *Value = Argv[++I];
    double N = 0;
    if (Arg == "--workload") {
      O.Workload = Value;
      HaveWorkload = true;
    } else if (Arg == "--seed") {
      if (!parseNumber(Value, N) || N < 0)
        return usage("--seed must be a non-negative integer");
      O.Seed = std::strtoull(Value, nullptr, 10);
    } else if (Arg == "--seconds") {
      if (!parseNumber(Value, N) || N <= 0 || N > 120)
        return usage("--seconds must be in (0, 120]");
      O.Seconds = N;
    } else if (Arg == "--trace") {
      if (std::strcmp(Value, "0") != 0 && std::strcmp(Value, "1") != 0)
        return usage("--trace must be 0 or 1");
      O.Trace = Value[0] == '1';
    } else {
      return usage(("unknown option " + Arg).c_str());
    }
  }
  if (!HaveWorkload)
    return usage("--workload is required");

  Report R;
  if (O.Workload == "corpus-verify")
    R = runCorpusVerify(O);
  else if (O.Workload == "cert-check")
    R = runCertCheck(O);
  else if (O.Workload == "fuzz-secure")
    R = runFuzzSecure(O);
  else if (O.Workload == "serve-open")
    R = runServeOpen(O);
  else
    return usage(("unknown workload " + O.Workload).c_str());

  if (R.Attempted == 0) {
    // Nothing was measured (set-up failed): no result line.
    for (const std::string &L : R.Notes)
      std::fprintf(stderr, "perfbench: %s\n", L.c_str());
    return 1;
  }
  printReport(R);
  return 0;
}
