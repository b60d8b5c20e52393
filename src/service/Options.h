//===-- service/Options.h - Option table for both front ends ---*- C++ -*-===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every verb's options, declared once as the rows of one table
/// (Options.cpp). A row names its `hyperviper` flag and its serve-request
/// JSON key (either may be absent), its kind, its help text, and the
/// `VerbArgs` field it writes, whose initial value is the default. The
/// table alone drives argv parsing for every CLI verb, validation of every
/// daemon request, and each verb's `--help`. Malformed input is rejected,
/// never defaulted: an unknown flag, a missing value or a value outside the
/// row's kind exits 2; a wrong JSON type, an out-of-range number or a key
/// the verb does not take is a `bad-request` naming the key.
///
//===----------------------------------------------------------------------===//

#ifndef COMMCSL_SERVICE_OPTIONS_H
#define COMMCSL_SERVICE_OPTIONS_H

#include "hyperviper/Analyze.h"
#include "rspec/Suggest.h"
#include "service/Json.h"
#include "service/Session.h"

#include <cstdint>
#include <optional>
#include <string>
#include <variant>
#include <vector>

namespace commcsl {

/// Everything one verb invocation can set, on either front end.
struct VerbArgs {
  ServiceRequest Req; ///< what the daemon queues; the CLI reads it too
  std::vector<std::string> Inputs; ///< CLI positional arguments
  std::string TracePath;
  std::string MetricsPath;
  bool Quiet = false;
  bool PrintMetrics = false;
  std::string CertPath;        ///< verify --emit-cert
  std::string Inject = "none"; ///< verify and fuzz --inject
  AnalyzeOptions Analyze;
  std::string CorpusDir;
  std::string ReportPath = "-";
  SessionOptions Session; ///< serve
  unsigned Port = 0;
  unsigned Workers = 2;
  size_t MaxQueue = 64;
  std::string Spec; ///< suggest-spec --spec
  SuggestOptions Suggest;
};

/// One row. Its kind is the type of the field it writes: `bool` is a
/// presence flag or JSON boolean, an unsigned integer an integer in
/// Min..Max, `double` a number of seconds, a string free text or one of
/// `Choices`.
struct Option {
  using Field = std::variant<bool *, unsigned *, unsigned long *,
                             unsigned long long *, double *, std::string *>;
  const char *Flag = nullptr; ///< CLI spelling, or null: JSON only
  const char *Key = nullptr;  ///< JSON key, or null: CLI only
  Field Target;
  const char *Meta = nullptr; ///< value placeholder in `--help`
  const char *Help = "";
  std::string Expected = ""; ///< the kind, as error messages name it
  uint64_t Min = 0;
  uint64_t Max = 0;
  bool On = true;                ///< flag: the value presence writes
  const char *Choices = nullptr; ///< '|'-separated values
  std::string Default = "";      ///< the field's initial value, for `--help`
};

/// A verb of either front end.
struct VerbInfo {
  const char *Name;
  bool Cli;
  bool Daemon;
  std::optional<ServiceRequest::Verb> Work; ///< the daemon queues it
  const char *Synopsis; ///< CLI positional arguments; "" takes none
  const char *About;    ///< `--help` text
};

/// Every verb; the first, `verify`, is the CLI's default verb.
const std::vector<VerbInfo> &verbs();

/// The rows of verb \p Verb, bound to the fields of \p A.
std::vector<Option> verbOptions(const std::string &Verb, VerbArgs &A);

/// "hyperviper" for the default verb, else "hyperviper <verb>".
std::string programName(const std::string &Verb);

/// Parses the words after CLI verb \p Verb into \p A. Returns nullopt when
/// the verb should run; otherwise the exit code after printing `--help` (0)
/// or a usage error (2).
std::optional<int> parseCommandLine(const std::string &Verb, int Argc,
                                    char **Argv, VerbArgs &A);

/// A validated daemon request, or the typed error answering it.
struct ParsedRequest {
  std::string Verb;
  ServiceRequest Req;
  std::string ErrorType; ///< "bad-request" or "unknown-verb"; "" when valid
  std::string Error;
};

/// Validates one request object: besides `id` (any value, echoed) and
/// `verb`, each key must be a row of the verb holding a value of its kind.
ParsedRequest parseRequest(const JsonValue &J);

} // namespace commcsl

#endif // COMMCSL_SERVICE_OPTIONS_H
