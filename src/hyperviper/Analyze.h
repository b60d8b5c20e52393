//===-- hyperviper/Analyze.h - `hyperviper analyze` verb --------*- C++ -*-===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Implementation of the `hyperviper analyze` CLI verb: run the static
/// information-flow pre-analysis (analysis/Analysis.h) over files and
/// directories of `.hv` programs, without any verification or validity
/// checking. Directories expand recursively in sorted order; files are
/// processed in parallel under `--jobs` with an input-order merge, so the
/// report is byte-identical at every job count.
///
/// Every file produces a *report block*:
///
///   verdict: provably-low | candidate-leak | parse-error | type-error
///   <location-ordered diagnostics, caret snippets under each>
///
/// `--check` compares each block against a committed sidecar
/// `<file>.analysis`; a missing sidecar asserts the file is provably-low
/// with no diagnostics. This is the CI contract: any unexpected diagnostic
/// (or an expected one that disappears) fails the run.
///
//===----------------------------------------------------------------------===//

#ifndef COMMCSL_HYPERVIPER_ANALYZE_H
#define COMMCSL_HYPERVIPER_ANALYZE_H

#include <string>
#include <utility>
#include <vector>

namespace commcsl {

/// Expands files-or-directories into (display, on-disk path) pairs of
/// `.hv` files: directories recurse in sorted relative-path order, plain
/// files pass through. Shared by the `analyze` and verification verbs so
/// both accept the same input shapes.
std::vector<std::pair<std::string, std::string>>
expandHvInputs(const std::vector<std::string> &Inputs);

struct AnalyzeOptions {
  /// Worker threads over input files; 0 = hardware concurrency. Output is
  /// identical at every setting.
  unsigned Jobs = 0;
  /// Compare each block against its `<file>.analysis` sidecar. Every
  /// analyzed file must have one — clean files included — so a program
  /// added without rerunning `--write` fails the check rather than being
  /// silently assumed clean.
  bool Check = false;
  /// Regenerate sidecars: write `<file>.analysis` for every analyzed file.
  /// Mutually exclusive with Check.
  bool Write = false;
};

/// Per-file outcome.
struct AnalyzeFileResult {
  std::string Display; ///< path as shown in the report
  std::string Path;    ///< path on disk
  std::string Verdict; ///< "provably-low", "candidate-leak", ...
  std::string Block;   ///< the report block (verdict line + diagnostics)
  bool SidecarOk = true; ///< Check mode: block matches the sidecar
};

struct AnalyzeResult {
  std::vector<AnalyzeFileResult> Files;
  bool Ok = true; ///< Check mode: every sidecar matched
  /// Write mode: the sidecar that could not be written (writing stops
  /// there); empty when every sidecar was written.
  std::string UnwrittenSidecar;

  /// Deterministic human-readable report (one block per file, prefixed
  /// with its display path).
  std::string str() const;
};

/// Expands \p Inputs (files or directories) and analyzes every `.hv` file.
AnalyzeResult runAnalyze(const std::vector<std::string> &Inputs,
                         const AnalyzeOptions &Options = AnalyzeOptions());

/// Analyzes one source buffer into a report block (the `--check` unit).
/// Exposed for tests.
AnalyzeFileResult analyzeSourceBlock(const std::string &Source,
                                     const std::string &Display);

} // namespace commcsl

#endif // COMMCSL_HYPERVIPER_ANALYZE_H
