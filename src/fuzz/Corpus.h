//===-- fuzz/Corpus.h - Regression corpus I/O -------------------*- C++ -*-===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Serialization of campaign findings as replayable corpus files: ordinary
/// `.hv` sources prefixed with a `// fuzz-corpus v1` comment header that
/// records the original classification and enough oracle inputs (taint
/// verdict, seed, injected fault) to replay the exact disagreement. The
/// corpus replay test re-runs each committed entry through the oracle and
/// asserts the recorded class still reproduces.
///
//===----------------------------------------------------------------------===//

#ifndef COMMCSL_FUZZ_CORPUS_H
#define COMMCSL_FUZZ_CORPUS_H

#include "fuzz/Campaign.h"

#include <optional>
#include <string>
#include <vector>

namespace commcsl {

/// A parsed corpus file.
struct CorpusEntry {
  OracleClass Class = OracleClass::Agree;
  uint64_t Seed = 0;
  unsigned SeedIndex = 0;
  bool GenTainted = false;
  OracleFault Inject = OracleFault::None;
  std::string Detail;
  std::string Source; ///< the program text after the header
};

/// Renders one finding as corpus-file content. \p Inject records the fault
/// the oracle ran under (a synthetic finding only replays under the same
/// fault).
std::string renderCorpusEntry(const CampaignFinding &Finding,
                              OracleFault Inject);

/// Parses corpus-file content; nullopt when the header is missing or
/// malformed.
std::optional<CorpusEntry> parseCorpusEntry(const std::string &Content);

/// Deterministic file name for a finding: `<class>-seed<index>.hv`.
std::string corpusFileName(const CampaignFinding &Finding);

/// What writeCorpusFiles did.
struct CorpusWriteResult {
  std::vector<std::string> Paths; ///< files written, in finding order
  /// The directory or file that could not be created or written (writing
  /// stops there); empty when every file was written.
  std::string Unwritten;
};

/// Writes every finding of \p Report into directory \p Dir (created if
/// missing).
CorpusWriteResult writeCorpusFiles(const CampaignReport &Report,
                                   const std::string &Dir);

} // namespace commcsl

#endif // COMMCSL_FUZZ_CORPUS_H
