//===-- fuzz/Corpus.cpp - Regression corpus I/O ----------------------------===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Corpus.h"

#include "support/Numeric.h"

#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

using namespace commcsl;

namespace {

/// Comment headers must stay one physical line each.
std::string oneLine(const std::string &S) {
  std::string Out;
  for (char C : S)
    Out += (C == '\n' || C == '\r') ? ' ' : C;
  return Out;
}

} // namespace

std::string commcsl::renderCorpusEntry(const CampaignFinding &Finding,
                                       OracleFault Inject) {
  std::ostringstream OS;
  OS << "// fuzz-corpus v1\n";
  OS << "// class: " << oracleClassName(Finding.Class) << "\n";
  OS << "// seed-index: " << Finding.SeedIndex << "\n";
  OS << "// seed: " << Finding.Seed << "\n";
  OS << "// gen-tainted: " << (Finding.GenTainted ? 1 : 0) << "\n";
  OS << "// inject: " << oracleFaultName(Inject) << "\n";
  OS << "// statements: " << Finding.StatementsBefore << " -> "
     << Finding.StatementsAfter << "\n";
  OS << "// detail: " << oneLine(Finding.Detail) << "\n";
  OS << "\n";
  OS << Finding.Source;
  return OS.str();
}

std::optional<CorpusEntry> commcsl::parseCorpusEntry(
    const std::string &Content) {
  std::istringstream In(Content);
  std::string Line;
  if (!std::getline(In, Line) || Line != "// fuzz-corpus v1")
    return std::nullopt;

  CorpusEntry Entry;
  bool HaveClass = false;
  while (std::getline(In, Line)) {
    if (Line.empty())
      break; // header/body separator
    if (Line.rfind("// ", 0) != 0)
      return std::nullopt;
    std::string Field = Line.substr(3);
    size_t Colon = Field.find(':');
    if (Colon == std::string::npos)
      return std::nullopt;
    std::string Key = Field.substr(0, Colon);
    std::string Value = Field.substr(Colon + 1);
    while (!Value.empty() && Value.front() == ' ')
      Value.erase(Value.begin());
    if (Key == "class") {
      std::optional<OracleClass> C = oracleClassByName(Value);
      if (!C)
        return std::nullopt;
      Entry.Class = *C;
      HaveClass = true;
    } else if (Key == "seed") {
      // Corpus files are hand-editable; a malformed number is a parse
      // failure, never an exception.
      std::optional<uint64_t> Seed = parseUnsigned64(Value);
      if (!Seed)
        return std::nullopt;
      Entry.Seed = *Seed;
    } else if (Key == "seed-index") {
      std::optional<uint64_t> Index = parseUnsigned64(Value);
      if (!Index || *Index > std::numeric_limits<unsigned>::max())
        return std::nullopt;
      Entry.SeedIndex = static_cast<unsigned>(*Index);
    } else if (Key == "gen-tainted") {
      Entry.GenTainted = Value == "1" || Value == "true";
    } else if (Key == "inject") {
      std::optional<OracleFault> F = oracleFaultByName(Value);
      if (!F)
        return std::nullopt;
      Entry.Inject = *F;
    } else if (Key == "detail") {
      Entry.Detail = Value;
    }
    // Unknown keys (e.g. "statements") are informational; skip.
  }
  if (!HaveClass)
    return std::nullopt;
  std::ostringstream Body;
  Body << In.rdbuf();
  Entry.Source = Body.str();
  if (Entry.Source.empty())
    return std::nullopt;
  return Entry;
}

std::string commcsl::corpusFileName(const CampaignFinding &Finding) {
  std::ostringstream OS;
  OS << oracleClassName(Finding.Class) << "-seed" << Finding.SeedIndex
     << ".hv";
  return OS.str();
}

CorpusWriteResult commcsl::writeCorpusFiles(const CampaignReport &Report,
                                            const std::string &Dir) {
  CorpusWriteResult R;
  std::error_code EC;
  std::filesystem::create_directories(Dir, EC);
  if (EC) {
    R.Unwritten = Dir;
    return R;
  }
  for (const CampaignFinding &F : Report.Findings) {
    std::string P = (std::filesystem::path(Dir) / corpusFileName(F)).string();
    std::ofstream Out(P);
    Out << renderCorpusEntry(F, Report.Config.Oracle.Inject);
    Out.close();
    if (!Out) {
      R.Unwritten = P;
      return R;
    }
    R.Paths.push_back(std::move(P));
  }
  return R;
}
