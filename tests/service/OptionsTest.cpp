//===-- tests/service/OptionsTest.cpp - Option table negative suite -------===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Malformed input against every row of the option table, on both front
/// ends: daemon requests through `parseRequest`, command lines through
/// `parseCommandLine`. The cases are derived from the rows themselves, so a
/// new row is covered without editing this file.
///
//===----------------------------------------------------------------------===//

#include "service/Options.h"

#include <gtest/gtest.h>

#include <limits>

using namespace commcsl;

namespace {

bool isInteger(const Option &O) {
  return !std::holds_alternative<bool *>(O.Target) &&
         !std::holds_alternative<double *>(O.Target) &&
         !std::holds_alternative<std::string *>(O.Target);
}

/// The daemon's answer to `{"verb":Verb, Key:Value}`.
ParsedRequest request(const std::string &Verb, const std::string &Key,
                      const JsonValue &Value) {
  JsonValue J = JsonValue::object();
  J.set("id", JsonValue::number(uint64_t{1}));
  J.set("verb", JsonValue::string(Verb));
  J.set(Key, Value);
  return parseRequest(J);
}

void expectBadRequestNaming(const ParsedRequest &P, const std::string &Key) {
  EXPECT_EQ(P.ErrorType, "bad-request");
  EXPECT_NE(P.Error.find("\"" + Key + "\""), std::string::npos) << P.Error;
}

/// `parseCommandLine` for \p Verb over \p Words; returns its exit code (-1
/// when the verb would run) and sets \p Stderr to what it printed.
int commandLine(const std::string &Verb, std::vector<std::string> Words,
                std::string &Stderr) {
  std::vector<char *> Argv;
  for (std::string &W : Words)
    Argv.push_back(W.data());
  VerbArgs A;
  testing::internal::CaptureStderr();
  std::optional<int> Exit = parseCommandLine(
      Verb, static_cast<int>(Argv.size()), Argv.data(), A);
  Stderr = testing::internal::GetCapturedStderr();
  return Exit ? *Exit : -1;
}

} // namespace

TEST(OptionsTest, EveryDaemonRowRejectsMalformedValuesByName) {
  const uint64_t U64Max = std::numeric_limits<uint64_t>::max();
  for (const VerbInfo &V : verbs()) {
    if (!V.Daemon)
      continue;
    VerbArgs A;
    for (const Option &O : verbOptions(V.Name, A)) {
      if (!O.Key)
        continue;
      SCOPED_TRACE(std::string(V.Name) + " " + O.Key);
      // A string is the wrong type for flag and number rows, a number for
      // string rows.
      const bool Text = std::holds_alternative<std::string *>(O.Target);
      expectBadRequestNaming(
          request(V.Name, O.Key,
                  Text ? JsonValue::number(uint64_t{7})
                       : JsonValue::string("1")),
          O.Key);
      if (!isInteger(O))
        continue;
      std::vector<std::string> Bad = {"-1", "1.5", "1e3"};
      if (O.Max < U64Max)
        Bad.push_back(std::to_string(O.Max + 1));
      if (O.Min > 0)
        Bad.push_back(std::to_string(O.Min - 1));
      for (const std::string &Number : Bad)
        expectBadRequestNaming(
            request(V.Name, O.Key, *JsonValue::parse(Number)), O.Key);
    }
    ParsedRequest Unknown =
        request(V.Name, "no_such_key", JsonValue::number(uint64_t{1}));
    expectBadRequestNaming(Unknown, "no_such_key");
    EXPECT_NE(Unknown.Error.find(std::string("\"") + V.Name + "\""),
              std::string::npos)
        << Unknown.Error;
  }
}

TEST(OptionsTest, RequestVerbIsTyped) {
  EXPECT_EQ(parseRequest(*JsonValue::parse(R"({"id":1})")).ErrorType,
            "bad-request");
  EXPECT_EQ(parseRequest(*JsonValue::parse(R"({"verb":7})")).ErrorType,
            "bad-request");
  EXPECT_EQ(parseRequest(*JsonValue::parse(R"({"verb":""})")).ErrorType,
            "bad-request");
  // CLI-only verbs are unknown to the daemon.
  for (const char *Verb : {"frobnicate", "serve", "check-cert"})
    EXPECT_EQ(request(Verb, "id", JsonValue::null()).ErrorType,
              "unknown-verb")
        << Verb;
}

TEST(OptionsTest, EveryCliRowRejectsMalformedValuesByName) {
  const uint64_t U64Max = std::numeric_limits<uint64_t>::max();
  for (const VerbInfo &V : verbs()) {
    if (!V.Cli)
      continue;
    std::string Err;
    EXPECT_EQ(commandLine(V.Name, {"--no-such-flag"}, Err), 2) << V.Name;
    EXPECT_NE(Err.find("unknown option '--no-such-flag'"), std::string::npos)
        << Err;
    VerbArgs A;
    for (const Option &O : verbOptions(V.Name, A)) {
      if (!O.Flag || std::holds_alternative<bool *>(O.Target))
        continue;
      SCOPED_TRACE(std::string(V.Name) + " " + O.Flag);
      EXPECT_EQ(commandLine(V.Name, {O.Flag}, Err), 2);
      EXPECT_NE(Err.find(std::string(O.Flag) + " expects a value"),
                std::string::npos)
          << Err;
      std::vector<std::string> Bad;
      if (O.Choices)
        Bad = {"no-such-choice"};
      else if (!std::holds_alternative<std::string *>(O.Target))
        Bad = {"x", "-1", "4x", ""};
      if (isInteger(O) && O.Max < U64Max)
        Bad.push_back(std::to_string(O.Max + 1));
      if (isInteger(O) && O.Min > 0)
        Bad.push_back(std::to_string(O.Min - 1));
      for (const std::string &Value : Bad) {
        EXPECT_EQ(commandLine(V.Name, {O.Flag, Value}, Err), 2) << Value;
        EXPECT_NE(Err.find("invalid " + std::string(O.Flag) + " value '" +
                           Value + "'"),
                  std::string::npos)
            << Err;
      }
    }
  }
}
