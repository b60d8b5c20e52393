//===-- support/Numeric.cpp - Strict numeric string parsing ----------------===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//

#include "support/Numeric.h"

#include <limits>

using namespace commcsl;

std::optional<uint64_t> commcsl::parseUnsigned64(const std::string &S) {
  if (S.empty())
    return std::nullopt;
  uint64_t V = 0;
  for (char C : S) {
    if (C < '0' || C > '9')
      return std::nullopt;
    uint64_t Digit = static_cast<uint64_t>(C - '0');
    if (V > (std::numeric_limits<uint64_t>::max() - Digit) / 10)
      return std::nullopt; // overflow
    V = V * 10 + Digit;
  }
  return V;
}
