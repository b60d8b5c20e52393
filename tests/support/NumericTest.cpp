//===-- tests/support/NumericTest.cpp - Strict numeric parsing tests -------===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//

#include "support/Numeric.h"

#include <gtest/gtest.h>

#include <limits>

using namespace commcsl;

TEST(NumericTest, ParseUnsigned64AcceptsPlainDecimals) {
  EXPECT_EQ(parseUnsigned64("0"), 0u);
  EXPECT_EQ(parseUnsigned64("42"), 42u);
  EXPECT_EQ(parseUnsigned64("007"), 7u);
  EXPECT_EQ(parseUnsigned64("18446744073709551615"),
            std::numeric_limits<uint64_t>::max());
}

TEST(NumericTest, ParseUnsigned64RejectsJunk) {
  EXPECT_FALSE(parseUnsigned64(""));
  EXPECT_FALSE(parseUnsigned64("abc"));
  EXPECT_FALSE(parseUnsigned64("4x"));
  EXPECT_FALSE(parseUnsigned64("x4"));
  EXPECT_FALSE(parseUnsigned64(" 4"));
  EXPECT_FALSE(parseUnsigned64("4 "));
  EXPECT_FALSE(parseUnsigned64("+4"));
  EXPECT_FALSE(parseUnsigned64("-4"));
  EXPECT_FALSE(parseUnsigned64("4.0"));
  EXPECT_FALSE(parseUnsigned64("0x10"));
}

TEST(NumericTest, ParseUnsigned64RejectsOverflow) {
  // One past uint64_t max, and something much larger.
  EXPECT_FALSE(parseUnsigned64("18446744073709551616"));
  EXPECT_FALSE(parseUnsigned64("99999999999999999999999999"));
}
