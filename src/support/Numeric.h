//===-- support/Numeric.h - Strict numeric string parsing -------*- C++ -*-===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Strict, exception-free parsing of unsigned decimal strings. Unlike bare
/// `std::stoull`, it rejects empty input, signs, leading/trailing junk
/// (`"4x"`), and out-of-range values by returning `std::nullopt` instead
/// of throwing — the contract every header-field and option parser in the
/// project shares (the option table's integers, corpus `// seed:` headers,
/// ...).
///
//===----------------------------------------------------------------------===//

#ifndef COMMCSL_SUPPORT_NUMERIC_H
#define COMMCSL_SUPPORT_NUMERIC_H

#include <cstdint>
#include <optional>
#include <string>

namespace commcsl {

/// Parses \p S as an unsigned decimal integer. Rejects anything that is
/// not entirely digits (including `+`/`-` signs and whitespace) and
/// values exceeding uint64_t.
std::optional<uint64_t> parseUnsigned64(const std::string &S);

} // namespace commcsl

#endif // COMMCSL_SUPPORT_NUMERIC_H
