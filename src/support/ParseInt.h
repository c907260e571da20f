//===- support/ParseInt.h - Integer operands from outside -------*- C++ -*-===//
///
/// \file
/// The one parser for integers that arrive from outside the program:
/// command-line operands, daemon request parameters and tenant budget
/// fields. Digits only — no sign, no whitespace, no base prefix — so a
/// typo like "-1" is an error instead of the huge count strtoull would
/// silently wrap it to.
///
//===----------------------------------------------------------------------===//

#ifndef SUS_SUPPORT_PARSEINT_H
#define SUS_SUPPORT_PARSEINT_H

#include <cstdint>
#include <limits>
#include <string>

namespace sus {

/// Parses \p Text as a decimal integer in [\p Min, \p Max] into \p Out.
/// On failure returns false with a one-line diagnostic in \p Err that
/// names the operand as \p What (e.g. "--jobs" or "parameter 'seed'").
bool parseInteger(const std::string &What, const std::string &Text,
                  uint64_t &Out, std::string &Err, uint64_t Min = 0,
                  uint64_t Max = std::numeric_limits<uint64_t>::max());

} // namespace sus

#endif // SUS_SUPPORT_PARSEINT_H
