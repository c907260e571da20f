//===- support/ParseInt.cpp - Integer operands from outside ---------------===//

#include "support/ParseInt.h"

#include <cerrno>
#include <cstdlib>

using namespace sus;

bool sus::parseInteger(const std::string &What, const std::string &Text,
                       uint64_t &Out, std::string &Err, uint64_t Min,
                       uint64_t Max) {
  if (Text.empty() ||
      Text.find_first_not_of("0123456789") != std::string::npos) {
    Err = What + " expects a " + (Min > 0 ? "positive" : "non-negative") +
          " integer, got '" + Text + "'";
    return false;
  }
  errno = 0;
  unsigned long long N = std::strtoull(Text.c_str(), nullptr, 10);
  if (errno == ERANGE || N > Max) {
    Err = What + " value '" + Text + "' is out of range";
    if (Max != std::numeric_limits<uint64_t>::max())
      Err += " (max " + std::to_string(Max) + ")";
    return false;
  }
  if (N < Min) {
    Err = What + " must be at least " + std::to_string(Min) + ", got '" +
          Text + "'";
    return false;
  }
  Out = N;
  return true;
}
