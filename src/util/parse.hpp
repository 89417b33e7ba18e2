// Strict string-to-number parsing shared by the CLI tools and the
// environment-variable layer (env.hpp): the *entire* string must be a
// single number — no trailing junk, no empty input, no silent wraparound
// of negative values into unsigned types.  `--nbits foo` and
// `RANGERPP_TRIALS=10x` must be refused loudly, never coerced to 0 or 10.
#pragma once

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>

namespace rangerpp::util {

// Decimal unsigned parse of the whole string.  Rejects empty strings,
// any non-digit content (including leading whitespace, which strtoull
// would skip, and a leading '-', which it would wrap into a huge
// positive value), and out-of-range magnitudes.
inline bool parse_u64(const char* s, std::uint64_t& out) {
  if (!s || !std::isdigit(static_cast<unsigned char>(*s))) return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0' || errno == ERANGE) return false;
  out = static_cast<std::uint64_t>(v);
  return true;
}

// Decimal signed parse of the whole string ('-' allowed).
inline bool parse_i64(const char* s, std::int64_t& out) {
  if (!s ||
      !(std::isdigit(static_cast<unsigned char>(*s)) || *s == '-'))
    return false;
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(s, &end, 10);
  if (end == s || *end != '\0' || errno == ERANGE) return false;
  out = static_cast<std::int64_t>(v);
  return true;
}

// Full-string floating-point parse (strtod grammar minus leading
// whitespace and trailing junk).  Finite values only: "nan", "inf" and
// "infinity" are refused, since NaN slips through every `< 0` or range
// check a caller makes.
inline bool parse_f64(const char* s, double& out) {
  if (!s || *s == '\0' || std::isspace(static_cast<unsigned char>(*s)))
    return false;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s || *end != '\0' || errno == ERANGE || !std::isfinite(v))
    return false;
  out = v;
  return true;
}

}  // namespace rangerpp::util
