// Environment-variable parsing shared by the bench binaries and the CLI
// tools, so knobs like RANGERPP_TRIALS and the "i/N" shard grammar have
// exactly one implementation (and one set of validation rules).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>

#include "util/parse.hpp"

namespace rangerpp::util {

// Non-negative integer from the environment; `fallback` when unset.  A
// malformed value — trailing junk ("10x"), non-numeric ("abc"), negative,
// out of range — must never silently coerce into a different trial count,
// so it warns to stderr and keeps the default (same fallback convention
// as RANGERPP_BACKEND in ops/backend.cpp).
inline std::size_t env_size(const char* name, std::size_t fallback) {
  const char* v = std::getenv(name);
  if (!v) return fallback;
  std::uint64_t parsed = 0;
  if (!parse_u64(v, parsed)) {
    std::fprintf(stderr,
                 "rangerpp: ignoring %s=%s (want a non-negative integer); "
                 "using %zu\n",
                 name, v, fallback);
    return fallback;
  }
  return static_cast<std::size_t>(parsed);
}

// A shard of a deterministic trial stream: run only trials t with
// t % count == index.
struct ShardSpec {
  std::size_t index = 0;
  std::size_t count = 1;
};

// Parses "i/N" strictly — decimal i and N, no trailing junk, N > 0,
// i < N.  Returns nullopt on any violation so callers can refuse the
// spec outright: a typo'd shard must never silently run the wrong (or a
// duplicate) slice.
inline std::optional<ShardSpec> parse_shard_spec(const char* s) {
  if (!s) return std::nullopt;
  const char* slash = std::strchr(s, '/');
  if (!slash) return std::nullopt;
  const std::string index_str(s, slash);
  std::uint64_t index = 0, count = 0;
  if (!parse_u64(index_str.c_str(), index) || !parse_u64(slash + 1, count) ||
      count == 0 || index >= count)
    return std::nullopt;
  return ShardSpec{static_cast<std::size_t>(index),
                   static_cast<std::size_t>(count)};
}

}  // namespace rangerpp::util
