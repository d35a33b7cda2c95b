// Argument parsing shared by the example programs (vcsteer_cli,
// pipeline_viewer, compiler_explorer). Each program prints its usage and
// exits 2 whenever one of these returns nullopt, so a malformed, signed,
// out-of-range or missing value never reaches the library.
#pragma once

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>
#include <type_traits>

#include "steer/policy.hpp"

namespace vcsteer::cli {

/// The scheme a command-line name selects.
inline std::optional<steer::Scheme> parse_scheme(const std::string& s) {
  if (s == "op") return steer::Scheme::kOp;
  if (s == "one-cluster" || s == "one") return steer::Scheme::kOneCluster;
  if (s == "ob") return steer::Scheme::kOb;
  if (s == "rhop") return steer::Scheme::kRhop;
  if (s == "vc") return steer::Scheme::kVc;
  if (s == "op-parallel" || s == "par") return steer::Scheme::kParallelOp;
  return std::nullopt;
}

/// `v` as a whole unsigned decimal token in [lo, hi]; nullopt for a missing,
/// signed, non-numeric, trailing-garbage or out-of-range value.
template <typename T = std::uint32_t>
std::optional<T> parse_in_range(const char* v, std::type_identity_t<T> lo,
                                std::type_identity_t<T> hi) {
  static_assert(std::is_unsigned_v<T>);
  if (v == nullptr || !std::isdigit(static_cast<unsigned char>(*v))) {
    return std::nullopt;
  }
  char* end = nullptr;
  errno = 0;
  const unsigned long long n = std::strtoull(v, &end, 10);
  if (*end != '\0' || errno == ERANGE || n < lo || n > hi) return std::nullopt;
  return static_cast<T>(n);
}

}  // namespace vcsteer::cli
