#include "util.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>

#include "exec/cache.hpp"

namespace perfbench {

double median(std::vector<double> xs) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : (xs[n / 2 - 1] + xs[n / 2]) / 2;
}

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const double rank = p * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (xs[hi] - xs[lo]) * (rank - static_cast<double>(lo));
}

std::uint64_t digest_bytes(std::uint64_t h, std::string_view bytes) {
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t digest_results(
    std::uint64_t h, const std::vector<vcsteer::harness::RunResult>& rs) {
  for (const vcsteer::harness::RunResult& r : rs) {
    h = digest_bytes(h, vcsteer::exec::encode_result(r));
    h = digest_bytes(h, "\x1f");
  }
  return h;
}

vcsteer::workload::WorkloadProfile salted(
    const vcsteer::workload::WorkloadProfile& base, std::uint64_t seed) {
  vcsteer::workload::WorkloadProfile profile = base;
  profile.seed_salt += seed;
  return profile;
}

std::vector<std::string> grid_keys(const vcsteer::exec::SweepGrid& grid,
                                   std::uint64_t seed) {
  std::vector<std::string> keys;
  for (const vcsteer::workload::WorkloadProfile& base : grid.profiles) {
    const vcsteer::workload::WorkloadProfile profile = salted(base, seed);
    for (const vcsteer::MachineConfig& machine : grid.machines) {
      for (const vcsteer::exec::SweepScheme& scheme : grid.schemes) {
        keys.push_back(vcsteer::exec::cache_key(profile, machine, scheme.spec,
                                                grid.budget, scheme.custom_tag));
      }
    }
  }
  return keys;
}

std::string scheme_kind(vcsteer::steer::Scheme scheme) {
  std::string name = vcsteer::steer::scheme_name(scheme);
  for (char& c : name) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return name;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

bool Checks::expect(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
  }
  return ok;
}

std::string rep_walls(const std::vector<double>& walls) {
  std::string line = "wall_s per repetition:";
  char buf[32];
  for (const double w : walls) {
    std::snprintf(buf, sizeof(buf), " %.4f", w);
    line += buf;
  }
  return line;
}

void remove_tree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

void fresh_dir(const std::string& path) {
  remove_tree(path);
  std::filesystem::create_directories(path);
}

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
