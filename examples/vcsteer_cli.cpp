// vcsteer_cli: command-line driver over the whole library.
//
//   vcsteer_cli --trace 178.galgel --scheme vc --vcs 2 --clusters 4
//               [--budget full|smoke] [--csv] [--list]
//
// Runs one (trace, machine, scheme) evaluation and prints the metrics; with
// --all-schemes, compares every Table 3 configuration on the trace. This is
// the entry point for scripting custom sweeps without writing C++.
#include <cstdio>
#include <iostream>
#include <string>

#include "cli_args.hpp"
#include "harness/experiment.hpp"
#include "stats/table.hpp"
#include "workload/profiles.hpp"

namespace {

using namespace vcsteer;

int usage() {
  std::fprintf(
      stderr,
      "usage: vcsteer_cli [--trace NAME] [--scheme op|one-cluster|ob|rhop|vc|"
      "op-parallel]\n"
      "                   [--vcs 0-254] [--clusters 1-8] [--budget full|smoke]\n"
      "                   [--all-schemes] [--csv] [--list]\n"
      "  --vcs 0 (the default) means one virtual cluster per cluster.\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace = "164.gzip-1";
  std::string scheme_name = "vc";
  std::uint32_t vcs = 0;
  std::uint32_t clusters = 2;
  bool smoke = false;
  bool all_schemes = false;
  bool csv = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    // The flag's value, or null when the flag comes last.
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--trace") {
      const char* v = value();
      if (v == nullptr) return usage();
      trace = v;
    } else if (arg == "--scheme") {
      const char* v = value();
      if (v == nullptr) return usage();
      scheme_name = v;
    } else if (arg == "--vcs") {
      // VC ids stay below isa::SteerHint::kNoVc (255).
      const auto n = cli::parse_in_range(value(), 0, 254);
      if (!n) return usage();
      vcs = *n;
    } else if (arg == "--clusters") {
      const auto n = cli::parse_in_range(value(), 1, kMaxClusters);
      if (!n) return usage();
      clusters = *n;
    } else if (arg == "--budget") {
      const char* v = value();
      if (v == nullptr) return usage();
      const std::string budget = v;
      if (budget != "full" && budget != "smoke") return usage();
      smoke = budget == "smoke";
    } else if (arg == "--all-schemes") {
      all_schemes = true;
    } else if (arg == "--csv") {
      csv = true;
    } else if (arg == "--list") {
      for (const auto& p : workload::all_profiles()) {
        std::printf("%-16s %s\n", p.name.c_str(), p.is_fp ? "FP" : "INT");
      }
      return 0;
    } else {
      return usage();
    }
  }

  const workload::WorkloadProfile* profile = workload::find_profile(trace);
  if (profile == nullptr) {
    std::fprintf(stderr, "unknown trace '%s' (try --list)\n", trace.c_str());
    return 1;
  }
  MachineConfig machine = MachineConfig::two_cluster();
  machine.num_clusters = clusters;
  const harness::SimBudget budget =
      smoke ? harness::SimBudget::smoke() : harness::SimBudget{};
  harness::TraceExperiment experiment(*profile, machine, budget);

  std::vector<harness::SchemeSpec> specs;
  if (all_schemes) {
    specs = {{steer::Scheme::kOp, 0},   {steer::Scheme::kOneCluster, 0},
             {steer::Scheme::kOb, 0},   {steer::Scheme::kRhop, 0},
             {steer::Scheme::kVc, vcs}, {steer::Scheme::kParallelOp, 0}};
  } else {
    const auto parsed = cli::parse_scheme(scheme_name);
    if (!parsed) return usage();
    specs = {{steer::Scheme::kOp, 0}};  // baseline for the slowdown column
    if (*parsed != steer::Scheme::kOp) specs.push_back({*parsed, vcs});
  }

  stats::Table table(profile->name + " on " + machine.summary());
  table.set_columns({"scheme", "IPC", "slowdown vs OP (%)", "copies/kuop",
                     "alloc stalls/kuop", "policy stalls/kuop"});
  double base_ipc = 0.0;
  const std::vector<harness::SchemeRequest> requests(specs.begin(),
                                                     specs.end());
  for (const harness::RunResult& r : experiment.evaluate(requests)) {
    if (base_ipc == 0.0) base_ipc = r.ipc;
    table.row()
        .add(r.scheme)
        .add(r.ipc, 3)
        .add(stats::slowdown_pct(base_ipc, r.ipc), 2)
        .add(r.copies_per_kuop, 1)
        .add(r.alloc_stalls_per_kuop, 1)
        .add(r.policy_stalls_per_kuop, 1);
  }
  std::cout << (csv ? table.to_csv() : table.to_text());
  return 0;
}
