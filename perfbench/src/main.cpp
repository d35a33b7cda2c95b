// perfbench — the vcsteer repository benchmark.
//
//   perfbench --workload figs-cold|search-pruned|sweepd-lease --seed N
//             --seconds S --trace 0|1 [--work-dir D] [--trace-out F]
//
// --trace 0 runs the named workload untraced for S seconds and prints its
// end-to-end metrics. --trace 1 runs the traced pass of every workload
// (each layer is measured on the workload that exercises it), prints each
// layer's metrics, the per-layer self-time table with the tracing overhead
// beside it, and writes the spans as Chrome trace-event JSON to --trace-out.
// The last stdout line is one JSON object (metrics, check counts, digests)
// for run.py, which builds this binary and prints the final result line.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "workloads.hpp"

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  RunConfig cfg;
  bool trace = false;
  std::string trace_out = ".perfbench_out/trace.json";
};

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload figs-cold|search-pruned|sweepd-lease"
               " --seed N --seconds S --trace 0|1\n"
               "                 [--work-dir D] [--trace-out F]\n");
  return 2;
}

bool known_workload(const std::string& w) {
  return w == "figs-cold" || w == "search-pruned" || w == "sweepd-lease";
}

void print_metrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-28s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

void json_metrics(std::string* out, const std::vector<Metric>& metrics) {
  char buf[256];
  for (const Metric& m : metrics) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                  out->back() == '{' ? "" : ",", m.name.c_str(), m.value,
                  m.unit.c_str());
    *out += buf;
  }
}

double metric_value(const Outcome& o, const std::string& name) {
  for (const Metric& m : o.metrics) {
    if (m.name == name) return m.value;
  }
  return 0;
}

/// Prints the self-time table of one traced run with its overhead beside.
void print_self_table(const TracedRun& run, double untraced_s, double traced_s) {
  const SelfTimes self = self_times(run.spans, run.root);
  double thread_s = self.unattributed_s;
  for (const LayerSelf& row : self.layers) thread_s += row.self_s;
  std::printf("self time, traced %s: untraced wall %.4f s, traced wall %.4f s, "
              "tracing overhead %+.4f s (%+.2f%%)\n",
              run.workload.c_str(), untraced_s, traced_s, traced_s - untraced_s,
              100.0 * (traced_s - untraced_s) / untraced_s);
  std::printf("  %-14s %12s %8s %9s\n", "layer", "self_s", "share", "spans");
  for (const LayerSelf& row : self.layers) {
    std::printf("  %-14s %12.4f %7.2f%% %9zu\n", row.layer.c_str(), row.self_s,
                100.0 * row.self_s / thread_s, row.spans);
  }
  std::printf("  %-14s %12.4f %7.2f%% %9s\n", "unattributed", self.unattributed_s,
              100.0 * self.unattributed_s / thread_s, "-");
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  {
    const std::string exe = std::filesystem::absolute(argv[0]).string();
    args.cfg.bin_dir = exe.substr(0, exe.rfind('/'));
    args.cfg.work_dir = ".perfbench_run/" + std::to_string(::getpid());
  }
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.cfg.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.cfg.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--work-dir") {
      args.cfg.work_dir = value;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      return usage();
    }
  }
  if (!known_workload(args.workload) || args.cfg.seconds <= 0) return usage();
  fresh_dir(args.cfg.work_dir);

  std::vector<std::pair<std::string, Outcome>> outcomes;
  std::vector<TracedRun> traced;
  if (!args.trace) {
    const auto run = args.workload == "figs-cold"       ? figs_cold
                     : args.workload == "search-pruned" ? search_pruned
                                                        : sweepd_lease;
    outcomes.emplace_back(args.workload, run(args.cfg));
  } else {
    traced.resize(3);
    outcomes.emplace_back("figs-cold", figs_cold_traced(args.cfg, &traced[0]));
    outcomes.emplace_back("search-pruned",
                          search_pruned_traced(args.cfg, &traced[1]));
    outcomes.emplace_back("sweepd-lease",
                          sweepd_lease_traced(args.cfg, &traced[2]));
  }
  remove_tree(args.cfg.work_dir);

  Checks checks;
  std::vector<Metric> metrics, layers;
  std::string digests = "{";
  for (const auto& [name, o] : outcomes) {
    checks.merge(o.checks);
    metrics.insert(metrics.end(), o.metrics.begin(), o.metrics.end());
    layers.insert(layers.end(), o.layers.begin(), o.layers.end());
    digests += (digests.size() > 1 ? ",\"" : "\"") + name + "\":\"" +
               hex64(o.digest) + "\"";
  }
  digests += "}";

  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n",
              args.trace ? "traced" : args.workload.c_str(),
              static_cast<unsigned long long>(args.cfg.seed), args.cfg.seconds,
              args.trace ? 1 : 0);
  std::vector<Metric> report;
  if (!args.trace) {
    metrics.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
    print_metrics("end-to-end (untraced):", metrics);
    report = metrics;
  } else {
    for (std::size_t i = 0; i < traced.size(); ++i) {
      const double untraced_s = metric_value(outcomes[i].second, "wall_s");
      const double traced_s = metric_value(outcomes[i].second, "traced_wall_s");
      layers.push_back({"trace.overhead_s." + traced[i].workload,
                        traced_s - untraced_s, "s"});
    }
    print_metrics("per-layer (traced):", layers);
    for (std::size_t i = 0; i < traced.size(); ++i) {
      print_self_table(traced[i], metric_value(outcomes[i].second, "wall_s"),
                       metric_value(outcomes[i].second, "traced_wall_s"));
    }
    std::filesystem::create_directories(
        std::filesystem::path(args.trace_out).parent_path());
    checks.expect(write_chrome_trace(args.trace_out, traced),
                  "trace-event JSON written to " + args.trace_out);
    std::printf("spans: %s (Chrome trace-event JSON)\n", args.trace_out.c_str());
    report = layers;
  }
  for (const auto& [name, o] : outcomes) {
    for (const std::string& note : o.notes) {
      std::printf("note (%s): %s\n", name.c_str(), note.c_str());
    }
  }

  std::string json = "{\"attempted\":" + std::to_string(checks.attempted) +
                     ",\"failed\":" + std::to_string(checks.failed) +
                     ",\"digests\":" + digests + ",\"metrics\":{";
  json_metrics(&json, report);
  json += "}}";
  std::printf("%s\n", json.c_str());
  return checks.failed == 0 ? 0 : 1;
}
