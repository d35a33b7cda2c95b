#include "exec/result_sink.hpp"

#include <cstdio>
#include <ostream>

namespace vcsteer::exec {

void write_summary_json(std::ostream& os, const RunSummary& s) {
  auto num = [](double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return std::string(buf);
  };
  auto boolean = [](bool b) { return b ? "true" : "false"; };
  os << "{\"bench\":" << stats::json_quote(s.bench)
     << ",\"ok\":" << boolean(s.ok)
     << ",\"wall_seconds\":" << num(s.wall_seconds)
     << ",\"sweep\":{\"points\":" << s.points
     << ",\"simulated\":" << s.sweep.simulated << "}"
     << ",\"phases\":{\"trace_build_s\":" << num(s.sweep.phases.trace_build)
     << ",\"annotate_s\":" << num(s.sweep.phases.annotate)
     << ",\"warmup_s\":" << num(s.sweep.phases.warmup)
     << ",\"simulate_s\":" << num(s.sweep.phases.simulate) << "}"
     << ",\"events\":{\"experiments\":" << s.sweep.experiments
     << ",\"cycles\":" << s.cycles << "}";
  const ModelStats& model = s.sweep.model;
  if (!model.enabled) {
    os << ",\"model\":null";
  } else {
    os << ",\"model\":{\"top_k\":" << model.top_k
       << ",\"estimated\":" << model.estimated
       << ",\"pruned\":" << model.pruned
       << ",\"spearman\":" << num(model.spearman)
       << ",\"top3_overlap\":" << model.top3_overlap << "}";
  }
  os << ",\"options\":{";
  {
    bool first = true;
    for (const auto& [name, value] : s.options) {
      if (!first) os << ',';
      first = false;
      os << stats::json_quote(name) << ":" << stats::json_quote(value);
    }
  }
  os << "}";
  os << "}\n";
}

void ResultSink::add_sweep(const SweepResult& sweep) {
  results_.insert(results_.end(), sweep.points().begin(),
                  sweep.points().end());
}

void ResultSink::add_table(stats::Table table) {
  tables_.push_back(std::move(table));
}

void ResultSink::write_json(std::ostream& os) const {
  auto num = [](double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return std::string(buf);
  };
  os << "{\"bench\":" << stats::json_quote(bench_name_) << ',';
  // Results-document schema version: bumped whenever a field is added to or
  // removed from the per-result records below (2: + per-result "source").
  os << "\"schema_version\":2,";
  // Deliberately no execution counters (simulated/cache hits) here: the
  // document is a pure function of the grid, so a cached or multi-threaded
  // run emits the same bytes as a cold serial one. The counters live in the
  // --summary-json (RunSummary).
  os << "\"sweep\":{\"points\":" << results_.size() << "},";
  os << "\"results\":[";
  for (std::size_t i = 0; i < results_.size(); ++i) {
    const harness::RunResult& r = results_[i];
    if (i) os << ',';
    os << "{\"trace\":" << stats::json_quote(r.trace)
       << ",\"scheme\":" << stats::json_quote(r.scheme)
       << ",\"source\":" << stats::json_quote(r.source)
       << ",\"ipc\":" << num(r.ipc)
       << ",\"copies_per_kuop\":" << num(r.copies_per_kuop)
       << ",\"alloc_stalls_per_kuop\":" << num(r.alloc_stalls_per_kuop)
       << ",\"policy_stalls_per_kuop\":" << num(r.policy_stalls_per_kuop)
       << ",\"copy_hops_per_kuop\":" << num(r.copy_hops_per_kuop)
       << ",\"link_contention_per_kuop\":" << num(r.link_contention_per_kuop)
       << ",\"avoided_contended_per_kuop\":" << num(r.avoided_contended_per_kuop)
       << ",\"committed_uops\":" << r.committed_uops
       << ",\"cycles\":" << r.cycles;
    // Observer-derived occupancy/steering provenance, trimmed to the
    // machine's cluster count.
    auto num_array = [&](const char* name, const auto& values) {
      os << ",\"" << name << "\":[";
      for (std::uint32_t c = 0; c < r.num_clusters; ++c) {
        if (c) os << ',';
        os << num(static_cast<double>(values[c]));
      }
      os << ']';
    };
    num_array("avg_iq_occupancy", r.avg_iq_occupancy);
    num_array("avg_copyq_occupancy", r.avg_copyq_occupancy);
    os << ",\"iq_occupancy_hist\":[";
    for (std::uint32_t c = 0; c < r.num_clusters; ++c) {
      if (c) os << ',';
      os << '[';
      for (std::uint32_t b = 0; b < sim::kOccupancyBuckets; ++b) {
        if (b) os << ',';
        os << r.iq_occupancy_hist[c][b];
      }
      os << ']';
    }
    os << ']';
    os << ",\"steered_with_copy\":[";
    for (std::uint32_t c = 0; c < r.num_clusters; ++c) {
      if (c) os << ',';
      os << r.steered_with_copy[c];
    }
    os << "],\"steered_local\":[";
    for (std::uint32_t c = 0; c < r.num_clusters; ++c) {
      if (c) os << ',';
      os << r.steered_local[c];
    }
    os << "]}";
  }
  os << "],\"tables\":[";
  for (std::size_t i = 0; i < tables_.size(); ++i) {
    if (i) os << ',';
    os << tables_[i].to_json();
  }
  os << "]}\n";
}

}  // namespace vcsteer::exec
