#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <unordered_map>

namespace perfbench {

std::uint64_t SpanLog::begin(std::string name, std::uint64_t parent,
                             std::uint64_t cell) {
  Span span;
  span.name = std::move(name);
  span.id = (static_cast<std::uint64_t>(tid_) << 40) | (spans_.size() + 1);
  span.parent = parent;
  span.cell = cell;
  span.tid = tid_;
  span.t0_s = std::chrono::duration<double>(Clock::now() - epoch_).count();
  span.t1_s = span.t0_s;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void SpanLog::end(std::uint64_t id) {
  spans_[index(id)].t1_s =
      std::chrono::duration<double>(Clock::now() - epoch_).count();
}

std::vector<double> durations(const std::vector<Span>& spans,
                              const std::string& name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (s.name == name) out.push_back(s.seconds());
  }
  return out;
}

double total_seconds(const std::vector<Span>& spans, const std::string& prefix) {
  double sum = 0;
  for (const Span& s : spans) {
    if (s.name.compare(0, prefix.size(), prefix) == 0) sum += s.seconds();
  }
  return sum;
}

SelfTimes self_times(const std::vector<Span>& spans, std::uint64_t root) {
  std::unordered_map<std::uint64_t, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  // Only the root and its descendants count; other roots (e.g. the output
  // checks) are outside the traced repetition.
  const auto under_root = [&](const Span& s) {
    for (std::uint64_t id = s.id;;) {
      if (id == root) return true;
      const auto it = index.find(id);
      if (it == index.end() || spans[it->second].parent == 0) return false;
      id = spans[it->second].parent;
    }
  };

  std::vector<double> child_s(spans.size(), 0.0);
  std::vector<std::pair<double, double>> root_children;
  for (const Span& s : spans) {
    if (s.parent == root) root_children.emplace_back(s.t0_s, s.t1_s);
    const auto it = index.find(s.parent);
    if (it != index.end() && spans[it->second].tid == s.tid) {
      child_s[it->second] += s.seconds();
    }
  }

  SelfTimes out;
  std::map<std::string, LayerSelf> by_layer;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.id == root) {
      // Union of the root's children across threads.
      std::sort(root_children.begin(), root_children.end());
      double covered = 0, lo = 0, hi = -1;
      for (const auto& [a, b] : root_children) {
        if (a > hi) {
          if (hi > lo) covered += hi - lo;
          lo = a;
          hi = b;
        } else {
          hi = std::max(hi, b);
        }
      }
      if (hi > lo) covered += hi - lo;
      out.unattributed_s = s.seconds() - covered;
      continue;
    }
    if (!under_root(s)) continue;
    LayerSelf& row = by_layer[s.layer()];
    row.layer = s.layer();
    row.self_s += s.seconds() - child_s[i];
    ++row.spans;
  }
  for (auto& [name, row] : by_layer) out.layers.push_back(row);
  return out;
}

namespace {

void write_json_string(std::FILE* f, const std::string& s) {
  std::fputc('"', f);
  for (const char c : s) {
    if (c == '"' || c == '\\') std::fputc('\\', f);
    std::fputc(c, f);
  }
  std::fputc('"', f);
}

}  // namespace

bool write_chrome_trace(const std::string& path,
                        const std::vector<TracedRun>& runs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
  bool first = true;
  for (std::size_t pid = 0; pid < runs.size(); ++pid) {
    std::fprintf(f,
                 "%s{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%zu,"
                 "\"args\":{\"name\":",
                 first ? "" : ",\n", pid + 1);
    write_json_string(f, runs[pid].workload);
    std::fputs("}}", f);
    first = false;
    for (const Span& s : runs[pid].spans) {
      std::fputs(",\n{\"name\":", f);
      write_json_string(f, s.name);
      std::fputs(",\"cat\":", f);
      write_json_string(f, s.layer());
      std::fprintf(f,
                   ",\"ph\":\"X\",\"pid\":%zu,\"tid\":%u,\"ts\":%.3f,"
                   "\"dur\":%.3f,\"args\":{\"id\":\"%llx\",\"parent\":\"%llx\","
                   "\"cell\":%llu}}",
                   pid + 1, s.tid, s.t0_s * 1e6, s.seconds() * 1e6,
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.cell));
    }
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
