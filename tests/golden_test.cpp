// Golden-reference regression suite.
//
// Each test re-runs one of the figure/ablation sweeps at the smoke budget
// (the same grid the bench builds) and diffs the ResultSink JSON — the
// full-precision raw points, exactly what `bench --smoke --json` writes —
// against a fixture committed under tests/golden/. The simulator is
// deterministic end to end, so on ideal-topology grids the comparison is
// exact; the contention-modeled grids allow a hair of relative tolerance
// for cross-platform floating-point differences (FMA contraction etc.).
//
// Regenerating fixtures after an intentional model change:
//   VCSTEER_REGEN_GOLDEN=1 ctest --test-dir build -L golden
// (or run ./golden_test with the variable set), then commit the updated
// files under tests/golden/ with the change that explains the diff.
//
// Every run also writes its produced JSON next to the build tree under
// golden_out/, so a CI failure can upload the artifact for inspection.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "../bench/paper_figures.hpp"
#include "exec/result_sink.hpp"
#include "exec/sweep.hpp"
#include "workload/profiles.hpp"

#ifndef VCSTEER_GOLDEN_DIR
#error "golden_test requires -DVCSTEER_GOLDEN_DIR=\"<path to tests/golden>\""
#endif

namespace vcsteer {
namespace {

// ------------------------------------------------------- JSON flattening --
//
// The fixtures are written by ResultSink::write_json, so a minimal strict
// parser suffices. Documents are flattened into an ordered list of
// (path, token) leaves: objects append ".key", arrays ".N". Tokens keep
// their raw text so exact comparisons are byte-exact (%.17g round-trips).

struct Leaf {
  std::string path;
  std::string token;
  bool is_number = false;
};

class Flattener {
 public:
  explicit Flattener(const std::string& text) : text_(text) {}

  /// Returns false (with error()) on malformed input.
  bool run(std::vector<Leaf>* out) {
    out_ = out;
    pos_ = 0;
    skip_ws();
    if (!value("$")) return false;
    skip_ws();
    if (pos_ != text_.size()) return fail("trailing data");
    return true;
  }

  const std::string& error() const { return error_; }

 private:
  bool fail(const std::string& what) {
    error_ = what + " at byte " + std::to_string(pos_);
    return false;
  }
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }
  bool value(const std::string& path) {
    if (pos_ >= text_.size()) return fail("unexpected end");
    const char c = text_[pos_];
    if (c == '{') return object(path);
    if (c == '[') return array(path);
    if (c == '"') {
      std::string s;
      if (!string_token(&s)) return false;
      out_->push_back({path, s, false});
      return true;
    }
    // number / true / false / null: read the bare token.
    const std::size_t start = pos_;
    while (pos_ < text_.size() && text_[pos_] != ',' && text_[pos_] != '}' &&
           text_[pos_] != ']' &&
           !std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    if (pos_ == start) return fail("empty token");
    const std::string token = text_.substr(start, pos_ - start);
    const char first = token[0];
    const bool numeric = first == '-' || (first >= '0' && first <= '9');
    out_->push_back({path, token, numeric});
    return true;
  }
  bool object(const std::string& path) {
    ++pos_;  // '{'
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      std::string key;
      if (!string_token(&key)) return false;
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != ':') return fail("missing :");
      ++pos_;
      skip_ws();
      if (!value(path + "." + key)) return false;
      skip_ws();
      if (pos_ >= text_.size()) return fail("unterminated object");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return fail("bad object separator");
    }
  }
  bool array(const std::string& path) {
    ++pos_;  // '['
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    for (std::size_t i = 0;; ++i) {
      skip_ws();
      if (!value(path + "." + std::to_string(i))) return false;
      skip_ws();
      if (pos_ >= text_.size()) return fail("unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return fail("bad array separator");
    }
  }
  bool string_token(std::string* out) {
    if (pos_ >= text_.size() || text_[pos_] != '"') return fail("expected \"");
    ++pos_;
    out->clear();
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\' && pos_ + 1 < text_.size()) {
        // Fixtures escape only the quote and the backslash.
        out->push_back(text_[pos_ + 1]);
        pos_ += 2;
      } else {
        out->push_back(text_[pos_]);
        ++pos_;
      }
    }
    if (pos_ >= text_.size()) return fail("unterminated string");
    ++pos_;
    return true;
  }

  const std::string& text_;
  std::vector<Leaf>* out_ = nullptr;
  std::size_t pos_ = 0;
  std::string error_;
};

/// Diffs two flattened documents. `rel_tol` 0 demands byte-exact numeric
/// tokens; otherwise numbers may differ by the relative tolerance (with the
/// same bound used absolutely near zero). Non-numeric leaves always compare
/// exactly. Reports the first few mismatches through gtest.
void expect_documents_match(const std::string& fixture_text,
                            const std::string& produced_text,
                            double rel_tol) {
  std::vector<Leaf> expected, actual;
  Flattener expected_parser(fixture_text);
  ASSERT_TRUE(expected_parser.run(&expected)) << expected_parser.error();
  Flattener actual_parser(produced_text);
  ASSERT_TRUE(actual_parser.run(&actual)) << actual_parser.error();

  ASSERT_EQ(expected.size(), actual.size())
      << "document shape changed (leaf count)";
  int reported = 0;
  for (std::size_t i = 0; i < expected.size() && reported < 10; ++i) {
    const Leaf& e = expected[i];
    const Leaf& a = actual[i];
    if (e.path != a.path) {
      ADD_FAILURE() << "leaf " << i << ": path " << a.path << " != fixture "
                    << e.path;
      return;  // paths diverged: everything after is noise
    }
    if (e.token == a.token) continue;
    if (e.is_number && a.is_number && rel_tol > 0.0) {
      const double ev = std::strtod(e.token.c_str(), nullptr);
      const double av = std::strtod(a.token.c_str(), nullptr);
      const double scale = std::max({1.0, std::abs(ev), std::abs(av)});
      if (std::abs(ev - av) <= rel_tol * scale) continue;
    }
    ADD_FAILURE() << e.path << ": " << a.token << " != fixture " << e.token;
    ++reported;
  }
}

// ------------------------------------------------------------- harnessing --

std::string render_json(const std::string& bench_name,
                        const exec::SweepResult& sweep) {
  exec::ResultSink sink(bench_name);
  sink.add_sweep(sweep);
  std::ostringstream os;
  sink.write_json(os);
  return os.str();
}

/// Runs `grid`, renders the JSON, and either regenerates the fixture
/// (VCSTEER_REGEN_GOLDEN set) or diffs against it. The produced document is
/// always written to golden_out/<name>.json (cwd = build dir under ctest)
/// so failures leave an inspectable artifact.
void check_golden(const std::string& name, const exec::SweepGrid& grid,
                  double rel_tol) {
  exec::SweepOptions opt;
  opt.jobs = exec::default_jobs();  // results are jobs-invariant
  const exec::SweepResult sweep = exec::run_sweep(grid, opt);
  const std::string produced = render_json(name, sweep);

  std::error_code ec;
  std::filesystem::create_directories("golden_out", ec);
  {
    std::ofstream out("golden_out/" + name + ".json", std::ios::trunc);
    out << produced;
  }

  const std::string fixture_path =
      std::string(VCSTEER_GOLDEN_DIR) + "/" + name + ".json";
  if (std::getenv("VCSTEER_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(fixture_path, std::ios::trunc);
    ASSERT_TRUE(out) << "cannot write " << fixture_path;
    out << produced;
    GTEST_SKIP() << "regenerated " << fixture_path;
  }

  std::ifstream in(fixture_path);
  ASSERT_TRUE(in) << "missing fixture " << fixture_path
                  << " — run with VCSTEER_REGEN_GOLDEN=1 to create it";
  std::ostringstream fixture;
  fixture << in.rdbuf();
  expect_documents_match(fixture.str(), produced, rel_tol);
}

// The Fig 5 and Fig 7 grids are the benches' own (bench/paper_figures.hpp)
// over the smoke traces at the smoke budget: what `--smoke` runs. The
// ablation fixture trims bench/ablation_interconnect.cpp to its
// topology-aware core — 4-cluster ideal/ring, knob off and on, OP and
// VC(2->4) — to keep the suite's runtime in seconds while still pinning both
// steering settings on both a uniform and a non-uniform fabric.

exec::SweepGrid smoke_grid(const bench::SlowdownFigure& fig) {
  return fig.grid(workload::smoke_profiles(), harness::SimBudget::smoke());
}

exec::SweepGrid ablation_grid() {
  exec::SweepGrid grid;
  const auto profiles = workload::smoke_profiles();
  grid.profiles.assign(profiles.begin(), profiles.begin() + 2);
  for (const bool aware : {false, true}) {
    for (const Topology kind : {Topology::kIdeal, Topology::kRing}) {
      MachineConfig machine = MachineConfig::four_cluster();
      machine.interconnect.kind = kind;
      machine.steer.topology_aware = aware;
      grid.machines.push_back(machine);
    }
  }
  grid.schemes = {
      harness::SchemeSpec{steer::Scheme::kOp, 0},
      harness::SchemeSpec{steer::Scheme::kVc, 2},
  };
  grid.budget = harness::SimBudget::smoke();
  return grid;
}

// An escape is consumed whole: the escaped quote does not end the key, and
// the escaped backslash stays one character.
TEST(Flattener, ReadsEscapedQuoteAndBackslash) {
  const std::string text = R"({"a\"b": ["c\\d", 1]})";
  std::vector<Leaf> leaves;
  Flattener parser(text);
  ASSERT_TRUE(parser.run(&leaves)) << parser.error();
  ASSERT_EQ(leaves.size(), 2u);
  EXPECT_EQ(leaves[0].path, "$.a\"b.0");
  EXPECT_EQ(leaves[0].token, "c\\d");
  EXPECT_FALSE(leaves[0].is_number);
  EXPECT_EQ(leaves[1].path, "$.a\"b.1");
  EXPECT_EQ(leaves[1].token, "1");
  EXPECT_TRUE(leaves[1].is_number);
}

// Ideal-topology grids: the reproduction's headline figures, diffed exactly.
TEST(Golden, Fig5TwoClusterSmoke) {
  check_golden("fig5_twocluster_smoke", smoke_grid(bench::kFig5),
               /*rel_tol=*/0.0);
}

TEST(Golden, Fig7FourClusterSmoke) {
  check_golden("fig7_fourcluster_smoke", smoke_grid(bench::kFig7),
               /*rel_tol=*/0.0);
}

// Contention-modeled grid (both steering settings): tolerance covers
// platform floating-point wiggle only; any model change still trips it.
TEST(Golden, AblationInterconnectSmoke) {
  check_golden("ablation_interconnect_smoke", ablation_grid(),
               /*rel_tol=*/1e-9);
}

}  // namespace
}  // namespace vcsteer
