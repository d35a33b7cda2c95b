// Tests for the workload substrate: profile table, program generator and
// trace source, including parameterized property checks over all 40 SPEC
// CPU2000 stand-in profiles.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "workload/generator.hpp"
#include "workload/profiles.hpp"
#include "workload/trace.hpp"

namespace vcsteer::workload {
namespace {

TEST(Profiles, PaperTraceCounts) {
  EXPECT_EQ(int_profiles().size(), 26u);  // Figure 5(a) x-axis
  EXPECT_EQ(fp_profiles().size(), 14u);   // Figure 5(b) x-axis
  EXPECT_EQ(all_profiles().size(), 40u);
}

TEST(Profiles, SuiteMembership) {
  for (const auto& p : int_profiles()) EXPECT_FALSE(p.is_fp) << p.name;
  for (const auto& p : fp_profiles()) EXPECT_TRUE(p.is_fp) << p.name;
}

TEST(Profiles, NamesUniqueAndFindable) {
  std::set<std::string> names;
  for (const auto& p : all_profiles()) {
    EXPECT_TRUE(names.insert(p.name).second) << "duplicate " << p.name;
    const WorkloadProfile* found = find_profile(p.name);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->name, p.name);
  }
  EXPECT_EQ(find_profile("999.nonexistent"), nullptr);
}

TEST(Profiles, KnownBenchmarksPresent) {
  for (const char* name :
       {"164.gzip-1", "176.gcc-5", "181.mcf", "300.twolf", "171.swim",
        "178.galgel", "179.art-2", "301.apsi"}) {
    EXPECT_NE(find_profile(name), nullptr) << name;
  }
}

TEST(Profiles, VariantsDifferButShareCharacter) {
  const WorkloadProfile* a = find_profile("164.gzip-1");
  const WorkloadProfile* b = find_profile("164.gzip-2");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a->seed(0), b->seed(0));
  EXPECT_EQ(a->is_fp, b->is_fp);
  // Perturbation is mild: within +-35% of each other.
  EXPECT_LT(std::abs(a->ilp_chains - b->ilp_chains),
            0.35 * (a->ilp_chains + b->ilp_chains));
}

TEST(Profiles, SeedsDifferByStream) {
  const WorkloadProfile& p = all_profiles()[0];
  EXPECT_NE(p.seed(0), p.seed(1));
}

TEST(Profiles, SmokeSubsetResolves) {
  EXPECT_GE(smoke_profiles().size(), 4u);
  for (const auto& p : smoke_profiles()) {
    EXPECT_NE(find_profile(p.name), nullptr);
  }
}

TEST(Generator, DeterministicForSameProfile) {
  const WorkloadProfile& p = *find_profile("186.crafty");
  const GeneratedWorkload a = generate(p);
  const GeneratedWorkload b = generate(p);
  ASSERT_EQ(a.program.num_uops(), b.program.num_uops());
  for (prog::UopId u = 0; u < a.program.num_uops(); ++u) {
    EXPECT_EQ(a.program.uop(u).op, b.program.uop(u).op);
  }
  EXPECT_EQ(a.streams.size(), b.streams.size());
}

TEST(Generator, DifferentProfilesDiffer) {
  const GeneratedWorkload a = generate(*find_profile("164.gzip-1"));
  const GeneratedWorkload b = generate(*find_profile("164.gzip-2"));
  // Same benchmark, different trace variant: sizes or content must differ.
  bool differs = a.program.num_uops() != b.program.num_uops();
  if (!differs) {
    for (prog::UopId u = 0; u < a.program.num_uops(); ++u) {
      if (a.program.uop(u).op != b.program.uop(u).op) {
        differs = true;
        break;
      }
    }
  }
  EXPECT_TRUE(differs);
}

TEST(Trace, ResetReplaysIdentically) {
  const GeneratedWorkload wl = generate(*find_profile("164.gzip-1"));
  TraceSource trace(wl);
  const auto first = trace.take(5000);
  trace.reset();
  const auto second = trace.take(5000);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].uop, second[i].uop);
    EXPECT_EQ(first[i].addr, second[i].addr);
  }
}

TEST(Trace, SkipMatchesConsume) {
  const GeneratedWorkload wl = generate(*find_profile("186.crafty"));
  TraceSource a(wl), b(wl);
  a.skip(3000);
  b.take(3000);
  const auto ea = a.take(100);
  const auto eb = b.take(100);
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(ea[i].uop, eb[i].uop);
    EXPECT_EQ(ea[i].addr, eb[i].addr);
  }
}

TEST(Trace, PositionAdvances) {
  const GeneratedWorkload wl = generate(*find_profile("181.mcf"));
  TraceSource trace(wl);
  EXPECT_EQ(trace.position(), 0u);
  trace.take(123);
  EXPECT_EQ(trace.position(), 123u);
  trace.reset();
  EXPECT_EQ(trace.position(), 0u);
}

TEST(Trace, PhasesAdvanceWithPosition) {
  const WorkloadProfile& p = *find_profile("164.gzip-1");
  ASSERT_GE(p.phase_count, 2u);
  const GeneratedWorkload wl = generate(p);
  TraceSource trace(wl);
  EXPECT_EQ(trace.current_phase(), 0u);
  trace.skip(static_cast<std::uint64_t>(p.phase_length_kuops) * 1024 + 1);
  EXPECT_EQ(trace.current_phase(), 1u);
}

TEST(Trace, PhasesChangeBlockMix) {
  const WorkloadProfile& p = *find_profile("164.gzip-1");
  const GeneratedWorkload wl = generate(p);
  TraceSource trace(wl);
  const std::uint64_t phase_len =
      static_cast<std::uint64_t>(p.phase_length_kuops) * 1024;
  auto block_histogram = [&](std::uint64_t n) {
    std::vector<std::uint64_t> hist(wl.program.num_blocks(), 0);
    for (std::uint64_t i = 0; i < n; ++i) {
      trace.next();
      ++hist[trace.current_block()];
    }
    return hist;
  };
  const auto h0 = block_histogram(phase_len);
  const auto h1 = block_histogram(phase_len);
  // The two phases must favour different blocks: L1 distance above 20%.
  double l1 = 0;
  for (std::size_t b = 0; b < h0.size(); ++b) {
    l1 += std::abs(static_cast<double>(h0[b]) - static_cast<double>(h1[b]));
  }
  EXPECT_GT(l1 / static_cast<double>(phase_len), 0.2);
}

// ---- the 32-bit trace address bound ----

TEST(Trace, RefusesWorkingSetBeyond32BitAddresses) {
  WorkloadProfile p = *find_profile("181.mcf");
  p.working_set_kb = 4 * 1024 * 1024 + 1;  // one KiB over 4 GiB
  const GeneratedWorkload wl = generate(p);
  EXPECT_DEATH({ TraceSource trace(wl); }, "4 GiB");
}

TEST(Trace, WorkingSetAtThe32BitBoundStaysInRange) {
  WorkloadProfile p = *find_profile("181.mcf");
  p.working_set_kb = 4 * 1024 * 1024;  // exactly 4 GiB
  const GeneratedWorkload wl = generate(p);
  TraceSource trace(wl);
  std::uint64_t mem_ops = 0;
  bool top_bit_used = false;
  for (int i = 0; i < 4000; ++i) {
    const TraceEntry e = trace.next();
    if (!wl.program.uop(e.uop).is_mem()) continue;
    ++mem_ops;
    EXPECT_LT(std::uint64_t{e.addr}, kTraceAddressSpace);
    EXPECT_EQ(e.addr % 8, 0u);
    top_bit_used |= e.addr >= 0x8000'0000u;
  }
  EXPECT_GT(mem_ops, 0u);
  // Streams start across the whole space, so the upper half is reached.
  EXPECT_TRUE(top_bit_used);
}

// ---- property sweep over every SPEC profile ----

class AllProfiles : public ::testing::TestWithParam<WorkloadProfile> {};

TEST_P(AllProfiles, GeneratedProgramIsValid) {
  const GeneratedWorkload wl = generate(GetParam());
  EXPECT_EQ(wl.program.validate(), "") << GetParam().name;
  EXPECT_GE(wl.program.num_blocks(), 2u);
  EXPECT_EQ(wl.stream_of_uop.size(), wl.program.num_uops());
}

TEST_P(AllProfiles, MemOpsHaveStreamsOthersDont) {
  const GeneratedWorkload wl = generate(GetParam());
  for (prog::UopId u = 0; u < wl.program.num_uops(); ++u) {
    const bool is_mem = wl.program.uop(u).is_mem();
    const bool has_stream = wl.stream_of_uop[u] != kNoStream;
    EXPECT_EQ(is_mem, has_stream) << GetParam().name << " uop " << u;
    if (has_stream) EXPECT_LT(wl.stream_of_uop[u], wl.streams.size());
  }
}

TEST_P(AllProfiles, InstructionMixTracksProfile) {
  const WorkloadProfile& p = GetParam();
  const GeneratedWorkload wl = generate(p);
  std::uint64_t loads = 0, stores = 0, fp = 0, total = 0;
  for (prog::UopId u = 0; u < wl.program.num_uops(); ++u) {
    const isa::MicroOp& uop = wl.program.uop(u);
    if (uop.is_branch()) continue;
    ++total;
    loads += uop.is_load();
    stores += uop.is_store();
    fp += uop.is_fp();
  }
  ASSERT_GT(total, 0u);
  const double load_frac = static_cast<double>(loads) / total;
  EXPECT_NEAR(load_frac, p.load_fraction, 0.08) << p.name;
  const double store_frac = static_cast<double>(stores) / total;
  EXPECT_NEAR(store_frac, p.store_fraction, 0.06) << p.name;
  if (p.fp_fraction == 0.0) EXPECT_EQ(fp, 0u) << p.name;
  if (p.fp_fraction > 0.3) EXPECT_GT(fp, 0u) << p.name;
}

TEST_P(AllProfiles, TraceStaysInWorkingSet) {
  const WorkloadProfile& p = GetParam();
  const GeneratedWorkload wl = generate(p);
  TraceSource trace(wl);
  const std::uint64_t limit =
      std::max<std::uint64_t>(4096, std::uint64_t{p.working_set_kb} * 1024);
  for (int i = 0; i < 20000; ++i) {
    const TraceEntry e = trace.next();
    if (wl.program.uop(e.uop).is_mem()) {
      EXPECT_LT(e.addr, limit) << p.name;
      EXPECT_EQ(e.addr % 8, 0u) << p.name;  // 8-byte aligned accesses
    }
  }
}

TEST_P(AllProfiles, AllBlocksStaticallyReachable) {
  // Every block must be reachable from the entry via CFG edges (the trace
  // walk never terminates and PinPoints BBVs cover the whole program).
  const GeneratedWorkload wl = generate(GetParam());
  std::vector<bool> seen(wl.program.num_blocks(), false);
  std::vector<prog::BlockId> stack{wl.program.entry()};
  seen[wl.program.entry()] = true;
  while (!stack.empty()) {
    const prog::BlockId b = stack.back();
    stack.pop_back();
    for (const prog::CfgEdge& e : wl.program.block(b).succs) {
      if (!seen[e.target]) {
        seen[e.target] = true;
        stack.push_back(e.target);
      }
    }
  }
  for (prog::BlockId b = 0; b < wl.program.num_blocks(); ++b) {
    EXPECT_TRUE(seen[b]) << GetParam().name << " block " << b;
  }
}

TEST_P(AllProfiles, DynamicWalkCoversMostBlocks) {
  // Phase-affine damping makes off-phase blocks rare but never starves
  // them entirely over a few phase rounds.
  const GeneratedWorkload wl = generate(GetParam());
  TraceSource trace(wl);
  std::set<prog::BlockId> visited;
  for (int i = 0; i < 300000 && visited.size() < wl.program.num_blocks();
       ++i) {
    trace.next();
    visited.insert(trace.current_block());
  }
  EXPECT_GE(visited.size(), wl.program.num_blocks() * 2 / 3)
      << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(
    Spec2000, AllProfiles, ::testing::ValuesIn([] {
      std::vector<WorkloadProfile> all(all_profiles().begin(),
                                       all_profiles().end());
      return all;
    }()),
    [](const ::testing::TestParamInfo<WorkloadProfile>& info) {
      std::string name = info.param.name;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace vcsteer::workload
