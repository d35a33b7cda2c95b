// Table 1 reproduction: complexity comparison between hardware-only
// occupancy-aware steering and the hybrid virtual-cluster scheme.
//
// The paper's Table 1 is structural (which units each scheme needs); we
// print it, and additionally *measure* the per-micro-op decision cost of
// each steering unit with google-benchmark against a fixed machine-state
// view. The sequential hardware-only scheme reads the rename-table location
// bits of every source and votes; the hybrid scheme performs one mapping-
// table lookup — the measured ns/decision gap is the quantitative version
// of the paper's complexity argument (and the sequential scheme's
// serialization, §2.1, is exercised by bench/ablation_seqpar).
#include <benchmark/benchmark.h>

#include <array>
#include <cstdio>

#include "steer/op_policy.hpp"
#include "steer/policy.hpp"
#include "steer/simple_policies.hpp"
#include "steer/vc_policy.hpp"

namespace {

using namespace vcsteer;
using isa::ArchReg;
using isa::MicroOp;
using isa::OpClass;
using isa::RegFile;

/// Fixed machine-state view with a representative register spread.
class FixedView : public steer::SteerView {
 public:
  explicit FixedView(std::uint32_t clusters) : clusters_(clusters) {
    for (std::uint16_t r = 0; r < isa::kNumFlatRegs; ++r) {
      homes_[r] = static_cast<int>(r % clusters_);
    }
  }
  std::uint32_t num_clusters() const override { return clusters_; }
  std::uint32_t iq_occupancy(std::uint32_t c, isa::OpClass) const override {
    return 10 + c;
  }
  std::uint32_t iq_capacity(isa::OpClass) const override { return 48; }
  std::uint32_t inflight(std::uint32_t c) const override { return 20 + c; }
  steer::Operand operand(ArchReg reg) const override {
    const std::uint16_t f = isa::flat_reg(reg);
    return {homes_[f], 1u << homes_[f], f % 3 == 0};
  }

 private:
  std::uint32_t clusters_;
  std::array<int, isa::kNumFlatRegs> homes_{};
};

MicroOp sample_uop(int i) {
  MicroOp u;
  u.op = OpClass::kIntAlu;
  u.has_dst = true;
  u.dst = {RegFile::kInt, static_cast<std::uint8_t>(i % 16)};
  u.num_srcs = 2;
  u.srcs[0] = {RegFile::kInt, static_cast<std::uint8_t>((i + 3) % 16)};
  u.srcs[1] = {RegFile::kInt, static_cast<std::uint8_t>((i + 7) % 16)};
  u.hint.vc_id = static_cast<std::uint8_t>(i % 2);
  u.hint.chain_leader = i % 8 == 0;
  u.hint.static_cluster = static_cast<std::int8_t>(i % 2);
  return u;
}

template <typename MakePolicy>
void run_policy_bench(benchmark::State& state, MakePolicy make) {
  const auto clusters = static_cast<std::uint32_t>(state.range(0));
  MachineConfig cfg;
  cfg.num_clusters = clusters;
  FixedView view(clusters);
  auto policy = make(cfg);
  std::uint32_t i = 0;
  for (auto _ : state) {
    // One decode cycle steers a bundle of decode_width_int micro-ops (the
    // sample micro-ops are all integer), so the cycle-start hook runs once
    // per bundle.
    if (i % cfg.decode_width_int == 0) policy->begin_cycle(view);
    const MicroOp uop = sample_uop(static_cast<int>(i++));
    auto decision = policy->choose(uop, view);
    benchmark::DoNotOptimize(decision);
    if (!decision.is_stall()) {
      policy->on_dispatched(uop, static_cast<std::uint32_t>(decision.cluster));
    }
  }
}

void BM_SteerDecision_OP(benchmark::State& state) {
  run_policy_bench(state, [](const MachineConfig& cfg) {
    return std::make_unique<steer::OpPolicy>(cfg);
  });
}
void BM_SteerDecision_OPParallel(benchmark::State& state) {
  run_policy_bench(state, [](const MachineConfig& cfg) {
    return std::make_unique<steer::ParallelOpPolicy>(cfg);
  });
}
void BM_SteerDecision_VC(benchmark::State& state) {
  run_policy_bench(state, [](const MachineConfig& cfg) {
    return std::make_unique<steer::VcPolicy>(cfg, cfg.num_clusters);
  });
}
void BM_SteerDecision_Static(benchmark::State& state) {
  run_policy_bench(state, [](const MachineConfig&) {
    return std::make_unique<steer::StaticFollowerPolicy>("OB");
  });
}
void BM_SteerDecision_OneCluster(benchmark::State& state) {
  run_policy_bench(state, [](const MachineConfig&) {
    return std::make_unique<steer::OneClusterPolicy>();
  });
}

BENCHMARK(BM_SteerDecision_OP)->Arg(2)->Arg(4);
BENCHMARK(BM_SteerDecision_OPParallel)->Arg(2)->Arg(4);
BENCHMARK(BM_SteerDecision_VC)->Arg(2)->Arg(4);
BENCHMARK(BM_SteerDecision_Static)->Arg(2)->Arg(4);
BENCHMARK(BM_SteerDecision_OneCluster)->Arg(2)->Arg(4);

void print_table1() {
  std::printf(
      "== Table 1: steering-unit components per scheme ==\n"
      "component                    hardware-only OP   hybrid VC\n"
      "---------------------------------------------------------\n"
      "dependence check             yes                no\n"
      "workload balance management  yes                yes\n"
      "vote unit                    yes                no\n"
      "copy generator (in steer)    yes                no (rename-table bits)\n"
      "VC->PC mapping table         no                 yes (#VC entries)\n"
      "serialized decision (§2.1)   yes                no\n\n"
      "State per scheme on an N-cluster machine with V virtual clusters:\n"
      "  OP: location bits per architectural register (%u regs x log2(N)),\n"
      "      N occupancy counters, per-bundle serialized vote.\n"
      "  VC: N-1 balance counters + V-entry mapping table, one lookup/uop.\n\n",
      isa::kNumFlatRegs);
}

}  // namespace

int main(int argc, char** argv) {
  print_table1();
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
