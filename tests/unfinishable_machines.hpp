// Shared test table: one-field changes to the 2-cluster preset on which no
// run can finish, each with the problem MachineConfig::validate() names. A
// zero port, commit or decode width leaves some micro-op unable to make
// progress, and a register file no larger than the architectural register
// count can leave the next micro-op unable to rename even with the ROB
// drained. The validate tests (common_test) and the run_sweep rejection
// test (exec_test) both read it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/config.hpp"

namespace vcsteer::testing {

struct UnfinishableMachine {
  std::string change;   ///< the one-field change, for failure messages.
  MachineConfig machine;
  std::string problem;  ///< validate()'s message.
};

inline std::vector<UnfinishableMachine> unfinishable_machines() {
  std::vector<UnfinishableMachine> out;
  const auto add = [&out](std::string change, std::string problem,
                          auto edit) {
    MachineConfig machine = MachineConfig::two_cluster();
    edit(machine);
    out.push_back({std::move(change), machine, std::move(problem)});
  };
  const std::string ports = "L1 port counts must be > 0";
  const std::string commit = "commit widths must be > 0";
  const std::string decode = "decode widths must be > 0";
  const std::string regs =
      "register files must exceed the architectural register count";
  add("l1_read_ports = 0", ports,
      [](MachineConfig& m) { m.l1_read_ports = 0; });
  add("l1_write_ports = 0", ports,
      [](MachineConfig& m) { m.l1_write_ports = 0; });
  add("commit_width_int = 0", commit,
      [](MachineConfig& m) { m.commit_width_int = 0; });
  add("commit_width_fp = 0", commit,
      [](MachineConfig& m) { m.commit_width_fp = 0; });
  add("decode_width_int = 0", decode,
      [](MachineConfig& m) { m.decode_width_int = 0; });
  add("decode_width_fp = 0", decode,
      [](MachineConfig& m) { m.decode_width_fp = 0; });
  for (const std::uint32_t n : {1u, 8u, 16u}) {
    add("regfile_int = " + std::to_string(n), regs,
        [n](MachineConfig& m) { m.regfile_int = n; });
    add("regfile_fp = " + std::to_string(n), regs,
        [n](MachineConfig& m) { m.regfile_fp = n; });
  }
  return out;
}

}  // namespace vcsteer::testing
