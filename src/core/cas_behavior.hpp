/// \file cas_behavior.hpp
/// Cycle-level behavioral model of the Core Access Switch (paper §3).

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/instruction.hpp"
#include "sim/module.hpp"
#include "sim/simulation.hpp"
#include "util/bitvector.hpp"

namespace casbus::tam {

/// Wires a CAS connects to. All wires are owned by the Simulation.
struct CasPorts {
  sim::WireBundle e;     ///< test-bus inputs, N wires
  sim::WireBundle s;     ///< test-bus outputs, N wires
  sim::WireBundle o;     ///< core-side outputs (to wrapper WPI), P wires
  sim::WireBundle i;     ///< core-side inputs (from wrapper WPO), P wires
  sim::Wire* config = nullptr;  ///< global CONFIGURATION mode (Fig. 4a)
  sim::Wire* update = nullptr;  ///< instruction-register update pulse
};

/// Behavioral Core Access Switch.
///
/// Functional modes (paper §3.1 / Fig. 4):
///  - CONFIGURATION: asserted `config` wire (or an updated CONFIGURATION
///    instruction) inserts the k-bit instruction register into the wire-0
///    serial path: e0 shifts in every clock, s0 presents the register tail,
///    core-side pins float at Z, wires 1..N-1 bypass.
///  - BYPASS (code 0): every e_i goes straight to s_i; core pins at Z.
///  - TEST (codes >= 2): the decoded SwitchScheme drives o_j = e_{w_j} and,
///    per the routing heuristic, s_{w_j} = i_j; unselected wires bypass.
class CasBehavior : public sim::Module {
 public:
  /// Creates a CAS of geometry (N = ports.e.size(), P = ports.o.size()).
  CasBehavior(std::string name, CasPorts ports);

  void evaluate() override;
  void tick() override;
  void reset() override;

  /// The instruction space of this CAS geometry.
  [[nodiscard]] const InstructionSet& isa() const noexcept { return isa_; }

  /// Instruction currently in force (the update stage).
  [[nodiscard]] std::uint64_t instruction() const noexcept { return instr_; }

  /// Shift-stage content (diagnostic; becomes the instruction on update).
  [[nodiscard]] std::uint64_t shift_stage() const noexcept {
    return shift_reg_.to_uint();
  }

  /// True when this CAS currently keeps its instruction register in the
  /// wire-0 chain (global config or CONFIGURATION instruction).
  [[nodiscard]] bool chain_active() const;

  /// Test/debug backdoor: loads \p code directly into the update stage.
  void force_instruction(std::uint64_t code);

  [[nodiscard]] unsigned n() const noexcept { return isa_.n(); }
  [[nodiscard]] unsigned p() const noexcept { return isa_.p(); }

 private:
  /// Decodes the TEST routes of instr_ unless they are already cached.
  void bind_routes();

  CasPorts ports_;
  InstructionSet isa_;
  BitVector shift_reg_;
  std::uint64_t instr_ = InstructionSet::kBypassCode;

  // Route tables of the TEST code routes_code_ (SwitchScheme decoded once
  // per code, not once per settle pass). Keyed by the code itself, so no
  // instruction change can leave them stale; the BYPASS key it starts
  // with is never a TEST code, so the first TEST evaluation decodes.
  static constexpr unsigned kNoPort = ~0u;
  std::uint64_t routes_code_ = InstructionSet::kBypassCode;
  std::vector<unsigned> port_of_wire_;  // kNoPort: wire bypasses
  std::vector<unsigned> wire_of_port_;
};

}  // namespace casbus::tam
