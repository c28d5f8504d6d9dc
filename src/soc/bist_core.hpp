/// \file bist_core.hpp
/// A core with embedded logic BIST (paper Fig. 2b: "For BISTed cores, P is
/// generally equal to 1").

#pragma once

#include <cstdint>
#include <optional>

#include "soc/core_model.hpp"
#include "tpg/lfsr.hpp"

namespace casbus::soc {

/// Gate-level core driven by an internal LFSR source and observed by an
/// internal MISR sink. One test-bus wire suffices: it carries the start
/// level toward the core and the (done && pass) verdict back.
///
/// The golden signature is computed at construction by running the engine
/// on the fault-free netlist — exactly what a BIST insertion flow would
/// tape into the comparator ROM.
class BistCore : public CoreModel {
 public:
  /// \p cycles is the BIST session length in clock cycles.
  BistCore(sim::Simulation& sim_ctx, std::string name,
           const tpg::SyntheticCoreSpec& logic_spec, std::uint32_t cycles);

  void evaluate() override;
  void tick() override;
  void reset() override;

  /// Injects a stuck-at fault into the core logic so the next BIST run
  /// fails (used by the maintenance-test experiments).
  void inject_fault(netlist::NetId net, bool stuck_one);
  void clear_faults();

  /// Fault-free signature (diagnostic).
  [[nodiscard]] std::uint32_t golden_signature() const noexcept {
    return golden_;
  }

  /// Session length in cycles — the test programmer's wait budget.
  [[nodiscard]] std::uint32_t cycles() const noexcept { return cycles_; }

  /// The embedded logic core (netlist + scan topology) — inspected by the
  /// floor's Verify stage, which lints every generated netlist it admits.
  [[nodiscard]] const tpg::SyntheticCore& synth() const noexcept {
    return core_;
  }

  /// Embedded logic simulator (its work counters feed kernel telemetry).
  [[nodiscard]] const netlist::GateSim& gatesim() const noexcept {
    return sim_;
  }

 private:
  std::uint32_t run_reference();
  /// One engine cycle on \p sim: applies the LFSR word, compacts the
  /// response into the MISR, clocks the core and advances the LFSR.
  void bist_cycle(netlist::GateSim& sim, tpg::Lfsr& lfsr, tpg::Misr& misr);

  tpg::SyntheticCore core_;
  netlist::GateSim sim_;
  CorePortIndex ports_;
  std::uint32_t cycles_;
  unsigned lfsr_width_;
  unsigned misr_width_;
  std::uint32_t golden_ = 0;

  // Engine state.
  bool running_ = false;
  bool done_ = false;
  bool pass_ = false;
  bool start_seen_ = false;
  std::uint32_t elapsed_ = 0;
  std::optional<tpg::Lfsr> lfsr_;
  std::optional<tpg::Misr> misr_;
};

}  // namespace casbus::soc
