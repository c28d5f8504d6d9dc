/// \file core_model.hpp
/// Behavioral models of embedded IP cores, as seen from their wrapper.

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "netlist/gatesim.hpp"
#include "sim/module.hpp"
#include "sim/simulation.hpp"
#include "tpg/synthcore.hpp"

namespace casbus::soc {

/// Core-side terminal wires every core model exposes; the wrapper connects
/// to exactly these (see p1500::CoreTestPorts / FunctionalPorts).
struct CoreTerminals {
  std::vector<sim::Wire*> func_in;   ///< functional inputs (wrapper drives)
  std::vector<sim::Wire*> func_out;  ///< functional outputs (wrapper reads)
  sim::Wire* scan_en = nullptr;
  sim::Wire* core_clk_en = nullptr;
  std::vector<sim::Wire*> scan_in;
  std::vector<sim::Wire*> scan_out;
  std::vector<std::size_t> chain_lengths;
  sim::Wire* bist_start = nullptr;
  sim::Wire* bist_done = nullptr;
  sim::Wire* bist_pass = nullptr;
};

/// Positions of a tpg::SyntheticCore's named ports (`pi<i>`, `scan_en`,
/// `si<c>`, `po<o>`, `so<c>`) in its GateSim, bound once at construction
/// so per-cycle evaluation does no name lookups.
struct CorePortIndex {
  CorePortIndex(const netlist::GateSim& sim,
                const tpg::SyntheticCoreSpec& spec);

  std::vector<std::size_t> pi, si, po, so;
  std::size_t scan_en = 0;
};

/// Base class of all core models.
class CoreModel : public sim::Module {
 public:
  using sim::Module::Module;
  [[nodiscard]] const CoreTerminals& terminals() const noexcept {
    return term_;
  }
  [[nodiscard]] CoreTerminals& terminals() noexcept { return term_; }

 protected:
  CoreTerminals term_;
};

/// Gate-level core: a tpg::SyntheticCore simulated cycle-accurately through
/// its own GateSim, with mux-D scan chains and a gated clock. This is the
/// model behind scannable cores (paper Fig. 2a) and externally-tested cores
/// (Fig. 2c — same core, different pattern source).
///
/// The GateSim carries a shift plan over the flip-flops and the `so`
/// outputs (gatesim.hpp), so a clock with scan_en = 1 evaluates the scan
/// chains, not the combinational cloud. The `fout` wires hold their last
/// functional value while scan_en = 1: nothing reads them then, since the
/// wrapper samples `core_out` only in Bypass/Preload (scan_en = 0) and on
/// a capture edge, which the tester never raises together with ShiftWR.
/// The next evaluation with scan_en = 0 refreshes them.
class NetlistCore : public CoreModel {
 public:
  /// Creates terminal wires inside \p sim_ctx (named `<name>.<port>`)
  /// and registers nothing — the caller adds the module to the simulation.
  NetlistCore(sim::Simulation& sim_ctx, std::string name,
              tpg::SyntheticCore core);

  void evaluate() override;
  void tick() override;
  void reset() override;

  /// The generated core description (chains, spec).
  [[nodiscard]] const tpg::SyntheticCore& synth() const noexcept {
    return core_;
  }

  /// Embedded simulator — exposed for fault injection in experiments
  /// (tpg faults map 1:1 onto this netlist's nets).
  [[nodiscard]] netlist::GateSim& gatesim() noexcept { return sim_; }

 private:
  tpg::SyntheticCore core_;
  netlist::GateSim sim_;
  CorePortIndex ports_;
};

}  // namespace casbus::soc
