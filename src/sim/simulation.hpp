/// \file simulation.hpp
/// The cycle-level simulation kernel: wire factory, settle loop, clock.
///
/// This is the *behavioural* engine — named wires, module callbacks, a
/// settle-until-fixpoint delta loop — used by the TAM models in src/core/
/// and src/soc/. The gate-level engines live one layer down in
/// src/netlist/: GateSim (scalar), PackedGateSim (64 patterns per pass),
/// and FaultSim (64 faulty machines per pass, threadable via
/// run_fault_campaign). docs/ARCHITECTURE.md maps the layers;
/// docs/PERFORMANCE.md records the measured cost model across all three
/// engines.

#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "sim/module.hpp"
#include "sim/wire.hpp"

namespace casbus::sim {

class VcdWriter;

/// Work counters of one Simulation since construction. Observation only:
/// reset() restarts cycle() but never these.
struct KernelCounters {
  std::uint64_t cycles = 0;        ///< clock edges stepped
  std::uint64_t settles = 0;       ///< settle() calls (step() makes one each)
  std::uint64_t delta_passes = 0;  ///< evaluate() passes over every module
};

/// Owns the wires of a design, registers its modules, and advances time.
///
/// Usage:
/// ```
/// Simulation sim;
/// Wire& a = sim.wire("a");
/// MyModel m(sim);          // model creates / connects wires
/// sim.add(&m);             // non-owning registration
/// sim.reset();
/// sim.step(100);           // 100 clock cycles
/// ```
class Simulation {
 public:
  Simulation() = default;

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Creates a wire owned by this simulation. Names need not be unique but
  /// unique names make traces far more useful.
  Wire& wire(std::string name, Logic4 init = Logic4::X);

  /// Creates \p n wires named `<base>[i]` and returns them as a bundle.
  WireBundle bundle(const std::string& base, std::size_t n,
                    Logic4 init = Logic4::X);

  /// Registers a module; the caller retains ownership.
  void add(Module* m);

  /// Resets every module and restarts the cycle counter.
  void reset();

  /// Runs evaluation passes until no wire changes (combinational fixpoint).
  /// Throws SimulationError if the netlist does not settle within
  /// `max_delta_cycles()` passes (combinational loop).
  void settle();

  /// Advances \p n full clock cycles (settle + tick each).
  void step(std::uint64_t n = 1);

  /// Cycles elapsed since the last reset().
  [[nodiscard]] std::uint64_t cycle() const noexcept { return cycle_; }

  /// Total wires created.
  [[nodiscard]] std::size_t wire_count() const noexcept {
    return wires_.size();
  }

  /// Attaches a VCD trace writer (may be null to detach). The writer must
  /// outlive the simulation or be detached before destruction.
  void attach_vcd(VcdWriter* vcd) noexcept { vcd_ = vcd; }

  /// Limit on settle passes before declaring a combinational loop.
  [[nodiscard]] std::size_t max_delta_cycles() const noexcept {
    return max_delta_;
  }
  void set_max_delta_cycles(std::size_t n) noexcept { max_delta_ = n; }

  /// Delta events recorded in the most recent settle() (diagnostic).
  [[nodiscard]] std::size_t last_settle_passes() const noexcept {
    return last_passes_;
  }

  /// Lifetime work counters (see KernelCounters).
  [[nodiscard]] const KernelCounters& counters() const noexcept {
    return counters_;
  }

 private:
  friend class Wire;
  void note_change() noexcept { ++changes_; }

  std::deque<Wire> wires_;  // deque: stable addresses as wires are added
  std::vector<Module*> modules_;
  std::uint64_t cycle_ = 0;
  std::uint64_t changes_ = 0;
  std::size_t max_delta_ = 1000;
  std::size_t last_passes_ = 0;
  KernelCounters counters_;
  VcdWriter* vcd_ = nullptr;
};

}  // namespace casbus::sim
