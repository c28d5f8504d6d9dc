/// \file gatesim.hpp
/// Event-free levelized gate-level simulator with 4-state values.
///
/// The simulator is cycle-accurate: `eval()` settles all combinational
/// logic (cells are processed in levelized topological order, so one pass
/// suffices), `tick()` is the rising clock edge updating every flip-flop.
/// Tri-state nets (multiple Tribuf drivers) are resolved with the IEEE-1164
/// rules from util/logic.hpp.
///
/// Evaluation is lazy. Every mutator that can change a net value (an input
/// set to a new value, a force, a flip-flop write, reset(), tick()) marks
/// the simulator dirty; `eval()` sweeps only when it is dirty, and every
/// read (`output*`, `net_value`) settles pending changes first. Callers may
/// therefore call `eval()` as often as they like — a repeated call with
/// unchanged stimulus costs one branch — and may skip it entirely before a
/// read. Forces injected from outside (fault experiments) dirty the
/// simulator like any other mutator, so no caller-side cache can go stale.
///
/// A simulator may carry a shift plan (`plan_shift`): the cells in the
/// backward cone of every flip-flop D pin, every Dffe enable pin and a set
/// of observed outputs, where a Mux2 selected by the scan-enable net
/// contributes only its select and in(1) (`logic_mux(One, a, b) == b`).
/// While scan-enable is One and no force is active, a settle evaluates
/// only the plan; the nets outside it are then stale. The stale-net
/// contract: `eval()`, `tick()` and `output*` of an output inside the plan
/// settle the plan only; `net_value()` and `output*` of an output outside
/// it settle everything first, and so does any settle while a force is
/// active, so fault experiments keep the full-sweep semantics. Every read
/// therefore returns what a full sweep would.
///
/// GateSim advances one pattern per eval pass; PackedGateSim
/// (packed_gatesim.hpp) advances 64. Both share the levelization through
/// LevelizedNetlist, so several simulators of the same design levelize once.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "netlist/levelize.hpp"
#include "netlist/netlist.hpp"
#include "util/logic.hpp"

namespace casbus::netlist {

/// Simulates one Netlist instance.
///
/// The simulator owns (a share of) the levelized design, so there is no
/// lifetime coupling with the caller. Construction from a Netlist levelizes
/// the design and throws SimulationError on combinational cycles.
class GateSim {
 public:
  explicit GateSim(Netlist nl);

  /// Shares an already-levelized design with other simulator instances.
  explicit GateSim(std::shared_ptr<const LevelizedNetlist> lev);

  /// Returns the simulated design.
  [[nodiscard]] const Netlist& design() const noexcept {
    return lev_->netlist();
  }

  /// The shared evaluation schedule (reusable by further simulators).
  [[nodiscard]] const std::shared_ptr<const LevelizedNetlist>& levelized()
      const noexcept {
    return lev_;
  }

  /// Sets every flip-flop to \p state and every primary input to X.
  void reset(Logic4 state = Logic4::Zero);

  /// Drives primary input \p name. Throws if the name is unknown.
  void set_input(const std::string& name, Logic4 v);
  void set_input(const std::string& name, bool v) {
    set_input(name, to_logic(v));
  }

  /// Drives primary input by position (order of declaration).
  void set_input_index(std::size_t index, Logic4 v);

  /// Settles combinational logic: one levelized pass if anything changed
  /// since the last one, nothing otherwise.
  void eval();

  /// Rising clock edge: settles pending changes, then every DFF captures
  /// its D pin. The new state is not propagated here — the next eval() or
  /// read does that, so a clock followed by new stimulus costs one sweep.
  void tick();

  /// Primary output values; settle pending changes first.
  [[nodiscard]] Logic4 output(const std::string& name);
  [[nodiscard]] Logic4 output_index(std::size_t index);

  /// Raw net inspection; settles every net first.
  [[nodiscard]] Logic4 net_value(NetId net) {
    eval_all();
    return net_val_.at(net);
  }

  /// Number of flip-flops, in cell order.
  [[nodiscard]] std::size_t dff_count() const noexcept {
    return lev_->dff_cells().size();
  }
  [[nodiscard]] Logic4 dff_state(std::size_t i) const {
    return dff_state_.at(i);
  }
  void set_dff_state(std::size_t i, Logic4 v);

  /// Combinational depth (max cell level) — reported by the generator
  /// benches as the switch's critical path in gate stages.
  [[nodiscard]] std::size_t depth() const noexcept { return lev_->depth(); }

  /// Installs the shift plan of the file comment: \p scan_en is the
  /// position of the scan-enable input, \p observed the outputs a shift
  /// clock reads. Replaces any earlier plan.
  void plan_shift(std::size_t scan_en,
                  const std::vector<std::size_t>& observed);

  // --- fault injection (used by tpg::FaultSimulator) ------------------------

  /// Forces \p net to \p v during every subsequent eval(), modeling a
  /// stuck-at fault at that net. Multiple forces may be active.
  void set_force(NetId net, Logic4 v);

  /// Removes all active forces.
  void clear_forces();

  // --- work counters (observation only) -------------------------------------

  /// eval() calls, and the levelized sweeps they (and reads) actually cost.
  [[nodiscard]] std::uint64_t eval_requests() const noexcept {
    return eval_requests_;
  }
  [[nodiscard]] std::uint64_t sweeps() const noexcept { return sweeps_; }
  /// Combinational cells those sweeps evaluated (a plan sweep counts only
  /// the plan's cells).
  [[nodiscard]] std::uint64_t cell_evals() const noexcept {
    return cell_evals_;
  }

 private:
  [[nodiscard]] bool has_forces() const noexcept { return n_forces_ > 0; }
  [[nodiscard]] const Netlist& nl() const noexcept { return lev_->netlist(); }

  Logic4 eval_cell(const Cell& c) const;
  /// True when the next sweep may be a plan sweep.
  [[nodiscard]] bool shifting() const noexcept {
    return plan_scan_en_ < input_val_.size() && !has_forces() &&
           input_val_[plan_scan_en_] == Logic4::One;
  }
  void eval_if_dirty() {
    if (dirty_) sweep();
  }
  void eval_all() {
    if (dirty_ || stale_) sweep(/*full=*/true);
  }
  /// Settles the plan only when \p full is false and shifting() holds,
  /// every net otherwise.
  void sweep(bool full = false);

  std::shared_ptr<const LevelizedNetlist> lev_;
  std::vector<Logic4> net_val_;
  std::vector<Logic4> input_val_;
  std::vector<Logic4> dff_state_;
  std::vector<Logic4> dff_next_;   // tick() capture buffer
  std::vector<Logic4> force_;      // per-net forced value
  std::vector<bool> force_on_;     // per-net force active flag
  std::size_t n_forces_ = 0;
  bool dirty_ = true;              // net_val_ may be stale
  bool stale_ = false;             // only the plan's nets are current
  // Shift plan (plan_shift); plan_scan_en_ is out of range without one.
  std::size_t plan_scan_en_ = SIZE_MAX;
  std::vector<CellId> plan_cells_;     // comb_order() subsequence
  std::vector<NetId> plan_reset_;      // cone nets a plan sweep re-seeds
  std::vector<bool> output_planned_;   // per output: settled by the plan
  std::uint64_t eval_requests_ = 0;
  std::uint64_t sweeps_ = 0;
  std::uint64_t cell_evals_ = 0;
};

}  // namespace casbus::netlist
