/// \file packed_gatesim.hpp
/// 64-wide bit-parallel levelized gate-level simulator.
///
/// PackedGateSim is the word-level counterpart of GateSim: every net holds
/// a Logic64 — 64 independent four-state lanes packed into two bit planes
/// (util/logic_word.hpp) — so one levelized pass advances 64 patterns (or,
/// with lane-masked forces, 64 faulty machines). Semantics are lane-wise
/// identical to GateSim; tests/test_packed_sim.cpp cross-checks them over
/// random netlists, patterns and X/Z injections.
///
/// eval() is one levelized full sweep: every combinational cell is
/// re-evaluated in LevelizedNetlist::comb_order(), so its cost is
/// O(cells) whatever switched. Skipping quiescent cones was measured no
/// faster on the floor (docs/PERFORMANCE.md, "Measured and rejected").

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "netlist/levelize.hpp"
#include "netlist/netlist.hpp"
#include "util/logic_word.hpp"

namespace casbus::netlist {

/// Work counters of one PackedGateSim, accumulated across eval()/tick()
/// passes until reset_stats(). Every pass is a full sweep, so
/// sweep_cell_evals equals cell_evals; both stay because the floor's
/// telemetry reports them as separate, pinned fields.
struct SimStats {
  std::uint64_t eval_passes = 0;      ///< eval() calls (tick() counts one)
  std::uint64_t cell_evals = 0;       ///< combinational cells evaluated
  std::uint64_t sweep_cell_evals = 0; ///< cells a full sweep evaluates
};

/// Simulates 64 independent instances of one Netlist per pass.
class PackedGateSim {
 public:
  /// Number of independent lanes advanced per eval pass.
  static constexpr unsigned kLanes = 64;

  explicit PackedGateSim(Netlist nl);

  /// Shares an already-levelized design (e.g. with a scalar GateSim).
  explicit PackedGateSim(std::shared_ptr<const LevelizedNetlist> lev);

  [[nodiscard]] const Netlist& design() const noexcept {
    return lev_->netlist();
  }
  [[nodiscard]] const std::shared_ptr<const LevelizedNetlist>& levelized()
      const noexcept {
    return lev_;
  }

  /// Work counters since construction or reset_stats().
  [[nodiscard]] const SimStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = SimStats{}; }

  /// Sets every flip-flop lane to \p state and every input lane to X.
  void reset(Logic4 state = Logic4::Zero);

  /// Drives all 64 lanes of a primary input.
  void set_input(const std::string& name, Logic64 v);
  void set_input(const std::string& name, Logic4 v) {
    set_input(name, word_broadcast(v));
  }
  void set_input_index(std::size_t index, Logic64 v);

  /// Drives one lane of a primary input.
  void set_input_lane(std::size_t index, unsigned lane, Logic4 v);

  /// Propagates combinational logic; one levelized pass over all lanes.
  void eval();

  /// Rising clock edge in every lane: DFFs capture the D values of the
  /// last eval() (call eval() first after changing inputs), then re-eval.
  void tick();

  [[nodiscard]] Logic64 output(const std::string& name) const;
  [[nodiscard]] Logic64 output_index(std::size_t index) const;

  /// Raw net inspection (post-eval).
  [[nodiscard]] Logic64 net_value(NetId net) const {
    return net_val_.at(net);
  }

  [[nodiscard]] std::size_t dff_count() const noexcept {
    return lev_->dff_cells().size();
  }
  [[nodiscard]] Logic64 dff_state(std::size_t i) const {
    return dff_state_.at(i);
  }
  void set_dff_state(std::size_t i, Logic64 v);
  void set_dff_state(std::size_t i, Logic4 v) {
    set_dff_state(i, word_broadcast(v));
  }
  void set_dff_lane(std::size_t i, unsigned lane, Logic4 v);

  [[nodiscard]] std::size_t depth() const noexcept { return lev_->depth(); }

  // --- lane-masked fault injection ------------------------------------------

  /// Forces \p net to \p v in the lanes of \p lane_mask during every
  /// subsequent eval(). Forces accumulate: lanes already forced on the
  /// same net are overwritten, other lanes keep their force, so a batch of
  /// 64 single stuck-at faults is 64 calls with one-bit masks (stuck-at-0
  /// and stuck-at-1 on the same net may share a batch).
  void set_force(NetId net, Logic4 v,
                 std::uint64_t lane_mask = ~std::uint64_t{0});

  /// Removes all active forces.
  void clear_forces();

 private:
  [[nodiscard]] bool has_forces() const noexcept { return !forced_.empty(); }
  [[nodiscard]] const Netlist& nl() const noexcept { return lev_->netlist(); }

  Logic64 eval_cell(const Cell& c) const;

  std::shared_ptr<const LevelizedNetlist> lev_;
  SimStats stats_;
  std::vector<Logic64> net_val_;
  std::vector<Logic64> input_val_;
  std::vector<Logic64> dff_state_;
  std::vector<NetId> forced_;               // nets with an active force
  std::vector<Logic64> force_val_;          // per-net forced value
  std::vector<std::uint64_t> force_mask_;   // per-net forced lanes
  std::vector<bool> force_on_;              // per-net force active flag
};

}  // namespace casbus::netlist
