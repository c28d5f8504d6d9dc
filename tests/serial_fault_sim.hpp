/// \file serial_fault_sim.hpp
/// Test-only reference for tpg::FaultSimulator: the serial stuck-at
/// campaign, one faulty machine at a time through the scalar GateSim.
///
/// It uses the same pattern image (free primary inputs, then flip-flops in
/// the levelization's canonical order), the same response (primary
/// outputs, then flip-flop next-states) and the same report as
/// FaultSimulator::run(), and is ~100x slower. test_packed_sim checks the
/// packed engine against it; bench_perf's BM_FaultSim is its baseline.

#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "netlist/gatesim.hpp"
#include "netlist/levelize.hpp"
#include "tpg/fault.hpp"
#include "tpg/patterns.hpp"
#include "util/bitvector.hpp"
#include "util/error.hpp"

namespace casbus::testref {

class SerialFaultSimulator {
 public:
  explicit SerialFaultSimulator(netlist::Netlist nl)
      : SerialFaultSimulator(netlist::levelize(std::move(nl))) {}

  explicit SerialFaultSimulator(
      std::shared_ptr<const netlist::LevelizedNetlist> lev)
      : sim_(std::move(lev)) {
    for (std::size_t i = 0; i < nl().inputs().size(); ++i)
      free_inputs_.push_back(i);
  }

  /// Same contract as FaultSimulator::pin_input.
  void pin_input(const std::string& name, bool value) {
    for (std::size_t i = 0; i < nl().inputs().size(); ++i) {
      if (nl().inputs()[i].name != name) continue;
      pinned_.emplace_back(i, value);
      free_inputs_.erase(
          std::remove(free_inputs_.begin(), free_inputs_.end(), i),
          free_inputs_.end());
      return;
    }
    CASBUS_REQUIRE(false, "pin_input: unknown input " + name);
  }

  [[nodiscard]] std::size_t pattern_width() const noexcept {
    return free_inputs_.size() + dffs().size();
  }

  /// Simulates \p patterns against \p faults with fault dropping, one
  /// good and one faulty scalar pass per (pattern, live fault).
  tpg::FaultSimReport run(const tpg::PatternSet& patterns,
                          const std::vector<tpg::Fault>& faults) {
    tpg::FaultSimReport report;
    report.total_faults = faults.size();
    report.detected_mask.assign(faults.size(), false);
    report.per_pattern.assign(patterns.size(), 0);

    for (std::size_t p = 0; p < patterns.size(); ++p) {
      const BitVector& pat = patterns.at(p);
      const std::vector<int> good = simulate(pat, nullptr);
      for (std::size_t f = 0; f < faults.size(); ++f) {
        if (report.detected_mask[f]) continue;  // fault dropping
        const std::vector<int> bad = simulate(pat, &faults[f]);
        for (std::size_t i = 0; i < good.size(); ++i) {
          if (good[i] >= 0 && bad[i] >= 0 && good[i] != bad[i]) {
            report.detected_mask[f] = true;
            ++report.detected;
            ++report.per_pattern[p];
            break;
          }
        }
      }
    }
    return report;
  }

 private:
  /// Applies \p pattern (and \p fault, when non-null), evaluates, and
  /// returns the response with X/Z as -1.
  std::vector<int> simulate(const BitVector& pattern,
                            const tpg::Fault* fault) {
    CASBUS_REQUIRE(pattern.size() == pattern_width(),
                   "SerialFaultSimulator: pattern width mismatch");
    sim_.clear_forces();
    if (fault != nullptr)
      sim_.set_force(fault->net, to_logic(fault->stuck_one));

    for (const auto& [idx, val] : pinned_)
      sim_.set_input_index(idx, to_logic(val));
    for (std::size_t i = 0; i < free_inputs_.size(); ++i)
      sim_.set_input_index(free_inputs_[i], to_logic(pattern.get(i)));
    for (std::size_t i = 0; i < dffs().size(); ++i)
      sim_.set_dff_state(i, to_logic(pattern.get(free_inputs_.size() + i)));

    sim_.eval();

    std::vector<int> response;
    response.reserve(nl().outputs().size() + dffs().size());
    const auto push = [&](Logic4 v) {
      response.push_back(v == Logic4::Zero ? 0 : v == Logic4::One ? 1 : -1);
    };
    for (std::size_t i = 0; i < nl().outputs().size(); ++i)
      push(sim_.output_index(i));
    // Flip-flop next-states: the D pin values after settling.
    for (const netlist::CellId id : dffs())
      push(sim_.net_value(nl().cell(id).in[0]));
    return response;
  }

  [[nodiscard]] const netlist::Netlist& nl() const { return sim_.design(); }

  [[nodiscard]] const std::vector<netlist::CellId>& dffs() const {
    return sim_.levelized()->dff_cells();
  }

  netlist::GateSim sim_;
  std::vector<std::size_t> free_inputs_;  // indices into nl.inputs()
  std::vector<std::pair<std::size_t, bool>> pinned_;
};

}  // namespace casbus::testref
