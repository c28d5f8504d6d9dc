/// \file faultsim.hpp
/// Bit-parallel single-stuck-at fault simulation core.
///
/// FaultSim grades stuck-at faults against a good-machine reference using
/// PackedGateSim: one eval pass simulates up to 64 faulty machines, each in
/// its own lane (single-bit lane-masked force on the faulty net), all
/// driven by the same pattern. A fault is detected when any observation
/// point is driven in both machines and differs — the same criterion as the
/// serial simulator in tpg/fault.cpp, which this replaces on the hot path.
///
/// The class is deliberately below the tpg layer: it knows nothing about
/// pattern sets, pinning or scan; callers (tpg::FaultSimulator, examples,
/// benches) assemble the per-pattern input/flip-flop assignment and hand
/// batches of faults down.
///
/// ## Threading and determinism (docs/PERFORMANCE.md)
///
/// One FaultSim instance is single-threaded. Campaign-level parallelism
/// comes from run_fault_campaign(): each worker owns a private FaultSim
/// over the *shared immutable* LevelizedNetlist and grades a contiguous
/// shard of the fault list. Whether one pattern detects one fault depends
/// only on (netlist, pattern, fault) — never on other faults — so the
/// merged detection map is byte-identical for any thread count, including
/// the first-detecting-pattern index under fault dropping.

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "netlist/levelize.hpp"
#include "netlist/netlist.hpp"
#include "netlist/packed_gatesim.hpp"
#include "util/logic.hpp"

namespace casbus::netlist {

/// One single stuck-at fault: \p net permanently at \p stuck_one.
struct StuckAtFault {
  NetId net = kNoNet;
  bool stuck_one = false;

  friend bool operator==(const StuckAtFault&, const StuckAtFault&) = default;
};

/// Parallel-pattern-single-fault engine: 64 faulty machines per pass.
class FaultSim {
 public:
  /// Faults simulated per packed eval pass.
  static constexpr std::size_t kBatch = PackedGateSim::kLanes;

  explicit FaultSim(Netlist nl);
  explicit FaultSim(std::shared_ptr<const LevelizedNetlist> lev);

  /// Gate-evaluation counters of the embedded engine.
  [[nodiscard]] const SimStats& stats() const noexcept {
    return sim_.stats();
  }
  void reset_stats() noexcept { sim_.reset_stats(); }

  [[nodiscard]] const Netlist& design() const noexcept {
    return sim_.design();
  }
  [[nodiscard]] const std::shared_ptr<const LevelizedNetlist>& levelized()
      const noexcept {
    return sim_.levelized();
  }

  /// Selects the observation points used for detection. Defaults to both:
  /// primary outputs and flip-flop next-states (full-scan unload). A
  /// scan-only campaign (no boundary EXTEST capture) disables outputs.
  void set_observation(bool outputs, bool dff_next_states);

  /// \name Per-pattern assignment
  /// The assignment applies identically to all lanes; changing it
  /// invalidates the cached good-machine response.
  /// @{
  void set_input_index(std::size_t index, Logic4 v);
  void set_dff_state(std::size_t i, Logic4 v);
  [[nodiscard]] std::size_t input_count() const noexcept {
    return design().inputs().size();
  }
  [[nodiscard]] std::size_t dff_count() const noexcept {
    return sim_.dff_count();
  }
  /// @}

  /// Simulates up to kBatch faults (lane i carries faults[i]) under the
  /// current assignment and returns a lane mask of detected faults.
  /// The good machine is evaluated once per assignment and cached.
  [[nodiscard]] std::uint64_t detect_batch(const StuckAtFault* faults,
                                           std::size_t count);

  /// Convenience over detect_batch: grades \p faults under the current
  /// assignment, skipping (and never re-simulating) faults whose
  /// \p detected flag is already set; newly detected faults are flagged.
  /// Returns the number of new detections.
  std::size_t detect_all(const std::vector<StuckAtFault>& faults,
                         std::vector<bool>& detected);

  /// Good-machine response values at the observation points for the
  /// current assignment: 0, 1, or -1 for X/Z.
  [[nodiscard]] const std::vector<int>& good_response();

 private:
  void ensure_good();

  PackedGateSim sim_;
  std::vector<NetId> obs_nets_;     // observation points, in response order
  std::vector<int> good_;           // cached good response (-1 = undriven)
  bool good_valid_ = false;
  bool observe_outputs_ = true;
  bool observe_dffs_ = true;
};

/// Enumerates the stuck-at-0/1 fault universe of \p nl: two faults per
/// net, excluding nets driven by constant cells (untestable by
/// construction). Mirrors tpg::enumerate_faults, at the netlist layer.
[[nodiscard]] std::vector<StuckAtFault> enumerate_stuck_at_faults(
    const Netlist& nl);

// --- threaded fault campaigns ----------------------------------------------

/// Knobs of run_fault_campaign().
struct FaultCampaignOptions {
  /// Worker threads; 0 means one per hardware thread. The result is
  /// byte-identical for every value (see the file comment).
  std::size_t threads = 1;
  /// Observation points, as in FaultSim::set_observation.
  bool observe_outputs = true;
  bool observe_dffs = true;
};

/// Per-fault outcome of a campaign, merged in fault-index order.
struct FaultCampaignReport {
  /// 1 where the fault was detected by some pattern (std::uint8_t, not
  /// vector<bool>: workers write disjoint index ranges concurrently).
  std::vector<std::uint8_t> detected;
  /// Index of the first detecting pattern per fault, -1 if undetected.
  /// Well-defined under fault dropping: patterns are graded in order.
  std::vector<std::int32_t> first_detect_pattern;
  std::size_t detected_count = 0;

  [[nodiscard]] double coverage() const noexcept {
    return detected.empty() ? 1.0
                            : static_cast<double>(detected_count) /
                                  static_cast<double>(detected.size());
  }
};

/// Loads pattern \p index into a worker's engine (inputs + DFF states).
/// Must be safe to call concurrently from several threads on distinct
/// FaultSim instances — i.e. read-only on captured state.
using FaultCampaignLoader =
    std::function<void(FaultSim& sim, std::size_t index)>;

/// Grades \p faults against \p pattern_count patterns with fault dropping,
/// sharding the fault list contiguously across opts.threads workers. Each
/// worker owns a private FaultSim over the shared \p lev (levelized once,
/// never mutated) and walks all patterns in order over its shard, so the
/// report — including first_detect_pattern — is independent of the thread
/// count. Throws whatever a worker threw, after joining all workers.
[[nodiscard]] FaultCampaignReport run_fault_campaign(
    std::shared_ptr<const LevelizedNetlist> lev,
    const std::vector<StuckAtFault>& faults, std::size_t pattern_count,
    const FaultCampaignLoader& load, const FaultCampaignOptions& opts = {});

}  // namespace casbus::netlist
