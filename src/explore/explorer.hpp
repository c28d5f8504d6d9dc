/// \file explorer.hpp
/// Design-space exploration: the paper's §3.2 trade-off ("a good trade-off
/// between test time, test requirements and CAS-BUS overhead allows to
/// choose an optimal width for the test bus") evaluated at industrial
/// scale — a Pareto sweep over TAM width × scheduling strategy reporting
/// test time, bus area, and the proven optimality gap for every point.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "explore/branch_bound.hpp"
#include "explore/soc_generator.hpp"

namespace casbus::explore {

/// Sweep axes.
struct ExploreConfig {
  /// Bus widths to evaluate; empty = {suggested/2, suggested,
  /// suggested*2} clamped to [2, 64].
  std::vector<unsigned> widths;
  std::vector<sched::Strategy> strategies = {
      sched::Strategy::Greedy, sched::Strategy::Phased,
      sched::Strategy::BranchBound};
  BranchBoundConfig branch_bound;
};

/// One evaluated (width, strategy) point.
struct ExplorePoint {
  unsigned width = 0;
  sched::Strategy strategy = sched::Strategy::Greedy;
  std::uint64_t test_cycles = 0;
  double bus_area_ge = 0.0;          ///< sum of per-core CAS areas (GE)
  double pass_transistor_ge = 0.0;   ///< §3.3 alternative, same switches
  /// Proven lower bound the gap is measured against: the B&B certificate
  /// for Strategy::BranchBound, the instance-wide schedule_lower_bound for
  /// everything else.
  std::uint64_t lower_bound = 0;
  double gap = 0.0;                  ///< test_cycles / lower_bound − 1
  bool proven_optimal = false;       ///< B&B exhausted the search space
  bool pareto = false;               ///< on the (cycles, area) frontier
  double schedule_seconds = 0.0;     ///< wall time spent scheduling
};

/// Full sweep result.
struct ExploreReport {
  std::string soc_name;
  std::size_t core_count = 0;
  std::vector<ExplorePoint> points;

  /// Fastest point overall (nullptr when empty).
  [[nodiscard]] const ExplorePoint* best_time() const;
};

/// Sweeps one synthetic (or hand-built) SoC across the configured design
/// space.
class DesignSpaceExplorer {
 public:
  explicit DesignSpaceExplorer(GeneratedSoc soc) : soc_(std::move(soc)) {}

  [[nodiscard]] ExploreReport sweep(const ExploreConfig& config = {}) const;

  [[nodiscard]] const GeneratedSoc& soc() const noexcept { return soc_; }

  /// Total CAS-BUS area for \p cores on a \p width-wire bus, in gate
  /// equivalents. Small geometries are generated gate-level and measured
  /// with netlist::area (bit-exact with the Table 1 pipeline, memoized per
  /// (width, ports) for the process, so repeated sweeps synthesize each
  /// CAS once); geometries whose instruction space is too large to
  /// synthesize use the documented Table 1 trend extrapolation — which is
  /// the honest answer anyway: nobody tapes out a 2^64-instruction
  /// decoder, and the exploding estimate is exactly the §3.2 overhead
  /// signal the sweep exists to expose.
  static double bus_area_ge(const std::vector<sched::CoreTestSpec>& cores,
                            unsigned width);

  /// §3.3 pass-transistor crossbar area for the same switches (analytic,
  /// safe at any geometry).
  static double bus_pass_transistor_ge(
      const std::vector<sched::CoreTestSpec>& cores, unsigned width);

 private:
  GeneratedSoc soc_;
};

}  // namespace casbus::explore
