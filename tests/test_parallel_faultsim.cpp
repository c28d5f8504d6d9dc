/// \file test_parallel_faultsim.cpp
/// Determinism suite for the threaded fault-campaign engine:
///   - netlist::run_fault_campaign detection maps byte-identical at
///     1/2/8 threads (detected bytes, first-detect pattern indices),
///   - tpg::FaultSimulator::run(patterns, faults, threads) equal to the
///     single-threaded run() for every thread count.

#include <gtest/gtest.h>

#include <vector>

#include "netlist/faultsim.hpp"
#include "tpg/fault.hpp"
#include "tpg/patterns.hpp"
#include "tpg/synthcore.hpp"
#include "util/rng.hpp"

namespace {

using namespace casbus;

tpg::SyntheticCore campaign_core(std::uint64_t seed) {
  tpg::SyntheticCoreSpec spec;
  spec.n_inputs = 8;
  spec.n_outputs = 8;
  spec.n_flipflops = 20;
  spec.n_gates = 140;
  spec.n_chains = 2;
  spec.seed = seed;
  return tpg::make_synthetic_core(spec);
}

TEST(FaultCampaign, DetectionMapsByteIdenticalAcrossThreadCounts) {
  const tpg::SyntheticCore core = campaign_core(12001);
  const auto lev = netlist::levelize(core.netlist);
  const auto faults = netlist::enumerate_stuck_at_faults(core.netlist);

  // Random full-scan patterns as flat input/FF assignments.
  Rng rng(5);
  const std::size_t n_patterns = 10;
  std::vector<std::vector<Logic4>> inputs(n_patterns);
  std::vector<std::vector<Logic4>> states(n_patterns);
  for (std::size_t p = 0; p < n_patterns; ++p) {
    for (std::size_t i = 0; i < core.netlist.inputs().size(); ++i)
      inputs[p].push_back(to_logic(rng.coin()));
    for (std::size_t i = 0; i < core.spec.n_flipflops; ++i)
      states[p].push_back(to_logic(rng.coin()));
  }
  const auto loader = [&](netlist::FaultSim& fs, std::size_t p) {
    for (std::size_t i = 0; i < inputs[p].size(); ++i)
      fs.set_input_index(i, inputs[p][i]);
    for (std::size_t i = 0; i < states[p].size(); ++i)
      fs.set_dff_state(i, states[p][i]);
  };

  netlist::FaultCampaignOptions opts;
  opts.threads = 1;
  const netlist::FaultCampaignReport reference = netlist::run_fault_campaign(
      lev, faults, n_patterns, loader, opts);
  EXPECT_GT(reference.detected_count, 0u);
  EXPECT_LT(reference.detected_count, faults.size() + 1);

  for (const std::size_t threads : {2u, 8u}) {
    opts.threads = threads;
    const netlist::FaultCampaignReport r = netlist::run_fault_campaign(
        lev, faults, n_patterns, loader, opts);
    EXPECT_EQ(r.detected, reference.detected) << threads << " threads";
    EXPECT_EQ(r.first_detect_pattern, reference.first_detect_pattern)
        << threads << " threads";
    EXPECT_EQ(r.detected_count, reference.detected_count);
  }
}

TEST(FaultSimulator, ThreadedRunMatchesSingleThreadedRun) {
  const tpg::SyntheticCore core = campaign_core(12003);

  tpg::FaultSimulator fsim(core.netlist);
  fsim.pin_input("scan_en", false);
  const auto faults = tpg::enumerate_faults(core.netlist);
  Rng rng(17);
  const auto patterns =
      tpg::PatternSet::random(fsim.pattern_width(), 12, rng);

  const tpg::FaultSimReport reference = fsim.run(patterns, faults);
  EXPECT_GT(reference.detected, 0u);
  for (const std::size_t threads : {1u, 2u, 8u}) {
    const tpg::FaultSimReport r = fsim.run(patterns, faults, threads);
    EXPECT_EQ(r.total_faults, reference.total_faults);
    EXPECT_EQ(r.detected, reference.detected) << threads << " threads";
    EXPECT_EQ(r.detected_mask, reference.detected_mask)
        << threads << " threads";
    EXPECT_EQ(r.per_pattern, reference.per_pattern) << threads << " threads";
  }
}

}  // namespace
