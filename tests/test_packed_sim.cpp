/// \file test_packed_sim.cpp
/// Equivalence suite for the 64-wide bit-parallel simulation stack:
///   - word-plane operators vs the scalar Logic4 operators (exhaustive),
///   - PackedGateSim vs GateSim net-for-net over random netlists, random
///     four-state stimuli (X/Z injection included), clocked sequences and
///     a scan-shift stream,
///   - lane-masked forces vs scalar set_force,
///   - netlist::FaultSim / tpg::FaultSimulator::run vs the serial
///     single-fault reference path.

#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <string>
#include <vector>

#include "core/cas_generator.hpp"
#include "netlist/faultsim.hpp"
#include "netlist/gatesim.hpp"
#include "netlist/packed_gatesim.hpp"
#include "serial_fault_sim.hpp"
#include "tpg/fault.hpp"
#include "tpg/synthcore.hpp"
#include "util/logic_word.hpp"
#include "util/rng.hpp"

namespace {

using namespace casbus;
using netlist::GateSim;
using netlist::PackedGateSim;

constexpr std::array<Logic4, 4> kAll = {Logic4::Zero, Logic4::One, Logic4::Z,
                                        Logic4::X};

/// Packs the same scalar into every lane and reads one lane back.
Logic4 lane0(Logic64 w) { return word_lane(w, 0); }

TEST(LogicWord, LaneRoundTrip) {
  Logic64 w = kWordAllZ;
  for (unsigned lane = 0; lane < 64; ++lane)
    w = word_set_lane(w, lane, kAll[lane % 4]);
  for (unsigned lane = 0; lane < 64; ++lane)
    EXPECT_EQ(word_lane(w, lane), kAll[lane % 4]) << "lane " << lane;
}

TEST(LogicWord, UnaryOpsMatchScalar) {
  for (const Logic4 a : kAll) {
    const Logic64 wa = word_broadcast(a);
    EXPECT_EQ(lane0(word_not(wa)), logic_not(a));
    EXPECT_EQ(lane0(word_buf(wa)), is01(a) ? a : Logic4::X);
    EXPECT_EQ(lane0(word_dff_capture(wa)), is01(a) ? a : Logic4::X);
    EXPECT_EQ(word_is0(wa) & 1ULL, a == Logic4::Zero ? 1ULL : 0ULL);
    EXPECT_EQ(word_is1(wa) & 1ULL, a == Logic4::One ? 1ULL : 0ULL);
    EXPECT_EQ(word_is01(wa) & 1ULL, is01(a) ? 1ULL : 0ULL);
  }
}

TEST(LogicWord, BinaryOpsMatchScalar) {
  for (const Logic4 a : kAll) {
    for (const Logic4 b : kAll) {
      const Logic64 wa = word_broadcast(a);
      const Logic64 wb = word_broadcast(b);
      EXPECT_EQ(lane0(word_and(wa, wb)), logic_and(a, b));
      EXPECT_EQ(lane0(word_or(wa, wb)), logic_or(a, b));
      EXPECT_EQ(lane0(word_xor(wa, wb)), logic_xor(a, b));
      EXPECT_EQ(lane0(word_xnor(wa, wb)), logic_not(logic_xor(a, b)));
      EXPECT_EQ(lane0(word_tribuf(wa, wb)), logic_tribuf(a, b));
      EXPECT_EQ(lane0(word_resolve(wa, wb)), resolve(a, b));
    }
  }
}

TEST(LogicWord, MuxMatchesScalar) {
  for (const Logic4 s : kAll)
    for (const Logic4 a : kAll)
      for (const Logic4 b : kAll)
        EXPECT_EQ(lane0(word_mux(word_broadcast(s), word_broadcast(a),
                                 word_broadcast(b))),
                  logic_mux(s, a, b))
            << "s=" << to_char(s) << " a=" << to_char(a)
            << " b=" << to_char(b);
}

TEST(LogicWord, Diff01IsTheDetectionCriterion) {
  for (const Logic4 a : kAll) {
    for (const Logic4 b : kAll) {
      const bool expect = is01(a) && is01(b) && a != b;
      EXPECT_EQ(word_diff01(word_broadcast(a), word_broadcast(b)) & 1ULL,
                expect ? 1ULL : 0ULL);
    }
  }
}

/// Draws a four-state value with driven levels dominating (like real
/// stimuli) but a solid share of X/Z injections.
Logic4 random_logic(Rng& rng) {
  const std::uint64_t r = rng.below(10);
  if (r < 4) return Logic4::Zero;
  if (r < 8) return Logic4::One;
  return r == 8 ? Logic4::X : Logic4::Z;
}

/// Drives primary input \p name to \p v in every lane.
using DriveInput = std::function<void(const std::string& name, Logic4 v)>;

/// Optional stimulus update applied before the first eval() and before
/// every tick (a scan-shift stream, say). Both engines settle it before
/// the clock edge, so the flip-flops capture the updated inputs.
using TickInputs = std::function<void(const DriveInput& drive)>;

/// Runs packed-vs-scalar lock-step: packs 64 random stimulus lanes,
/// mirrors each lane in a scalar GateSim, and compares every net after
/// eval() and after each of \p ticks clock edges.
void check_equivalence(const netlist::Netlist& nl, std::uint64_t seed,
                       int ticks, const TickInputs& per_tick = {}) {
  Rng rng(seed);
  const auto lev = netlist::levelize(nl);
  PackedGateSim packed(lev);
  std::vector<GateSim> scalar;
  for (unsigned lane = 0; lane < PackedGateSim::kLanes; ++lane)
    scalar.emplace_back(lev);

  // Random per-lane inputs and flip-flop preloads, X/Z included.
  for (std::size_t i = 0; i < nl.inputs().size(); ++i)
    for (unsigned lane = 0; lane < PackedGateSim::kLanes; ++lane) {
      const Logic4 v = random_logic(rng);
      packed.set_input_lane(i, lane, v);
      scalar[lane].set_input_index(i, v);
    }
  for (std::size_t i = 0; i < packed.dff_count(); ++i)
    for (unsigned lane = 0; lane < PackedGateSim::kLanes; ++lane) {
      const Logic4 v = random_logic(rng);
      packed.set_dff_lane(i, lane, v);
      scalar[lane].set_dff_state(i, v);
    }

  const auto compare_all = [&](const char* stage) {
    for (netlist::NetId n = 0; n < nl.net_count(); ++n) {
      const Logic64 w = packed.net_value(n);
      for (unsigned lane = 0; lane < PackedGateSim::kLanes; ++lane) {
        ASSERT_EQ(word_lane(w, lane), scalar[lane].net_value(n))
            << stage << ": net " << n << " lane " << lane << " seed "
            << seed;
      }
    }
  };

  const DriveInput drive = [&](const std::string& name, Logic4 v) {
    const std::size_t i = lev->input_index(name);
    packed.set_input_index(i, word_broadcast(v));
    for (auto& s : scalar) s.set_input_index(i, v);
  };

  if (per_tick) per_tick(drive);
  packed.eval();
  for (auto& s : scalar) s.eval();
  compare_all("eval");

  for (int t = 0; t < ticks; ++t) {
    if (per_tick) {
      per_tick(drive);
      packed.eval();
      for (auto& s : scalar) s.eval();
      compare_all("drive");
    }
    packed.tick();
    for (auto& s : scalar) s.tick();
    compare_all("tick");
  }
}

TEST(PackedGateSim, MatchesScalarOnRandomCores) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    tpg::SyntheticCoreSpec spec;
    spec.n_inputs = 6;
    spec.n_outputs = 5;
    spec.n_flipflops = 12;
    spec.n_gates = 80;
    spec.n_chains = 2;
    spec.seed = 1000 + seed;
    const tpg::SyntheticCore core = tpg::make_synthetic_core(spec);
    check_equivalence(core.netlist, seed, 3);
  }
}

TEST(PackedGateSim, MatchesScalarOnTriStateCas) {
  // Generated CAS switches are tribuf-heavy — the tri-state resolution and
  // Z propagation paths get real coverage here.
  for (const unsigned n : {4u, 6u}) {
    const tam::GeneratedCas gen = tam::generate_cas(
        n, n / 2, {tam::CasImplementation::OptimizedGateLevel, true});
    check_equivalence(gen.netlist, 77 + n, 2);
  }
}

TEST(PackedGateSim, MatchesScalarOnScanShift) {
  // Scan-shift stimulus: scan_en is re-driven with the same One every
  // cycle and only the chain inputs change between ticks.
  tpg::SyntheticCoreSpec spec;
  spec.n_inputs = 8;
  spec.n_outputs = 8;
  spec.n_flipflops = 32;
  spec.n_gates = 200;
  spec.n_chains = 2;
  spec.seed = 31337;
  const tpg::SyntheticCore core = tpg::make_synthetic_core(spec);

  Rng shift_rng(9);
  const TickInputs shift = [&](const DriveInput& drive) {
    drive("scan_en", Logic4::One);
    for (std::size_t c = 0; c < core.chains.size(); ++c)
      drive("si" + std::to_string(c), to_logic(shift_rng.coin()));
  };
  check_equivalence(core.netlist, 9, 48, shift);
}

TEST(PackedGateSim, LaneMaskedForcesMatchScalar) {
  tpg::SyntheticCoreSpec spec;
  spec.n_inputs = 5;
  spec.n_outputs = 4;
  spec.n_flipflops = 8;
  spec.n_gates = 60;
  spec.seed = 4242;
  const tpg::SyntheticCore core = tpg::make_synthetic_core(spec);
  const auto lev = netlist::levelize(core.netlist);

  Rng rng(99);
  PackedGateSim packed(lev);
  std::vector<GateSim> scalar;
  std::vector<std::pair<netlist::NetId, bool>> lane_fault;
  for (unsigned lane = 0; lane < PackedGateSim::kLanes; ++lane) {
    scalar.emplace_back(lev);
    lane_fault.emplace_back(
        static_cast<netlist::NetId>(rng.below(core.netlist.net_count())),
        rng.coin());
  }

  for (std::size_t i = 0; i < core.netlist.inputs().size(); ++i) {
    const Logic4 v = to_logic(rng.coin());
    packed.set_input_index(i, word_broadcast(v));
    for (auto& s : scalar) s.set_input_index(i, v);
  }
  for (std::size_t i = 0; i < packed.dff_count(); ++i) {
    const Logic4 v = to_logic(rng.coin());
    packed.set_dff_state(i, v);
    for (auto& s : scalar) s.set_dff_state(i, v);
  }
  for (unsigned lane = 0; lane < PackedGateSim::kLanes; ++lane) {
    packed.set_force(lane_fault[lane].first,
                     to_logic(lane_fault[lane].second), 1ULL << lane);
    scalar[lane].set_force(lane_fault[lane].first,
                           to_logic(lane_fault[lane].second));
  }

  packed.eval();
  for (auto& s : scalar) s.eval();
  for (netlist::NetId n = 0; n < core.netlist.net_count(); ++n) {
    const Logic64 w = packed.net_value(n);
    for (unsigned lane = 0; lane < PackedGateSim::kLanes; ++lane)
      ASSERT_EQ(word_lane(w, lane), scalar[lane].net_value(n))
          << "net " << n << " lane " << lane;
  }

  // clear_forces restores fault-free behavior.
  packed.clear_forces();
  scalar[0].clear_forces();
  packed.eval();
  scalar[0].eval();
  for (netlist::NetId n = 0; n < core.netlist.net_count(); ++n)
    ASSERT_EQ(word_lane(packed.net_value(n), 0), scalar[0].net_value(n));
}

TEST(PackedGateSim, ForcesOnTriStateNetsMatchScalar) {
  // The subtlest packed/scalar divergence point: a forced tri-state net.
  // The scalar simulator skips the driver write entirely ("stuck net stays
  // stuck") while the packed one resolves the drivers and then lane-blends
  // the forced value back in — the result must be lane-wise identical.
  const tam::GeneratedCas gen = tam::generate_cas(
      6, 3, {tam::CasImplementation::OptimizedGateLevel, true});
  const auto lev = netlist::levelize(gen.netlist);

  std::vector<netlist::NetId> tri_nets;
  for (netlist::NetId n = 0; n < gen.netlist.net_count(); ++n)
    if (lev->net_is_tri(n)) tri_nets.push_back(n);
  ASSERT_FALSE(tri_nets.empty()) << "CAS netlist should be tribuf-heavy";

  Rng rng(4711);
  PackedGateSim packed(lev);
  std::vector<GateSim> scalar;
  for (unsigned lane = 0; lane < PackedGateSim::kLanes; ++lane)
    scalar.emplace_back(lev);

  for (std::size_t i = 0; i < gen.netlist.inputs().size(); ++i)
    for (unsigned lane = 0; lane < PackedGateSim::kLanes; ++lane) {
      const Logic4 v = random_logic(rng);
      packed.set_input_lane(i, lane, v);
      scalar[lane].set_input_index(i, v);
    }
  for (std::size_t i = 0; i < packed.dff_count(); ++i)
    for (unsigned lane = 0; lane < PackedGateSim::kLanes; ++lane) {
      const Logic4 v = to_logic(rng.coin());
      packed.set_dff_lane(i, lane, v);
      scalar[lane].set_dff_state(i, v);
    }

  // Each lane forces a different tri-state net to a random stuck value.
  for (unsigned lane = 0; lane < PackedGateSim::kLanes; ++lane) {
    const netlist::NetId net = tri_nets[rng.below(tri_nets.size())];
    const Logic4 v = to_logic(rng.coin());
    packed.set_force(net, v, 1ULL << lane);
    scalar[lane].set_force(net, v);
  }

  packed.eval();
  for (auto& s : scalar) s.eval();
  for (netlist::NetId n = 0; n < gen.netlist.net_count(); ++n) {
    const Logic64 w = packed.net_value(n);
    for (unsigned lane = 0; lane < PackedGateSim::kLanes; ++lane)
      ASSERT_EQ(word_lane(w, lane), scalar[lane].net_value(n))
          << "net " << n << " lane " << lane;
  }
}

TEST(FaultSim, BatchDetectionMatchesSerialResimulation) {
  tpg::SyntheticCoreSpec spec;
  spec.n_inputs = 6;
  spec.n_outputs = 6;
  spec.n_flipflops = 10;
  spec.n_gates = 70;
  spec.seed = 555;
  const tpg::SyntheticCore core = tpg::make_synthetic_core(spec);
  const auto faults = netlist::enumerate_stuck_at_faults(core.netlist);

  const auto lev = netlist::levelize(core.netlist);
  netlist::FaultSim fsim(lev);
  GateSim good(lev), bad(lev);

  Rng rng(7);
  for (int trial = 0; trial < 4; ++trial) {
    std::vector<Logic4> in_vals(core.netlist.inputs().size());
    std::vector<Logic4> ff_vals(fsim.dff_count());
    for (std::size_t i = 0; i < in_vals.size(); ++i) {
      in_vals[i] = to_logic(rng.coin());
      fsim.set_input_index(i, in_vals[i]);
      good.set_input_index(i, in_vals[i]);
      bad.set_input_index(i, in_vals[i]);
    }
    for (std::size_t i = 0; i < ff_vals.size(); ++i) {
      ff_vals[i] = to_logic(rng.coin());
      fsim.set_dff_state(i, ff_vals[i]);
      good.set_dff_state(i, ff_vals[i]);
      bad.set_dff_state(i, ff_vals[i]);
    }
    good.clear_forces();
    good.eval();

    // Serial reference: re-simulate each fault one at a time.
    const auto& lev_dffs = lev->dff_cells();
    const auto serial_detects = [&](const netlist::StuckAtFault& f) {
      bad.clear_forces();
      bad.set_force(f.net, to_logic(f.stuck_one));
      bad.eval();
      const auto differs = [&](netlist::NetId net) {
        const Logic4 g = good.net_value(net), b = bad.net_value(net);
        return is01(g) && is01(b) && g != b;
      };
      for (const auto& p : core.netlist.outputs())
        if (differs(p.net)) return true;
      for (const auto id : lev_dffs)
        if (differs(core.netlist.cell(id).in[0])) return true;
      return false;
    };

    for (std::size_t base = 0; base < faults.size();
         base += netlist::FaultSim::kBatch) {
      const std::size_t count =
          std::min(netlist::FaultSim::kBatch, faults.size() - base);
      const std::uint64_t mask = fsim.detect_batch(&faults[base], count);
      for (std::size_t i = 0; i < count; ++i)
        ASSERT_EQ((mask >> i) & 1ULL,
                  serial_detects(faults[base + i]) ? 1ULL : 0ULL)
            << "trial " << trial << " fault " << (base + i) << " net "
            << faults[base + i].net << " sa"
            << (faults[base + i].stuck_one ? 1 : 0);
    }
  }
}

TEST(FaultSim, ScanOnlyObservationIgnoresPrimaryOutputs) {
  tpg::SyntheticCoreSpec spec;
  spec.n_inputs = 4;
  spec.n_outputs = 4;
  spec.n_flipflops = 8;
  spec.n_gates = 50;
  spec.seed = 321;
  const tpg::SyntheticCore core = tpg::make_synthetic_core(spec);
  const auto lev = netlist::levelize(core.netlist);
  const auto faults = netlist::enumerate_stuck_at_faults(core.netlist);

  netlist::FaultSim all_obs(lev);
  netlist::FaultSim scan_obs(lev);
  scan_obs.set_observation(false, true);

  Rng rng(13);
  std::uint64_t any_all = 0, any_scan = 0;
  for (int trial = 0; trial < 8; ++trial) {
    for (std::size_t i = 0; i < core.netlist.inputs().size(); ++i) {
      const Logic4 v = to_logic(rng.coin());
      all_obs.set_input_index(i, v);
      scan_obs.set_input_index(i, v);
    }
    for (std::size_t i = 0; i < all_obs.dff_count(); ++i) {
      const Logic4 v = to_logic(rng.coin());
      all_obs.set_dff_state(i, v);
      scan_obs.set_dff_state(i, v);
    }
    const std::size_t count = std::min<std::size_t>(64, faults.size());
    const std::uint64_t a = all_obs.detect_batch(faults.data(), count);
    const std::uint64_t s = scan_obs.detect_batch(faults.data(), count);
    // Scan-only observation can never detect more than full observation.
    EXPECT_EQ(s & ~a, 0ULL);
    any_all |= a;
    any_scan |= s;
  }
  EXPECT_NE(any_all, 0ULL);
  EXPECT_NE(any_scan, 0ULL);
}

TEST(FaultSimulator, PackedRunMatchesSerialRun) {
  tpg::SyntheticCoreSpec spec;
  spec.n_inputs = 6;
  spec.n_outputs = 6;
  spec.n_flipflops = 12;
  spec.n_gates = 90;
  spec.n_chains = 2;
  spec.seed = 808;
  const tpg::SyntheticCore core = tpg::make_synthetic_core(spec);

  tpg::FaultSimulator fsim(core.netlist);
  fsim.pin_input("scan_en", false);
  testref::SerialFaultSimulator ref(core.netlist);
  ref.pin_input("scan_en", false);
  const auto faults = tpg::enumerate_faults(core.netlist);

  Rng rng(17);
  const auto patterns = tpg::PatternSet::random(fsim.pattern_width(), 12, rng);

  const tpg::FaultSimReport packed = fsim.run(patterns, faults);
  const tpg::FaultSimReport serial = ref.run(patterns, faults);

  EXPECT_EQ(packed.total_faults, serial.total_faults);
  EXPECT_EQ(packed.detected, serial.detected);
  EXPECT_EQ(packed.detected_mask, serial.detected_mask);
  EXPECT_EQ(packed.per_pattern, serial.per_pattern);
  EXPECT_GT(packed.detected, 0u);
}

TEST(FaultSimulator, DetectsAgreesWithSerialCriterion) {
  tpg::SyntheticCoreSpec spec;
  spec.n_inputs = 5;
  spec.n_outputs = 5;
  spec.n_flipflops = 8;
  spec.n_gates = 60;
  spec.seed = 914;
  const tpg::SyntheticCore core = tpg::make_synthetic_core(spec);

  tpg::FaultSimulator fsim(core.netlist);
  testref::SerialFaultSimulator ref(core.netlist);
  const auto faults = tpg::enumerate_faults(core.netlist);
  Rng rng(23);
  const auto patterns = tpg::PatternSet::random(fsim.pattern_width(), 3, rng);

  for (std::size_t p = 0; p < patterns.size(); ++p) {
    const BitVector good = fsim.good_response(patterns.at(p));
    for (std::size_t f = 0; f < faults.size(); f += 7) {
      // Serial criterion via two scalar simulations.
      tpg::FaultSimReport one;
      tpg::PatternSet single(patterns.width());
      single.add(patterns.at(p));
      const auto serial =
          ref.run(single, std::vector<tpg::Fault>{faults[f]});
      EXPECT_EQ(fsim.detects(patterns.at(p), faults[f]),
                serial.detected == 1)
          << "pattern " << p << " fault " << f;
    }
    (void)good;
  }
}

}  // namespace
