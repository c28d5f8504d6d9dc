/// \file test_lazy_gatesim.cpp
/// The lazy-evaluation contract of netlist::GateSim (gatesim.hpp): every
/// mutator that can change a net dirties the simulator, eval() skips clean
/// state, tick() settles before it captures, and every read settles first.
/// Checked in lock-step against an always-settled PackedGateSim reference,
/// then end to end through the behavioural kernel, where backdoor
/// mutators must show on the next settle() without a clock edge.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/cas_generator.hpp"
#include "core/instruction.hpp"
#include "netlist/gatesim.hpp"
#include "netlist/packed_gatesim.hpp"
#include "soc/soc.hpp"
#include "soc/tester.hpp"
#include "tpg/patterns.hpp"
#include "tpg/synthcore.hpp"
#include "util/logic_word.hpp"
#include "util/rng.hpp"

namespace casbus {
namespace {

using netlist::GateSim;
using netlist::PackedGateSim;

tpg::SyntheticCoreSpec core_spec(std::uint64_t seed, std::size_t chains) {
  tpg::SyntheticCoreSpec spec;
  spec.n_inputs = 5;
  spec.n_outputs = 4;
  spec.n_flipflops = 10;
  spec.n_gates = 60;
  spec.n_chains = chains;
  spec.seed = seed;
  return spec;
}

Logic4 random_logic(Rng& rng) {
  const std::uint64_t r = rng.below(10);
  if (r < 4) return Logic4::Zero;
  if (r < 8) return Logic4::One;
  return r == 8 ? Logic4::X : Logic4::Z;
}

/// Drives a lazy GateSim and a FullSweep PackedGateSim (lane 0 carries the
/// scalar machine) through \p steps random mutators, clocks and reads. The
/// reference is settled explicitly before every read and every clock; the
/// lazy simulator never sees eval(), so each agreement is the lazy
/// contract at work. Flip-flop state is compared right after every clock,
/// before anything else could settle the lazy simulator.
void lock_step(const netlist::Netlist& nl, std::uint64_t seed, int steps) {
  Rng rng(seed);
  const auto lev = netlist::levelize(nl);
  GateSim lazy(lev);
  PackedGateSim ref(lev, netlist::EvalMode::FullSweep);
  const std::size_t n_in = nl.inputs().size();
  const std::size_t n_ff = lazy.dff_count();

  const auto compare_dffs = [&](int step) {
    for (std::size_t i = 0; i < n_ff; ++i)
      ASSERT_EQ(lazy.dff_state(i), word_lane(ref.dff_state(i), 0))
          << "ff " << i << " step " << step << " seed " << seed;
  };
  const auto compare_nets = [&](int step) {
    ref.eval();
    for (netlist::NetId n = 0; n < nl.net_count(); ++n)
      ASSERT_EQ(lazy.net_value(n), word_lane(ref.net_value(n), 0))
          << "net " << n << " step " << step << " seed " << seed;
  };

  for (int step = 0; step < steps; ++step) {
    switch (rng.below(10)) {
      case 0:
      case 1:
      case 2: {  // repeats included: an unchanged value must not matter
        const std::size_t i = rng.below(n_in);
        const Logic4 v = random_logic(rng);
        lazy.set_input_index(i, v);
        ref.set_input_index(i, word_broadcast(v));
        break;
      }
      case 3: {
        const auto net =
            static_cast<netlist::NetId>(rng.below(nl.net_count()));
        const Logic4 v = to_logic(rng.coin());
        lazy.set_force(net, v);
        ref.set_force(net, v);
        break;
      }
      case 4:
        lazy.clear_forces();
        ref.clear_forces();
        break;
      case 5:
        if (n_ff != 0) {
          const std::size_t i = rng.below(n_ff);
          const Logic4 v = random_logic(rng);
          lazy.set_dff_state(i, v);
          ref.set_dff_state(i, v);
        }
        break;
      case 6:
        if (rng.below(4) == 0) {
          const Logic4 v = rng.coin() ? Logic4::Zero : Logic4::X;
          lazy.reset(v);
          ref.reset(v);
          break;
        }
        [[fallthrough]];
      case 7:
        ref.eval();
        ref.tick();
        lazy.tick();
        compare_dffs(step);
        break;
      case 8: {
        const std::size_t o = rng.below(nl.outputs().size());
        ref.eval();
        ASSERT_EQ(lazy.output_index(o), word_lane(ref.output_index(o), 0))
            << "output " << o << " step " << step << " seed " << seed;
        break;
      }
      default:
        compare_nets(step);
        break;
    }
  }
  compare_nets(steps);
}

TEST(GateSimLazy, LockStepWithSweepReferenceOnRandomCores) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const tpg::SyntheticCore core =
        tpg::make_synthetic_core(core_spec(300 + seed, 2));
    lock_step(core.netlist, seed, 600);
  }
}

TEST(GateSimLazy, LockStepWithSweepReferenceOnTriStateCas) {
  // Tribuf-heavy: forced tri-state nets and Z resolution under laziness.
  for (const unsigned n : {4u, 6u}) {
    const tam::GeneratedCas gen = tam::generate_cas(
        n, n / 2, {tam::CasImplementation::OptimizedGateLevel, true});
    lock_step(gen.netlist, 90 + n, 600);
  }
}

TEST(GateSimLazy, SweepsOnlyWhenSomethingChanged) {
  const tpg::SyntheticCore core = tpg::make_synthetic_core(core_spec(7, 1));
  GateSim sim(core.netlist);
  for (std::size_t i = 0; i < core.netlist.inputs().size(); ++i)
    sim.set_input_index(i, Logic4::Zero);
  sim.eval();
  const std::uint64_t base = sim.sweeps();
  EXPECT_EQ(base, 1u);

  // Clean: repeated evals, an unchanged input and reads cost nothing.
  sim.eval();
  sim.set_input_index(0, Logic4::Zero);
  sim.eval();
  (void)sim.output_index(0);
  (void)sim.net_value(0);
  EXPECT_EQ(sim.sweeps(), base);
  EXPECT_EQ(sim.eval_requests(), 3u);

  // A clock captures settled values but does not propagate them.
  sim.tick();
  EXPECT_EQ(sim.sweeps(), base);
  sim.eval();
  EXPECT_EQ(sim.sweeps(), base + 1);

  // Each effective mutator costs exactly one sweep at the next read.
  sim.set_input_index(0, Logic4::One);
  (void)sim.output_index(0);
  EXPECT_EQ(sim.sweeps(), base + 2);
  sim.set_force(0, Logic4::One);
  (void)sim.output_index(0);
  EXPECT_EQ(sim.sweeps(), base + 3);
  sim.clear_forces();
  sim.clear_forces();  // nothing left to clear: stays clean
  (void)sim.output_index(0);
  EXPECT_EQ(sim.sweeps(), base + 4);
  sim.set_dff_state(0, sim.dff_state(0));  // same value: stays clean
  (void)sim.output_index(0);
  EXPECT_EQ(sim.sweeps(), base + 4);
  sim.reset();
  (void)sim.output_index(0);
  EXPECT_EQ(sim.sweeps(), base + 5);
}

// --- the behavioural kernel ---------------------------------------------------

netlist::NetId net_by_name(const netlist::Netlist& nl,
                           const std::string& name) {
  for (const auto& [net, nm] : nl.net_names())
    if (nm == name) return net;
  ADD_FAILURE() << "net not found: " << name;
  return netlist::kNoNet;
}

std::unique_ptr<soc::Soc> two_core_soc() {
  soc::SocBuilder b(4);
  b.add_scan_core("alpha", core_spec(11, 1));
  b.add_scan_core("beta", core_spec(12, 2));
  b.connect("alpha", 0, "beta", 0);
  auto soc = b.build();
  soc->reset();
  soc->simulation().settle();
  return soc;
}

TEST(KernelBackdoors, GateForceShowsOnScanOutWithoutAClock) {
  auto soc = two_core_soc();
  sim::Simulation& sim = soc->simulation();
  soc::NetlistCore& alpha = soc->cores()[0].as_scan();
  const std::size_t last_ff = alpha.synth().chains[0].back();
  const netlist::NetId q = net_by_name(alpha.synth().netlist,
                                       "ff_q" + std::to_string(last_ff));
  const sim::Wire& so = *alpha.terminals().scan_out[0];
  const std::uint64_t cycle = sim.cycle();

  for (const Logic4 v : {Logic4::One, Logic4::Zero, Logic4::One}) {
    alpha.gatesim().set_force(q, v);
    sim.settle();
    EXPECT_EQ(so.get(), v);
  }
  alpha.gatesim().clear_forces();
  sim.settle();
  EXPECT_EQ(so.get(), alpha.gatesim().dff_state(last_ff));
  EXPECT_EQ(sim.cycle(), cycle);  // no clock edge anywhere above
}

TEST(KernelBackdoors, StuckInterconnectShowsWithoutAClock) {
  auto soc = two_core_soc();
  sim::Simulation& sim = soc->simulation();
  const sim::Wire& src = *soc->cores()[0].sys_out[0];
  const sim::Wire& dst = *soc->cores()[1].sys_in[0];
  ASSERT_EQ(dst.get(), src.get());

  const bool stuck_one = src.get() != Logic4::One;
  soc->interconnect()->inject_stuck(0, stuck_one);
  sim.settle();
  EXPECT_EQ(dst.get(), to_logic(stuck_one));
  soc->interconnect()->clear_faults();
  sim.settle();
  EXPECT_EQ(dst.get(), src.get());
}

TEST(KernelBackdoors, ForcedCasInstructionRoutesWithoutAClock) {
  auto soc = two_core_soc();
  sim::Simulation& sim = soc->simulation();
  tam::CasBusChain& bus = soc->bus();
  tam::CasBehavior& cas = bus.cas(0);  // alpha: N = 4, P = 1
  const sim::Wire& o0 = bus.cas_o(0)[0];
  for (unsigned w = 0; w < bus.width(); ++w)
    bus.head()[w].set(to_logic(w % 2 == 1));
  sim.settle();
  EXPECT_EQ(o0.get(), Logic4::Z);  // BYPASS floats the core side

  // Every switch of TEST code re-routes, including back to a code whose
  // routes were decoded before.
  for (const unsigned w : {1u, 2u, 1u, 3u}) {
    cas.force_instruction(
        cas.isa().encode(tam::SwitchScheme({w}, bus.width())));
    sim.settle();
    EXPECT_EQ(o0.get(), to_logic(w % 2 == 1)) << "wire " << w;
  }
  cas.force_instruction(tam::InstructionSet::kBypassCode);
  sim.settle();
  EXPECT_EQ(o0.get(), Logic4::Z);
}

TEST(KernelCounters, ScanSessionSweepsLessThanItEvaluates) {
  auto soc = two_core_soc();
  soc::SocTester tester(*soc);
  const tpg::SyntheticCore& beta = soc->cores()[1].as_scan().synth();
  Rng rng(5);
  soc::ScanSession session;
  session.targets.push_back(soc::ScanTarget{
      soc::CoreRef{1, std::nullopt}, {0, 1},
      tpg::PatternSet::random(beta.spec.n_flipflops, 4, rng)});
  ASSERT_TRUE(tester.run_scan_session(session).all_pass());

  const soc::KernelStats k = tester.kernel_stats();
  EXPECT_EQ(k.sim.cycles, tester.cycles());
  EXPECT_GE(k.sim.settles, k.sim.cycles);
  EXPECT_GE(k.sim.delta_passes, k.sim.settles);
  // Two gate-level cores are evaluated on every delta pass; laziness
  // skips the passes on which neither one's inputs changed.
  EXPECT_EQ(k.gate_eval_requests, 2 * k.sim.delta_passes);
  EXPECT_GT(k.gate_sweeps, 0u);
  EXPECT_LT(k.gate_sweeps, k.gate_eval_requests / 2);
}

}  // namespace
}  // namespace casbus
