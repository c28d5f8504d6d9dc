/// \file test_lazy_gatesim.cpp
/// The lazy-evaluation contract of netlist::GateSim (gatesim.hpp): every
/// mutator that can change a net dirties the simulator, eval() skips clean
/// state, tick() settles before it captures, and every read settles first.
/// Checked in lock-step against an always-settled PackedGateSim reference,
/// then end to end through the behavioural kernel, where backdoor
/// mutators must show on the next settle() without a clock edge. The
/// shift plan (a settle under scan_en = 1 covers only the chain cells) is
/// checked in lock-step against an unplanned GateSim on random netlists,
/// and at SoC level against full-sweep references and stuck-at faults —
/// on chain nets, and on cloud nets graded by the packed fault simulator.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/cas_generator.hpp"
#include "core/instruction.hpp"
#include "netlist/builder.hpp"
#include "netlist/faultsim.hpp"
#include "netlist/gatesim.hpp"
#include "netlist/packed_gatesim.hpp"
#include "soc/schedule_runner.hpp"
#include "soc/soc.hpp"
#include "soc/tester.hpp"
#include "tpg/patterns.hpp"
#include "tpg/synthcore.hpp"
#include "util/logic_word.hpp"
#include "util/rng.hpp"

namespace casbus {
namespace {

using netlist::GateSim;
using netlist::NetId;
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

/// Drives a lazy GateSim and a PackedGateSim (lane 0 carries the scalar
/// machine) through \p steps random mutators, clocks and reads. The
/// reference is settled explicitly before every read and every clock; the
/// lazy simulator never sees eval(), so each agreement is the lazy
/// contract at work. Flip-flop state is compared right after every clock,
/// before anything else could settle the lazy simulator.
void lock_step(const netlist::Netlist& nl, std::uint64_t seed, int steps) {
  Rng rng(seed);
  const auto lev = netlist::levelize(nl);
  GateSim lazy(lev);
  PackedGateSim ref(lev);
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

// --- the shift plan ---------------------------------------------------------

/// A random sequential netlist with every structure a shift plan must
/// handle: a mux-D scan chain from `si` (some stages take their scan bit
/// from a cloud cell instead of the previous stage, some have no scan mux
/// at all), Dffe cells with cloud enables, tri-state nets with several
/// drivers, a floating net, cloud cells that read scan_en themselves, and
/// outputs inside (`so`) and outside (`po*`) the plan.
netlist::Netlist random_scan_netlist(std::uint64_t seed) {
  Rng rng(seed);
  netlist::NetlistBuilder b("plan_fuzz_" + std::to_string(seed));
  std::vector<NetId> pool;
  for (int i = 0; i < 4; ++i) pool.push_back(b.input("pi" + std::to_string(i)));
  const NetId scan_en = b.input("scan_en");
  const NetId si = b.input("si");
  pool.push_back(scan_en);
  std::vector<NetId> q(6 + rng.below(6));
  for (NetId& net : q) {
    net = b.net();
    pool.push_back(net);
  }
  pool.push_back(b.net());  // floating: read, never driven

  const auto pick = [&] { return pool[rng.below(pool.size())]; };
  const std::size_t cloud_base = pool.size();
  const std::size_t n_cloud = 30 + rng.below(20);
  for (std::size_t g = 0; g < n_cloud; ++g) {
    NetId y = netlist::kNoNet;
    switch (rng.below(10)) {
      case 0: y = b.and2(pick(), pick()); break;
      case 1: y = b.or2(pick(), pick()); break;
      case 2: y = b.nand2(pick(), pick()); break;
      case 3: y = b.xnor2(pick(), pick()); break;
      case 4: y = b.xor2(pick(), pick()); break;
      case 5: y = b.not_(pick()); break;
      case 6: y = b.buf(pick()); break;
      case 7: {  // a wired net with up to three drivers
        y = b.tribuf(pick(), pick());
        for (std::uint64_t k = rng.below(3); k > 0; --k)
          b.tribuf(pick(), pick(), y);
        break;
      }
      default: y = b.mux2(pick(), pick(), pick()); break;
    }
    pool.push_back(y);
  }
  const auto pick_cloud = [&] {
    return pool[cloud_base + rng.below(n_cloud)];
  };

  NetId prev = si;
  for (const NetId qf : q) {
    const NetId func_d = pick();
    const std::uint64_t kind = rng.below(6);
    NetId d = func_d;  // kind 0: no scan mux
    if (kind != 0)
      d = b.mux2(scan_en, func_d, kind == 1 ? pick_cloud() : prev);
    if (rng.below(3) == 0)
      b.dffe_into(d, pick(), qf);
    else
      b.dff_into(d, qf);
    prev = qf;
  }
  b.output("so", prev);
  for (int o = 0; o < 3; ++o) b.output("po" + std::to_string(o), pick_cloud());
  return b.take();
}

/// Drives a planned GateSim and an unplanned one through \p steps random
/// mutators, clocks and reads, with scan_en mostly flipping between One
/// and X. Neither is settled explicitly, so every read exercises the
/// stale-net contract: each read and every flip-flop state must agree.
void plan_lock_step(const netlist::Netlist& nl, std::uint64_t seed,
                    int steps) {
  Rng rng(seed);
  const auto lev = netlist::levelize(nl);
  GateSim planned(lev);
  GateSim ref(lev);
  const std::size_t se = lev->input_index("scan_en");
  std::vector<std::size_t> observed;  // the `so*` outputs
  for (std::size_t o = 0; o < nl.outputs().size(); ++o)
    if (nl.outputs()[o].name.rfind("so", 0) == 0) observed.push_back(o);
  planned.plan_shift(se, observed);
  const std::size_t n_in = nl.inputs().size();
  const std::size_t n_ff = planned.dff_count();

  for (int step = 0; step < steps; ++step) {
    const auto where = [&] {
      return ::testing::Message() << "step " << step << " seed " << seed;
    };
    switch (rng.below(12)) {
      case 0:
      case 1:
      case 2: {  // shift-heavy: scan_en is One or X most of the time
        const std::uint64_t r = rng.below(8);
        const Logic4 v = r < 5 ? Logic4::One
                               : (r < 7 ? Logic4::X : Logic4::Zero);
        planned.set_input_index(se, v);
        ref.set_input_index(se, v);
        break;
      }
      case 3: {
        const std::size_t i = rng.below(n_in);
        const Logic4 v = random_logic(rng);
        planned.set_input_index(i, v);
        ref.set_input_index(i, v);
        break;
      }
      case 4:
        if (rng.below(3) == 0) {
          const auto net = static_cast<NetId>(rng.below(nl.net_count()));
          const Logic4 v = to_logic(rng.coin());
          planned.set_force(net, v);
          ref.set_force(net, v);
        } else {
          planned.clear_forces();
          ref.clear_forces();
        }
        break;
      case 5:
        if (rng.below(3) == 0) {
          const std::size_t i = rng.below(n_ff);
          const Logic4 v = random_logic(rng);
          planned.set_dff_state(i, v);
          ref.set_dff_state(i, v);
        } else if (rng.below(8) == 0) {
          const Logic4 v = rng.coin() ? Logic4::Zero : Logic4::One;
          planned.reset(v);
          ref.reset(v);
        } else {
          planned.eval();
          ref.eval();
        }
        break;
      case 6:
      case 7:
      case 8:
        planned.tick();
        ref.tick();
        for (std::size_t i = 0; i < n_ff; ++i)
          ASSERT_EQ(planned.dff_state(i), ref.dff_state(i))
              << "ff " << i << ' ' << where();
        break;
      case 9:
      case 10: {
        const std::size_t o = rng.below(nl.outputs().size());
        ASSERT_EQ(planned.output_index(o), ref.output_index(o))
            << "output " << o << ' ' << where();
        break;
      }
      default: {
        const auto net = static_cast<NetId>(rng.below(nl.net_count()));
        ASSERT_EQ(planned.net_value(net), ref.net_value(net))
            << "net " << net << ' ' << where();
        break;
      }
    }
  }
  for (NetId n = 0; n < nl.net_count(); ++n)
    ASSERT_EQ(planned.net_value(n), ref.net_value(n)) << "net " << n;
  // Not vacuous: plan sweeps did run.
  EXPECT_LT(planned.cell_evals(), ref.cell_evals()) << seed;
}

TEST(GateSimShiftPlan, LockStepWithUnplannedSimOnRandomNetlists) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed)
    plan_lock_step(random_scan_netlist(seed), 1000 + seed, 800);
}

TEST(GateSimShiftPlan, LockStepWithUnplannedSimOnSyntheticCores) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const tpg::SyntheticCore core =
        tpg::make_synthetic_core(core_spec(500 + seed, 1 + seed % 3));
    plan_lock_step(core.netlist, seed, 800);
  }
}

TEST(GateSimShiftPlan, ShiftClockEvaluatesOnlyTheChainMuxes) {
  const tpg::SyntheticCore core = tpg::make_synthetic_core(core_spec(9, 2));
  GateSim sim(core.netlist);
  const soc::CorePortIndex ports(sim, core.spec);
  sim.plan_shift(ports.scan_en, ports.so);
  // `so` is a flip-flop output and each D pin a scan mux whose in(1) is a
  // source, so the plan is one mux per flip-flop.
  const std::size_t plan = core.spec.n_flipflops;
  const std::size_t full = sim.levelized()->comb_order().size();
  for (std::size_t i = 0; i < core.netlist.inputs().size(); ++i)
    sim.set_input_index(i, Logic4::Zero);
  sim.set_input_index(ports.scan_en, Logic4::One);

  std::uint64_t cells = sim.cell_evals();
  sim.eval();
  EXPECT_EQ(sim.cell_evals() - cells, plan);
  for (int clk = 0; clk < 4; ++clk) {  // tick + so reads: plan sweeps only
    sim.tick();
    (void)sim.output_index(ports.so[0]);
  }
  EXPECT_EQ(sim.cell_evals() - cells, 5 * plan);

  // A po read and a net_value read need every net: one full sweep, then
  // clean.
  cells = sim.cell_evals();
  (void)sim.output_index(ports.po[0]);
  (void)sim.net_value(0);
  EXPECT_EQ(sim.cell_evals() - cells, full);

  // An active force takes the full sweep; so does scan_en = 0.
  cells = sim.cell_evals();
  sim.set_force(0, Logic4::One);
  sim.eval();
  EXPECT_EQ(sim.cell_evals() - cells, full);
  sim.clear_forces();
  sim.set_input_index(ports.scan_en, Logic4::Zero);
  cells = sim.cell_evals();
  sim.eval();
  EXPECT_EQ(sim.cell_evals() - cells, full);
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

/// The stuck-at oracles' session on two_core_soc(): alpha on wire 0 and
/// beta on wires 1 and 2, four random patterns each.
soc::ScanSession two_core_session(const soc::Soc& soc) {
  Rng rng(21);
  const auto patterns = [&](std::size_t core) {
    return tpg::PatternSet::random(
        soc.cores()[core].as_scan().synth().spec.n_flipflops, 4, rng);
  };
  soc::ScanSession session;
  session.targets.push_back(
      soc::ScanTarget{soc::CoreRef{0, std::nullopt}, {0}, patterns(0)});
  session.targets.push_back(
      soc::ScanTarget{soc::CoreRef{1, std::nullopt}, {1, 2}, patterns(1)});
  return session;
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

// --- the shift plan at SoC level ------------------------------------------

/// Registered after every other module. On each delta pass it recomputes
/// the functional outputs of every gate-level core whose scan_en is 0 with
/// an unplanned GateSim (driven from the core's terminals exactly as
/// NetlistCore drives its own, seeded with the core's flip-flop state);
/// at each clock edge the last, settled pass must have agreed with the
/// core's `fout` wires, and CaptureWR must not be high together with
/// ShiftWR.
class FoutOracle : public sim::Module {
 public:
  explicit FoutOracle(soc::Soc& soc)
      : sim::Module("fout_oracle"), wsc_(soc.wsc()) {
    for (const soc::CoreInstance& core : soc.cores()) {
      if (core.kind == soc::CoreKind::Scan) watch(core.as_scan());
      if (core.kind == soc::CoreKind::Hierarchical)
        for (const soc::CoreInstance& child : core.hier->children)
          watch(child.as_scan());
    }
  }

  void evaluate() override {
    mismatch_ = false;
    functional_ = shifting_ = false;
    for (Probe& p : probes_) {
      const soc::CoreTerminals& t = p.core->terminals();
      if (t.scan_en->get() != Logic4::Zero) {
        shifting_ = true;
        continue;
      }
      functional_ = true;
      const auto drive = [&p](std::size_t index, const sim::Wire* w) {
        const Logic4 v = w->get();
        p.ref.set_input_index(index, is01(v) ? v : Logic4::Zero);
      };
      for (std::size_t i = 0; i < p.ports.pi.size(); ++i)
        drive(p.ports.pi[i], t.func_in[i]);
      drive(p.ports.scan_en, t.scan_en);
      for (std::size_t c = 0; c < p.ports.si.size(); ++c)
        drive(p.ports.si[c], t.scan_in[c]);
      for (std::size_t f = 0; f < p.ref.dff_count(); ++f)
        p.ref.set_dff_state(f, p.core->gatesim().dff_state(f));
      for (std::size_t o = 0; o < p.ports.po.size(); ++o)
        if (p.ref.output_index(p.ports.po[o]) != t.func_out[o]->get())
          mismatch_ = true;
    }
  }

  void tick() override {
    ++cycles_;
    EXPECT_FALSE(mismatch_) << "fout differs from a full sweep, cycle "
                            << cycles_;
    EXPECT_FALSE(wsc_.shift_wr->get() == Logic4::One &&
                 wsc_.capture_wr->get() == Logic4::One)
        << "CaptureWR with ShiftWR, cycle " << cycles_;
    functional_cycles_ += functional_ ? 1 : 0;
    shift_cycles_ += shifting_ ? 1 : 0;
  }

  [[nodiscard]] std::size_t cores() const { return probes_.size(); }
  [[nodiscard]] std::uint64_t functional_cycles() const {
    return functional_cycles_;
  }
  [[nodiscard]] std::uint64_t shift_cycles() const { return shift_cycles_; }

 private:
  struct Probe {
    soc::NetlistCore* core;
    GateSim ref;
    soc::CorePortIndex ports;
  };

  void watch(soc::NetlistCore& core) {
    GateSim ref(core.synth().netlist);
    soc::CorePortIndex ports(ref, core.synth().spec);
    probes_.push_back(Probe{&core, std::move(ref), std::move(ports)});
  }

  const p1500::WscWires& wsc_;
  std::vector<Probe> probes_;
  bool mismatch_ = false;
  bool functional_ = false;
  bool shifting_ = false;
  std::uint64_t cycles_ = 0;
  std::uint64_t functional_cycles_ = 0;
  std::uint64_t shift_cycles_ = 0;
};

TEST(ShiftPlanOracle, FoutEqualsFullSweepOnEveryFunctionalCycle) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Rng rng(seed);
    soc::SocBuilder b(4);
    for (int i = 0; i < 3; ++i)
      b.add_scan_core("scan" + std::to_string(i),
                      core_spec(40 * seed + i, 1 + rng.below(3)));
    b.add_bist_core("lbist", core_spec(90 + seed, 1), 64);
    auto soc = b.build();
    FoutOracle oracle(*soc);
    soc->simulation().add(&oracle);
    soc::SocTester tester(*soc);
    const auto specs = soc::specs_of(*soc);
    const sched::Schedule schedule =
        sched::schedule_with(specs, soc->bus().width(),
                             sched::Strategy::Greedy);
    const soc::ScheduleRunReport report =
        soc::run_schedule(*soc, tester, specs, schedule, seed);
    EXPECT_TRUE(report.all_pass) << seed;
    EXPECT_EQ(oracle.cores(), 3u);
    EXPECT_GT(oracle.functional_cycles(), 0u) << seed;
    EXPECT_GT(oracle.shift_cycles(), 0u) << seed;
  }
}

TEST(ShiftPlanOracle, FoutEqualsFullSweepInHierarchicalAndExtestSessions) {
  soc::SocBuilder b(4);
  b.add_scan_core("alpha", core_spec(61, 2));
  b.add_hierarchical_core("sub", 2,
                          {{"c0", core_spec(62, 1)}, {"c1", core_spec(63, 2)}});
  b.add_scan_core("beta", core_spec(64, 1));
  b.connect("alpha", 0, "beta", 0);
  auto soc = b.build();
  FoutOracle oracle(*soc);
  soc->simulation().add(&oracle);
  soc::SocTester tester(*soc);
  Rng rng(8);
  const auto patterns = [&](const soc::NetlistCore& core) {
    return tpg::PatternSet::random(core.synth().spec.n_flipflops, 3, rng);
  };
  soc::ScanSession session;
  // Child bus wires 0,1 on top wires 0,1; alpha shifts on wires 2,3.
  session.routes.push_back(soc::HierarchyRoute{1, {0, 1}});
  session.targets.push_back(soc::ScanTarget{
      soc::CoreRef{1, 1}, {0, 1},
      patterns(soc->cores()[1].hier->children[1].as_scan())});
  session.targets.push_back(soc::ScanTarget{
      soc::CoreRef{0, std::nullopt}, {2, 3},
      patterns(soc->cores()[0].as_scan())});
  EXPECT_TRUE(tester.run_scan_session(session).all_pass());
  EXPECT_TRUE(tester.run_extest(4, 5).all_pass());
  EXPECT_EQ(oracle.cores(), 4u);
  EXPECT_GT(oracle.functional_cycles(), 0u);
  EXPECT_GT(oracle.shift_cycles(), 0u);
}

/// A stuck-at force through NetlistCore::gatesim() bypasses the shift
/// plan (any active force takes the full sweep), so a stuck chain mux
/// output or flip-flop output fails the scan test, and the diagnosis names
/// the stuck flip-flop.
TEST(ShiftPlanOracle, StuckChainNetsFailTheScanSession) {
  for (const bool on_mux : {true, false}) {
    for (const Logic4 v : {Logic4::Zero, Logic4::One}) {
      auto soc = two_core_soc();
      soc::SocTester tester(*soc);
      soc::NetlistCore& beta = soc->cores()[1].as_scan();
      const tpg::SyntheticCore& synth = beta.synth();
      const std::size_t ff = synth.chains[1][2];
      const netlist::Netlist& nl = synth.netlist;
      const NetId q = net_by_name(nl, "ff_q" + std::to_string(ff));
      NetId net = q;
      if (on_mux)
        for (const netlist::Cell& c : nl.cells())
          if (c.out == q) net = c.in[0];  // the flip-flop's D: its scan mux
      ASSERT_NE(net, netlist::kNoNet);
      beta.gatesim().set_force(net, v);

      const soc::ScanSessionResult r =
          tester.run_scan_session(two_core_session(*soc));
      const std::string what = std::string(on_mux ? "mux" : "ff_q") +
                               " stuck at " + to_char(v);
      EXPECT_EQ(r.targets[0].mismatches, 0u) << what;
      EXPECT_GT(r.targets[1].mismatches, 0u) << what;
      bool named = false;
      for (const soc::ScanDiagnosis& d : r.targets[1].diagnoses)
        named = named || d.flipflop == ff;
      EXPECT_TRUE(named) << what;
    }
  }
}

/// The cloud-net half of the stuck-at oracle: the packed fault simulator
/// grades every stuck-at fault of beta's combinational cloud against the
/// session's patterns (flip-flop next-states observed, inputs pinned to 0
/// as SocTester::golden_for pins them). Forced through beta's GateSim, a
/// detected fault must make beta's target record mismatches, and an
/// undetected one must leave it clean; alpha stays clean either way.
TEST(ShiftPlanOracle, CloudFaultsGradedByFaultSimFailTheScanSession) {
  // Cloud nets: driven by a combinational cell other than a scan mux (the
  // cell on a flip-flop's D pin). Inputs, flip-flop outputs and scan muxes
  // are left out; the test above covers the chain nets.
  const auto reference = two_core_soc();
  const netlist::Netlist& nl = reference->cores()[1].as_scan().synth().netlist;
  std::vector<bool> cloud(nl.net_count(), false);
  for (const netlist::Cell& c : nl.cells())
    if (!netlist::is_sequential(c.kind)) cloud[c.out] = true;
  for (const netlist::Cell& c : nl.cells())
    if (netlist::is_sequential(c.kind)) cloud[c.in[0]] = false;
  std::vector<netlist::StuckAtFault> faults;
  for (const netlist::StuckAtFault& f : netlist::enumerate_stuck_at_faults(nl))
    if (cloud[f.net]) faults.push_back(f);
  ASSERT_GT(faults.size(), 100u);

  netlist::FaultSim grader(nl);
  grader.set_observation(/*outputs=*/false, /*dff_next_states=*/true);
  std::vector<bool> detected(faults.size(), false);
  const tpg::PatternSet patterns =
      two_core_session(*reference).targets[1].patterns;
  for (std::size_t p = 0; p < patterns.size(); ++p) {
    for (std::size_t i = 0; i < grader.input_count(); ++i)
      grader.set_input_index(i, Logic4::Zero);
    for (std::size_t f = 0; f < grader.dff_count(); ++f)
      grader.set_dff_state(f, to_logic(patterns.at(p).get(f)));
    (void)grader.detect_all(faults, detected);
  }

  // A spread sample of each kind keeps the test to a few dozen sessions.
  constexpr std::size_t kPerKind = 12;
  std::vector<std::size_t> hit, miss;
  for (std::size_t f = 0; f < faults.size(); ++f)
    (detected[f] ? hit : miss).push_back(f);
  ASSERT_GE(hit.size(), kPerKind);
  const auto sample = [](const std::vector<std::size_t>& all) {
    std::vector<std::size_t> out;
    const std::size_t stride = std::max<std::size_t>(1, all.size() / kPerKind);
    for (std::size_t i = 0; i < all.size() && out.size() < kPerKind;
         i += stride)
      out.push_back(all[i]);
    return out;
  };

  for (const bool expect_fail : {true, false}) {
    for (const std::size_t f : sample(expect_fail ? hit : miss)) {
      auto soc = two_core_soc();
      soc::SocTester tester(*soc);
      soc->cores()[1].as_scan().gatesim().set_force(
          faults[f].net, to_logic(faults[f].stuck_one));
      const soc::ScanSessionResult r =
          tester.run_scan_session(two_core_session(*soc));
      const std::string what = "net " + std::to_string(faults[f].net) +
                               " stuck at " +
                               (faults[f].stuck_one ? "1" : "0");
      EXPECT_EQ(r.targets[0].mismatches, 0u) << what;
      if (expect_fail)
        EXPECT_GT(r.targets[1].mismatches, 0u) << what;
      else
        EXPECT_EQ(r.targets[1].mismatches, 0u) << what;
    }
  }
}

}  // namespace
}  // namespace casbus
