/// \file bench_perf.cpp
/// Experiment P1 — engineering microbenchmarks (google-benchmark): the
/// throughputs that bound how large a SoC the cycle-accurate path can
/// handle, plus generator/optimizer costs.

#include <benchmark/benchmark.h>

#include <map>
#include <memory>
#include <thread>

#include "bench_util.hpp"
#include "core/cas_generator.hpp"
#include "core/config_protocol.hpp"
#include "core/test_bus.hpp"
#include "explore/branch_bound.hpp"
#include "explore/explorer.hpp"
#include "explore/soc_generator.hpp"
#include "netlist/faultsim.hpp"
#include "netlist/gatesim.hpp"
#include "netlist/opt.hpp"
#include "netlist/packed_gatesim.hpp"
#include "p1500/wrapper.hpp"
#include "sched/balance.hpp"
#include "sched/scheduler.hpp"
#include "serial_fault_sim.hpp"
#include "sim/simulation.hpp"
#include "soc/core_model.hpp"
#include "tpg/fault.hpp"
#include "tpg/lfsr.hpp"
#include "tpg/synthcore.hpp"
#include "util/rng.hpp"

namespace {

using namespace casbus;

/// Cycle-level kernel: a chain of CASes settling + ticking.
void BM_KernelCasChain(benchmark::State& state) {
  const auto n_cas = static_cast<std::size_t>(state.range(0));
  sim::Simulation sim;
  tam::CasBusChain chain(sim, 8, "bus");
  for (std::size_t i = 0; i < n_cas; ++i)
    chain.add_cas("c" + std::to_string(i), 2);
  sim.reset();
  chain.head().set_all(Logic4::Zero);
  for (std::size_t i = 0; i < n_cas; ++i) chain.cas_i(i).set_uint(0);

  std::uint64_t x = 0;
  for (auto _ : state) {
    chain.head().set_uint(x++ & 0xFF);
    sim.step();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n_cas));
}
BENCHMARK(BM_KernelCasChain)->Arg(4)->Arg(16)->Arg(64);

/// Gate-level simulation of a generated CAS.
void BM_GateSimCas(benchmark::State& state) {
  const auto n = static_cast<unsigned>(state.range(0));
  const tam::GeneratedCas gen = tam::generate_cas(
      n, n / 2, {tam::CasImplementation::OptimizedGateLevel, true});
  netlist::GateSim sim(gen.netlist);
  sim.reset();
  Rng rng(1);
  for (auto _ : state) {
    for (unsigned w = 0; w < n; ++w)
      sim.set_input("e" + std::to_string(w), rng.coin());
    sim.eval();
    sim.tick();
    benchmark::DoNotOptimize(sim.output("s0"));
  }
  state.counters["cells"] =
      static_cast<double>(gen.netlist.cell_count());
}
BENCHMARK(BM_GateSimCas)->Arg(4)->Arg(8)->Arg(16);

/// The synthetic core shared by the scalar/packed simulation benchmarks,
/// so their patterns/sec counters are directly comparable. Cached per gate
/// count: google-benchmark re-invokes the benchmark body once per
/// measurement repetition, and regenerating the core every repetition
/// would dominate setup time (the bench driver is single-threaded, so the
/// static cache needs no locking).
const tpg::SyntheticCore& simcore_for(std::int64_t n_gates) {
  static std::map<std::int64_t, tpg::SyntheticCore> cache;
  auto it = cache.find(n_gates);
  if (it == cache.end()) {
    tpg::SyntheticCoreSpec spec;
    spec.n_inputs = 16;
    spec.n_outputs = 16;
    spec.n_flipflops = 64;
    spec.n_gates = static_cast<std::size_t>(n_gates);
    spec.n_chains = 4;
    it = cache.emplace(n_gates, tpg::make_synthetic_core(spec)).first;
  }
  return it->second;
}

/// Shared levelization of simcore_for(n_gates), computed once per gate
/// count instead of once per repetition.
const std::shared_ptr<const netlist::LevelizedNetlist>& simcore_lev(
    std::int64_t n_gates) {
  static std::map<std::int64_t,
                  std::shared_ptr<const netlist::LevelizedNetlist>>
      cache;
  auto it = cache.find(n_gates);
  if (it == cache.end())
    it = cache
             .emplace(n_gates,
                      netlist::levelize(simcore_for(n_gates).netlist))
             .first;
  return it->second;
}

/// Gate-level simulation of a synthetic core: one pattern per eval pass.
void BM_GateSimCore(benchmark::State& state) {
  const tpg::SyntheticCore& core = simcore_for(state.range(0));
  netlist::GateSim sim(core.netlist);
  sim.reset();
  Rng rng(2);
  for (auto _ : state) {
    for (std::size_t i = 0; i < core.spec.n_inputs; ++i)
      sim.set_input("pi" + std::to_string(i), rng.coin());
    sim.set_input("scan_en", false);
    for (std::size_t c = 0; c < core.spec.n_chains; ++c)
      sim.set_input("si" + std::to_string(c), false);
    sim.eval();
    sim.tick();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
  state.counters["patterns_per_sec"] =
      benchmark::Counter(1.0, benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_GateSimCore)->Arg(256)->Arg(1024)->Arg(4096);

/// The Simulate stage's inner loop in miniature: a gate-level NetlistCore
/// behind its P1500 wrapper in IntestParallel, shifting random scan data
/// in from the wrapper's parallel inputs on every clock. One iteration is
/// one Simulation::step (settle over wrapper and core, then tick), so
/// sim_cycles_per_sec is the behavioural kernel's clock rate, dominated
/// by the core's gate sweeps; sweeps_per_cycle records how many it took
/// and cells_per_cycle how many cells they evaluated (under scan_en the
/// core's shift plan: one scan mux per flip-flop, not the whole cloud).
/// The wrapper is registered first, in data-flow order, so the new scan
/// bits and the captured state reach the core in the same delta pass and
/// a lazy GateSim settles both with one sweep per clock. A simulator that
/// also swept right after capture would pay two.
void BM_NetlistCoreShift(benchmark::State& state) {
  sim::Simulation sim;
  soc::NetlistCore core(sim, "core", simcore_for(state.range(0)));
  const soc::CoreTerminals& t = core.terminals();

  p1500::FunctionalPorts func;
  func.core_in = t.func_in;
  func.core_out = t.func_out;
  for (std::size_t i = 0; i < t.func_in.size(); ++i)
    func.sys_in.push_back(&sim.wire("sysin" + std::to_string(i),
                                    Logic4::Zero));
  for (std::size_t o = 0; o < t.func_out.size(); ++o)
    func.sys_out.push_back(&sim.wire("sysout" + std::to_string(o),
                                     Logic4::Zero));
  p1500::CoreTestPorts test_ports;
  test_ports.scan_en = t.scan_en;
  test_ports.core_clk_en = t.core_clk_en;
  test_ports.scan_in = t.scan_in;
  test_ports.scan_out = t.scan_out;
  test_ports.chain_lengths = t.chain_lengths;
  p1500::TamPorts tam_ports;
  tam_ports.wsi = &sim.wire("wsi", Logic4::Zero);
  tam_ports.wso = &sim.wire("wso", Logic4::Zero);
  for (std::size_t c = 0; c < t.scan_in.size(); ++c) {
    tam_ports.wpi.push_back(&sim.wire("wpi" + std::to_string(c),
                                      Logic4::Zero));
    tam_ports.wpo.push_back(&sim.wire("wpo" + std::to_string(c),
                                      Logic4::Zero));
  }
  p1500::WscWires wsc{&sim.wire("select_wir", Logic4::Zero),
                      &sim.wire("shift_wr", Logic4::Zero),
                      &sim.wire("capture_wr", Logic4::Zero),
                      &sim.wire("update_wr", Logic4::Zero)};
  const std::vector<sim::Wire*> wpi = tam_ports.wpi;
  p1500::Wrapper wrapper(sim, "wrap", std::move(func), std::move(test_ports),
                         tam_ports, wsc);
  sim.add(&wrapper);
  sim.add(&core);
  sim.reset();

  // Load IntestParallel into the WIR over the serial path.
  const BitVector wir = tam::build_config_stream({tam::ConfigEntry{
      p1500::kWirBits,
      static_cast<std::uint64_t>(p1500::WrapperInstr::IntestParallel)}});
  wsc.select_wir->set(true);
  wsc.shift_wr->set(true);
  for (std::size_t b = 0; b < wir.size(); ++b) {
    tam_ports.wsi->set(wir.get(b));
    sim.step();
  }
  wsc.shift_wr->set(false);
  wsc.update_wr->set(true);
  sim.step();
  wsc.update_wr->set(false);
  wsc.select_wir->set(false);
  wsc.shift_wr->set(true);  // shift from here on

  Rng rng(3);
  const std::uint64_t sweeps0 = core.gatesim().sweeps();
  const std::uint64_t cells0 = core.gatesim().cell_evals();
  for (auto _ : state) {
    for (sim::Wire* w : wpi) w->set(rng.coin());
    sim.step();
  }
  const auto per_cycle = [&state](std::uint64_t n) {
    return static_cast<double>(n) / static_cast<double>(state.iterations());
  };
  state.counters["sim_cycles_per_sec"] =
      benchmark::Counter(1.0, benchmark::Counter::kIsIterationInvariantRate);
  state.counters["sweeps_per_cycle"] =
      per_cycle(core.gatesim().sweeps() - sweeps0);
  state.counters["cells_per_cycle"] =
      per_cycle(core.gatesim().cell_evals() - cells0);
}
BENCHMARK(BM_NetlistCoreShift)->Arg(256)->Arg(1024);

/// 64-wide bit-parallel simulation of the same core: 64 patterns per pass.
/// patterns_per_sec here / patterns_per_sec of BM_GateSimCore at the same
/// gate count is the word-level speedup (acceptance target: >= 10x).
void BM_PackedGateSim(benchmark::State& state) {
  const tpg::SyntheticCore& core = simcore_for(state.range(0));
  netlist::PackedGateSim sim(simcore_lev(state.range(0)));
  sim.reset();
  Rng rng(2);
  for (auto _ : state) {
    for (std::size_t i = 0; i < core.spec.n_inputs; ++i) {
      // 64 random driven lanes per input: plane p1 = random, p0 = ~p1.
      const std::uint64_t ones = rng.next();
      sim.set_input_index(i, Logic64{~ones, ones});
    }
    sim.set_input("scan_en", Logic4::Zero);
    for (std::size_t c = 0; c < core.spec.n_chains; ++c)
      sim.set_input("si" + std::to_string(c), Logic4::Zero);
    sim.eval();
    sim.tick();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0) * 64);
  state.counters["patterns_per_sec"] =
      benchmark::Counter(64.0, benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_PackedGateSim)->Arg(256)->Arg(1024)->Arg(4096);

/// The core graded by every fault-simulation benchmark, cached like
/// simcore_for so repetitions share one generation + levelization.
const tpg::SyntheticCore& faultcore_for(std::int64_t n_gates) {
  static std::map<std::int64_t, tpg::SyntheticCore> cache;
  auto it = cache.find(n_gates);
  if (it == cache.end()) {
    tpg::SyntheticCoreSpec spec;
    spec.n_inputs = 8;
    spec.n_outputs = 8;
    spec.n_flipflops = 16;
    spec.n_gates = static_cast<std::size_t>(n_gates);
    it = cache.emplace(n_gates, tpg::make_synthetic_core(spec)).first;
  }
  return it->second;
}

const std::shared_ptr<const netlist::LevelizedNetlist>& faultcore_lev(
    std::int64_t n_gates) {
  static std::map<std::int64_t,
                  std::shared_ptr<const netlist::LevelizedNetlist>>
      cache;
  auto it = cache.find(n_gates);
  if (it == cache.end())
    it = cache
             .emplace(n_gates,
                      netlist::levelize(faultcore_for(n_gates).netlist))
             .first;
  return it->second;
}

/// Serial stuck-at fault simulation (pattern x fault grid), one faulty
/// machine per eval pass — the test-only reference in
/// tests/serial_fault_sim.hpp, kept as the pre-packed baseline.
void BM_FaultSim(benchmark::State& state) {
  const tpg::SyntheticCore& core = faultcore_for(state.range(0));
  testref::SerialFaultSimulator ref(faultcore_lev(state.range(0)));
  const auto faults = tpg::enumerate_faults(core.netlist);
  Rng rng(3);
  const auto patterns =
      tpg::PatternSet::random(ref.pattern_width(), 8, rng);
  for (auto _ : state) {
    const auto report = ref.run(patterns, faults);
    benchmark::DoNotOptimize(report.detected);
  }
  state.counters["faults"] = static_cast<double>(faults.size());
}
BENCHMARK(BM_FaultSim)->Arg(64)->Arg(256);

/// Bit-parallel stuck-at fault simulation: 64 faults per machine word,
/// same pattern x fault grid as BM_FaultSim.
void BM_FaultSim64(benchmark::State& state) {
  const tpg::SyntheticCore& core = faultcore_for(state.range(0));
  tpg::FaultSimulator fsim(faultcore_lev(state.range(0)));
  const auto faults = tpg::enumerate_faults(core.netlist);
  Rng rng(3);
  const auto patterns =
      tpg::PatternSet::random(fsim.pattern_width(), 8, rng);
  for (auto _ : state) {
    const auto report = fsim.run(patterns, faults);
    benchmark::DoNotOptimize(report.detected);
  }
  state.counters["faults"] = static_cast<double>(faults.size());
}
BENCHMARK(BM_FaultSim64)->Arg(64)->Arg(256);

/// Threaded fault campaign on a campaign-sized grid (1024 gates, ~3k
/// faults, 32 patterns), sharded across range(0) worker threads
/// (run_fault_campaign). The detection maps are byte-identical at every
/// thread count; speedup at 4 threads over 1 is the campaign-level
/// scaling (acceptance target: >= 2.5x on >= 4 physical cores — see
/// docs/BENCHMARKS.md and tools/bench_gates.json).
void BM_FaultSimThreaded(benchmark::State& state) {
  const std::int64_t n_gates = 1024;
  const tpg::SyntheticCore& core = faultcore_for(n_gates);
  tpg::FaultSimulator fsim(faultcore_lev(n_gates));
  const auto faults = tpg::enumerate_faults(core.netlist);
  Rng rng(3);
  const auto patterns =
      tpg::PatternSet::random(fsim.pattern_width(), 32, rng);
  const auto threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    const auto report = fsim.run(patterns, faults, threads);
    benchmark::DoNotOptimize(report.detected);
  }
  state.counters["faults"] = static_cast<double>(faults.size());
  state.counters["threads"] = static_cast<double>(threads);
  // Scaling is only observable on multi-core hosts; the CI gate keys off
  // this counter and skips the speedup check on smaller machines.
  state.counters["hw_threads"] =
      static_cast<double>(std::thread::hardware_concurrency());
}
BENCHMARK(BM_FaultSimThreaded)->Arg(1)->Arg(2)->Arg(4);

/// CAS generation + optimization cost.
void BM_GenerateCas(benchmark::State& state) {
  const auto n = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    const auto gen = tam::generate_cas(
        n, n / 2, {tam::CasImplementation::OptimizedGateLevel, true});
    benchmark::DoNotOptimize(gen.netlist.cell_count());
  }
}
BENCHMARK(BM_GenerateCas)->Arg(4)->Arg(8)->Arg(16);

/// Logic optimizer on a midsize random netlist.
void BM_Optimize(benchmark::State& state) {
  tpg::SyntheticCoreSpec spec;
  spec.n_gates = static_cast<std::size_t>(state.range(0));
  spec.n_flipflops = 32;
  const tpg::SyntheticCore core = tpg::make_synthetic_core(spec);
  for (auto _ : state) {
    const auto opt = netlist::optimize(core.netlist);
    benchmark::DoNotOptimize(opt.cell_count());
  }
}
BENCHMARK(BM_Optimize)->Arg(512)->Arg(2048);

/// LFSR / MISR stepping.
void BM_LfsrMisr(benchmark::State& state) {
  tpg::Lfsr lfsr = tpg::Lfsr::standard(32, 0xDEAD);
  tpg::Misr misr(32);
  for (auto _ : state) {
    misr.feed_word(lfsr.step_word());
    benchmark::DoNotOptimize(misr.signature());
  }
}
BENCHMARK(BM_LfsrMisr);

/// Scheduler on the reference SoC.
void BM_Scheduler(benchmark::State& state) {
  std::vector<sched::CoreTestSpec> cores;
  Rng rng(4);
  for (int i = 0; i < 20; ++i) {
    sched::CoreTestSpec c;
    c.name = "c" + std::to_string(i);
    for (int k = 0; k < 4; ++k) c.chains.push_back(20 + rng.below(200));
    c.patterns = 50 + rng.below(400);
    cores.push_back(std::move(c));
  }
  for (auto _ : state) {
    sched::SessionScheduler s(cores, 8);
    benchmark::DoNotOptimize(s.greedy().total_cycles);
  }
}
BENCHMARK(BM_Scheduler);

/// Greedy session scheduling at explorer scale: the 1000-core mixed SoC
/// (SocGenerator seed 1) on a 32-wire bus. Generation is hoisted out of
/// the loop, so an iteration is one SessionScheduler build plus greedy().
/// The counters are greedy's scan-phase effort (sched::ScheduleStats).
void BM_GreedySchedule(benchmark::State& state) {
  const explore::GeneratedSoc soc =
      explore::SocGenerator(1).generate(1000, explore::SocProfile::Mixed);
  sched::ScheduleStats stats;
  for (auto _ : state) {
    sched::SessionScheduler s(soc.cores, 32);
    benchmark::DoNotOptimize(s.greedy(&stats).total_cycles);
  }
  state.counters["probes"] = static_cast<double>(stats.nodes_expanded);
  state.counters["prunes"] = static_cast<double>(stats.prunes);
  state.counters["balances"] = static_cast<double>(stats.balances);
}
BENCHMARK(BM_GreedySchedule);

/// Phased session scheduling at explorer scale: the scan cores of the
/// 1000-core mixed SoC (SocGenerator seed 1) on a 32-wire bus. phased()
/// cuts each phase's chain set out of the previous one and places it, so
/// an iteration is ~490 placements of 2438 down to a few chains and little
/// else. The BIST cores are left out: with them phased() parks 31 engines
/// on the bus and places every phase on the one wire left, where placement
/// is trivial. Generation and the SessionScheduler build are hoisted out
/// of the loop.
void BM_PhasedSchedule1000(benchmark::State& state) {
  const explore::GeneratedSoc soc =
      explore::SocGenerator(1).generate(1000, explore::SocProfile::Mixed);
  std::vector<sched::CoreTestSpec> scan;
  for (const sched::CoreTestSpec& c : soc.cores)
    if (c.is_scan() && c.bist_cycles == 0) scan.push_back(c);
  const sched::SessionScheduler s(scan, 32);
  for (auto _ : state) benchmark::DoNotOptimize(s.phased().total_cycles);
  state.counters["sessions"] = static_cast<double>(s.phased().sessions.size());
}
BENCHMARK(BM_PhasedSchedule1000);

/// Branch and bound at explorer scale: the 1000-core bist_heavy SoC
/// (SocGenerator seed 1) on a 64-wire bus, default budget, one thread —
/// the sweep point whose seed, dives and BIST slotting balance most.
/// Generation is hoisted out of the loop. The counters are the search's
/// balances and the scan terms its memo answered.
void BM_BranchBound1000(benchmark::State& state) {
  const explore::GeneratedSoc soc =
      explore::SocGenerator(1).generate(1000, explore::SocProfile::BistHeavy);
  const sched::SessionScheduler s(soc.cores, 64);
  explore::BranchBoundConfig config;
  config.threads = 1;
  explore::BranchBoundResult result;
  for (auto _ : state) {
    result = explore::BranchBoundScheduler(s, config).run();
    benchmark::DoNotOptimize(result.best_cost);
  }
  state.counters["balances"] = static_cast<double>(result.balances);
  state.counters["memo_hits"] = static_cast<double>(result.term_memo_hits);
}
BENCHMARK(BM_BranchBound1000);

/// One warm design-space sweep of the 1000-core mixed SoC (SocGenerator
/// seed 1): default widths and strategies, so greedy, phased and branch
/// and bound at three widths plus the bus areas. Generation is hoisted
/// out of the loop; the first iteration warms the process-wide CAS-area
/// memo, so the measured sweeps synthesize nothing.
void BM_ExploreSweep1000(benchmark::State& state) {
  const explore::DesignSpaceExplorer explorer(
      explore::SocGenerator(1).generate(1000, explore::SocProfile::Mixed));
  benchmark::DoNotOptimize(explorer.sweep().points.size());
  for (auto _ : state)
    benchmark::DoNotOptimize(explorer.sweep().points.size());
}
BENCHMARK(BM_ExploreSweep1000);

/// One grouped chain balance (LPT pass; the polish stops at 96 items) of
/// every scan chain of the 1000-core mixed SoC on a 32-wire bus — the
/// kernel every scheduling strategy prices sessions with.
void BM_GroupedBalance(benchmark::State& state) {
  const explore::GeneratedSoc soc =
      explore::SocGenerator(1).generate(1000, explore::SocProfile::Mixed);
  std::vector<sched::ChainItem> items;
  for (std::size_t c = 0; c < soc.cores.size(); ++c)
    for (std::size_t ch = 0; ch < soc.cores[c].chains.size(); ++ch)
      items.push_back(sched::ChainItem{c, ch, soc.cores[c].chains[ch]});
  for (auto _ : state)
    benchmark::DoNotOptimize(
        sched::assign_lpt_grouped_refined(items, 32).max_load());
  state.counters["items"] = static_cast<double>(items.size());
}
BENCHMARK(BM_GroupedBalance);

/// Console reporter that additionally forwards every run into the shared
/// JsonReporter, so bench_perf emits the same BENCH_<name>.json artifact
/// as the plain experiment harnesses.
class JsonForwardingReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonForwardingReporter(casbus::bench::JsonReporter& json)
      : json_(json) {}

  void ReportRuns(const std::vector<Run>& reports) override {
    benchmark::ConsoleReporter::ReportRuns(reports);
    for (const Run& run : reports) {
      // Aggregate rows (mean/median/stddev/cv under --benchmark_repetitions)
      // have iterations == 0 and mixed units; record only measured runs.
      if (run.run_type != Run::RT_Iteration) continue;
      const casbus::bench::JsonReporter::Params params = {
          {"iterations", std::to_string(run.iterations)}};
      json_.record(run.benchmark_name(), params, "real_time_ns_per_iter",
                   run.GetAdjustedRealTime());
      json_.record(run.benchmark_name(), params, "cpu_time_ns_per_iter",
                   run.GetAdjustedCPUTime());
      for (const auto& [counter_name, counter] : run.counters)
        json_.record(run.benchmark_name(), params,
                     "counter_" + counter_name,
                     static_cast<double>(counter.value));
    }
  }

 private:
  casbus::bench::JsonReporter& json_;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  casbus::bench::JsonReporter json("perf");
  JsonForwardingReporter reporter(json);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return 0;
}
