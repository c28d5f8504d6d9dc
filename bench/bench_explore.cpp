/// \file bench_explore.cpp
/// E1 — Scheduling at industrial scale: the paper claims CAS-BUS *scales*,
/// so this harness finally measures it. Synthetic SoC populations of 10,
/// 100, and 1000 cores (plus profile variants at 100) are scheduled with
/// the polynomial heuristics and the branch-and-bound engine; for every
/// population the artifact records test cycles, the certified optimality
/// gap, wall time, and wall time *per core* (the scalability axis), and a
/// width x strategy Pareto sweep is reported for the 100-core SoC.
///
/// Gates consumed by CI (tools/bench_gates.json, applied by
/// tools/check_bench.py in the bench-trajectory job):
///   - 10-core mixed: branch-and-bound proves optimality and matches
///     exact_schedule (gap_vs_exact == 0),
///   - 1000-core mixed: a schedule is produced within the node budget with
///     a finite certified bound_gap,
///   - parallel_bb / parallel_bb_throughput: the multi-threaded search
///     ladder must certify a 1000-core gap strictly below the
///     single-thread population row, and nodes/sec must scale with
///     threads on hosts with enough hardware (hw-aware: >= 2.5x at 8 hw
///     threads, >= 1.8x at 4, skipped below).
///
/// The parallel section exercises both halves of the engine's contract
/// (see explore/branch_bound.hpp): the *gap ladder* gives each thread
/// count T a budget of 600*T nodes — the work a fixed wall-clock slice
/// buys on a T-way search — and records the certified gap trajectory;
/// the *throughput rows* run one fixed 4800-node search at every T, which
/// deterministic mode guarantees is byte-identical, so the wall-time
/// ratio is a pure measure of engine scaling.

#include <chrono>
#include <iostream>
#include <thread>

#include "bench_util.hpp"
#include "explore/explorer.hpp"
#include "sched/exact.hpp"
#include "sched/lower_bound.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

int main() {
  using namespace casbus;
  using namespace casbus::explore;
  using casbus::bench::JsonReporter;

  bench::banner("E1", "Design-space exploration on synthetic SoCs");
  JsonReporter rep("explore");
  const SocGenerator generator(2000);

  // --- Population sweep: scaling of the scheduling engines -------------
  struct Population {
    std::size_t cores;
    SocProfile profile;
    std::size_t node_budget;
  };
  const std::vector<Population> populations = {
      {10, SocProfile::Mixed, 50000},
      {100, SocProfile::Mixed, 4000},
      {100, SocProfile::ScanHeavy, 4000},
      {100, SocProfile::BistHeavy, 4000},
      {1000, SocProfile::Mixed, 600},
  };

  Table table({"cores", "profile", "strategy", "cycles", "gap", "optimal",
               "sched s", "us/core"},
              {Align::Right, Align::Left, Align::Left, Align::Right,
               Align::Right, Align::Right, Align::Right, Align::Right});

  for (const Population& pop : populations) {
    const GeneratedSoc soc = generator.generate(pop.cores, pop.profile);
    const sched::SessionScheduler scheduler(soc.cores,
                                            soc.suggested_width);
    const std::uint64_t global_lb = sched::schedule_lower_bound(
        soc.cores, soc.suggested_width, scheduler.reconfig_cost());

    const JsonReporter::Params base = {
        {"cores", std::to_string(pop.cores)},
        {"profile", profile_name(pop.profile)},
        {"width", std::to_string(soc.suggested_width)}};

    // Polynomial heuristics.
    for (const sched::Strategy strategy :
         {sched::Strategy::Greedy, sched::Strategy::Phased}) {
      const auto start = std::chrono::steady_clock::now();
      const std::uint64_t cycles =
          scheduler.schedule_with(strategy).total_cycles;
      const double secs = seconds_since(start);
      const double gap =
          static_cast<double>(cycles) / static_cast<double>(global_lb) -
          1.0;
      JsonReporter::Params params = base;
      params.emplace_back("strategy", sched::strategy_name(strategy));
      rep.record("population", params, "cycles", cycles);
      rep.record("population", params, "bound_gap", gap);
      rep.record("population", params, "schedule_seconds", secs);
      rep.record("population", params, "seconds_per_core",
                 secs / static_cast<double>(pop.cores));
      table.add_row({std::to_string(pop.cores),
                     profile_name(pop.profile),
                     sched::strategy_name(strategy),
                     std::to_string(cycles),
                     format_double(100.0 * gap, 2) + "%", "-",
                     format_double(secs, 3),
                     format_double(1e6 * secs / pop.cores, 1)});
    }

    // Branch and bound.
    BranchBoundConfig config;
    config.node_budget = pop.node_budget;
    const auto start = std::chrono::steady_clock::now();
    const BranchBoundResult bb =
        BranchBoundScheduler(scheduler, config).run();
    const double secs = seconds_since(start);

    JsonReporter::Params params = base;
    params.emplace_back("strategy", "branch_bound");
    rep.record("population", params, "cycles", bb.best_cost);
    rep.record("population", params, "lower_bound", bb.lower_bound);
    rep.record("population", params, "bound_gap", bb.gap());
    rep.record("population", params, "optimal",
               std::uint64_t{bb.optimal ? 1u : 0u});
    rep.record("population", params, "nodes_expanded", bb.nodes_expanded);
    rep.record("population", params, "schedule_seconds", secs);
    rep.record("population", params, "seconds_per_core",
               secs / static_cast<double>(pop.cores));
    table.add_row({std::to_string(pop.cores), profile_name(pop.profile),
                   "branch_bound", std::to_string(bb.best_cost),
                   format_double(100.0 * bb.gap(), 2) + "%",
                   bb.optimal ? "yes" : "-", format_double(secs, 3),
                   format_double(1e6 * secs / pop.cores, 1)});

    // Ground truth on the paper-sized SoC: B&B must match exact_schedule.
    if (pop.cores <= 10 && pop.profile == SocProfile::Mixed) {
      const sched::ExactResult exact = sched::exact_schedule(scheduler);
      const double vs_exact =
          static_cast<double>(bb.best_cost) /
              static_cast<double>(exact.schedule.total_cycles) -
          1.0;
      rep.record("population", params, "gap_vs_exact", vs_exact);
      rep.record("population", params, "exact_heuristic_gap",
                 exact.heuristic_gap);
      std::cout << "10-core ground truth: B&B " << bb.best_cost
                << " cycles vs exact "
                << exact.schedule.total_cycles << " (gap "
                << format_double(100.0 * vs_exact, 4) << "%)\n";
    }
  }
  table.print(std::cout);

  // --- Parallel branch and bound on the 1000-core mixed SoC -------------
  {
    const GeneratedSoc big = generator.generate(1000, SocProfile::Mixed);
    const sched::SessionScheduler scheduler(big.cores, big.suggested_width);
    const unsigned hw = std::thread::hardware_concurrency();
    const std::vector<std::size_t> thread_counts = {1, 2, 4, 8};

    std::cout << "\nParallel B&B (1000-core mixed SoC, " << hw
              << " hardware threads):\n\n";
    Table ladder({"sched_threads", "node budget", "cycles", "gap",
                  "nodes/s", "balances", "memo hits", "sched s"},
                 {Align::Right, Align::Right, Align::Right, Align::Right,
                  Align::Right, Align::Right, Align::Right, Align::Right});

    // Gap ladder: budget 600*T — the node count a fixed wall-clock slice
    // buys on a T-way frontier — with a dense dive discipline (one greedy
    // completion every 8 expansions) so the incumbent keeps pace with the
    // growing tree. The certified gap must only ever move down the ladder
    // relative to the single-thread population row above.
    for (const std::size_t threads : thread_counts) {
      BranchBoundConfig config;
      config.node_budget = 600 * threads;
      config.dive_interval = 8;
      config.max_dives = config.node_budget / 8;
      config.threads = threads;
      const auto start = std::chrono::steady_clock::now();
      const BranchBoundResult bb =
          BranchBoundScheduler(scheduler, config).run();
      const double secs = seconds_since(start);
      const double nodes_per_sec =
          secs > 0.0 ? static_cast<double>(bb.nodes_expanded) / secs : 0.0;

      const JsonReporter::Params params = {
          {"cores", "1000"},
          {"profile", "mixed"},
          {"width", std::to_string(big.suggested_width)},
          {"sched_threads", std::to_string(threads)}};
      rep.record("parallel_bb", params, "cycles", bb.best_cost);
      rep.record("parallel_bb", params, "lower_bound", bb.lower_bound);
      rep.record("parallel_bb", params, "bound_gap", bb.gap());
      rep.record("parallel_bb", params, "nodes_expanded", bb.nodes_expanded);
      rep.record("parallel_bb", params, "dives", bb.dives);
      rep.record("parallel_bb", params, "balances", bb.balances);
      rep.record("parallel_bb", params, "term_memo_hits", bb.term_memo_hits);
      rep.record("parallel_bb", params, "schedule_seconds", secs);
      rep.record("parallel_bb", params, "nodes_per_sec", nodes_per_sec);
      ladder.add_row({std::to_string(threads),
                      std::to_string(config.node_budget),
                      std::to_string(bb.best_cost),
                      format_double(100.0 * bb.gap(), 2) + "%",
                      format_double(nodes_per_sec, 0),
                      std::to_string(bb.balances),
                      std::to_string(bb.term_memo_hits),
                      format_double(secs, 3)});
    }
    ladder.print(std::cout);

    // Fixed-work throughput: the same 4800-node search at every thread
    // count. Deterministic mode pins the incumbent and certified bound
    // byte-identical across the sweep (recorded as deterministic_match),
    // so wall time is the only thing allowed to change — nodes/sec
    // speedup vs the 1-thread run is the engine-scaling number the
    // hw-aware CI gate consumes (alongside hw_threads, because hosted
    // runners differ).
    std::cout << "\nFixed-work scaling (4800-node search):\n\n";
    Table scaling({"sched_threads", "nodes/s", "speedup", "identical"},
                  {Align::Right, Align::Right, Align::Right, Align::Right});
    double base_nodes_per_sec = 0.0;
    std::uint64_t base_cost = 0;
    std::uint64_t base_lb = 0;
    for (const std::size_t threads : thread_counts) {
      BranchBoundConfig config;
      config.node_budget = 4800;
      config.dive_interval = 8;
      config.max_dives = config.node_budget / 8;
      config.threads = threads;
      const auto start = std::chrono::steady_clock::now();
      const BranchBoundResult bb =
          BranchBoundScheduler(scheduler, config).run();
      const double secs = seconds_since(start);
      const double nodes_per_sec =
          secs > 0.0 ? static_cast<double>(bb.nodes_expanded) / secs : 0.0;
      if (threads == 1) {
        base_nodes_per_sec = nodes_per_sec;
        base_cost = bb.best_cost;
        base_lb = bb.lower_bound;
      }
      const bool identical =
          bb.best_cost == base_cost && bb.lower_bound == base_lb;
      const double speedup = base_nodes_per_sec > 0.0
                                 ? nodes_per_sec / base_nodes_per_sec
                                 : 0.0;

      const JsonReporter::Params params = {
          {"cores", "1000"},
          {"profile", "mixed"},
          {"width", std::to_string(big.suggested_width)},
          {"sched_threads", std::to_string(threads)}};
      rep.record("parallel_bb_throughput", params, "nodes_per_sec",
                 nodes_per_sec);
      rep.record("parallel_bb_throughput", params, "schedule_seconds", secs);
      rep.record("parallel_bb_throughput", params, "speedup_vs_1_thread",
                 speedup);
      rep.record("parallel_bb_throughput", params, "hw_threads",
                 std::uint64_t{hw});
      rep.record("parallel_bb_throughput", params, "deterministic_match",
                 std::uint64_t{identical ? 1u : 0u});
      scaling.add_row({std::to_string(threads),
                       format_double(nodes_per_sec, 0),
                       format_double(speedup, 2) + "x",
                       identical ? "yes" : "NO"});
    }
    scaling.print(std::cout);
  }

  // --- Width x strategy Pareto sweep on the 100-core mixed SoC ----------
  std::cout << "\nPareto sweep (100-core mixed SoC):\n\n";
  const GeneratedSoc soc = generator.generate(100, SocProfile::Mixed);
  const DesignSpaceExplorer explorer(soc);
  ExploreConfig config;
  config.widths = {8, 12, 16, 24, 32};
  config.strategies = {sched::Strategy::Greedy, sched::Strategy::Phased,
                       sched::Strategy::BranchBound};
  config.branch_bound.node_budget = 2000;
  const ExploreReport report = explorer.sweep(config);

  Table pareto({"width", "strategy", "cycles", "gap", "area (GE)",
                "pareto"},
               {Align::Right, Align::Left, Align::Right, Align::Right,
                Align::Right, Align::Right});
  for (const ExplorePoint& p : report.points) {
    pareto.add_row({std::to_string(p.width),
                    sched::strategy_name(p.strategy),
                    std::to_string(p.test_cycles),
                    format_double(100.0 * p.gap, 2) + "%",
                    format_double(p.bus_area_ge, 0),
                    p.pareto ? "*" : ""});
    const JsonReporter::Params params = {
        {"cores", "100"},
        {"profile", "mixed"},
        {"width", std::to_string(p.width)},
        {"strategy", sched::strategy_name(p.strategy)}};
    rep.record("pareto", params, "cycles", p.test_cycles);
    rep.record("pareto", params, "bus_area_ge", p.bus_area_ge);
    rep.record("pareto", params, "gap", p.gap);
    rep.record("pareto", params, "pareto",
               std::uint64_t{p.pareto ? 1u : 0u});
  }
  pareto.print(std::cout);

  std::cout << "\nThe sweep is the paper's §3.2 trade-off at industrial"
               " scale: widening the bus keeps buying test time until the"
               " schedule is bound-limited, while CAS area grows"
               " super-linearly — the Pareto frontier picks the width a"
               " test integrator would actually ship.\n";
  return 0;
}
