// The parallel branch-and-bound engine: byte-identical results at any
// thread count in deterministic mode, optimality against exact_schedule
// across every generator profile, admissibility of the partition-model
// bounds (session floor, overflow floor, BIST chunk bound) against an
// exhaustive partition enumeration, and lint-clean parallel schedules.
// Also the explorer's process-wide CAS-area memo, which concurrent sweeps
// share, and the chain balancer's per-thread placement scratch, which
// concurrent schedulers and B&B workers use at once.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>
#include <vector>

#include "core/arrangement.hpp"
#include "core/cas_generator.hpp"
#include "explore/branch_bound.hpp"
#include "explore/explorer.hpp"
#include "explore/soc_generator.hpp"
#include "netlist/area.hpp"
#include "sched/balance.hpp"
#include "sched/exact.hpp"
#include "sched/lower_bound.hpp"
#include "sched/scheduler.hpp"
#include "util/rng.hpp"
#include "verify/schedule_lint.hpp"

namespace casbus::explore {
namespace {

sched::CoreTestSpec scan_core(std::string name, std::size_t chains,
                              std::size_t longest, std::size_t patterns) {
  sched::CoreTestSpec c;
  c.name = std::move(name);
  c.chains.assign(chains, longest);
  c.patterns = patterns;
  return c;
}

sched::CoreTestSpec bist_core(std::string name, std::uint64_t cycles) {
  sched::CoreTestSpec c;
  c.name = std::move(name);
  c.bist_cycles = cycles;
  return c;
}

/// All counters and certificate fields that deterministic mode pins.
struct Fingerprint {
  std::uint64_t best_cost, lower_bound;
  std::uint64_t nodes, leaves, dives, prunes, improvements, rebalances;
  std::uint64_t balances, term_memo_hits;
  bool optimal;
  std::vector<std::uint64_t> session_cycles;

  static Fingerprint of(const BranchBoundResult& r) {
    Fingerprint f{r.best_cost,     r.lower_bound,
                  r.nodes_expanded, r.leaves_priced,
                  r.dives,          r.prunes,
                  r.incumbent_improvements, r.rebalances,
                  r.balances,       r.term_memo_hits,
                  r.optimal,        {}};
    for (const sched::ScheduledSession& s : r.schedule.sessions)
      f.session_cycles.push_back(s.total_cycles());
    return f;
  }

  bool operator==(const Fingerprint&) const = default;
};

// In deterministic mode the shard structure, round schedule, dive points
// and merge order are all independent of the thread count, so *every*
// observable — incumbent schedule, certificate, and all counters, the
// balance and scan-term memo counts included — must be byte-identical from
// 1 thread to an oversubscribed 8.
TEST(ParallelBB, DeterministicAcrossThreadCounts) {
  const SocGenerator gen(17);
  for (const std::size_t cores : {30, 60}) {
    const GeneratedSoc soc = gen.generate(cores, SocProfile::Mixed);
    const sched::SessionScheduler s(soc.cores, soc.suggested_width);
    BranchBoundConfig config;
    config.node_budget = 3000;
    config.dive_interval = 64;
    config.max_dives = 32;
    config.threads = 1;
    const Fingerprint base =
        Fingerprint::of(BranchBoundScheduler(s, config).run());
    // Dives reprice groups earlier dives priced: the memo answers some.
    EXPECT_GT(base.balances, 0u) << cores << " cores";
    EXPECT_GT(base.term_memo_hits, 0u) << cores << " cores";
    for (const std::size_t threads : {2, 3, 8}) {
      config.threads = threads;
      const Fingerprint fp =
          Fingerprint::of(BranchBoundScheduler(s, config).run());
      EXPECT_TRUE(fp == base)
          << cores << " cores at " << threads << " threads: best "
          << fp.best_cost << " vs " << base.best_cost << ", lb "
          << fp.lower_bound << " vs " << base.lower_bound << ", nodes "
          << fp.nodes << " vs " << base.nodes;
    }
  }
}

// Ground truth: on paper-sized instances the parallel search must exhaust
// the space and land exactly on the exhaustive optimum, whatever the
// profile shape (scan-heavy stresses the partition tree, BIST-heavy the
// slot accounting, hierarchical the clustered clones).
TEST(ParallelBB, MatchesExactAcrossProfilesAndThreads) {
  for (std::size_t p = 0; p < kProfileCount; ++p) {
    const auto profile = static_cast<SocProfile>(p);
    const GeneratedSoc soc = SocGenerator(5).generate(9, profile);
    const sched::SessionScheduler s(soc.cores, soc.suggested_width);
    const sched::ExactResult exact = sched::exact_schedule(s, 12, false);
    BranchBoundConfig config;
    config.threads = 4;
    const BranchBoundResult bb = BranchBoundScheduler(s, config).run();
    EXPECT_TRUE(bb.optimal) << profile_name(profile);
    EXPECT_EQ(bb.best_cost, exact.schedule.total_cycles)
        << profile_name(profile);
    EXPECT_EQ(bb.best_cost, bb.lower_bound) << profile_name(profile);
  }
}

// The dominance rule (equal-geometry scan cores expand canonically, once)
// is only sound if it never discards every optimal assignment. A
// clone-heavy instance is its worst case: six identical scan cores plus
// riders collapse the search tree by orders of magnitude and the optimum
// must survive.
TEST(ParallelBB, CloneHeavyInstanceStaysExact) {
  std::vector<sched::CoreTestSpec> cores;
  for (int i = 0; i < 6; ++i)
    cores.push_back(scan_core("clone" + std::to_string(i), 2, 40, 25));
  cores.push_back(scan_core("odd", 3, 55, 30));
  cores.push_back(bist_core("eng0", 2500));
  cores.push_back(bist_core("eng1", 900));
  for (const unsigned width : {3u, 4u, 6u}) {
    const sched::SessionScheduler s(cores, width);
    const sched::ExactResult exact = sched::exact_schedule(s, 12, false);
    BranchBoundConfig config;
    config.threads = 2;
    const BranchBoundResult bb = BranchBoundScheduler(s, config).run();
    EXPECT_TRUE(bb.optimal) << "width " << width;
    EXPECT_EQ(bb.best_cost, exact.schedule.total_cycles) << "width "
                                                         << width;
  }
}

/// Enumerates every set partition of [0, n) (restricted growth strings),
/// invoking fn(groups).
template <typename Fn>
void for_each_partition(std::size_t n, Fn&& fn) {
  std::vector<std::size_t> label(n, 0);
  std::vector<std::vector<std::size_t>> groups;
  const auto emit = [&] {
    const std::size_t k =
        n == 0 ? 0 : 1 + *std::max_element(label.begin(), label.end());
    groups.assign(k, {});
    for (std::size_t i = 0; i < n; ++i) groups[label[i]].push_back(i);
    fn(groups);
  };
  // Iterative restricted-growth enumeration.
  while (true) {
    emit();
    std::size_t i = n;
    while (i-- > 1) {
      std::size_t prefix_max = 0;
      for (std::size_t j = 0; j < i; ++j)
        prefix_max = std::max(prefix_max, label[j]);
      if (label[i] <= prefix_max) {
        ++label[i];
        std::fill(label.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                  label.end(), 0);
        break;
      }
      label[i] = 0;
    }
    if (std::all_of(label.begin(), label.end(),
                    [](std::size_t v) { return v == 0; }))
      return;
  }
}

// Admissibility of the partition-model bounds that tighten the node bound
// (sched/lower_bound.hpp): for *every* complete scan partition of small
// generated instances, the priced program must respect the session floor,
// the overflow floor and the BIST chunk bound. A single violation means
// the parallel search could prune the optimum.
TEST(ParallelBB, PartitionFloorsAdmissibleByEnumeration) {
  for (const SocProfile profile :
       {SocProfile::Mixed, SocProfile::BistHeavy}) {
    const GeneratedSoc soc = SocGenerator(9).generate(7, profile);
    const sched::SessionScheduler s(soc.cores, soc.suggested_width);
    const unsigned width = soc.suggested_width;

    std::vector<std::size_t> scan_idx;
    std::vector<std::size_t> bist_idx;
    for (std::size_t i = 0; i < soc.cores.size(); ++i)
      (soc.cores[i].is_scan() ? scan_idx : bist_idx).push_back(i);
    if (scan_idx.empty()) continue;  // pure BIST goes through the
                                     // dedicated optimal path

    const std::uint64_t chunk =
        sched::bist_chunk_bound(soc.cores, width);

    for_each_partition(scan_idx.size(), [&](const auto& groups) {
      std::vector<std::vector<std::size_t>> scan_groups;
      for (const auto& g : groups) {
        scan_groups.emplace_back();
        for (const std::size_t i : g)
          scan_groups.back().push_back(scan_idx[i]);
      }
      std::vector<sched::ScheduledSession> sessions;
      const std::uint64_t total = sched::price_scan_partition(
          s, scan_groups, bist_idx, &sessions);

      const std::uint64_t floor_sessions = sched::partition_session_floor(
          scan_groups.size(), bist_idx.size(), width);
      ASSERT_GE(sessions.size(), floor_sessions)
          << profile_name(profile) << ": " << scan_groups.size()
          << " scan groups priced into " << sessions.size()
          << " sessions, floor said >= " << floor_sessions;

      const std::uint64_t overflow = sessions.size() - scan_groups.size();
      ASSERT_GE(overflow,
                sched::partition_overflow_floor(
                    scan_groups.size(), bist_idx.size(), width))
          << profile_name(profile);

      // Each session costs at least its largest BIST engine, so the chunk
      // bound floors the summed session time (total minus reconfig).
      std::uint64_t session_time = 0;
      for (const sched::ScheduledSession& sess : sessions)
        session_time +=
            std::max(sess.scan_cycles, sess.bist_cycles);
      ASSERT_GE(session_time, chunk) << profile_name(profile);
      ASSERT_GE(total, chunk) << profile_name(profile);
    });
  }
}

// Formula edge cases the enumeration cannot reach: degenerate widths and
// empty inputs.
TEST(ParallelBB, PartitionFloorEdgeCases) {
  // No BIST engines: the floor is the group count (>= 1 session always).
  EXPECT_EQ(sched::partition_session_floor(0, 0, 4), 1u);
  EXPECT_EQ(sched::partition_session_floor(3, 0, 4), 3u);
  EXPECT_EQ(sched::partition_overflow_floor(3, 0, 4), 0u);
  // Width 1: no rider slot exists, every engine is a dedicated session.
  EXPECT_EQ(sched::partition_session_floor(2, 5, 1), 7u);
  EXPECT_EQ(sched::partition_overflow_floor(2, 5, 1), 5u);
  // Width 2: one rider per scan session.
  EXPECT_EQ(sched::partition_session_floor(2, 5, 2), 5u);
  EXPECT_EQ(sched::partition_overflow_floor(2, 5, 2), 3u);
  // Wide bus: riders absorb everything, no overflow.
  EXPECT_EQ(sched::partition_session_floor(2, 5, 8), 2u);
  EXPECT_EQ(sched::partition_overflow_floor(2, 5, 8), 0u);

  // Chunk bound: engines {100, 90, 10, 1} at width 3 chunk as
  // {100,90}|{10,1} -> heads 100 + 10.
  const std::vector<sched::CoreTestSpec> cores = {
      bist_core("a", 100), bist_core("b", 90), bist_core("c", 10),
      bist_core("d", 1), scan_core("s", 1, 5, 2)};
  EXPECT_EQ(sched::bist_chunk_bound(cores, 3), 110u);
  // Width 1 degenerates to one engine per chunk: the full sum.
  EXPECT_EQ(sched::bist_chunk_bound(cores, 1), 201u);
  EXPECT_EQ(sched::bist_chunk_bound({scan_core("s", 1, 5, 2)}, 3), 0u);
}

// Every parallel schedule — budget-limited or optimal, any profile — must
// pass the static schedule linter with zero diagnostics, certificate
// coherence (SC006) included.
TEST(ParallelBB, LintCleanSweepOverParallelSchedules) {
  const SocGenerator gen(23);
  for (std::size_t p = 0; p < kProfileCount; ++p) {
    const auto profile = static_cast<SocProfile>(p);
    for (const std::size_t cores : {12, 48}) {
      const GeneratedSoc soc = gen.generate(cores, profile);
      const sched::SessionScheduler s(soc.cores, soc.suggested_width);
      BranchBoundConfig config;
      config.node_budget = 1500;
      config.dive_interval = 32;
      config.threads = 4;
      const BranchBoundResult bb = BranchBoundScheduler(s, config).run();
      const verify::LintReport report = verify::lint_branch_bound(
          bb, soc.cores, soc.suggested_width);
      EXPECT_TRUE(report.clean())
          << profile_name(profile) << " " << cores << " cores:\n"
          << report.to_string();
    }
  }
}

// Free-running mode (deterministic = false) trades reproducibility for
// eager incumbent publication; its results must still be correct — a
// coherent certificate, and the exhaustive optimum when the space fits in
// the budget.
TEST(ParallelBB, FreeModeStillFindsTheOptimum) {
  const GeneratedSoc soc = SocGenerator(3).generate(9, SocProfile::Mixed);
  const sched::SessionScheduler s(soc.cores, soc.suggested_width);
  const sched::ExactResult exact = sched::exact_schedule(s, 12, false);
  BranchBoundConfig config;
  config.threads = 4;
  config.deterministic = false;
  const BranchBoundResult bb = BranchBoundScheduler(s, config).run();
  EXPECT_TRUE(bb.optimal);
  EXPECT_EQ(bb.best_cost, exact.schedule.total_cycles);
  EXPECT_LE(bb.lower_bound, bb.best_cost);
  EXPECT_TRUE(verify::lint_branch_bound(bb, soc.cores,
                                        soc.suggested_width)
                  .clean());
}

// schedule_with's BranchBound dispatch returns the default-config
// search's schedule and copies its effort counters into ScheduleStats.
TEST(ParallelBB, ScheduleWithReportsSearchCounters) {
  const GeneratedSoc soc = SocGenerator(29).generate(40, SocProfile::Mixed);
  const sched::SessionScheduler s(soc.cores, soc.suggested_width);
  const BranchBoundResult direct = BranchBoundScheduler(s).run();
  sched::ScheduleStats stats;
  const sched::Schedule via =
      sched::schedule_with(soc.cores, soc.suggested_width,
                           sched::Strategy::BranchBound, &stats);
  EXPECT_EQ(via.total_cycles, direct.schedule.total_cycles);
  EXPECT_EQ(via.sessions.size(), direct.schedule.sessions.size());
  EXPECT_EQ(stats.nodes_expanded, direct.nodes_expanded);
  EXPECT_EQ(stats.prunes, direct.prunes);
  EXPECT_EQ(stats.incumbent_improvements, direct.incumbent_improvements);
  EXPECT_EQ(stats.leaves_priced, direct.leaves_priced);
  EXPECT_EQ(stats.balances, direct.balances);
  EXPECT_GT(stats.nodes_expanded, 0u);
  EXPECT_GT(stats.balances, 0u);
}

// The CAS-area memo lives for the process, so each (width, ports) pair is
// read cold here first: these widths appear in no other test of this
// binary. Below the 4096-instruction cap the memoized area is the
// synthesized netlist's; above it, the Table 1 trend extrapolation. Warm
// reads return the same double.
TEST(Explorer, CasAreaMemoMatchesSynthesis) {
  struct Geometry {
    unsigned n, p;
    bool synthesized;
  };
  const Geometry geometries[] = {
      {5, 1, true},   {5, 3, true},  {7, 2, true},   {9, 4, true},
      {10, 4, false}, {11, 3, true}, {11, 4, false}, {13, 5, false},
      {16, 3, true},  {16, 4, false},
  };
  for (const Geometry& g : geometries) {
    const std::vector<sched::CoreTestSpec> one = {
        scan_core("c", g.p, 16, 10)};
    const double a = std::exp2(tam::log2_arrangement_count(g.n, g.p));
    ASSERT_EQ(a <= 4096.0, g.synthesized) << g.n << "," << g.p;
    const double want =
        g.synthesized
            ? netlist::AreaModel::typical().total(
                  tam::generate_cas(
                      g.n, g.p,
                      {tam::CasImplementation::OptimizedGateLevel, true})
                      .netlist)
            : 2.5 * a + 7.0 * sched::cas_ir_bits(g.n, g.p) + 3.0 * g.n;
    const double cold = DesignSpaceExplorer::bus_area_ge(one, g.n);
    const double warm = DesignSpaceExplorer::bus_area_ge(one, g.n);
    EXPECT_EQ(cold, want) << g.n << "," << g.p;
    EXPECT_EQ(warm, want) << g.n << "," << g.p;
  }

  // Four threads race cold misses over one SoC's widths; every thread's
  // totals, and a serial warm re-read, must agree exactly.
  const GeneratedSoc soc = SocGenerator(31).generate(120, SocProfile::Mixed);
  const std::vector<unsigned> widths = {15, 17, 19};
  std::vector<std::vector<double>> totals(4);
  std::vector<std::thread> threads;
  for (std::vector<double>& mine : totals)
    threads.emplace_back([&soc, &widths, &mine] {
      for (const unsigned w : widths)
        mine.push_back(DesignSpaceExplorer::bus_area_ge(soc.cores, w));
    });
  for (std::thread& t : threads) t.join();
  for (std::size_t i = 0; i < widths.size(); ++i) {
    const double serial = DesignSpaceExplorer::bus_area_ge(soc.cores,
                                                           widths[i]);
    for (const std::vector<double>& mine : totals)
      EXPECT_EQ(mine[i], serial) << "width " << widths[i];
  }
}

// Placement works in per-thread scratch. Four threads each place their own
// chain sets over and over — sizes either side of the 96-item polish
// limit, 1 to 100 wires (past 64 a core's blocked-wire bitset spans two
// words), some cores relaxed — interleaving grouped, refined and
// refined_max_load; every result must equal the serial one computed before
// the threads start. Scratch shared between threads fails this.
TEST(ChainSet, ConcurrentPlacementMatchesSerial) {
  struct Case {
    sched::ChainSet set;
    unsigned wires;
    sched::Balance grouped, refined;
    std::size_t max_load;
  };
  constexpr std::size_t kThreads = 4;
  const std::size_t sizes[] = {3, 40, 95, 96, 97, 180, 400};
  const unsigned wire_counts[] = {1, 2, 7, 31, 64, 65, 100};
  Rng rng(2718);
  std::vector<std::vector<Case>> cases(kThreads);
  for (std::vector<Case>& mine : cases) {
    for (std::size_t k = 0; k < 21; ++k) {
      const std::size_t n = sizes[k % std::size(sizes)];
      const unsigned wires = wire_counts[(k + rng.below(7)) % 7];
      std::vector<sched::ChainItem> items;
      for (std::size_t core = 0; items.size() < n; ++core) {
        const std::size_t chains = rng.below(6) == 0
                                       ? wires + 1 + rng.below(3)
                                       : 1 + rng.below(std::min(wires, 12u));
        for (std::size_t ch = 0; ch < chains && items.size() < n; ++ch)
          items.push_back(sched::ChainItem{core, ch, 1 + rng.below(3000)});
      }
      const sched::ChainSet set(items);
      mine.push_back(Case{set, wires, set.grouped(wires), set.refined(wires),
                          set.refined_max_load(wires)});
    }
  }

  std::atomic<std::size_t> mismatches{0};
  std::vector<std::thread> threads;
  for (const std::vector<Case>& mine : cases)
    threads.emplace_back([&mine, &mismatches] {
      for (std::size_t rep = 0; rep < 120; ++rep) {
        for (std::size_t k = 0; k < mine.size(); ++k) {
          const Case& c = mine[(k * 5 + rep) % mine.size()];
          bool same = true;
          switch ((k + rep) % 3) {
            case 0: {
              const sched::Balance b = c.set.grouped(c.wires);
              same = b.wire_of_item == c.grouped.wire_of_item &&
                     b.wire_load == c.grouped.wire_load;
              break;
            }
            case 1: {
              const sched::Balance b = c.set.refined(c.wires);
              same = b.wire_of_item == c.refined.wire_of_item &&
                     b.wire_load == c.refined.wire_load;
              break;
            }
            default:
              same = c.set.refined_max_load(c.wires) == c.max_load;
          }
          if (!same) ++mismatches;
        }
      }
    });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0u);
}

}  // namespace
}  // namespace casbus::explore
