// The design-space exploration subsystem: generator determinism and
// population shape, branch-and-bound optimality against exact_schedule,
// lower-bound admissibility, and the Pareto sweep.

#include <gtest/gtest.h>

#include "explore/branch_bound.hpp"
#include "explore/explorer.hpp"
#include "explore/soc_generator.hpp"
#include "floor/job.hpp"
#include "sched/exact.hpp"
#include "sched/lower_bound.hpp"
#include "util/rng.hpp"

namespace casbus::explore {
namespace {

bool same_spec(const sched::CoreTestSpec& a, const sched::CoreTestSpec& b) {
  return a.name == b.name && a.chains == b.chains &&
         a.patterns == b.patterns && a.bist_cycles == b.bist_cycles;
}

TEST(SocGenerator, SameSeedSameSpecAcrossProfiles) {
  for (std::size_t p = 0; p < kProfileCount; ++p) {
    const auto profile = static_cast<SocProfile>(p);
    const GeneratedSoc a = SocGenerator(7).generate(40, profile, 3);
    const GeneratedSoc b = SocGenerator(7).generate(40, profile, 3);
    ASSERT_EQ(a.cores.size(), b.cores.size()) << profile_name(profile);
    for (std::size_t i = 0; i < a.cores.size(); ++i)
      EXPECT_TRUE(same_spec(a.cores[i], b.cores[i]))
          << profile_name(profile) << " core " << i;
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.suggested_width, b.suggested_width);
  }
}

TEST(SocGenerator, DifferentSeedOrInstanceDiffer) {
  const GeneratedSoc base = SocGenerator(7).generate(40, SocProfile::Mixed);
  const GeneratedSoc seed = SocGenerator(8).generate(40, SocProfile::Mixed);
  const GeneratedSoc inst =
      SocGenerator(7).generate(40, SocProfile::Mixed, 1);
  const auto differs = [&](const GeneratedSoc& other) {
    if (base.cores.size() != other.cores.size()) return true;
    for (std::size_t i = 0; i < base.cores.size(); ++i)
      if (!same_spec(base.cores[i], other.cores[i])) return true;
    return false;
  };
  EXPECT_TRUE(differs(seed));
  EXPECT_TRUE(differs(inst));
}

TEST(SocGenerator, ProfilesShapeThePopulation) {
  const SocGenerator gen(11);
  const GeneratedSoc scan = gen.generate(200, SocProfile::ScanHeavy);
  const GeneratedSoc bist = gen.generate(200, SocProfile::BistHeavy);
  const GeneratedSoc hier = gen.generate(200, SocProfile::Hierarchical);

  EXPECT_GT(scan.scan_core_count(), scan.cores.size() * 4 / 5);
  EXPECT_GT(bist.bist_core_count(), bist.cores.size() / 2);
  // Clusters collapse leaves into aggregate cores.
  EXPECT_LT(hier.cores.size(), hier.requested_cores);

  // Every generated core is schedulable.
  for (const GeneratedSoc* soc : {&scan, &bist, &hier})
    for (const auto& c : soc->cores) {
      EXPECT_TRUE(c.is_scan() || c.bist_cycles > 0) << c.name;
      if (c.is_scan()) {
        EXPECT_GT(c.patterns, 0u) << c.name;
      }
    }
}

TEST(SocGenerator, ScalesToAThousandCores) {
  const GeneratedSoc soc = SocGenerator(1).generate(1000, SocProfile::Mixed);
  EXPECT_EQ(soc.cores.size(), 1000u);
  EXPECT_GE(soc.suggested_width, 8u);
  EXPECT_LE(soc.suggested_width, 64u);
  // The spec list must price without arrangement-count overflow.
  const sched::SessionScheduler s(soc.cores, soc.suggested_width);
  EXPECT_GT(s.reconfig_cost(), 0u);
}

TEST(LowerBound, AdmissibleAgainstEveryStrategy) {
  Rng rng(53);
  for (int trial = 0; trial < 12; ++trial) {
    std::vector<sched::CoreTestSpec> cores;
    const std::size_t n = 3 + rng.below(5);
    for (std::size_t i = 0; i < n; ++i) {
      sched::CoreTestSpec c;
      c.name = "c" + std::to_string(i);
      const std::size_t chains = 1 + rng.below(3);
      for (std::size_t k = 0; k < chains; ++k)
        c.chains.push_back(10 + rng.below(150));
      c.patterns = 10 + rng.below(200);
      cores.push_back(std::move(c));
    }
    if (rng.coin()) cores.push_back({"b", {}, 0, 1000 + rng.below(5000)});

    const auto width = static_cast<unsigned>(2 + rng.below(5));
    const sched::SessionScheduler s(cores, width);
    const std::uint64_t lb =
        sched::schedule_lower_bound(cores, width, s.reconfig_cost());
    for (const sched::Strategy strategy :
         {sched::Strategy::Single, sched::Strategy::PerCore,
          sched::Strategy::Greedy, sched::Strategy::Phased,
          sched::Strategy::Best})
      EXPECT_LE(lb, s.schedule_with(strategy).total_cycles)
          << "trial " << trial << " " << sched::strategy_name(strategy);
    EXPECT_LE(lb, sched::exact_schedule(s).schedule.total_cycles)
        << "trial " << trial;
  }
}

TEST(BranchBound, MatchesExactOptimumOnSmallInstances) {
  Rng rng(67);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<sched::CoreTestSpec> cores;
    const std::size_t n = 3 + rng.below(6);  // 3..8 scan cores
    for (std::size_t i = 0; i < n; ++i) {
      sched::CoreTestSpec c;
      c.name = "c" + std::to_string(i);
      const std::size_t chains = 1 + rng.below(3);
      for (std::size_t k = 0; k < chains; ++k)
        c.chains.push_back(10 + rng.below(120));
      c.patterns = 10 + rng.below(200);
      cores.push_back(std::move(c));
    }
    if (rng.coin()) cores.push_back({"b", {}, 0, 500 + rng.below(3000)});

    const auto width = static_cast<unsigned>(2 + rng.below(5));
    const sched::SessionScheduler s(cores, width);
    const sched::ExactResult exact = sched::exact_schedule(s);
    const BranchBoundResult bb = BranchBoundScheduler(s).run();

    EXPECT_TRUE(bb.optimal) << "trial " << trial;
    EXPECT_EQ(bb.best_cost, exact.schedule.total_cycles)
        << "trial " << trial;
    EXPECT_EQ(bb.best_cost, bb.lower_bound) << "trial " << trial;
    EXPECT_DOUBLE_EQ(bb.gap(), 0.0) << "trial " << trial;
    EXPECT_EQ(bb.schedule.total_cycles, bb.best_cost);
    EXPECT_TRUE(bb.schedule.chip_synchronous);
  }
}

TEST(BranchBound, CoversEveryCoreExactlyOnce) {
  const GeneratedSoc soc = SocGenerator(3).generate(30, SocProfile::Mixed);
  const sched::SessionScheduler s(soc.cores, soc.suggested_width);
  BranchBoundConfig config;
  config.node_budget = 2000;
  const BranchBoundResult bb = BranchBoundScheduler(s, config).run();

  std::vector<int> seen(soc.cores.size(), 0);
  for (const auto& session : bb.schedule.sessions) {
    for (const std::size_t c : session.scan_cores) ++seen[c];
    for (const std::size_t c : session.bist_cores) ++seen[c];
  }
  for (std::size_t i = 0; i < seen.size(); ++i)
    EXPECT_EQ(seen[i], 1) << "core " << i;
}

TEST(BranchBound, BudgetedSearchReportsACertifiedGap) {
  const GeneratedSoc soc = SocGenerator(5).generate(100, SocProfile::Mixed);
  const sched::SessionScheduler s(soc.cores, soc.suggested_width);
  BranchBoundConfig config;
  config.node_budget = 500;
  config.dive_interval = 128;
  const BranchBoundResult bb = BranchBoundScheduler(s, config).run();

  EXPECT_LE(bb.nodes_expanded, config.node_budget);
  EXPECT_GT(bb.lower_bound, 0u);
  EXPECT_GE(bb.best_cost, bb.lower_bound);
  EXPECT_GE(bb.gap(), 0.0);
  // The incumbent must also respect the strategy-independent bound.
  EXPECT_GE(bb.best_cost, sched::schedule_lower_bound(
                              soc.cores, s.width(), s.reconfig_cost()));
}

TEST(BranchBound, ThousandCoreResultsPinned) {
  // Seed-1 1000-core SoC of every profile at the sweep's default widths,
  // default budget, one thread. The values were recorded before the
  // search's prefix bookkeeping was rewritten around per-core bound
  // summaries; any change to expansion order, bounds, dives or pricing
  // shows up here as a moved counter.
  struct Pinned {
    SocProfile profile;
    unsigned width;
    std::uint64_t best_cost, lower_bound, nodes_expanded, prunes, dives,
        incumbent_improvements, rebalances, balances, term_memo_hits;
  };
  const Pinned pinned[] = {
      {SocProfile::Mixed, 16, 94096456, 47729117, 50000, 0, 16, 3, 0, 303,
       853},
      {SocProfile::Mixed, 32, 69025017, 23906549, 50000, 0, 16, 5, 0, 524,
       664},
      {SocProfile::Mixed, 64, 47017391, 11962354, 50000, 0, 16, 4, 0, 993,
       939},
      {SocProfile::ScanHeavy, 16, 314109170, 244233211, 50000, 0, 16, 4, 0,
       115, 258},
      {SocProfile::ScanHeavy, 32, 204222360, 122131126, 50000, 0, 16, 3, 0,
       99, 355},
      {SocProfile::ScanHeavy, 64, 126548399, 61085739, 50000, 0, 16, 4, 0,
       113, 379},
      {SocProfile::BistHeavy, 16, 211415040, 23349456, 50000, 0, 16, 3, 0,
       1227, 898},
      {SocProfile::BistHeavy, 32, 176295024, 11707518, 50000, 0, 16, 7, 0,
       2609, 572},
      {SocProfile::BistHeavy, 64, 145018409, 5881488, 50000, 0, 16, 4, 0,
       3832, 362},
      {SocProfile::Hierarchical, 16, 97142521, 69155988, 50000, 4, 16, 2, 0,
       91, 176},
      {SocProfile::Hierarchical, 32, 52140237, 34581817, 50000, 1725, 16, 4,
       0, 72, 259},
      {SocProfile::Hierarchical, 64, 28347308, 22316319, 50000, 46624, 16, 1,
       0, 222, 99},
  };
  for (const Pinned& want : pinned) {
    const GeneratedSoc soc = SocGenerator(1).generate(1000, want.profile);
    ASSERT_TRUE(want.width == soc.suggested_width / 2 ||
                want.width == soc.suggested_width ||
                want.width == soc.suggested_width * 2)
        << soc.name;
    const sched::SessionScheduler s(soc.cores, want.width);
    BranchBoundConfig config;
    config.threads = 1;
    const BranchBoundResult bb = BranchBoundScheduler(s, config).run();
    const std::string at = soc.name + " @" + std::to_string(want.width);
    EXPECT_EQ(bb.best_cost, want.best_cost) << at;
    EXPECT_EQ(bb.schedule.total_cycles, want.best_cost) << at;
    EXPECT_EQ(bb.lower_bound, want.lower_bound) << at;
    EXPECT_EQ(bb.nodes_expanded, want.nodes_expanded) << at;
    EXPECT_EQ(bb.prunes, want.prunes) << at;
    EXPECT_EQ(bb.dives, want.dives) << at;
    EXPECT_EQ(bb.incumbent_improvements, want.incumbent_improvements) << at;
    EXPECT_EQ(bb.rebalances, want.rebalances) << at;
    EXPECT_EQ(bb.balances, want.balances) << at;
    EXPECT_EQ(bb.term_memo_hits, want.term_memo_hits) << at;
  }
}

TEST(BranchBound, PureBistInstanceIsTriviallyOptimal) {
  std::vector<sched::CoreTestSpec> cores = {
      {"a", {}, 0, 4000}, {"b", {}, 0, 2000}, {"c", {}, 0, 1000}};
  const sched::SessionScheduler s(cores, 4);
  const BranchBoundResult bb = BranchBoundScheduler(s).run();
  EXPECT_TRUE(bb.optimal);
  EXPECT_EQ(bb.best_cost, s.single_session().total_cycles);
}

TEST(BranchBound, PureBistChunksByLengthNotInputOrder) {
  // Interleaved long/short engines on a narrow bus: input-order chunking
  // (single_session) pairs each long engine with a short one, paying the
  // long session twice. The optimal certificate must pair likes with
  // likes.
  std::vector<sched::CoreTestSpec> cores = {{"a", {}, 0, 100},
                                            {"b", {}, 0, 1},
                                            {"c", {}, 0, 100},
                                            {"d", {}, 0, 1}};
  const sched::SessionScheduler s(cores, 2);
  const BranchBoundResult bb = BranchBoundScheduler(s).run();
  const std::uint64_t config = s.reconfig_cost();
  EXPECT_TRUE(bb.optimal);
  EXPECT_EQ(bb.best_cost, 100 + 1 + 2 * config);  // {a,c} then {b,d}
  EXPECT_LT(bb.best_cost, s.single_session().total_cycles);
  EXPECT_EQ(sched::exact_schedule(s).schedule.total_cycles, bb.best_cost);
}

TEST(Strategy, NewNamesRoundTripAndDispatch) {
  EXPECT_EQ(sched::strategy_from_name("branch_bound"),
            sched::Strategy::BranchBound);
  EXPECT_EQ(sched::strategy_from_name("exact"), sched::Strategy::Exact);

  Rng rng(71);
  std::vector<sched::CoreTestSpec> cores;
  for (int i = 0; i < 5; ++i) {
    sched::CoreTestSpec c;
    c.name = "c" + std::to_string(i);
    c.chains.push_back(20 + rng.below(100));
    c.patterns = 20 + rng.below(100);
    cores.push_back(std::move(c));
  }
  const sched::SessionScheduler s(cores, 3);
  EXPECT_EQ(s.schedule_with(sched::Strategy::Exact).total_cycles,
            sched::exact_schedule(s).schedule.total_cycles);
  EXPECT_EQ(s.schedule_with(sched::Strategy::BranchBound).total_cycles,
            BranchBoundScheduler(s).run().best_cost);
}

TEST(Explorer, SweepProducesAConsistentParetoFrontier) {
  const GeneratedSoc soc = SocGenerator(9).generate(20, SocProfile::Mixed);
  DesignSpaceExplorer explorer(soc);
  ExploreConfig config;
  config.widths = {4, 6};
  config.strategies = {sched::Strategy::Greedy,
                       sched::Strategy::BranchBound};
  config.branch_bound.node_budget = 2000;
  const ExploreReport report = explorer.sweep(config);

  ASSERT_EQ(report.points.size(), 4u);
  bool any_pareto = false;
  for (const ExplorePoint& p : report.points) {
    EXPECT_GT(p.test_cycles, 0u);
    EXPECT_GT(p.bus_area_ge, 0.0);
    EXPECT_GE(p.gap, 0.0);
    any_pareto |= p.pareto;
    // A pareto point must not be dominated.
    if (p.pareto) {
      for (const ExplorePoint& q : report.points)
        EXPECT_FALSE(q.test_cycles < p.test_cycles &&
                     q.bus_area_ge < p.bus_area_ge);
    }
  }
  EXPECT_TRUE(any_pareto);
  ASSERT_NE(report.best_time(), nullptr);

  // Wider bus, bigger CAS-BUS: the §3.2 overhead axis.
  EXPECT_GT(DesignSpaceExplorer::bus_area_ge(soc.cores, 6),
            DesignSpaceExplorer::bus_area_ge(soc.cores, 4));
}

TEST(Explorer, FloorJobsFromGeneratorRunEndToEnd) {
  // The generator's floor mapping exercises BranchBound / Exact through
  // the whole compile-and-simulate pipeline.
  const SocGenerator gen(13);
  const std::vector<floor::JobSpec> jobs =
      gen.floor_jobs(6, SocProfile::Mixed);
  ASSERT_EQ(jobs.size(), 6u);
  bool ran_search_strategy = false;
  for (const floor::JobSpec& spec : jobs) {
    const floor::JobResult result = floor::run_job(spec);
    EXPECT_TRUE(result.pass) << "job " << spec.id << ": " << result.error;
    ran_search_strategy |= spec.strategy == sched::Strategy::BranchBound ||
                           spec.strategy == sched::Strategy::Exact;
  }
  EXPECT_TRUE(ran_search_strategy);
}

}  // namespace
}  // namespace casbus::explore
