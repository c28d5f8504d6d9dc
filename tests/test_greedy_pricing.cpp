// Greedy session pricing: the memoised, bound-pruned greedy() must return
// exactly the schedule of the three-balance-per-probe formulation it
// replaced, on generated 100/300-core SoCs and on the floor's 2–4-core
// jobs; the bound it prunes with must never exceed a real balance; and its
// effort counters must show the pruning at work.

#include <algorithm>

#include <gtest/gtest.h>

#include "explore/soc_generator.hpp"
#include "floor/job_factory.hpp"
#include "sched/exact.hpp"
#include "sched/scheduler.hpp"
#include "soc/schedule_runner.hpp"
#include "soc/soc.hpp"
#include "util/rng.hpp"

namespace casbus::sched {
namespace {

/// The pre-memoisation greedy, kept verbatim (make_session spelled as the
/// public price_session): every (core, group) probe balances t_with,
/// t_without and t_alone, and BIST engines are slotted by a private loop
/// that re-balances the scan group twice per (engine, group) pair.
Schedule reference_greedy(const SessionScheduler& s) {
  const std::vector<CoreTestSpec>& cores_ = s.cores();
  const unsigned width_ = s.width();
  const auto make_session = [&](const std::vector<std::size_t>& scan,
                                const std::vector<std::size_t>& bist) {
    return s.price_session(scan, bist);
  };

  std::vector<std::size_t> scan_order, bist_order;
  for (std::size_t i = 0; i < cores_.size(); ++i) {
    if (cores_[i].is_scan())
      scan_order.push_back(i);
    else
      bist_order.push_back(i);
  }
  std::stable_sort(scan_order.begin(), scan_order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return cores_[a].patterns > cores_[b].patterns;
                   });

  Schedule sched;
  std::vector<std::vector<std::size_t>> groups;  // scan core groups
  for (const std::size_t core : scan_order) {
    bool placed = false;
    for (auto& group : groups) {
      // Marginal test: joining `group` must beat a dedicated session.
      std::vector<std::size_t> with = group;
      with.push_back(core);
      const std::uint64_t t_with = make_session(with, {}).total_cycles();
      const std::uint64_t t_without =
          make_session(group, {}).total_cycles();
      const std::uint64_t t_alone = make_session({core}, {}).total_cycles();
      if (t_with <= t_without + t_alone) {
        group.push_back(core);
        placed = true;
        break;
      }
    }
    if (!placed) groups.push_back({core});
  }

  // Slot BIST cores greedily into the group whose total grows least (they
  // consume one wire each); overflow gets dedicated sessions.
  std::vector<std::vector<std::size_t>> group_bist(groups.size());
  std::vector<std::vector<std::size_t>> extra_bist_sessions;
  for (const std::size_t core : bist_order) {
    std::size_t best_group = groups.size();
    std::uint64_t best_delta = make_session({}, {core}).total_cycles();
    for (std::size_t g = 0; g < groups.size(); ++g) {
      if (group_bist[g].size() + 1 >= width_) continue;  // keep 1 scan wire
      std::vector<std::size_t> with = group_bist[g];
      with.push_back(core);
      const std::uint64_t t_with =
          make_session(groups[g], with).total_cycles();
      const std::uint64_t t_without =
          make_session(groups[g], group_bist[g]).total_cycles();
      if (t_with - t_without < best_delta) {
        best_delta = t_with - t_without;
        best_group = g;
      }
    }
    if (best_group < groups.size())
      group_bist[best_group].push_back(core);
    else
      extra_bist_sessions.push_back({core});
  }

  for (std::size_t g = 0; g < groups.size(); ++g) {
    sched.sessions.push_back(make_session(groups[g], group_bist[g]));
    sched.total_cycles += sched.sessions.back().total_cycles();
  }
  for (const auto& bist : extra_bist_sessions) {
    sched.sessions.push_back(make_session({}, bist));
    sched.total_cycles += sched.sessions.back().total_cycles();
  }
  if (sched.sessions.empty()) sched.total_cycles = 0;
  return sched;
}

/// Field-by-field Schedule equality; returns the first difference found
/// (empty when equal) so a failure names what diverged.
std::string first_difference(const Schedule& got, const Schedule& want) {
  if (got.total_cycles != want.total_cycles) return "total_cycles";
  if (got.chip_synchronous != want.chip_synchronous)
    return "chip_synchronous";
  if (got.bist_spans_sessions != want.bist_spans_sessions)
    return "bist_spans_sessions";
  if (got.sessions.size() != want.sessions.size()) return "session count";
  for (std::size_t i = 0; i < got.sessions.size(); ++i) {
    const ScheduledSession& a = got.sessions[i];
    const ScheduledSession& b = want.sessions[i];
    const std::string at = " of session " + std::to_string(i);
    if (a.scan_cores != b.scan_cores) return "scan_cores" + at;
    if (a.bist_cores != b.bist_cores) return "bist_cores" + at;
    if (a.balance.wire_of_item != b.balance.wire_of_item)
      return "wire_of_item" + at;
    if (a.balance.wire_load != b.balance.wire_load) return "wire_load" + at;
    if (a.items.size() != b.items.size()) return "item count" + at;
    for (std::size_t k = 0; k < a.items.size(); ++k)
      if (a.items[k].core != b.items[k].core ||
          a.items[k].chain != b.items[k].chain ||
          a.items[k].length != b.items[k].length)
        return "items" + at;
    if (a.patterns_applied != b.patterns_applied)
      return "patterns_applied" + at;
    if (a.scan_cycles != b.scan_cycles) return "scan_cycles" + at;
    if (a.bist_cycles != b.bist_cycles) return "bist_cycles" + at;
    if (a.config_cycles != b.config_cycles) return "config_cycles" + at;
    if (a.total_cycles() != b.total_cycles()) return "total_cycles" + at;
  }
  return {};
}

void expect_matches_reference(const std::vector<CoreTestSpec>& cores,
                              unsigned width, const std::string& label) {
  const SessionScheduler s(cores, width);
  const Schedule want = reference_greedy(s);
  ScheduleStats stats;
  const Schedule got = s.greedy(&stats);
  EXPECT_EQ(first_difference(got, want), "") << label << " width " << width;
  // Counter identities that hold on every instance.
  EXPECT_LE(stats.prunes, stats.nodes_expanded) << label;
  EXPECT_EQ(stats.incumbent_improvements, 0u) << label;
  EXPECT_EQ(stats.leaves_priced, stats.nodes_expanded - stats.prunes)
      << label;
}

TEST(GreedyPricing, MatchesReferenceOnGeneratedSocs) {
  for (const std::uint64_t seed : {1ULL, 7ULL, 20261017ULL}) {
    const explore::SocGenerator gen(seed);
    for (const std::size_t n : {std::size_t{100}, std::size_t{300}}) {
      for (std::size_t p = 0; p < explore::kProfileCount; ++p) {
        const auto profile = static_cast<explore::SocProfile>(p);
        const explore::GeneratedSoc soc = gen.generate(n, profile);
        const unsigned s = soc.suggested_width;
        for (const unsigned width :
             {2u, std::max(1u, s / 2), s, 2 * s})
          expect_matches_reference(soc.cores, width, soc.name);
      }
    }
  }
}

/// The CoreTestSpecs a floor ScanOnly/BistJoin job schedules: its SoC is
/// built as the floor's Build stage builds it (same draws from the job's
/// seed, same engine and chain caps) and read back through specs_of.
std::vector<CoreTestSpec> floor_job_specs(const floor::JobSpec& spec) {
  Rng rng(spec.seed);
  const auto core_spec = [&](std::size_t chains) {
    tpg::SyntheticCoreSpec c;
    c.n_inputs = 4;
    c.n_outputs = 4;
    c.n_flipflops = 8 + rng.below(9);
    c.n_gates = 3 * c.n_flipflops + rng.below(c.n_flipflops);
    c.n_chains = std::min(chains, c.n_flipflops);
    c.seed = rng.next();
    return c;
  };
  soc::SocBuilder builder(spec.bus_width);
  const std::size_t total = std::max<std::size_t>(2, spec.cores);
  std::size_t scan_cores = total;
  std::size_t engines = 0;
  if (spec.scenario == floor::ScenarioKind::BistJoin) {
    const bool with_memory = spec.bus_width >= 4;
    engines = with_memory ? 2 : 1;
    scan_cores = std::max<std::size_t>(1, total - engines);
    builder.add_bist_core("lbist", core_spec(1),
                          64 + static_cast<std::uint32_t>(rng.below(129)));
    if (with_memory) builder.add_memory_core("ram", 16 + 16 * rng.below(2), 8);
  }
  const std::size_t max_chains = std::max<std::size_t>(
      1, std::min<std::size_t>(3, spec.bus_width - engines));
  for (std::size_t i = 0; i < scan_cores; ++i)
    builder.add_scan_core("scan" + std::to_string(i),
                          core_spec(1 + rng.below(max_chains)));
  return soc::specs_of(*builder.build(), spec.patterns_per_ff);
}

TEST(GreedyPricing, MatchesReferenceOnFloorJobs) {
  std::size_t checked = 0;
  for (const std::uint64_t seed : {1ULL, 11ULL, 20261017ULL}) {
    const floor::JobFactory factory(seed);
    for (std::size_t id = 0; id < 400; ++id) {
      const floor::JobSpec spec = factory.make_job(id);
      if (spec.scenario != floor::ScenarioKind::ScanOnly &&
          spec.scenario != floor::ScenarioKind::BistJoin)
        continue;
      const std::vector<CoreTestSpec> cores = floor_job_specs(spec);
      // Every width a 2–4-core SoC can meet, not only the job's own.
      for (unsigned width = 2; width <= 8; ++width)
        expect_matches_reference(cores, width,
                                 "job " + std::to_string(id) + " seed " +
                                     std::to_string(seed));
      ++checked;
    }
  }
  EXPECT_GT(checked, 500u);
}

// Greedy and the partition evaluator must agree on the price of greedy's
// own partition: greedy's BIST phase *is* price_scan_partition.
TEST(GreedyPricing, TotalEqualsPartitionPrice) {
  const explore::GeneratedSoc soc =
      explore::SocGenerator(3).generate(100, explore::SocProfile::BistHeavy);
  const SessionScheduler s(soc.cores, soc.suggested_width);
  std::vector<std::size_t> bist;
  for (std::size_t i = 0; i < soc.cores.size(); ++i)
    if (!soc.cores[i].is_scan()) bist.push_back(i);
  EXPECT_EQ(s.greedy().total_cycles,
            price_scan_partition(s, greedy_scan_groups(s), bist));
}

// The pruning rule's premise: no placement beats max(longest chain,
// ceil(bits / wires)). Random item sets, with cores that have more chains
// than wires (the relaxed, concatenating path) mixed in.
TEST(GreedyPricing, BalanceLowerBoundNeverExceedsBalance) {
  Rng rng(2026);
  std::size_t relaxed_cases = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    const auto wires = static_cast<unsigned>(1 + rng.below(12));
    const std::size_t n_cores = 1 + rng.below(8);
    std::vector<ChainItem> items;
    bool relaxed = false;
    for (std::size_t c = 0; c < n_cores; ++c) {
      const std::size_t chains = 1 + rng.below(2 * wires + 2);
      relaxed = relaxed || chains > wires;
      for (std::size_t ch = 0; ch < chains; ++ch)
        items.push_back(ChainItem{c, ch, rng.below(200)});
    }
    relaxed_cases += relaxed ? 1 : 0;
    const Balance b = assign_lpt_grouped_refined(items, wires);
    EXPECT_LE(balance_lower_bound(items, wires), b.max_load())
        << "trial " << trial << " wires " << wires;
  }
  EXPECT_GT(relaxed_cases, 300u);
}

// Noise-free guard against the three-balance probe coming back: on a fixed
// 1000-core mixed SoC the bound rejects probes outright and greedy runs
// fewer balances than it makes probes. schedule_with reports the same
// counters as a direct call.
TEST(GreedyPricing, EffortCountersShowPruning) {
  const explore::GeneratedSoc soc =
      explore::SocGenerator(1).generate(1000, explore::SocProfile::Mixed);
  const SessionScheduler s(soc.cores, 32);
  ScheduleStats direct;
  const Schedule schedule = s.greedy(&direct);
  EXPECT_GT(direct.prunes, 0u);
  EXPECT_LT(direct.leaves_priced, direct.nodes_expanded);

  ScheduleStats dispatched;
  const Schedule via = s.schedule_with(Strategy::Greedy, &dispatched);
  EXPECT_EQ(via.total_cycles, schedule.total_cycles);
  EXPECT_EQ(dispatched.nodes_expanded, direct.nodes_expanded);
  EXPECT_EQ(dispatched.prunes, direct.prunes);
  EXPECT_EQ(dispatched.leaves_priced, direct.leaves_priced);
}

}  // namespace
}  // namespace casbus::sched
