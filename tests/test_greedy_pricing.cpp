// Greedy session pricing: the memoised, bound-pruned greedy() must return
// exactly the schedule of the three-balance-per-probe formulation it
// replaced, on generated 100/300-core SoCs and on the floor's 2–4-core
// jobs; the bound it prunes with must never exceed a real balance; and its
// effort counters must show the pruning at work. The chain-set schedulers
// (greedy probes merging sorted sets, BIST slotting over one set per
// group with a lower-bound reject and a scan-term memo, phased cutting
// suffixes) must equal the per-balance-sort formulations they replaced on
// 100/300/1000-core SoCs, and branch and bound must reproduce the results
// and counters the previous pricing gave it, at 1 and 4 threads.

#include <algorithm>

#include <gtest/gtest.h>

#include "explore/branch_bound.hpp"
#include "explore/soc_generator.hpp"
#include "floor/job_factory.hpp"
#include "sched/exact.hpp"
#include "sched/lower_bound.hpp"
#include "sched/scheduler.hpp"
#include "soc/schedule_runner.hpp"
#include "soc/soc.hpp"
#include "util/hash.hpp"
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

// ---------------------------------------------------------------------------
// The pricing before chain sets, kept verbatim (only renamed, phased()
// spelled as a free function): every balance builds its session's item
// list and sorts it — greedy per probe, BIST slotting per (group, wire
// count), phased per phase.

std::uint64_t reference_price_scan_partition(
    const SessionScheduler& scheduler,
    const std::vector<std::vector<std::size_t>>& scan_groups,
    const std::vector<std::size_t>& bist_cores,
    std::vector<ScheduledSession>* out_sessions = nullptr) {
  const unsigned width = scheduler.width();
  const std::uint64_t config = scheduler.reconfig_cost();
  const std::vector<CoreTestSpec>& cores = scheduler.cores();

  // Per-group session state. The only way a co-tenant BIST engine changes
  // the scan term is by occupying wires, so scan terms are memoized per
  // (group, occupied-wire count) — the greedy slotting loop below then
  // prices each geometry once instead of re-balancing per candidate.
  struct Group {
    std::vector<ChainItem> items;
    std::size_t patterns = 0;
    std::vector<std::uint64_t> term;  ///< scan term at k BIST wires; lazy
    std::uint64_t max_bist = 0;
    std::size_t n_bist = 0;
  };
  std::vector<Group> gs(scan_groups.size());
  for (std::size_t g = 0; g < scan_groups.size(); ++g) {
    for (const std::size_t c : scan_groups[g]) {
      for (std::size_t ch = 0; ch < cores[c].chains.size(); ++ch)
        gs[g].items.push_back(ChainItem{c, ch, cores[c].chains[ch]});
      gs[g].patterns = std::max(gs[g].patterns, cores[c].patterns);
    }
    gs[g].term.assign(width, UINT64_MAX);
  }
  const auto scan_term = [&](Group& g, std::size_t k) {
    if (g.term[k] == UINT64_MAX) {
      const auto wires = static_cast<unsigned>(width - k);
      g.term[k] = scan_cycles(
          assign_lpt_grouped_refined(g.items, wires).max_load(), g.patterns);
    }
    return g.term[k];
  };

  // Greedy BIST slotting — this is SessionScheduler::greedy's BIST phase:
  // each engine joins the session whose total grows least (first such
  // session on ties), or gets a dedicated session when that is cheaper.
  std::vector<std::vector<std::size_t>> group_bist(scan_groups.size());
  std::vector<std::size_t> extra;
  for (const std::size_t core : bist_cores) {
    const std::uint64_t standalone = cores[core].bist_cycles + config;
    std::size_t best_group = scan_groups.size();
    std::uint64_t best_delta = standalone;
    for (std::size_t g = 0; g < scan_groups.size(); ++g) {
      if (gs[g].n_bist + 1 >= width) continue;  // keep 1 scan wire
      const std::uint64_t t_without =
          std::max(scan_term(gs[g], gs[g].n_bist), gs[g].max_bist) + config;
      const std::uint64_t t_with =
          std::max(scan_term(gs[g], gs[g].n_bist + 1),
                   std::max(gs[g].max_bist, cores[core].bist_cycles)) +
          config;
      if (t_with - t_without < best_delta) {
        best_delta = t_with - t_without;
        best_group = g;
      }
    }
    if (best_group < scan_groups.size()) {
      group_bist[best_group].push_back(core);
      gs[best_group].n_bist += 1;
      gs[best_group].max_bist =
          std::max(gs[best_group].max_bist, cores[core].bist_cycles);
    } else {
      extra.push_back(core);
    }
  }

  std::uint64_t total = 0;
  if (out_sessions != nullptr) out_sessions->clear();
  for (std::size_t g = 0; g < scan_groups.size(); ++g) {
    total += std::max(scan_term(gs[g], gs[g].n_bist), gs[g].max_bist) + config;
    if (out_sessions != nullptr)
      out_sessions->push_back(
          scheduler.price_session(scan_groups[g], group_bist[g]));
  }
  for (const std::size_t core : extra) {
    total += cores[core].bist_cycles + config;
    if (out_sessions != nullptr)
      out_sessions->push_back(scheduler.price_session({}, {core}));
  }
  return total;
}

std::vector<std::vector<std::size_t>> reference_greedy_scan_groups(
    const SessionScheduler& scheduler, ScheduleStats* stats = nullptr) {
  const std::vector<CoreTestSpec>& cores = scheduler.cores();
  const unsigned width = scheduler.width();
  const std::uint64_t config = scheduler.reconfig_cost();

  // Cores by pattern count descending, so similar budgets group together.
  std::vector<std::size_t> order;
  for (std::size_t i = 0; i < cores.size(); ++i)
    if (cores[i].is_scan()) order.push_back(i);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return cores[a].patterns > cores[b].patterns;
                   });

  // A core joins the first group where testing it concurrently is no
  // dearer than a dedicated session: t_with <= t_without + t_alone, all
  // scan-only sessions on the full width. t_without is kept per group (it
  // changes only when a core joins), t_alone is balanced once per core,
  // and a probe whose balance lower bound exceeds the budget is rejected
  // unbalanced — exactly, as no placement beats max(longest chain,
  // ceil(bits / wires)) and scan_cycles is monotone in the load.
  struct Group {
    std::vector<ChainItem> items;  ///< in price_session's order
    GroupBound bound;
    std::uint64_t cost = 0;
  };
  const auto cost_of = [&](const std::vector<ChainItem>& items,
                           std::size_t patterns) {
    return scan_cycles(assign_lpt_grouped_refined(items, width).max_load(),
                       patterns) +
           config;
  };
  std::vector<std::vector<std::size_t>> groups;
  std::vector<Group> state;
  ScheduleStats effort;
  for (const std::size_t core : order) {
    Group alone;
    for (std::size_t ch = 0; ch < cores[core].chains.size(); ++ch)
      alone.items.push_back(ChainItem{core, ch, cores[core].chains[ch]});
    alone.bound.add(cores[core]);
    alone.cost = cost_of(alone.items, cores[core].patterns);
    std::size_t g = 0;
    for (; g < groups.size(); ++g) {
      ++effort.nodes_expanded;
      Group& group = state[g];
      GroupBound joint = group.bound;
      joint.add(cores[core]);
      const std::uint64_t budget = group.cost + alone.cost;
      if (joint.scan_lower_bound(width) + config > budget) {
        ++effort.prunes;
        continue;
      }
      ++effort.leaves_priced;
      const std::size_t n_items = group.items.size();
      group.items.insert(group.items.end(), alone.items.begin(),
                         alone.items.end());
      const std::uint64_t t_with = cost_of(group.items, joint.max_patterns);
      if (t_with <= budget) {
        group.bound = joint;
        group.cost = t_with;
        break;
      }
      group.items.resize(n_items);
    }
    if (g == groups.size()) {
      groups.emplace_back();
      state.push_back(std::move(alone));
    }
    groups[g].push_back(core);
  }
  if (stats != nullptr) *stats = effort;
  return groups;
}

Schedule reference_phased(const SessionScheduler& s) {
  const std::vector<CoreTestSpec>& cores_ = s.cores();
  const unsigned width_ = s.width();
  // Partition cores.
  std::vector<std::size_t> scan, bist;
  for (std::size_t i = 0; i < cores_.size(); ++i) {
    if (cores_[i].is_scan())
      scan.push_back(i);
    else
      bist.push_back(i);
  }

  Schedule sched;

  // Pure-BIST SoCs degenerate to chunked parallel BIST sessions.
  if (scan.empty()) {
    for (std::size_t i = 0; i < bist.size(); i += width_) {
      std::vector<std::size_t> chunk(
          bist.begin() + static_cast<std::ptrdiff_t>(i),
          bist.begin() + static_cast<std::ptrdiff_t>(
                             std::min(i + width_, bist.size())));
      sched.sessions.push_back(s.price_session({}, chunk));
      sched.total_cycles += sched.sessions.back().total_cycles();
    }
    return sched;
  }

  // BIST cores occupy dedicated wires for the duration of the scan
  // program (overflow beyond the wire budget gets chunked sessions).
  std::size_t resident_bist =
      std::min<std::size_t>(bist.size(), width_ - 1);
  const auto scan_wires = static_cast<unsigned>(width_ - resident_bist);
  std::uint64_t bist_time = 0;
  for (std::size_t i = 0; i < resident_bist; ++i)
    bist_time = std::max(bist_time, cores_[bist[i]].bist_cycles);

  // Phase boundaries: distinct pattern counts, ascending.
  std::stable_sort(scan.begin(), scan.end(), [&](auto a, auto b) {
    return cores_[a].patterns < cores_[b].patterns;
  });

  std::uint64_t scan_time = 0;
  std::size_t done_patterns = 0;
  std::size_t cursor = 0;
  bool first_phase = true;
  while (cursor < scan.size()) {
    // Active set: every core not yet retired.
    const std::size_t v_target = cores_[scan[cursor]].patterns;
    std::vector<std::size_t> active(scan.begin() +
                                        static_cast<std::ptrdiff_t>(cursor),
                                    scan.end());
    ScheduledSession session;
    session.scan_cores = active;
    if (first_phase) {
      for (std::size_t i = 0; i < resident_bist; ++i)
        session.bist_cores.push_back(bist[i]);
      session.bist_cycles = bist_time;
      first_phase = false;
    }
    session.config_cycles = s.reconfig_cost();

    for (const std::size_t c : active)
      for (std::size_t ch = 0; ch < cores_[c].chains.size(); ++ch)
        session.items.push_back(ChainItem{c, ch, cores_[c].chains[ch]});
    session.balance = assign_lpt_grouped_refined(session.items, scan_wires);
    const std::size_t load = session.balance.max_load();
    const std::size_t dv = v_target - done_patterns;
    session.patterns_applied = dv;
    session.scan_cycles = sched::scan_cycles(load, dv);
    scan_time += session.scan_cycles;
    sched.sessions.push_back(std::move(session));

    done_patterns = v_target;
    while (cursor < scan.size() &&
           cores_[scan[cursor]].patterns == v_target)
      ++cursor;
  }

  sched.bist_spans_sessions = resident_bist > 0;

  // Total: phases are sequential; resident BIST overlaps the whole scan
  // program (it only needs its wires held).
  std::uint64_t total = 0;
  for (const auto& session : sched.sessions)
    total += session.scan_cycles + session.config_cycles;
  total = std::max(total, bist_time +
                              (sched.sessions.empty()
                                   ? s.reconfig_cost()
                                   : sched.sessions[0].config_cycles));

  // Overflow BIST sessions.
  for (std::size_t i = resident_bist; i < bist.size(); i += width_) {
    std::vector<std::size_t> chunk(
        bist.begin() + static_cast<std::ptrdiff_t>(i),
        bist.begin() + static_cast<std::ptrdiff_t>(
                           std::min(i + width_, bist.size())));
    sched.sessions.push_back(s.price_session({}, chunk));
    total += sched.sessions.back().total_cycles();
  }
  sched.total_cycles = total;
  return sched;
}

// ---------------------------------------------------------------------------

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


/// Each scan core of \p s in one group of a random partition into at most
/// \p max_groups groups, listed in core order.
std::vector<std::vector<std::size_t>> random_partition(
    const SessionScheduler& s, Rng& rng, std::size_t max_groups) {
  std::vector<std::vector<std::size_t>> groups(1 + rng.below(max_groups));
  for (std::size_t i = 0; i < s.cores().size(); ++i)
    if (s.cores()[i].is_scan()) groups[rng.below(groups.size())].push_back(i);
  std::erase_if(groups, [](const auto& g) { return g.empty(); });
  return groups;
}

// Greedy, phased and the partition evaluator against the pre-chain-set
// formulations, field for field, on generated SoCs of every profile. The
// evaluator is also run through one scan-term memo across partitions that
// repeat groups, as a search runs it: memo hits must not change a price.
TEST(GreedyPricing, ChainSetSchedulesMatchReferences) {
  const explore::SocGenerator gen(1);
  Rng rng(4242);
  std::uint64_t hits = 0;
  for (const std::size_t n :
       {std::size_t{100}, std::size_t{300}, std::size_t{1000}}) {
    for (std::size_t p = 0; p < explore::kProfileCount; ++p) {
      const explore::GeneratedSoc soc =
          gen.generate(n, static_cast<explore::SocProfile>(p));
      const unsigned w = soc.suggested_width;
      std::vector<unsigned> widths = {w};
      if (n < 1000) widths = {std::max(2u, w / 2), w, std::min(64u, 2 * w)};
      for (const unsigned width : widths) {
        const SessionScheduler s(soc.cores, width);
        const std::string at = soc.name + " width " + std::to_string(width);
        std::vector<std::size_t> bist;
        for (std::size_t i = 0; i < soc.cores.size(); ++i)
          if (!soc.cores[i].is_scan()) bist.push_back(i);

        ScheduleStats want_stats, got_stats;
        Schedule want;
        const auto groups = reference_greedy_scan_groups(s, &want_stats);
        want.total_cycles =
            reference_price_scan_partition(s, groups, bist, &want.sessions);
        const Schedule got = s.greedy(&got_stats);
        EXPECT_EQ(first_difference(got, want), "") << "greedy " << at;
        EXPECT_EQ(got_stats.nodes_expanded, want_stats.nodes_expanded) << at;
        EXPECT_EQ(got_stats.prunes, want_stats.prunes) << at;
        EXPECT_EQ(got_stats.leaves_priced, want_stats.leaves_priced) << at;
        EXPECT_GT(got_stats.balances, got_stats.leaves_priced) << at;

        EXPECT_EQ(first_difference(s.phased(), reference_phased(s)), "")
            << "phased " << at;

        ScanTermMemo memo;
        std::vector<std::vector<std::vector<std::size_t>>> partitions = {
            groups};
        for (int k = 0; k < 3; ++k)
          partitions.push_back(random_partition(s, rng, 24));
        partitions.push_back(partitions[1]);  // all hits
        for (std::size_t k = 0; k < partitions.size(); ++k) {
          std::vector<ScheduledSession> want_sessions, got_sessions;
          const std::uint64_t want_total = reference_price_scan_partition(
              s, partitions[k], bist, &want_sessions);
          ScanTerms terms;
          terms.known = &memo;
          const std::uint64_t got_total = price_scan_partition(
              s, partitions[k], bist, k % 2 == 0 ? &got_sessions : nullptr,
              &terms);
          memo.absorb(terms.learned);
          hits += terms.memo_hits;
          EXPECT_EQ(got_total, want_total) << "partition " << k << " " << at;
          EXPECT_EQ(price_scan_partition(s, partitions[k], bist), want_total)
              << "memo-free partition " << k << " " << at;
          if (k % 2 == 0) {
            Schedule a, b;
            a.sessions = std::move(got_sessions);
            b.sessions = std::move(want_sessions);
            EXPECT_EQ(first_difference(a, b), "")
                << "partition " << k << " " << at;
          }
        }
      }
    }
  }
  EXPECT_GT(hits, 0u);
}

/// StableHash of every field of \p s.
std::uint64_t schedule_digest(const Schedule& s) {
  StableHash h;
  h.mix(s.total_cycles)
      .mix(s.chip_synchronous ? 1 : 0)
      .mix(s.bist_spans_sessions ? 1 : 0)
      .mix(s.sessions.size());
  for (const ScheduledSession& x : s.sessions) {
    h.mix(x.scan_cores.size());
    for (const std::size_t c : x.scan_cores) h.mix(c);
    h.mix(x.bist_cores.size());
    for (const std::size_t c : x.bist_cores) h.mix(c);
    h.mix(x.balance.wire_of_item.size());
    for (const unsigned w : x.balance.wire_of_item) h.mix(w);
    h.mix(x.balance.wire_load.size());
    for (const std::size_t l : x.balance.wire_load) h.mix(l);
    h.mix(x.items.size());
    for (const ChainItem& it : x.items)
      h.mix(it.core).mix(it.chain).mix(it.length);
    h.mix(x.patterns_applied)
        .mix(x.scan_cycles)
        .mix(x.bist_cycles)
        .mix(x.config_cycles);
  }
  return h.value();
}

// Branch and bound, default budget, on seed-1 SoCs of every profile at
// their suggested width: the certificate, every effort counter and a
// digest of every Schedule field, as the pricing before chain sets and the
// scan-term memo produced them. The new counters must agree at 1 and 4
// threads, and the memo must answer some terms on the larger instances.
TEST(GreedyPricing, BranchBoundMatchesPinnedResults) {
  struct Pinned {
    std::size_t cores, profile;
    unsigned width;
    std::uint64_t best_cost, lower_bound, nodes, leaves, dives, prunes,
        improvements, rebalances;
    bool optimal;
    std::uint64_t digest;
  };
  const Pinned pinned[] = {
    {100, 0, 10, 8991502u, 7138515u, 50000u, 0u, 16u, 48618u, 5u, 0u, false, 0x8f1bfca252c03625u},
    {100, 1, 10, 60184517u, 45026019u, 50000u, 0u, 16u, 40u, 1u, 0u, false, 0xa428190cb23308a3u},
    {100, 2, 10, 12953693u, 4274924u, 50000u, 0u, 16u, 0u, 4u, 0u, false, 0x5c5548c0d9cace4du},
    {100, 3, 10, 15249496u, 15249496u, 478u, 215u, 1u, 564u, 2u, 0u, true, 0x811e51f257cfa4d1u},
    {300, 0, 17, 25332435u, 14561873u, 50000u, 0u, 16u, 59u, 1u, 0u, false, 0x937df0bd7a602da1u},
    {300, 1, 17, 107343333u, 74884904u, 50000u, 0u, 16u, 0u, 2u, 0u, false, 0x8a26a025433f2ffu},
    {300, 2, 17, 34780890u, 7082138u, 50000u, 0u, 16u, 0u, 6u, 0u, false, 0xec3d4b402ee54501u},
    {300, 3, 17, 27658463u, 20991176u, 50000u, 0u, 16u, 7194u, 5u, 0u, false, 0xe3f856ad753a6c0cu},
    {1000, 0, 32, 69025017u, 23906549u, 50000u, 0u, 16u, 0u, 5u, 0u, false, 0x6e8c9a1f02584552u},
    {1000, 1, 32, 204222360u, 122131126u, 50000u, 0u, 16u, 0u, 3u, 0u, false, 0x709b473121b5a067u},
    {1000, 2, 32, 176295024u, 11707518u, 50000u, 0u, 16u, 0u, 7u, 0u, false, 0xe28787ad44b71e72u},
    {1000, 3, 32, 52140237u, 34581817u, 50000u, 0u, 16u, 1725u, 4u, 0u, false, 0x13b6b836db2300dcu},
  };
  for (const Pinned& want : pinned) {
    const explore::GeneratedSoc soc = explore::SocGenerator(1).generate(
        want.cores, static_cast<explore::SocProfile>(want.profile));
    ASSERT_EQ(soc.suggested_width, want.width) << soc.name;
    const SessionScheduler s(soc.cores, soc.suggested_width);
    std::uint64_t balances = 0, hits = 0;
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      explore::BranchBoundConfig config;
      config.threads = threads;
      const explore::BranchBoundResult r =
          explore::BranchBoundScheduler(s, config).run();
      const std::string at =
          soc.name + " threads " + std::to_string(threads);
      EXPECT_EQ(r.best_cost, want.best_cost) << at;
      EXPECT_EQ(r.lower_bound, want.lower_bound) << at;
      EXPECT_EQ(r.nodes_expanded, want.nodes) << at;
      EXPECT_EQ(r.leaves_priced, want.leaves) << at;
      EXPECT_EQ(r.dives, want.dives) << at;
      EXPECT_EQ(r.prunes, want.prunes) << at;
      EXPECT_EQ(r.incumbent_improvements, want.improvements) << at;
      EXPECT_EQ(r.rebalances, want.rebalances) << at;
      EXPECT_EQ(r.optimal, want.optimal) << at;
      EXPECT_EQ(schedule_digest(r.schedule), want.digest) << at;
      if (threads == 1) {
        balances = r.balances;
        hits = r.term_memo_hits;
      }
      EXPECT_EQ(r.balances, balances) << at;
      EXPECT_EQ(r.term_memo_hits, hits) << at;
    }
    EXPECT_GT(balances, 0u) << soc.name;
    if (want.cores == 1000) {
      EXPECT_GT(hits, 0u) << soc.name;
    }
  }
}

}  // namespace
}  // namespace casbus::sched
