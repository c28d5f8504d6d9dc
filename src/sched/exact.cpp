#include "sched/exact.hpp"

#include <algorithm>
#include <functional>

#include "sched/lower_bound.hpp"
#include "util/hash.hpp"

namespace casbus::sched {

std::size_t ScanTermMemo::Hash::operator()(
    const std::vector<std::size_t>& v) const noexcept {
  StableHash h;
  for (const std::size_t x : v) h.mix(x);
  return static_cast<std::size_t>(h.value());
}

const std::vector<std::uint64_t>* ScanTermMemo::find(
    const std::vector<std::size_t>& group) const {
  const auto it = terms_.find(group);
  return it == terms_.end() ? nullptr : &it->second;
}

void ScanTermMemo::insert(const std::vector<std::size_t>& group,
                          const std::vector<std::uint64_t>& terms) {
  const auto [it, fresh] = terms_.try_emplace(group, terms);
  if (fresh) return;
  std::vector<std::uint64_t>& have = it->second;
  CASBUS_REQUIRE(have.size() == terms.size(),
                 "ScanTermMemo: terms of another bus width");
  for (std::size_t k = 0; k < terms.size(); ++k)
    if (have[k] == UINT64_MAX) have[k] = terms[k];
}

void ScanTermMemo::absorb(const ScanTermMemo& other) {
  for (const auto& [group, terms] : other.terms_) insert(group, terms);
}

std::uint64_t price_scan_partition(
    const SessionScheduler& scheduler,
    const std::vector<std::vector<std::size_t>>& scan_groups,
    const std::vector<std::size_t>& bist_cores,
    std::vector<ScheduledSession>* out_sessions, ScanTerms* terms) {
  const unsigned width = scheduler.width();
  const std::uint64_t config = scheduler.reconfig_cost();
  const std::vector<CoreTestSpec>& cores = scheduler.cores();

  // Per-group session state. The only way a co-tenant BIST engine changes
  // the scan term is by occupying wires, so scan terms are memoized per
  // (group, occupied-wire count) — the greedy slotting loop below then
  // prices each geometry once instead of re-balancing per candidate. A
  // group's chains are sorted once, on its first balance, for every wire
  // count; a term the caller's memo holds needs neither.
  struct Group {
    GroupBound bound;  ///< patterns, and the balance lower bound
    std::vector<std::uint64_t> term;  ///< scan term at k BIST wires; lazy
    const std::vector<std::uint64_t>* known = nullptr;  ///< memo row
    ChainSet chains;
    bool sorted = false;
    bool learned = false;  ///< balanced a term the memo lacked
    std::uint64_t max_bist = 0;
    std::size_t n_bist = 0;
  };
  std::vector<Group> gs(scan_groups.size());
  for (std::size_t g = 0; g < scan_groups.size(); ++g) {
    for (const std::size_t c : scan_groups[g]) gs[g].bound.add(cores[c]);
    gs[g].term.assign(width, UINT64_MAX);
    if (terms != nullptr && terms->known != nullptr)
      gs[g].known = terms->known->find(scan_groups[g]);
  }
  std::uint64_t balances = 0;
  const auto scan_term = [&](std::size_t g, std::size_t k) {
    Group& group = gs[g];
    if (group.term[k] != UINT64_MAX) return group.term[k];
    if (group.known != nullptr && k < group.known->size() &&
        (*group.known)[k] != UINT64_MAX) {
      ++terms->memo_hits;
      return group.term[k] = (*group.known)[k];
    }
    if (!group.sorted) {
      std::vector<ChainItem> items;
      for (const std::size_t c : scan_groups[g])
        for (std::size_t ch = 0; ch < cores[c].chains.size(); ++ch)
          items.push_back(ChainItem{c, ch, cores[c].chains[ch]});
      group.chains = ChainSet(items);
      group.sorted = true;
    }
    ++balances;
    group.learned = true;
    const auto wires = static_cast<unsigned>(width - k);
    return group.term[k] = scan_cycles(group.chains.refined_max_load(wires),
                                       group.bound.max_patterns);
  };

  // Greedy BIST slotting — this is SessionScheduler::greedy's BIST phase:
  // each engine joins the session whose total grows least (first such
  // session on ties), or gets a dedicated session when that is cheaper.
  std::vector<std::vector<std::size_t>> group_bist(scan_groups.size());
  std::vector<std::size_t> extra;
  for (const std::size_t core : bist_cores) {
    const std::uint64_t engine = cores[core].bist_cycles;
    const std::uint64_t standalone = engine + config;
    std::size_t best_group = scan_groups.size();
    std::uint64_t best_delta = standalone;
    for (std::size_t g = 0; g < scan_groups.size(); ++g) {
      Group& group = gs[g];
      if (group.n_bist + 1 >= width) continue;  // keep 1 scan wire
      const std::uint64_t t_without =
          std::max(scan_term(g, group.n_bist), group.max_bist) + config;
      const std::uint64_t bist_with = std::max(group.max_bist, engine);
      // Exact reject without balancing: t_with >= lbw, so once lbw lies
      // best_delta or more above t_without the group cannot win. Below
      // t_without the bound says nothing, as t_with - t_without may wrap.
      const std::uint64_t lbw =
          std::max(group.bound.scan_lower_bound(static_cast<unsigned>(
                       width - group.n_bist - 1)),
                   bist_with) +
          config;
      if (lbw >= t_without && lbw - t_without >= best_delta) continue;
      const std::uint64_t t_with =
          std::max(scan_term(g, group.n_bist + 1), bist_with) + config;
      // Unsigned on purpose, and it decides schedules: when the engine's
      // wire *lowers* the grouped-LPT scan term (t_with < t_without), the
      // delta wraps to a huge value and the group is never chosen. Making
      // it signed changes schedules and digests (see ROADMAP).
      if (t_with - t_without < best_delta) {
        best_delta = t_with - t_without;
        best_group = g;
      }
    }
    if (best_group < scan_groups.size()) {
      group_bist[best_group].push_back(core);
      gs[best_group].n_bist += 1;
      gs[best_group].max_bist = std::max(gs[best_group].max_bist, engine);
    } else {
      extra.push_back(core);
    }
  }

  std::uint64_t total = 0;
  if (out_sessions != nullptr) out_sessions->clear();
  for (std::size_t g = 0; g < scan_groups.size(); ++g) {
    total += std::max(scan_term(g, gs[g].n_bist), gs[g].max_bist) + config;
    if (out_sessions != nullptr) {
      out_sessions->push_back(
          scheduler.price_session(scan_groups[g], group_bist[g]));
      ++balances;
    }
  }
  for (const std::size_t core : extra) {
    total += cores[core].bist_cycles + config;
    if (out_sessions != nullptr)
      out_sessions->push_back(scheduler.price_session({}, {core}));
  }
  if (terms != nullptr) {
    terms->balances += balances;
    for (std::size_t g = 0; g < scan_groups.size(); ++g)
      if (gs[g].learned) terms->learned.insert(scan_groups[g], gs[g].term);
  }
  return total;
}

std::vector<std::vector<std::size_t>> greedy_scan_groups(
    const SessionScheduler& scheduler, ScheduleStats* stats) {
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
  // ceil(bits / wires)) and scan_cycles is monotone in the load. Each
  // group keeps its chains sorted, so a probe merges the core's chains in
  // instead of sorting the joint session.
  ScheduleStats effort;
  struct Group {
    ChainSet chains;  ///< of the items in price_session's order
    GroupBound bound;
    std::uint64_t cost = 0;
  };
  const auto cost_of = [&](const ChainSet& chains, std::size_t patterns) {
    ++effort.balances;
    return scan_cycles(chains.refined_max_load(width), patterns) + config;
  };
  std::vector<std::vector<std::size_t>> groups;
  std::vector<Group> state;
  for (const std::size_t core : order) {
    Group alone;
    std::vector<ChainItem> items;
    for (std::size_t ch = 0; ch < cores[core].chains.size(); ++ch)
      items.push_back(ChainItem{core, ch, cores[core].chains[ch]});
    alone.chains = ChainSet(items);
    alone.bound.add(cores[core]);
    alone.cost = cost_of(alone.chains, cores[core].patterns);
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
      // The probing core's chains follow the group's, as in price_session.
      ChainSet joint_chains = group.chains.merged(alone.chains);
      const std::uint64_t t_with = cost_of(joint_chains, joint.max_patterns);
      if (t_with <= budget) {
        group.chains = std::move(joint_chains);
        group.bound = joint;
        group.cost = t_with;
        break;
      }
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

Schedule optimal_pure_bist_schedule(const SessionScheduler& scheduler) {
  std::vector<std::size_t> bist;
  for (std::size_t i = 0; i < scheduler.cores().size(); ++i) {
    CASBUS_REQUIRE(!scheduler.cores()[i].is_scan(),
                   "optimal_pure_bist_schedule: scan cores present");
    bist.push_back(i);
  }
  // Session cost is max(engine) + config, so sort by length and chunk
  // width at a time: session i's cost then equals its lower bound (the
  // i*width-th longest engine) and the session count is minimal — input-
  // order chunking (what single_session does) can be arbitrarily worse
  // when long and short engines interleave.
  std::stable_sort(bist.begin(), bist.end(), [&](std::size_t a,
                                                 std::size_t b) {
    return scheduler.cores()[a].bist_cycles >
           scheduler.cores()[b].bist_cycles;
  });
  Schedule schedule;
  const unsigned width = scheduler.width();
  for (std::size_t i = 0; i < bist.size(); i += width) {
    const std::vector<std::size_t> chunk(
        bist.begin() + static_cast<std::ptrdiff_t>(i),
        bist.begin() + static_cast<std::ptrdiff_t>(
                           std::min<std::size_t>(i + width, bist.size())));
    schedule.sessions.push_back(scheduler.price_session({}, chunk));
    schedule.total_cycles += schedule.sessions.back().total_cycles();
  }
  return schedule;
}

ExactResult exact_schedule(const SessionScheduler& scheduler,
                           std::size_t max_cores,
                           bool compute_heuristic_gap) {
  std::vector<std::size_t> scan, bist;
  for (std::size_t i = 0; i < scheduler.cores().size(); ++i) {
    if (scheduler.cores()[i].is_scan())
      scan.push_back(i);
    else
      bist.push_back(i);
  }
  CASBUS_REQUIRE(scan.size() <= max_cores,
                 "exact_schedule: instance too large for exhaustive search");

  ExactResult result;
  const std::vector<CoreTestSpec>& cores = scheduler.cores();
  const unsigned width = scheduler.width();
  const std::uint64_t config = scheduler.reconfig_cost();

  if (scan.empty()) {
    result.schedule = optimal_pure_bist_schedule(scheduler);
    if (compute_heuristic_gap && result.schedule.total_cycles > 0)
      result.heuristic_gap =
          static_cast<double>(scheduler.best().total_cycles) /
              static_cast<double>(result.schedule.total_cycles) -
          1.0;
    return result;
  }

  // Place demanding cores first so the lower bound bites early.
  std::stable_sort(scan.begin(), scan.end(), [&](std::size_t a,
                                                 std::size_t b) {
    return core_session_lower_bound(cores[a], width) >
           core_session_lower_bound(cores[b], width);
  });

  // Instance-wide terms of the node bound: wire-time conservation and the
  // BIST chunking pigeonhole (both floors on the summed session maxima).
  const std::uint64_t work_bound =
      std::max((total_wire_work(cores) + width - 1) / width,
               bist_chunk_bound(cores, width));

  // Incumbent: greedy's scan partition, re-priced by the shared evaluator
  // so the seed is exactly comparable with search leaves.
  std::vector<std::vector<std::size_t>> best_groups =
      greedy_scan_groups(scheduler);
  std::uint64_t best_total =
      price_scan_partition(scheduler, best_groups, bist);

  // Restricted-growth enumeration of set partitions with incremental
  // per-group balance bounds. `structural` tracks the sum over open groups
  // of (scan lower bound + configuration) — admissible because adding
  // cores to a group can only raise its session's real cost.
  std::vector<std::vector<std::size_t>> groups;
  std::vector<GroupBound> bounds;
  std::vector<std::uint64_t> bound_of;  // cached scan_lower_bound + config
  std::uint64_t structural = 0;

  const std::function<void(std::size_t)> recurse = [&](std::size_t idx) {
    if (idx == scan.size()) {
      ++result.partitions_tried;
      const std::uint64_t total =
          price_scan_partition(scheduler, groups, bist);
      if (total < best_total) {
        best_total = total;
        best_groups = groups;
      }
      return;
    }
    const CoreTestSpec& core = cores[scan[idx]];
    for (std::size_t g = 0; g <= groups.size(); ++g) {
      const bool fresh = g == groups.size();
      const GroupBound saved = fresh ? GroupBound{} : bounds[g];
      const std::uint64_t saved_bound = fresh ? 0 : bound_of[g];
      if (fresh) {
        groups.push_back({scan[idx]});
        bounds.push_back({});
        bound_of.push_back(0);
      } else {
        groups[g].push_back(scan[idx]);
      }
      bounds[g].add(core);
      bound_of[g] = bounds[g].scan_lower_bound(width) + config;
      structural += bound_of[g] - saved_bound;

      const std::uint64_t node_bound = std::max(
          structural + config * partition_overflow_floor(groups.size(),
                                                         bist.size(), width),
          work_bound + config * partition_session_floor(groups.size(),
                                                        bist.size(), width));
      if (node_bound >= best_total)
        ++result.subtrees_pruned;
      else
        recurse(idx + 1);

      structural -= bound_of[g] - saved_bound;
      if (fresh) {
        groups.pop_back();
        bounds.pop_back();
        bound_of.pop_back();
      } else {
        groups[g].pop_back();
        bounds[g] = saved;
        bound_of[g] = saved_bound;
      }
    }
  };
  recurse(0);

  // Materialize the winning schedule and the in-library heuristic gap.
  std::vector<ScheduledSession> sessions;
  result.schedule.total_cycles =
      price_scan_partition(scheduler, best_groups, bist, &sessions);
  result.schedule.sessions = std::move(sessions);
  if (compute_heuristic_gap && result.schedule.total_cycles > 0)
    result.heuristic_gap =
        static_cast<double>(scheduler.best().total_cycles) /
            static_cast<double>(result.schedule.total_cycles) -
        1.0;
  return result;
}

}  // namespace casbus::sched
