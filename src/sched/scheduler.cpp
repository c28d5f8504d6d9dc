#include "sched/scheduler.hpp"

#include <algorithm>
#include <numeric>

// Deliberate upward dependency (cpp-only, no header cycle): Strategy is
// the run-time selection vocabulary of the whole tree, so schedule_with
// must dispatch every strategy — including the branch-and-bound engine
// that lives a layer above in src/explore. The casbus library is a single
// archive; if sched ever needs to stand alone, this dispatch case is the
// one seam to cut.
#include "explore/branch_bound.hpp"
#include "sched/exact.hpp"

namespace casbus::sched {

const char* strategy_name(Strategy s) noexcept {
  switch (s) {
    case Strategy::Single: return "single";
    case Strategy::PerCore: return "per_core";
    case Strategy::Greedy: return "greedy";
    case Strategy::Phased: return "phased";
    case Strategy::Best: return "best";
    case Strategy::Exact: return "exact";
    case Strategy::BranchBound: return "branch_bound";
  }
  return "unknown";
}

Strategy strategy_from_name(std::string_view name) {
  if (name == "single") return Strategy::Single;
  if (name == "per_core") return Strategy::PerCore;
  if (name == "greedy") return Strategy::Greedy;
  if (name == "phased") return Strategy::Phased;
  if (name == "best") return Strategy::Best;
  if (name == "exact") return Strategy::Exact;
  if (name == "branch_bound") return Strategy::BranchBound;
  CASBUS_REQUIRE(false, "unknown scheduling strategy: " + std::string(name));
  return Strategy::Greedy;  // unreachable
}

Schedule SessionScheduler::schedule_with(Strategy s,
                                         ScheduleStats* stats) const {
  switch (s) {
    case Strategy::Single: return single_session();
    case Strategy::PerCore: return per_core_sessions();
    case Strategy::Greedy: return greedy(stats);
    case Strategy::Phased: return phased();
    case Strategy::Best: return best();
    case Strategy::Exact:
      // Gap-free dispatch: callers here want the schedule, not the
      // best()-vs-optimal comparison.
      return exact_schedule(*this, 12, /*compute_heuristic_gap=*/false)
          .schedule;
    case Strategy::BranchBound: {
      const explore::BranchBoundResult result =
          explore::BranchBoundScheduler(*this).run();
      if (stats != nullptr) {
        stats->nodes_expanded = result.nodes_expanded;
        stats->prunes = result.prunes;
        stats->incumbent_improvements = result.incumbent_improvements;
        stats->leaves_priced = result.leaves_priced;
        stats->balances = result.balances;
      }
      return result.schedule;
    }
  }
  CASBUS_REQUIRE(false, "schedule_with: invalid strategy");
  return {};  // unreachable
}

Schedule schedule_with(const std::vector<CoreTestSpec>& cores,
                       unsigned bus_width, Strategy s, ScheduleStats* stats) {
  return SessionScheduler(cores, bus_width).schedule_with(s, stats);
}

SessionScheduler::SessionScheduler(std::vector<CoreTestSpec> cores,
                                   unsigned bus_width)
    : cores_(std::move(cores)), width_(bus_width) {
  CASBUS_REQUIRE(width_ >= 1, "SessionScheduler: bus width must be >= 1");
  CASBUS_REQUIRE(!cores_.empty(), "SessionScheduler: no cores");
  for (const CoreTestSpec& c : cores_)
    CASBUS_REQUIRE(c.is_scan() || c.bist_cycles > 0,
                   "core needs scan chains or BIST: " + c.name);
  std::vector<std::pair<unsigned, unsigned>> geometries;
  geometries.reserve(cores_.size());
  for (const CoreTestSpec& c : cores_) {
    const auto p = static_cast<unsigned>(
        c.is_scan() ? std::min<std::size_t>(c.chains.size(), width_) : 1);
    geometries.emplace_back(width_, p);
  }
  reconfig_cost_ = session_config_cycles(geometries, cores_.size());
}

ScheduledSession SessionScheduler::price_session(
    const std::vector<std::size_t>& scan,
    const std::vector<std::size_t>& bist) const {
  ScheduledSession s;
  s.scan_cores = scan;
  s.bist_cores = bist;
  s.config_cycles = reconfig_cost();

  // Each BIST core occupies one wire for its start/verdict handshake.
  CASBUS_REQUIRE(bist.size() <= width_, "more BIST cores than wires");
  const auto scan_wires = static_cast<unsigned>(width_ - bist.size());

  for (const std::size_t b : bist)
    s.bist_cycles = std::max(s.bist_cycles, cores_[b].bist_cycles);

  if (!scan.empty()) {
    CASBUS_REQUIRE(scan_wires >= 1,
                   "no wires left for scan after BIST allocation");
    std::size_t patterns = 0;
    for (const std::size_t c : scan) {
      for (std::size_t ch = 0; ch < cores_[c].chains.size(); ++ch)
        s.items.push_back(ChainItem{c, ch, cores_[c].chains[ch]});
      patterns = std::max(patterns, cores_[c].patterns);
    }
    s.patterns_applied = patterns;
    s.balance = assign_lpt_grouped_refined(s.items, scan_wires);
    s.scan_cycles = sched::scan_cycles(s.balance.max_load(), patterns);
  }
  return s;
}

Schedule SessionScheduler::single_session() const {
  std::vector<std::size_t> scan, bist;
  for (std::size_t i = 0; i < cores_.size(); ++i) {
    if (cores_[i].is_scan())
      scan.push_back(i);
    else
      bist.push_back(i);
  }
  // Each BIST core needs its own wire, so a narrow bus may be physically
  // unable to host everything in one configuration; split off additional
  // BIST sessions only when forced.
  const std::size_t first_capacity =
      scan.empty() ? width_ : (width_ > 1 ? width_ - 1 : 0);
  std::vector<std::size_t> first_bist, overflow;
  for (const std::size_t b : bist) {
    if (first_bist.size() < first_capacity)
      first_bist.push_back(b);
    else
      overflow.push_back(b);
  }

  Schedule sched;
  sched.sessions.push_back(price_session(scan, first_bist));
  sched.total_cycles = sched.sessions[0].total_cycles();
  for (std::size_t i = 0; i < overflow.size(); i += width_) {
    std::vector<std::size_t> chunk(
        overflow.begin() + static_cast<std::ptrdiff_t>(i),
        overflow.begin() + static_cast<std::ptrdiff_t>(
                               std::min(i + width_, overflow.size())));
    sched.sessions.push_back(price_session({}, chunk));
    sched.total_cycles += sched.sessions.back().total_cycles();
  }
  return sched;
}

Schedule SessionScheduler::per_core_sessions() const {
  Schedule sched;
  for (std::size_t i = 0; i < cores_.size(); ++i) {
    if (cores_[i].is_scan())
      sched.sessions.push_back(price_session({i}, {}));
    else
      sched.sessions.push_back(price_session({}, {i}));
    sched.total_cycles += sched.sessions.back().total_cycles();
  }
  return sched;
}

Schedule SessionScheduler::phased() const {
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
      sched.sessions.push_back(price_session({}, chunk));
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

  // Every scan chain in phase order, sorted once: a phase's session holds
  // the chains of its active cores, a suffix of these items, so each
  // phase's chain set is cut from the previous one without re-sorting.
  std::vector<ChainItem> all_items;
  for (const std::size_t c : scan)
    for (std::size_t ch = 0; ch < cores_[c].chains.size(); ++ch)
      all_items.push_back(ChainItem{c, ch, cores_[c].chains[ch]});
  ChainSet chains(all_items);
  std::size_t first_item = 0;  ///< of the active cores' chains

  std::uint64_t scan_time = 0;
  std::size_t done_patterns = 0;
  std::size_t cursor = 0;
  bool first_phase = true;
  while (cursor < scan.size()) {
    // Active set: every core not yet retired.
    const std::size_t v_target = cores_[scan[cursor]].patterns;
    ScheduledSession session;
    session.scan_cores.assign(
        scan.begin() + static_cast<std::ptrdiff_t>(cursor), scan.end());
    if (first_phase) {
      for (std::size_t i = 0; i < resident_bist; ++i)
        session.bist_cores.push_back(bist[i]);
      session.bist_cycles = bist_time;
      first_phase = false;
    }
    session.config_cycles = reconfig_cost();

    session.items.assign(
        all_items.begin() + static_cast<std::ptrdiff_t>(first_item),
        all_items.end());
    session.balance = chains.refined(scan_wires);
    const std::size_t load = session.balance.max_load();
    const std::size_t dv = v_target - done_patterns;
    session.patterns_applied = dv;
    session.scan_cycles = sched::scan_cycles(load, dv);
    scan_time += session.scan_cycles;
    sched.sessions.push_back(std::move(session));

    done_patterns = v_target;
    std::size_t retired = 0;
    while (cursor < scan.size() &&
           cores_[scan[cursor]].patterns == v_target)
      retired += cores_[scan[cursor++]].chains.size();
    if (cursor < scan.size()) chains = chains.suffix(retired);
    first_item += retired;
  }

  sched.bist_spans_sessions = resident_bist > 0;

  // Total: phases are sequential; resident BIST overlaps the whole scan
  // program (it only needs its wires held).
  std::uint64_t total = 0;
  for (const auto& session : sched.sessions)
    total += session.scan_cycles + session.config_cycles;
  total = std::max(total, bist_time +
                              (sched.sessions.empty()
                                   ? reconfig_cost()
                                   : sched.sessions[0].config_cycles));

  // Overflow BIST sessions.
  for (std::size_t i = resident_bist; i < bist.size(); i += width_) {
    std::vector<std::size_t> chunk(
        bist.begin() + static_cast<std::ptrdiff_t>(i),
        bist.begin() + static_cast<std::ptrdiff_t>(
                           std::min(i + width_, bist.size())));
    sched.sessions.push_back(price_session({}, chunk));
    total += sched.sessions.back().total_cycles();
  }
  sched.total_cycles = total;
  return sched;
}

Schedule SessionScheduler::rail_emulation(unsigned rails) const {
  CASBUS_REQUIRE(rails >= 1 && rails <= width_,
                 "rail_emulation: need 1 <= rails <= width");
  // Rail widths as equal as possible.
  std::vector<unsigned> rail_width(rails, width_ / rails);
  for (unsigned r = 0; r < width_ % rails; ++r) ++rail_width[r];

  // LPT over standalone core loads.
  std::vector<std::size_t> order(cores_.size());
  std::iota(order.begin(), order.end(), 0);
  const auto load_of = [&](std::size_t i) {
    const CoreTestSpec& c = cores_[i];
    if (c.is_scan())
      return static_cast<std::uint64_t>(c.patterns) * c.total_scan_bits();
    return c.bist_cycles;
  };
  std::stable_sort(order.begin(), order.end(), [&](auto a, auto b) {
    return load_of(a) > load_of(b);
  });

  std::vector<std::uint64_t> rail_time(rails, 0);
  for (const std::size_t i : order) {
    const auto r = static_cast<unsigned>(
        std::min_element(rail_time.begin(), rail_time.end()) -
        rail_time.begin());
    const CoreTestSpec& c = cores_[i];
    if (c.is_scan()) {
      std::vector<ChainItem> items;
      for (std::size_t ch = 0; ch < c.chains.size(); ++ch)
        items.push_back(ChainItem{i, ch, c.chains[ch]});
      const Balance b = assign_lpt_grouped_refined(items, rail_width[r]);
      rail_time[r] += sched::scan_cycles(b.max_load(), c.patterns);
    }
    rail_time[r] += c.bist_cycles;
  }

  // One configuration; groups run in parallel, so the chip-level time is
  // the slowest group. Represent as a single coarse session.
  Schedule sched;
  ScheduledSession session;
  for (std::size_t i = 0; i < cores_.size(); ++i) {
    if (cores_[i].is_scan())
      session.scan_cores.push_back(i);
    else
      session.bist_cores.push_back(i);
  }
  session.config_cycles = reconfig_cost();
  session.scan_cycles =
      *std::max_element(rail_time.begin(), rail_time.end());
  sched.sessions.push_back(std::move(session));
  sched.total_cycles = sched.sessions[0].total_cycles();
  sched.chip_synchronous = false;
  return sched;
}

Schedule SessionScheduler::best() const {
  Schedule result = single_session();
  for (const Schedule& candidate :
       {per_core_sessions(), greedy(), phased()}) {
    if (candidate.total_cycles < result.total_cycles) result = candidate;
  }
  // Rail-style plans: BIST cores need a wire each within their rail, so
  // only rail counts that keep every rail at least one wire wide apply.
  for (unsigned rails = 1; rails <= width_ && rails <= 8; ++rails) {
    const Schedule candidate = rail_emulation(rails);
    if (candidate.total_cycles < result.total_cycles) result = candidate;
  }
  return result;
}

Schedule SessionScheduler::greedy(ScheduleStats* stats) const {
  // Scan cores grouped by greedy_scan_groups, then BIST engines slotted
  // into the session whose total grows least by price_scan_partition.
  std::vector<std::size_t> bist;
  for (std::size_t i = 0; i < cores_.size(); ++i)
    if (!cores_[i].is_scan()) bist.push_back(i);
  ScheduleStats effort;
  ScanTerms terms;
  Schedule sched;
  sched.total_cycles = price_scan_partition(
      *this, greedy_scan_groups(*this, &effort), bist, &sched.sessions,
      &terms);
  effort.balances += terms.balances;
  if (stats != nullptr) *stats = effort;
  return sched;
}

}  // namespace casbus::sched
