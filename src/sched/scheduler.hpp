/// \file scheduler.hpp
/// Multi-session test scheduling with dynamic reconfiguration.
///
/// Paper §4: "the CAS-BUS architecture can be easily modified, even during
/// test sessions, in order to optimize test performances" and §5:
/// "Different TAM architectures can be addressed, in sequential order,
/// within the same test program ... This represents the main advantage of
/// the proposed reconfigurable CAS-BUS architecture." The scheduler turns
/// that claim into numbers: it compares a single static configuration, a
/// one-core-at-a-time program, and a reconfiguration-aware greedy grouping.

#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "sched/balance.hpp"
#include "sched/time_model.hpp"

namespace casbus::sched {

/// Effort counters a strategy can report through schedule_with()'s
/// optional out-param. Strategy::BranchBound fills all five with its
/// search effort. Strategy::Greedy fills four: nodes_expanded = (core,
/// group) probes, prunes = probes rejected by the balance bound without
/// balancing, leaves_priced = probes that ran a full balance (the one
/// dedicated-session balance per scan core is not counted), balances =
/// every chain balance it ran (those dedicated-session ones, the probes,
/// BIST slotting and the final sessions). The other heuristics leave the
/// zeros. Pure observability: the counters never influence the schedule.
struct ScheduleStats {
  std::uint64_t nodes_expanded = 0;          ///< B&B nodes / greedy probes
  std::uint64_t prunes = 0;                  ///< cut by the lower bound
  std::uint64_t incumbent_improvements = 0;  ///< times the best improved
  std::uint64_t leaves_priced = 0;  ///< B&B partitions / probes balanced
  std::uint64_t balances = 0;       ///< chain balances run
};

/// Named scheduling strategies, so callers that select a strategy at run
/// time (CLI flags, test-floor job specs, benchmark sweeps) can drive
/// SessionScheduler generically via SessionScheduler::schedule_with().
///
/// All strategies except Best always produce chip-synchronous (directly
/// executable) schedules; Best additionally sweeps rail emulation, whose
/// winner may require per-group sequencing the broadcast-WSC controller
/// cannot execute (Schedule::chip_synchronous == false).
enum class Strategy {
  Single,      ///< SessionScheduler::single_session()
  PerCore,     ///< SessionScheduler::per_core_sessions()
  Greedy,      ///< SessionScheduler::greedy()
  Phased,      ///< SessionScheduler::phased()
  Best,        ///< SessionScheduler::best()
  Exact,       ///< sched::exact_schedule — optimal, small instances only
  BranchBound, ///< explore::BranchBoundScheduler — anytime best-first B&B
};

/// Stable lowercase name ("single", "per_core", "greedy", "phased",
/// "best", "exact", "branch_bound").
[[nodiscard]] const char* strategy_name(Strategy s) noexcept;

/// Inverse of strategy_name(); throws PreconditionError on unknown names.
[[nodiscard]] Strategy strategy_from_name(std::string_view name);

/// One test session: a set of cores tested concurrently under one bus
/// configuration.
struct ScheduledSession {
  std::vector<std::size_t> scan_cores;  ///< indices into the spec list
  std::vector<std::size_t> bist_cores;
  Balance balance;                      ///< chain placement for scan cores
  std::vector<ChainItem> items;         ///< the balanced items
  std::size_t patterns_applied = 0;     ///< scan patterns in this session
  std::uint64_t scan_cycles = 0;
  std::uint64_t bist_cycles = 0;
  std::uint64_t config_cycles = 0;

  [[nodiscard]] std::uint64_t total_cycles() const {
    return std::max(scan_cycles, bist_cycles) + config_cycles;
  }
};

/// A complete test program.
struct Schedule {
  std::vector<ScheduledSession> sessions;
  std::uint64_t total_cycles = 0;
  /// True when sessions are executable by a broadcast-WSC controller
  /// (everything except rail_emulation, which assumes per-group
  /// asynchronous sequencing).
  bool chip_synchronous = true;
  /// True when BIST engines listed in the first session are meant to run
  /// across subsequent sessions on program-wide reserved wires (the
  /// phased schedule's overlap model).
  bool bist_spans_sessions = false;
};

/// Builds schedules for one SoC (described by CoreTestSpecs) on an N-wire
/// CAS-BUS.
class SessionScheduler {
 public:
  SessionScheduler(std::vector<CoreTestSpec> cores, unsigned bus_width);

  /// Everything in one session under one static configuration — the
  /// "no reconfiguration" straw man (still uses wire sharing).
  [[nodiscard]] Schedule single_session() const;

  /// One core per session, each core alone on the full bus width.
  [[nodiscard]] Schedule per_core_sessions() const;

  /// Reconfiguration-aware greedy grouping: cores sorted by pattern count,
  /// each added to the open session only when testing it concurrently is
  /// cheaper than giving it its own session later; BIST engines are then
  /// slotted by price_scan_partition (sched/exact.hpp). A non-null
  /// \p stats receives the scan phase's effort counters.
  [[nodiscard]] Schedule greedy(ScheduleStats* stats = nullptr) const;

  /// Progressive-retirement schedule: all scan cores start together; every
  /// time the core with the smallest pattern budget finishes, the bus is
  /// *reconfigured* and the remaining chains are rebalanced over all scan
  /// wires. This is the purest expression of the paper's §4 claim ("the
  /// CAS-BUS architecture can be easily modified, even during test
  /// sessions, in order to optimize test performances") — a fixed TAM
  /// cannot rebalance mid-program. BIST cores run concurrently on
  /// dedicated wires.
  [[nodiscard]] Schedule phased() const;

  /// Rail emulation: the CAS-BUS reproduces a TestRail-style plan — wires
  /// split into \p rails groups, cores LPT-assigned to groups, cores on a
  /// group tested sequentially, groups running independently in parallel.
  /// Unlike a real TestRail, idle cores cost nothing (the CAS bypasses
  /// combinationally, no TestShell bypass bit) and the partition is chosen
  /// per program, not at design time. Assumes per-wrapper capture gating
  /// so groups sequence independently (see DESIGN.md).
  [[nodiscard]] Schedule rail_emulation(unsigned rails) const;

  /// The best of all strategies, including a sweep of rail counts (what a
  /// test programmer would ship).
  [[nodiscard]] Schedule best() const;

  /// Dispatches to the strategy named by \p s — the run-time-selection
  /// entry point used by the test floor and the CLIs. Strategy::Exact
  /// throws (via exact_schedule) beyond ~12 scan cores;
  /// Strategy::BranchBound runs the default-budget branch-and-bound and
  /// always returns a chip-synchronous partition schedule. A non-null
  /// \p stats receives the strategy's search-effort counters.
  [[nodiscard]] Schedule schedule_with(Strategy s,
                                       ScheduleStats* stats = nullptr) const;

  /// Cycles to reconfigure between sessions on this SoC (every CAS IR plus
  /// the wrapper ring). Computed once at construction — it depends only on
  /// the core list — so per-session pricing stays O(balance).
  [[nodiscard]] std::uint64_t reconfig_cost() const noexcept {
    return reconfig_cost_;
  }

  /// Prices one candidate session with the shared cost model — public so
  /// external search strategies (e.g. sched::exact_schedule) stay
  /// cost-consistent with the built-in heuristics.
  [[nodiscard]] ScheduledSession price_session(
      const std::vector<std::size_t>& scan_cores,
      const std::vector<std::size_t>& bist_cores) const;

  [[nodiscard]] const std::vector<CoreTestSpec>& cores() const noexcept {
    return cores_;
  }
  [[nodiscard]] unsigned width() const noexcept { return width_; }

 private:
  std::vector<CoreTestSpec> cores_;
  unsigned width_;
  std::uint64_t reconfig_cost_ = 0;
};

/// Pure-function form of SessionScheduler::schedule_with: builds the
/// scheduler and dispatches in one call. Because the result is a
/// deterministic function of exactly (\p cores, \p bus_width, \p s),
/// this is the memoizable scheduling entry point: the floor's program
/// cache (src/floor/) keys compiled programs on a digest of those three
/// inputs and reuses the returned Schedule byte-for-byte.
[[nodiscard]] Schedule schedule_with(const std::vector<CoreTestSpec>& cores,
                                     unsigned bus_width, Strategy s,
                                     ScheduleStats* stats = nullptr);

}  // namespace casbus::sched
