/// \file exact.hpp
/// Exact session scheduling for small instances.
///
/// Enumerates partitions of the scan cores into ordered-irrelevant session
/// groups, prices each surviving partition with the same validated time
/// model the heuristics use, and returns the optimum. Since PR 4 the
/// enumeration is pruned with the shared balance lower bound
/// (sched/lower_bound.hpp) and seeded with the greedy incumbent, which
/// pushes the practical limit from ~7 to ~12 scan cores. Used to measure
/// how far the polynomial heuristics (greedy / phased / rails) sit from
/// optimal — an evaluation the paper could not run in 2000 — and as the
/// ground truth the branch-and-bound scheduler (src/explore/) is gated
/// against.

#pragma once

#include "sched/scheduler.hpp"

namespace casbus::sched {

/// Result of the exhaustive search.
struct ExactResult {
  Schedule schedule;                 ///< an optimal partition schedule
  /// Partition leaves fully priced. With lower-bound pruning this is far
  /// below the Bell number, and can be 0 when the greedy incumbent is
  /// already provably optimal.
  std::uint64_t partitions_tried = 0;
  std::uint64_t subtrees_pruned = 0; ///< partial partitions cut by the bound
  /// best()/optimal − 1, computed here (not by the bench). Negative values
  /// are possible: best() sweeps rail emulation, which is not a session
  /// partition and may beat every partition schedule.
  double heuristic_gap = 0.0;
};

/// Prices one complete scan partition: each group becomes a session, then
/// BIST cores are slotted greedily into whichever session's total grows
/// least (one wire each, overflow gets dedicated sessions). This is
/// SessionScheduler::greedy's BIST phase and the shared leaf evaluator of
/// exact_schedule and explore::BranchBoundScheduler, so searches over scan
/// partitions stay cost-consistent with the heuristic by construction.
/// When \p out_sessions is non-null it receives the fully priced sessions.
std::uint64_t price_scan_partition(
    const SessionScheduler& scheduler,
    const std::vector<std::vector<std::size_t>>& scan_groups,
    const std::vector<std::size_t>& bist_cores,
    std::vector<ScheduledSession>* out_sessions = nullptr);

/// The scan phase of SessionScheduler::greedy: its scan-core groups, in
/// session order. Also the shared incumbent seed of exact_schedule and
/// explore::BranchBoundScheduler (both re-price it with
/// price_scan_partition, so seeds and search leaves stay exactly
/// comparable). A non-null \p stats receives the phase's effort counters
/// (see ScheduleStats).
std::vector<std::vector<std::size_t>> greedy_scan_groups(
    const SessionScheduler& scheduler, ScheduleStats* stats = nullptr);

/// The provably optimal schedule of a pure-BIST instance: engines sorted
/// by session length and chunked width at a time, so the i-th session's
/// cost meets its lower bound (the i*width-th longest engine) with the
/// minimum session count. Exposed because both exact_schedule and
/// explore::BranchBoundScheduler special-case the no-scan-partition
/// dimension this way. Requires at least one core and no scan cores.
Schedule optimal_pure_bist_schedule(const SessionScheduler& scheduler);

/// Searches all partitions of the scan cores (BIST cores are slotted like
/// the greedy scheduler does), pruning partial partitions whose lower
/// bound already meets the incumbent. Throws when the instance has more
/// than \p max_cores scan cores (the search is exponential).
/// \p compute_heuristic_gap controls the best()-vs-optimal comparison —
/// callers that only need the schedule (Strategy::Exact dispatch) skip
/// the full heuristic sweep.
ExactResult exact_schedule(const SessionScheduler& scheduler,
                           std::size_t max_cores = 12,
                           bool compute_heuristic_gap = true);

}  // namespace casbus::sched
