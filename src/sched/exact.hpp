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

#include <unordered_map>

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

/// Scan terms of priced session groups, kept across the
/// price_scan_partition calls of one search: for a group (its scan cores,
/// in the order the caller lists them) and k BIST wires, the group's scan
/// term — scan_cycles of its refined balance on width - k wires. The terms
/// are a pure function of the key for one SessionScheduler, so a memo
/// serves one scheduler and only ever saves balances.
class ScanTermMemo {
 public:
  /// The group's terms indexed by k (UINT64_MAX where unknown), or
  /// nullptr when the memo holds none.
  [[nodiscard]] const std::vector<std::uint64_t>* find(
      const std::vector<std::size_t>& group) const;
  /// Adds every term of \p terms the memo lacks for \p group.
  void insert(const std::vector<std::size_t>& group,
              const std::vector<std::uint64_t>& terms);
  /// insert() of every group \p other holds.
  void absorb(const ScanTermMemo& other);

 private:
  struct Hash {
    std::size_t operator()(const std::vector<std::size_t>& v) const noexcept;
  };
  std::unordered_map<std::vector<std::size_t>, std::vector<std::uint64_t>,
                     Hash>
      terms_;
};

/// A price_scan_partition call's use of a ScanTermMemo, and its effort.
/// The call only reads \p known, so concurrent calls may share one; the
/// terms it balanced and \p known lacked land in \p learned, for the
/// caller to absorb.
struct ScanTerms {
  const ScanTermMemo* known = nullptr;
  ScanTermMemo learned;
  std::uint64_t balances = 0;   ///< refined balances run
  std::uint64_t memo_hits = 0;  ///< scan terms read from \p known
};

/// Prices one complete scan partition: each group becomes a session, then
/// BIST cores are slotted greedily into whichever session's total grows
/// least (one wire each, overflow gets dedicated sessions). This is
/// SessionScheduler::greedy's BIST phase and the shared leaf evaluator of
/// exact_schedule and explore::BranchBoundScheduler, so searches over scan
/// partitions stay cost-consistent with the heuristic by construction.
/// When \p out_sessions is non-null it receives the fully priced sessions.
/// A non-null \p terms counts the balances run (the out_sessions ones
/// included) and, when its \p known is set, reads scan terms from it.
std::uint64_t price_scan_partition(
    const SessionScheduler& scheduler,
    const std::vector<std::vector<std::size_t>>& scan_groups,
    const std::vector<std::size_t>& bist_cores,
    std::vector<ScheduledSession>* out_sessions = nullptr,
    ScanTerms* terms = nullptr);

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
