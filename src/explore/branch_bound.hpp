/// \file branch_bound.hpp
/// Best-first branch-and-bound session scheduling — the scalable optimal /
/// proven-gap counterpart of sched::exact_schedule, multi-threaded since
/// PR 10.
///
/// The search walks the same space (set partitions of the scan cores into
/// sessions; BIST engines slotted greedily at the leaves by
/// sched::price_scan_partition) but best-first over the shared balance +
/// BIST-slot lower bounds (sched/lower_bound.hpp), with a node budget and
/// an anytime incumbent: on paper-sized SoCs it exhausts the space and
/// *proves* optimality; on 100–1000-core synthetic SoCs it stops at the
/// budget and reports the incumbent together with a certified lower bound
/// (the smallest f of any open node), i.e. a proven optimality gap — the
/// branch-and-bound-with-balance-bound engine the ROADMAP scheduling item
/// calls for.
///
/// ## Parallel search (BranchBoundConfig::threads)
/// The frontier is sharded into per-thread local min-heaps over an
/// arena of shared prefix nodes. The search runs in synchronous rounds:
/// a serial selection phase pops the cheapest still-viable nodes from
/// every shard, workers expand / price them in parallel against a
/// round-start incumbent snapshot, and a serial merge applies children,
/// incumbent offers, and counters in selection order. Empty shards steal
/// work from the fullest frontier at each round boundary.
///
/// ## Termination proof
/// Every open node's f is an admissible lower bound on every completion
/// of its prefix, and every generated child either enters some shard heap
/// or is pruned with f >= incumbent. The search therefore ends only when
/// each shard heap's cheapest node (and hence every open node anywhere)
/// cannot beat the incumbent — at which point the incumbent is optimal —
/// or when the node budget is exhausted, where the minimum f across all
/// shard tops certifies the reported lower bound.
///
/// ## Determinism
/// In deterministic mode (the default) the shard count and the whole
/// round structure are independent of the thread count, workers compute
/// pure functions of round-start snapshots, and the merge is serial — so
/// the incumbent schedule, optimality verdict, certified lower bound and
/// all counters are byte-identical at any `threads` value.
/// Non-deterministic mode trades this for eager lock-free incumbent
/// publication (atomic min) and live pruning.

#pragma once

#include <cstdint>

#include "sched/scheduler.hpp"

namespace casbus::explore {

/// Search knobs.
struct BranchBoundConfig {
  /// Node expansions before the search stops and reports the incumbent
  /// with its proven gap. ~50k exhausts every <= 9-core instance and keeps
  /// 1000-core runs in tens of milliseconds of bound arithmetic.
  std::size_t node_budget = 50000;
  /// Every this many expansions the most promising open node is greedily
  /// completed and priced, so the incumbent keeps improving on instances
  /// far too large to reach leaves by expansion alone. Clamped internally
  /// to node_budget / (max_dives + 1) so dives still fire under small
  /// budgets; 0 disables diving.
  std::size_t dive_interval = 1024;
  /// Cap on greedy dives (full-partition pricing is the expensive step on
  /// huge instances).
  std::size_t max_dives = 16;
  /// Worker threads for the search; 1 = serial, 0 = one per hardware
  /// thread. Expansion, leaf pricing and greedy dives all parallelize.
  std::size_t threads = 1;
  /// Fixed round structure (16 frontier shards, synchronous rounds,
  /// serial merge): incumbent, optimality verdict, certified lower bound
  /// and every counter are byte-identical at any thread count. When
  /// false, workers publish incumbent improvements immediately (lock-free
  /// atomic min) and prune against the live value — often faster, but
  /// results may vary run to run on tie-broken instances.
  bool deterministic = true;
};

/// Search outcome.
struct BranchBoundResult {
  sched::Schedule schedule;        ///< incumbent (always chip-synchronous)
  std::uint64_t best_cost = 0;     ///< schedule.total_cycles
  /// Certified lower bound on every session-partition schedule of the
  /// instance. Equal to best_cost when optimal.
  std::uint64_t lower_bound = 0;
  std::uint64_t nodes_expanded = 0;
  std::uint64_t leaves_priced = 0;
  std::uint64_t dives = 0;
  /// Children discarded because their bound met the incumbent — the
  /// search-effort the balance bound saved (telemetry; see ScheduleStats).
  std::uint64_t prunes = 0;
  /// Times a priced partition replaced the incumbent (seeding included).
  std::uint64_t incumbent_improvements = 0;
  /// Round boundaries at which an empty frontier shard stole open nodes
  /// from the fullest one (parallel search telemetry).
  std::uint64_t rebalances = 0;
  /// Chain balances the search ran: seeds, leaves, dives and the final
  /// incumbent re-price.
  std::uint64_t balances = 0;
  /// Scan terms those pricings read from the search's memo of earlier
  /// groups instead of balancing. Like every counter, identical at any
  /// thread count in deterministic mode.
  std::uint64_t term_memo_hits = 0;
  bool optimal = false;  ///< search space exhausted within the budget

  /// Proven optimality gap: incumbent / lower_bound − 1 (0 when optimal).
  [[nodiscard]] double gap() const {
    if (optimal || lower_bound == 0 || best_cost <= lower_bound) return 0.0;
    return static_cast<double>(best_cost) /
               static_cast<double>(lower_bound) -
           1.0;
  }
};

/// Branch-and-bound search over one SessionScheduler instance. The
/// scheduler reference must outlive the object.
class BranchBoundScheduler {
 public:
  explicit BranchBoundScheduler(const sched::SessionScheduler& scheduler,
                                BranchBoundConfig config = {});

  /// Runs the search (const — every call is independent, and in
  /// deterministic mode identical).
  [[nodiscard]] BranchBoundResult run() const;

 private:
  const sched::SessionScheduler& scheduler_;
  BranchBoundConfig config_;
};

}  // namespace casbus::explore
