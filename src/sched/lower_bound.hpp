/// \file lower_bound.hpp
/// Admissible lower bounds on CAS-BUS test schedules.
///
/// These bounds underpin the exact scheduler's pruning and the
/// branch-and-bound search in src/explore/: every function here provably
/// underestimates the cost the pricing model (SessionScheduler) can charge
/// for the same work, so a search that discards nodes whose bound meets the
/// incumbent never discards an optimum. The key inequality is the classical
/// balance/LPT makespan bound: a wire load can never drop below
/// max(longest single chain, ceil(total bits / wires)), and scan_cycles()
/// is monotone in both the load and the pattern count.

#pragma once

#include <algorithm>

#include "sched/scheduler.hpp"
#include "sched/time_model.hpp"
#include "util/error.hpp"

namespace casbus::sched {

/// Incrementally maintained aggregates of a (partial) session group. A
/// branch-and-bound search adds one core at a time in O(1) and reads an
/// admissible bound on whatever session the group eventually becomes.
struct GroupBound {
  std::size_t sum_bits = 0;       ///< total scan bits across member cores
  std::size_t longest_chain = 0;  ///< longest single chain in the group
  std::size_t max_patterns = 0;   ///< pattern budget the session must apply

  void add(const CoreTestSpec& core);

  /// Merges another group's aggregates in O(1): adding a core's own
  /// summary equals add(core), and merges commute, so a search can keep
  /// one summary per core and rebuild any group in any order.
  void add(const GroupBound& other) {
    sum_bits += other.sum_bits;
    longest_chain = std::max(longest_chain, other.longest_chain);
    max_patterns = std::max(max_patterns, other.max_patterns);
  }

  /// Lower bound on the scan term of any session containing (at least)
  /// these cores on at most \p width wires. Admissible versus
  /// SessionScheduler pricing: the real session balances on
  /// width - #BIST wires (fewer), with the grouped-placement constraint
  /// (tighter), so its max load can only be larger.
  [[nodiscard]] std::uint64_t scan_lower_bound(unsigned width) const {
    CASBUS_REQUIRE(width >= 1, "GroupBound: width must be >= 1");
    const std::size_t spread = (sum_bits + width - 1) / width;
    return scan_cycles(std::max(longest_chain, spread), max_patterns);
  }
};

/// Lower bound on any session that tests \p core — alone or with
/// co-tenants — on a bus of \p width wires (configuration cost excluded).
[[nodiscard]] std::uint64_t core_session_lower_bound(const CoreTestSpec& core,
                                                     unsigned width);

/// Total wire-cycles any schedule must spend on \p cores: scan shift work
/// (patterns * bits per core — invariant under chain placement) plus BIST
/// engine occupancy (one wire for the engine's whole run). Divided by the
/// bus width this is the conservation term shared by schedule_lower_bound
/// and the exact / branch-and-bound node bounds.
[[nodiscard]] std::uint64_t total_wire_work(
    const std::vector<CoreTestSpec>& cores);

/// Proven lower bound on the total cycles of *any* schedule of \p cores on
/// \p width wires — session partitions, phased rebalancing, and rail
/// emulation alike. Two arguments combine:
///  - wire-time conservation: T * width wire-cycles must cover every scan
///    bit shifted (sum of patterns * bits per core) plus every BIST
///    engine's occupancy, and
///  - the most demanding single core bounds the program from below.
/// Every schedule pays for at least one configuration (\p config_cycles).
[[nodiscard]] std::uint64_t schedule_lower_bound(
    const std::vector<CoreTestSpec>& cores, unsigned width,
    std::uint64_t config_cycles);

// --- Partition-model bounds -------------------------------------------
//
// The three functions below are admissible versus the *partition pricing
// model* shared by sched::exact_schedule and explore::BranchBoundScheduler
// (price_scan_partition): a scan session keeps at least one scan wire, so
// it hosts at most width-1 BIST riders, and every engine that does not
// ride gets a dedicated single-engine session. They are deliberately NOT
// folded into schedule_lower_bound's universal claim: rail emulation
// serializes engines on one wire of one rail, which can beat the per-
// session chunking these bounds assume (engines {10,1,1,1} on 2 wires run
// in 10 cycles on a rail but no 1-rider-per-session partition does).

/// Minimum number of sessions any completion of a prefix with
/// \p scan_groups open scan groups can end with, counting the dedicated
/// sessions its \p bist_engines force. Minimized over every possible
/// final group count >= scan_groups, so it is admissible at interior
/// search nodes, and reduces to max(1, scan_groups) when there are no
/// engines (the classical reconfiguration term).
[[nodiscard]] std::uint64_t partition_session_floor(std::size_t scan_groups,
                                                    std::size_t bist_engines,
                                                    unsigned width);

/// Minimum number of sessions any completion must add *beyond* those a
/// prefix's structural term already pays for: new scan groups opened plus
/// dedicated engine-overflow sessions, whichever mix is cheapest. Each
/// such session costs at least one reconfiguration, so
/// structural + config * partition_overflow_floor(...) is admissible.
[[nodiscard]] std::uint64_t partition_overflow_floor(std::size_t scan_groups,
                                                     std::size_t bist_engines,
                                                     unsigned width);

/// Pigeonhole bound on the summed per-session BIST terms: engines sorted
/// by length and chunked at the per-session rider capacity max(1,
/// width-1); the sum of chunk heads. Any assignment of engines to
/// sessions (each hosting at most that many, each session costing at
/// least its longest engine) sums to at least this — so it joins
/// total_wire_work / width as a floor on the summed session maxima.
[[nodiscard]] std::uint64_t bist_chunk_bound(
    const std::vector<CoreTestSpec>& cores, unsigned width);

}  // namespace casbus::sched
