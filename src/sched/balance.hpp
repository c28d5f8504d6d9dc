/// \file balance.hpp
/// Scan-chain balancing across test-bus wires.
///
/// Paper §4: "in case of scanned cores, the test programmer can balance
/// the length of the scan chains within the test programs, in order to
/// reduce the test time." A wire's load is the sum of chain lengths daisy-
/// chained on it; session time is driven by the *maximum* wire load, so
/// balancing is makespan minimization (multiprocessor scheduling).

#pragma once

#include <cstdint>
#include <vector>

#include "util/error.hpp"

namespace casbus::sched {

/// One schedulable item: chain \p chain of core \p core, \p length bits.
struct ChainItem {
  std::size_t core = 0;
  std::size_t chain = 0;
  std::size_t length = 0;
};

/// wire_of_item[i] = wire carrying items[i].
struct Balance {
  std::vector<unsigned> wire_of_item;
  std::vector<std::size_t> wire_load;  ///< total bits per wire

  [[nodiscard]] std::size_t max_load() const {
    std::size_t m = 0;
    for (const std::size_t l : wire_load) m = std::max(m, l);
    return m;
  }
};

/// Naive assignment: items dealt to wires in order, round-robin — the
/// uninformed test program the paper's balancing claim is measured against.
Balance assign_round_robin(const std::vector<ChainItem>& items,
                           unsigned wires);

/// Longest-processing-time greedy: sort by length descending, place each
/// item on the least-loaded wire. Classical 4/3-approximation of optimal
/// makespan.
Balance assign_lpt(const std::vector<ChainItem>& items, unsigned wires);

/// LPT followed by pairwise-swap local search (first-improvement) — the
/// "good collaboration between the test designer and the test programmer"
/// grade of effort.
Balance assign_lpt_refined(const std::vector<ChainItem>& items,
                           unsigned wires);

/// LPT under the CAS injectivity constraint: chains of one core must land
/// on *distinct* wires (an N/P switch routes each selected wire to exactly
/// one port). When a core has more chains than wires the constraint is
/// relaxed for that core (modeling wrapper-level chain concatenation).
///
/// Items go longest first (index order on ties), each to the least-loaded
/// wire its core does not block (lowest wire on ties). Wire-0 rule: a
/// core's unplaced chains count as sitting on wire 0, so a chain takes
/// wire 0 only when it is the last of its core's chains to be placed.
///
/// Same as ChainSet(items).grouped(wires): one O(items log items) sort and
/// one placement pass. Callers that balance one session at several wire
/// counts, or a session that grows or shrinks by whole cores, keep the
/// ChainSet and skip the sort.
Balance assign_lpt_grouped(const std::vector<ChainItem>& items,
                           unsigned wires);

/// Grouped LPT plus constraint-preserving move/swap local search (first
/// improvement, O(items x wires + items^2) per round, each constraint check
/// O(1)); the search runs only on sessions of at most 96 items. This is
/// the placement the scheduler uses for physically executable sessions.
/// Same as ChainSet(items).refined(wires).
Balance assign_lpt_grouped_refined(const std::vector<ChainItem>& items,
                                   unsigned wires);

/// A session's scan chains sorted once into LPT order — length descending,
/// insertion order ascending on ties — each tagged with a dense per-core
/// slot, plus the chain count of every slot. Placing a chain costs a walk
/// past the wires its core blocks (fewer than its chain count) and a
/// forward insertion of the grown wire into the load-sorted wire list (at
/// most \p wires one-word moves); with one wire every chain lands on it.
/// A placement allocates only what the returned Balance holds: its working
/// tables are per-thread scratch, so sets are safely placed concurrently.
///
/// Key limits: the sorted wire list holds one 64-bit key per wire, the
/// wire's load above its index (kWireBits bits), so a placement requires
/// wires <= kMaxWires and a summed set length <= kMaxTotal. Every placement
/// call (grouped, refined, refined_max_load and the assign_lpt_grouped*
/// functions) throws casbus::PreconditionError when either is exceeded.
///
/// A set is placed at any wire count without re-sorting, grows by a core
/// in O(chains) (merged) and sheds retired cores in O(chains + cores)
/// (suffix), so the schedulers sort a session's chains once: greedy
/// probes merge the probing core into the group's set, BIST slotting
/// prices one set at every wire count, and phased() cuts each phase's set
/// out of the previous one.
class ChainSet {
 public:
  /// Low bits of a placement key, holding the wire index.
  static constexpr unsigned kWireBits = 16;
  /// Largest wire count a set is placed at.
  static constexpr unsigned kMaxWires = 1u << kWireBits;
  /// Largest summed chain length a set is placed with.
  static constexpr std::size_t kMaxTotal =
      (std::size_t{1} << (64 - kWireBits)) - 1;

  ChainSet() = default;
  /// One sort of \p items; insertion index i is items[i].
  explicit ChainSet(const std::vector<ChainItem>& items);

  [[nodiscard]] std::size_t size() const noexcept { return chains_.size(); }

  /// The set of this set's items followed by \p tail's, i.e. of
  /// items ++ tail_items. The two must hold disjoint cores. O(size +
  /// tail.size() + cores), no sort.
  [[nodiscard]] ChainSet merged(const ChainSet& tail) const;

  /// The set of the items at insertion index >= \p first, renumbered from
  /// 0, i.e. of items[first..]. O(size + cores), no sort.
  [[nodiscard]] ChainSet suffix(std::size_t first) const;

  /// assign_lpt_grouped of the items.
  [[nodiscard]] Balance grouped(unsigned wires) const;
  /// assign_lpt_grouped_refined of the items.
  [[nodiscard]] Balance refined(unsigned wires) const;
  /// refined(wires).max_load(), placed and polished in this thread's
  /// scratch: no allocation once the scratch is warm.
  [[nodiscard]] std::size_t refined_max_load(unsigned wires) const;

 private:
  struct Chain {
    std::size_t length = 0;
    std::uint32_t index = 0;  ///< insertion index
    std::uint32_t slot = 0;   ///< dense per-core number
  };

  /// The placement pass; returns the max wire load. When non-null,
  /// \p wire_of_item receives each item's wire by insertion index and
  /// \p wire_load each wire's load.
  std::size_t place(unsigned wires, std::vector<unsigned>* wire_of_item,
                    std::vector<std::size_t>* wire_load) const;
  /// The constraint-preserving move/swap polish of a placement of this set.
  void polish(unsigned wires, std::vector<unsigned>& wire_of_item,
              std::vector<std::size_t>& wire_load) const;

  std::vector<Chain> chains_;         ///< in LPT order
  std::vector<std::size_t> per_slot_; ///< chain count of each slot
  std::size_t total_ = 0;             ///< summed length
};

/// Lower bound on the achievable max load: max(ceil(total/wires), longest
/// single chain).
std::size_t balance_lower_bound(const std::vector<ChainItem>& items,
                                unsigned wires);

}  // namespace casbus::sched
