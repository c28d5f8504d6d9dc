// Grouped chain balancing: the sorted-wire, bitset-blocked LPT pass and the
// O(1)-checked polish must return exactly the Balance of the formulation
// they replaced — wire_of_item and wire_load, field for field — on random
// item sets that cross the 96-item polish limit, span more than one 64-bit
// word of wires, relax overflowing cores, tie lengths, scatter and
// interleave core ids, need the 64-bit sort path or load wires near the
// packed-key limit. Chain sets built by one sort, by merges and by suffix
// cuts must place the same way, and sets past the key limits are refused.

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "sched/balance.hpp"
#include "util/rng.hpp"

namespace casbus::sched {
namespace {

// ---------------------------------------------------------------------------
// The previous balancer, kept verbatim (only renamed): an index stable_sort,
// a per-call cores x wires occupancy matrix scanned over every wire for
// every item, and a polish that re-derives the constraint by scanning all
// items (wire_free_for) and copies the whole assignment per swap candidate.

Balance ref_make_balance(const std::vector<ChainItem>& items, unsigned wires,
                         const std::vector<unsigned>& wire_of_item) {
  Balance b;
  b.wire_of_item = wire_of_item;
  b.wire_load.assign(wires, 0);
  for (std::size_t i = 0; i < items.size(); ++i)
    b.wire_load[wire_of_item[i]] += items[i].length;
  return b;
}

Balance ref_assign_lpt(const std::vector<ChainItem>& items, unsigned wires) {
  CASBUS_REQUIRE(wires >= 1, "assign_lpt: need at least one wire");
  std::vector<std::size_t> order(items.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return items[a].length > items[b].length;
                   });
  std::vector<unsigned> w(items.size(), 0);
  std::vector<std::size_t> load(wires, 0);
  for (const std::size_t i : order) {
    const auto best = static_cast<unsigned>(
        std::min_element(load.begin(), load.end()) - load.begin());
    w[i] = best;
    load[best] += items[i].length;
  }
  return ref_make_balance(items, wires, w);
}

bool ref_wire_free_for(const std::vector<ChainItem>& items,
                       const std::vector<unsigned>& wire_of_item,
                       unsigned wires, std::size_t i, unsigned wire) {
  std::size_t core_chains = 0;
  for (const ChainItem& it : items)
    if (it.core == items[i].core) ++core_chains;
  if (core_chains > wires) return true;  // relaxed: wrapper concatenation
  for (std::size_t j = 0; j < items.size(); ++j) {
    if (j == i || items[j].core != items[i].core) continue;
    if (wire_of_item[j] == wire) return false;
  }
  return true;
}

Balance ref_assign_lpt_grouped(const std::vector<ChainItem>& items,
                               unsigned wires) {
  CASBUS_REQUIRE(wires >= 1, "assign_lpt_grouped: need at least one wire");
  std::vector<std::size_t> order(items.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return items[a].length > items[b].length;
                   });

  std::unordered_map<std::size_t, std::size_t> slot_of;
  std::vector<std::size_t> chains_of;  // items per core
  std::vector<std::size_t> item_slot(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    const auto [it, fresh] = slot_of.try_emplace(items[i].core,
                                                 slot_of.size());
    if (fresh) chains_of.push_back(0);
    item_slot[i] = it->second;
    ++chains_of[it->second];
  }
  std::vector<std::vector<std::size_t>> held(
      chains_of.size(), std::vector<std::size_t>(wires, 0));
  for (const std::size_t slot : item_slot) ++held[slot][0];

  std::vector<unsigned> w(items.size(), 0);
  std::vector<std::size_t> load(wires, 0);
  for (const std::size_t i : order) {
    const std::size_t slot = item_slot[i];
    const bool relaxed = chains_of[slot] > wires;
    unsigned best = 0;
    std::size_t best_load = SIZE_MAX;
    bool found = false;
    for (unsigned cand = 0; cand < wires; ++cand) {
      if (!relaxed && held[slot][cand] - (w[i] == cand ? 1 : 0) > 0)
        continue;  // a sibling chain already holds this wire
      if (load[cand] < best_load) {
        best_load = load[cand];
        best = cand;
        found = true;
      }
    }
    if (!found) {  // constraint unsatisfiable; fall back to least loaded
      best = static_cast<unsigned>(
          std::min_element(load.begin(), load.end()) - load.begin());
    }
    --held[slot][w[i]];
    w[i] = best;
    ++held[slot][best];
    load[best] += items[i].length;
  }
  return ref_make_balance(items, wires, w);
}

Balance ref_assign_lpt_grouped_refined(const std::vector<ChainItem>& items,
                                       unsigned wires) {
  Balance b = ref_assign_lpt_grouped(items, wires);
  if (items.empty()) return b;

  constexpr std::size_t kRefineItemLimit = 96;
  if (items.size() > kRefineItemLimit) return b;

  bool improved = true;
  while (improved) {
    improved = false;
    const std::size_t before = b.max_load();
    // Constraint-preserving moves off a maximal wire.
    for (std::size_t i = 0; i < items.size() && !improved; ++i) {
      const unsigned src = b.wire_of_item[i];
      if (b.wire_load[src] != before) continue;
      for (unsigned dst = 0; dst < wires; ++dst) {
        if (dst == src ||
            !ref_wire_free_for(items, b.wire_of_item, wires, i, dst))
          continue;
        if (b.wire_load[dst] + items[i].length < before) {
          b.wire_load[src] -= items[i].length;
          b.wire_load[dst] += items[i].length;
          b.wire_of_item[i] = dst;
          improved = true;
          break;
        }
      }
    }
    // Constraint-preserving swaps.
    for (std::size_t i = 0; i < items.size() && !improved; ++i) {
      const unsigned wi = b.wire_of_item[i];
      if (b.wire_load[wi] != before) continue;
      for (std::size_t j = 0; j < items.size() && !improved; ++j) {
        const unsigned wj = b.wire_of_item[j];
        if (wj == wi || items[j].length >= items[i].length) continue;
        const std::size_t delta = items[i].length - items[j].length;
        if (b.wire_load[wj] + delta >= before) continue;
        // Tentative swap must keep both cores' constraints.
        std::vector<unsigned> trial = b.wire_of_item;
        std::swap(trial[i], trial[j]);
        if (!ref_wire_free_for(items, trial, wires, i, trial[i]) ||
            !ref_wire_free_for(items, trial, wires, j, trial[j]))
          continue;
        b.wire_load[wi] -= delta;
        b.wire_load[wj] += delta;
        b.wire_of_item = std::move(trial);
        improved = true;
      }
    }
  }
  return b;
}

// ---------------------------------------------------------------------------

/// How a random item set is drawn.
struct Shape {
  bool ties = false;         ///< lengths from four values only
  bool sparse_ids = false;   ///< large, non-contiguous core ids
  bool interleave = false;   ///< cores' items shuffled into each other
  bool huge = false;         ///< some lengths >= 2^32 (64-bit sort path)
  bool relax = false;        ///< many cores with more chains than wires
  /// lengths up to 2^40, capped so the summed length stays within
  /// ChainSet::kMaxTotal: the largest sets place near the key limit
  bool giant = false;
};

std::vector<ChainItem> random_items(Rng& rng, unsigned wires, std::size_t n,
                                    const Shape& shape) {
  std::vector<ChainItem> items;
  std::size_t core = 0;
  while (items.size() < n) {
    const bool overflow = shape.relax ? rng.below(2) == 0 : rng.below(8) == 0;
    std::size_t chains = overflow ? wires + 1 + rng.below(wires + 2)
                                  : 1 + rng.below(std::min(wires, 12u));
    chains = std::min(chains, n - items.size());
    core = shape.sparse_ids ? core + 1 + rng.below(UINT64_C(1) << 40)
                            : core + 1;
    for (std::size_t ch = 0; ch < chains; ++ch) {
      std::size_t length = shape.ties ? 8 * (1 + rng.below(4))
                                      : rng.below(5000);
      if (shape.huge && rng.below(3) == 0)
        length += (std::size_t{1} << 32) + rng.below(UINT64_C(1) << 36);
      if (shape.giant)
        length =
            rng.below(std::min(UINT64_C(1) << 40, ChainSet::kMaxTotal / n));
      items.push_back(ChainItem{core, ch, length});
    }
  }
  if (shape.interleave) {
    for (std::size_t i = items.size(); i > 1; --i)
      std::swap(items[i - 1], items[rng.below(i)]);
  }
  return items;
}

std::size_t compare(const Balance& got, const Balance& want,
                    const std::string& where) {
  EXPECT_EQ(got.wire_of_item, want.wire_of_item) << where;
  EXPECT_EQ(got.wire_load, want.wire_load) << where;
  return got.wire_of_item == want.wire_of_item &&
                 got.wire_load == want.wire_load
             ? 0
             : 1;
}

constexpr unsigned kWires[] = {1, 2, 3, 8, 31, 32, 63, 64, 65, 100};

// Every wire count x item counts on both sides of the polish limit x every
// drawing shape: grouped, refined and plain LPT equal their references.
TEST(Balance, MatchesReferenceOnRandomItemSets) {
  const std::size_t sizes[] = {0, 1, 2, 5, 17, 40, 95, 96, 97, 300, 1500,
                               4096};
  const Shape shapes[] = {
      {},
      {true, false, false, false, false},
      {false, true, true, false, false},
      {true, true, true, false, true},
      {false, false, false, true, false},
      {true, false, true, true, true},
      {false, true, true, false, true, true},
  };
  Rng rng(20261017);
  std::size_t cases = 0, failures = 0;
  for (const unsigned wires : kWires) {
    for (const std::size_t n : sizes) {
      for (std::size_t s = 0; s < std::size(shapes); ++s) {
        // Small sets are cheap and where the polish runs: draw several.
        const int draws = n <= 96 ? 4 : 1;
        for (int d = 0; d < draws; ++d) {
          const std::vector<ChainItem> items =
              random_items(rng, wires, n, shapes[s]);
          const std::string where = "wires " + std::to_string(wires) +
                                    " items " + std::to_string(n) +
                                    " shape " + std::to_string(s) +
                                    " draw " + std::to_string(d);
          failures += compare(assign_lpt_grouped(items, wires),
                              ref_assign_lpt_grouped(items, wires),
                              "grouped " + where);
          failures += compare(assign_lpt_grouped_refined(items, wires),
                              ref_assign_lpt_grouped_refined(items, wires),
                              "refined " + where);
          failures += compare(assign_lpt(items, wires),
                              ref_assign_lpt(items, wires), "lpt " + where);
          ++cases;
          if (failures > 10) FAIL() << "stopping after " << failures;
        }
      }
    }
  }
  EXPECT_EQ(failures, 0u);
  EXPECT_GT(cases, 1000u);
}

// Many small sets on few wires: the sizes at which the polish moves and
// swaps most, same-core swaps included.
TEST(Balance, MatchesReferenceOnSmallPolishedSets) {
  Rng rng(7);
  std::size_t failures = 0;
  for (int trial = 0; trial < 4000 && failures <= 10; ++trial) {
    const auto wires = static_cast<unsigned>(1 + rng.below(10));
    const std::size_t n = 1 + rng.below(40);
    Shape shape;
    shape.ties = rng.below(2) == 0;
    shape.interleave = rng.below(2) == 0;
    shape.relax = rng.below(4) == 0;
    const std::vector<ChainItem> items = random_items(rng, wires, n, shape);
    failures += compare(assign_lpt_grouped_refined(items, wires),
                        ref_assign_lpt_grouped_refined(items, wires),
                        "trial " + std::to_string(trial));
  }
  EXPECT_EQ(failures, 0u);
}

// ---------------------------------------------------------------------------
// Chain sets: one sort, then placement at any wire count, merges (the
// greedy probe pattern) and suffixes (the phased pattern) — each must equal
// the reference balance of the item list it stands for, field for field.

/// Compares every placement a set offers against the references for
/// \p items at \p wires; returns the failure count.
std::size_t compare_set(const ChainSet& set,
                        const std::vector<ChainItem>& items, unsigned wires,
                        const std::string& where) {
  EXPECT_EQ(set.size(), items.size()) << where;
  const Balance want = ref_assign_lpt_grouped_refined(items, wires);
  std::size_t failures =
      compare(set.grouped(wires), ref_assign_lpt_grouped(items, wires),
              "grouped " + where) +
      compare(set.refined(wires), want, "refined " + where) +
      compare(assign_lpt_grouped_refined(items, wires), want,
              "free function " + where);
  if (set.refined_max_load(wires) != want.max_load()) {
    ADD_FAILURE() << "refined_max_load " << where;
    ++failures;
  }
  return failures;
}

/// Each core's items, in the order random_items drew them.
std::vector<std::vector<ChainItem>> by_core(
    const std::vector<ChainItem>& items) {
  std::vector<std::vector<ChainItem>> cores;
  for (const ChainItem& it : items) {
    if (cores.empty() || cores.back().front().core != it.core)
      cores.emplace_back();
    cores.back().push_back(it);
  }
  return cores;
}

// Sets built in one sort, at every wire count from 1 to 64, on sizes just
// either side of the 96-item polish limit, with ties and relaxed cores.
TEST(ChainSet, PlacementMatchesReferenceAtEveryWireCount) {
  Rng rng(1709);
  std::size_t failures = 0;
  for (unsigned wires = 1; wires <= 64 && failures <= 10; ++wires) {
    for (const std::size_t n : {std::size_t{0}, std::size_t{7},
                                std::size_t{94}, std::size_t{95},
                                std::size_t{96}, std::size_t{97},
                                std::size_t{98}, std::size_t{250}}) {
      Shape shape;
      shape.ties = rng.below(2) == 0;
      shape.relax = rng.below(3) == 0;
      shape.interleave = rng.below(4) == 0;
      shape.sparse_ids = rng.below(2) == 0;
      const std::vector<ChainItem> items = random_items(rng, wires, n, shape);
      failures += compare_set(ChainSet(items), items, wires,
                              "wires " + std::to_string(wires) + " items " +
                                  std::to_string(n));
    }
  }
  EXPECT_EQ(failures, 0u);
}

// Greedy's pattern: a group's set grows by merging one core's set at a
// time, crossing the polish limit on the way; after every merge the set
// equals a fresh sort of the concatenated items.
TEST(ChainSet, MergeSequencesMatchReference) {
  Rng rng(31);
  std::size_t failures = 0, crossed = 0;
  for (int trial = 0; trial < 60 && failures <= 10; ++trial) {
    const auto wires = static_cast<unsigned>(1 + rng.below(64));
    Shape shape;
    shape.ties = rng.below(2) == 0;
    shape.relax = rng.below(3) == 0;
    shape.sparse_ids = rng.below(2) == 0;
    const std::vector<ChainItem> pool =
        random_items(rng, wires, 60 + rng.below(140), shape);
    ChainSet set;
    std::vector<ChainItem> items;
    for (const std::vector<ChainItem>& core : by_core(pool)) {
      set = set.merged(ChainSet(core));
      items.insert(items.end(), core.begin(), core.end());
      failures += compare_set(set, items, wires,
                              "trial " + std::to_string(trial) + " items " +
                                  std::to_string(items.size()));
    }
    crossed += items.size() > 96 ? 1 : 0;
  }
  EXPECT_EQ(failures, 0u);
  EXPECT_GT(crossed, 30u);
}

// Phased's pattern: cores retire from the front, so each phase's set is a
// suffix of the first; after every cut (at core boundaries and inside a
// core) the set equals a fresh sort of the remaining items.
TEST(ChainSet, SuffixSequencesMatchReference) {
  Rng rng(97);
  std::size_t failures = 0;
  for (int trial = 0; trial < 60 && failures <= 10; ++trial) {
    const auto wires = static_cast<unsigned>(1 + rng.below(64));
    Shape shape;
    shape.ties = rng.below(2) == 0;
    shape.relax = rng.below(3) == 0;
    shape.sparse_ids = rng.below(2) == 0;
    const std::vector<ChainItem> all =
        random_items(rng, wires, 60 + rng.below(140), shape);
    const ChainSet full(all);
    std::size_t first = 0;
    ChainSet set = full;
    for (const std::vector<ChainItem>& core : by_core(all)) {
      // Cut from the full set and, in steps, from the previous cut.
      const std::vector<ChainItem> rest(
          all.begin() + static_cast<std::ptrdiff_t>(first), all.end());
      const std::string where = "trial " + std::to_string(trial) +
                                " first " + std::to_string(first);
      failures += compare_set(full.suffix(first), rest, wires, where);
      failures += compare_set(set, rest, wires, "stepwise " + where);
      const std::size_t inside = first + rng.below(core.size());
      failures += compare_set(
          full.suffix(inside),
          std::vector<ChainItem>(
              all.begin() + static_cast<std::ptrdiff_t>(inside), all.end()),
          wires, "inside " + where);
      set = set.suffix(core.size());
      first += core.size();
    }
    EXPECT_EQ(set.size(), 0u);
  }
  EXPECT_EQ(failures, 0u);
}

// The placement keys pack a wire's load above its index: a wire count past
// the index field or a summed length past the load field is refused by
// every placement entry point, and both limits themselves are placed.
TEST(ChainSet, KeyLimitsAreRefused) {
  const std::size_t half = ChainSet::kMaxTotal / 2 + 1;
  const std::vector<ChainItem> too_long = {{0, 0, half}, {1, 0, half}};
  const std::vector<ChainItem> small = {{0, 0, 3}, {0, 1, 2}, {1, 0, 1}};
  for (const unsigned wires : {1u, 2u, 64u}) {
    const ChainSet set(too_long);
    EXPECT_THROW((void)set.grouped(wires), PreconditionError);
    EXPECT_THROW((void)set.refined(wires), PreconditionError);
    EXPECT_THROW((void)set.refined_max_load(wires), PreconditionError);
    EXPECT_THROW((void)assign_lpt_grouped(too_long, wires), PreconditionError);
    EXPECT_THROW((void)assign_lpt_grouped_refined(too_long, wires),
                 PreconditionError);
  }
  const ChainSet set(small);
  const unsigned too_wide = ChainSet::kMaxWires + 1;
  EXPECT_THROW((void)set.grouped(too_wide), PreconditionError);
  EXPECT_THROW((void)set.refined(too_wide), PreconditionError);
  EXPECT_THROW((void)set.refined_max_load(too_wide), PreconditionError);
  EXPECT_THROW((void)assign_lpt_grouped(small, too_wide), PreconditionError);

  // At the limits: the full summed length, and the widest bus.
  const std::vector<ChainItem> at_total = {{0, 0, ChainSet::kMaxTotal - 5},
                                           {0, 1, 5}};
  for (const unsigned wires : {1u, 2u, 3u})
    EXPECT_EQ(compare_set(ChainSet(at_total), at_total, wires,
                          "at kMaxTotal, wires " + std::to_string(wires)),
              0u);
  EXPECT_EQ(compare_set(set, small, ChainSet::kMaxWires, "at kMaxWires"), 0u);
}

// The wire-0 rule: a core's unplaced chains sit on wire 0, so a chain takes
// wire 0 only when it is the last of its core's chains to be placed. Three
// equal chains on four idle wires therefore land on wires 1, 2 and then 0,
// leaving wire 3 empty although it ties for least loaded.
TEST(Balance, WireZeroGoesToTheCoresLastChain) {
  const std::vector<ChainItem> items = {{5, 0, 8}, {5, 1, 8}, {5, 2, 8}};
  for (const Balance& b : {assign_lpt_grouped(items, 4),
                           assign_lpt_grouped_refined(items, 4)}) {
    EXPECT_EQ(b.wire_of_item, (std::vector<unsigned>{1, 2, 0}));
    EXPECT_EQ(b.wire_load, (std::vector<std::size_t>{8, 8, 8, 0}));
  }
  // Two chains on three idle wires: the first placed skips wire 0, the
  // last takes it.
  const Balance b = assign_lpt_grouped({{2, 0, 6}, {2, 1, 5}}, 3);
  EXPECT_EQ(b.wire_of_item, (std::vector<unsigned>{1, 0}));
}

}  // namespace
}  // namespace casbus::sched
