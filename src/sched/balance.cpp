#include "sched/balance.hpp"

#include <algorithm>
#include <numeric>
#include <unordered_map>

namespace casbus::sched {

namespace {

Balance make_balance(const std::vector<ChainItem>& items, unsigned wires,
                     const std::vector<unsigned>& wire_of_item) {
  Balance b;
  b.wire_of_item = wire_of_item;
  b.wire_load.assign(wires, 0);
  for (std::size_t i = 0; i < items.size(); ++i)
    b.wire_load[wire_of_item[i]] += items[i].length;
  return b;
}

}  // namespace

Balance assign_round_robin(const std::vector<ChainItem>& items,
                           unsigned wires) {
  CASBUS_REQUIRE(wires >= 1, "assign_round_robin: need at least one wire");
  std::vector<unsigned> w(items.size());
  for (std::size_t i = 0; i < items.size(); ++i)
    w[i] = static_cast<unsigned>(i % wires);
  return make_balance(items, wires, w);
}

Balance assign_lpt(const std::vector<ChainItem>& items, unsigned wires) {
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
  return make_balance(items, wires, w);
}

Balance assign_lpt_refined(const std::vector<ChainItem>& items,
                           unsigned wires) {
  Balance b = assign_lpt(items, wires);
  if (items.empty()) return b;

  // First-improvement pairwise swaps and moves until a fixpoint.
  bool improved = true;
  while (improved) {
    improved = false;
    const std::size_t before = b.max_load();

    // Move: take an item off a maximal wire if another wire can absorb it.
    for (std::size_t i = 0; i < items.size() && !improved; ++i) {
      const unsigned src = b.wire_of_item[i];
      if (b.wire_load[src] != before) continue;
      for (unsigned dst = 0; dst < wires; ++dst) {
        if (dst == src) continue;
        if (b.wire_load[dst] + items[i].length < before) {
          b.wire_load[src] -= items[i].length;
          b.wire_load[dst] += items[i].length;
          b.wire_of_item[i] = dst;
          improved = true;
          break;
        }
      }
    }
    // Swap: exchange two items across a maximal wire.
    for (std::size_t i = 0; i < items.size() && !improved; ++i) {
      const unsigned wi = b.wire_of_item[i];
      if (b.wire_load[wi] != before) continue;
      for (std::size_t j = 0; j < items.size() && !improved; ++j) {
        const unsigned wj = b.wire_of_item[j];
        if (wj == wi || items[j].length >= items[i].length) continue;
        const std::size_t delta = items[i].length - items[j].length;
        if (b.wire_load[wj] + delta < before) {
          b.wire_load[wi] -= delta;
          b.wire_load[wj] += delta;
          std::swap(b.wire_of_item[i], b.wire_of_item[j]);
          improved = true;
        }
      }
    }
  }
  return b;
}

namespace {

/// True when moving items[i] onto `wire` keeps per-core wire uniqueness
/// (unless that core is overflowing the bus anyway).
bool wire_free_for(const std::vector<ChainItem>& items,
                   const std::vector<unsigned>& wire_of_item, unsigned wires,
                   std::size_t i, unsigned wire) {
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

}  // namespace

Balance assign_lpt_grouped(const std::vector<ChainItem>& items,
                           unsigned wires) {
  CASBUS_REQUIRE(wires >= 1, "assign_lpt_grouped: need at least one wire");
  std::vector<std::size_t> order(items.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return items[a].length > items[b].length;
                   });

  // Per-core wire occupancy, maintained incrementally: item_slot maps each
  // item to a dense per-core slot, held[slot][w] counts that core's items
  // currently carrying wire value w. Unassigned items sit at the default
  // wire 0 and are counted — the same first-fit semantics the previous
  // O(items^2 * wires) wire_free_for scan produced — so assignments are
  // identical while the pass drops to O(items * wires). That difference is
  // what lets session pricing scale to the 100–1000-core synthetic SoCs of
  // src/explore (thousands of chain items per partition).
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
    // Relaxed when the core overflows the bus (wrapper concatenation).
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
  return make_balance(items, wires, w);
}

Balance assign_lpt_grouped_refined(const std::vector<ChainItem>& items,
                                   unsigned wires) {
  Balance b = assign_lpt_grouped(items, wires);
  if (items.empty()) return b;

  // The move/swap polish below costs O(items^3) per round in the worst
  // case; past this size the LPT 4/3 guarantee stands alone. Only the
  // synthetic 100–1000-core sessions of src/explore ever cross the limit
  // — every physical session in the tree stays far below it (the largest
  // legacy user balances ~20 chains), so their placements are unchanged.
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
            !wire_free_for(items, b.wire_of_item, wires, i, dst))
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
        if (!wire_free_for(items, trial, wires, i, trial[i]) ||
            !wire_free_for(items, trial, wires, j, trial[j]))
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

std::size_t balance_lower_bound(const std::vector<ChainItem>& items,
                                unsigned wires) {
  CASBUS_REQUIRE(wires >= 1, "balance_lower_bound: need >= 1 wire");
  std::size_t total = 0;
  std::size_t longest = 0;
  for (const ChainItem& it : items) {
    total += it.length;
    longest = std::max(longest, it.length);
  }
  return std::max<std::size_t>(longest, (total + wires - 1) / wires);
}

}  // namespace casbus::sched
