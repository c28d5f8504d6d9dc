#include "sched/balance.hpp"

#include <algorithm>
#include <cstdint>
#include <utility>

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

/// Item indices by length descending, index ascending on ties (the order a
/// stable sort by length gives), from one sort of packed 64-bit keys. A
/// length or index that does not fit 32 bits takes the pair-sort path.
std::vector<std::uint64_t> lpt_order(const std::vector<ChainItem>& items) {
  constexpr std::uint64_t kMax32 = UINT32_MAX;
  std::vector<std::uint64_t> order(items.size());
  const bool packed =
      items.size() <= kMax32 &&
      std::all_of(items.begin(), items.end(),
                  [](const ChainItem& it) { return it.length <= kMax32; });
  if (packed) {
    for (std::size_t i = 0; i < items.size(); ++i)
      order[i] = ((kMax32 - items[i].length) << 32) | i;
    std::sort(order.begin(), order.end());
    for (std::uint64_t& key : order) key &= kMax32;
    return order;
  }
  std::vector<std::pair<std::size_t, std::size_t>> by_length(items.size());
  for (std::size_t i = 0; i < items.size(); ++i)
    by_length[i] = {items[i].length, i};
  std::sort(by_length.begin(), by_length.end(),
            [](const auto& a, const auto& b) {
              return a.first > b.first ||
                     (a.first == b.first && a.second < b.second);
            });
  for (std::size_t k = 0; k < by_length.size(); ++k)
    order[k] = by_length[k].second;
  return order;
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
  std::vector<unsigned> w(items.size(), 0);
  std::vector<std::size_t> load(wires, 0);
  for (const std::uint64_t i : lpt_order(items)) {
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

/// Dense per-core slots: slot_of_item[i] numbers items[i].core among the
/// distinct core ids in order of first appearance, chains[slot] counts
/// that core's items.
struct CoreSlots {
  std::vector<std::uint32_t> slot_of_item;
  std::vector<std::size_t> chains;
};

/// Core ids may be large and non-contiguous, so they are numbered through
/// a small open-addressing table (power of two, at most half full, linear
/// probing). Callers list a core's chains together, so only the first item
/// of each run of equal ids is looked up.
CoreSlots core_slots(const std::vector<ChainItem>& items) {
  const auto run_head = [&](std::size_t i) {
    return i == 0 || items[i].core != items[i - 1].core;
  };
  std::size_t runs = 0;
  for (std::size_t i = 0; i < items.size(); ++i) runs += run_head(i) ? 1 : 0;
  int bits = 1;
  while ((std::size_t{1} << bits) < 2 * runs) ++bits;
  constexpr std::uint32_t kEmpty = UINT32_MAX;
  struct Entry {
    std::size_t core = 0;
    std::uint32_t slot = kEmpty;
  };
  std::vector<Entry> table(std::size_t{1} << bits);
  const std::size_t mask = table.size() - 1;

  CoreSlots s;
  s.slot_of_item.resize(items.size());
  std::uint32_t slot = 0;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (run_head(i)) {
      const std::size_t core = items[i].core;
      auto h = static_cast<std::size_t>(
          (std::uint64_t{core} * UINT64_C(0x9E3779B97F4A7C15)) >> (64 - bits));
      while (table[h].slot != kEmpty && table[h].core != core)
        h = (h + 1) & mask;
      if (table[h].slot == kEmpty) {
        table[h] = {core, static_cast<std::uint32_t>(s.chains.size())};
        s.chains.push_back(0);
      }
      slot = table[h].slot;
    }
    s.slot_of_item[i] = slot;
    ++s.chains[slot];
  }
  return s;
}

}  // namespace

ChainSet::ChainSet(const std::vector<ChainItem>& items) {
  CASBUS_REQUIRE(items.size() < UINT32_MAX, "ChainSet: too many chains");
  const CoreSlots cores = core_slots(items);
  per_slot_ = cores.chains;
  chains_.reserve(items.size());
  for (const std::uint64_t i : lpt_order(items)) {
    chains_.push_back(Chain{items[i].length, static_cast<std::uint32_t>(i),
                            cores.slot_of_item[i]});
    total_ += items[i].length;
  }
}

namespace {

/// One thread's working tables for cutting, placing and polishing chain
/// sets. Sets are shared read-only across threads, so the tables cannot
/// live in a set; each call resizes and clears them, which reallocates
/// nothing once warm.
struct Scratch {
  // place()
  std::vector<std::uint64_t> taken;     ///< per slot, a bitset of held wires
  std::vector<std::size_t> unplaced;    ///< per slot, chains still to place
  std::vector<std::uint64_t> by_load;   ///< (load, wire) keys, ascending
  // polish()
  std::vector<std::size_t> length;      ///< by insertion index
  std::vector<std::uint32_t> slot_of;   ///< by insertion index
  std::vector<std::uint32_t> held;      ///< slot x wire item counts
  // refined_max_load()
  std::vector<unsigned> wire_of_item;
  std::vector<std::size_t> wire_load;
  // suffix()
  std::vector<std::uint32_t> renumber;  ///< old slot -> new slot
};

Scratch& scratch() {
  thread_local Scratch s;
  return s;
}

static_assert(sizeof(std::size_t) == sizeof(std::uint64_t),
              "a key packs a load and a wire into one 64-bit word");

}  // namespace

ChainSet ChainSet::merged(const ChainSet& tail) const {
  CASBUS_REQUIRE(size() + tail.size() < UINT32_MAX,
                 "ChainSet: too many chains");
  const auto n = static_cast<std::uint32_t>(size());
  const auto slots = static_cast<std::uint32_t>(per_slot_.size());
  ChainSet out;
  out.chains_.reserve(size() + tail.size());
  auto a = chains_.begin();
  auto b = tail.chains_.begin();
  while (a != chains_.end() || b != tail.chains_.end()) {
    // On equal lengths this set's chain goes first: its insertion index
    // is lower than every tail chain's.
    if (b == tail.chains_.end() ||
        (a != chains_.end() && a->length >= b->length)) {
      out.chains_.push_back(*a++);
    } else {
      out.chains_.push_back(Chain{b->length, b->index + n, b->slot + slots});
      ++b;
    }
  }
  out.per_slot_ = per_slot_;
  out.per_slot_.insert(out.per_slot_.end(), tail.per_slot_.begin(),
                       tail.per_slot_.end());
  out.total_ = total_ + tail.total_;
  return out;
}

ChainSet ChainSet::suffix(std::size_t first) const {
  // Dropping items keeps the survivors' relative LPT order; only the
  // slots are renumbered, so that retired cores leave no empty slots.
  ChainSet out;
  out.chains_.reserve(size() - std::min(first, size()));
  out.per_slot_.reserve(per_slot_.size());
  std::vector<std::uint32_t>& slot_of = scratch().renumber;
  slot_of.assign(per_slot_.size(), UINT32_MAX);
  for (const Chain& c : chains_) {
    if (c.index < first) continue;
    std::uint32_t& slot = slot_of[c.slot];
    if (slot == UINT32_MAX) {
      slot = static_cast<std::uint32_t>(out.per_slot_.size());
      out.per_slot_.push_back(0);
    }
    ++out.per_slot_[slot];
    out.chains_.push_back(
        Chain{c.length, static_cast<std::uint32_t>(c.index - first), slot});
    out.total_ += c.length;
  }
  return out;
}

std::size_t ChainSet::place(unsigned wires,
                            std::vector<unsigned>* wire_of_item,
                            std::vector<std::size_t>* wire_load) const {
  CASBUS_REQUIRE(wires >= 1, "assign_lpt_grouped: need at least one wire");
  CASBUS_REQUIRE(wires <= kMaxWires,
                 "assign_lpt_grouped: wire count exceeds ChainSet::kMaxWires");
  CASBUS_REQUIRE(total_ <= kMaxTotal,
                 "assign_lpt_grouped: summed chain length exceeds "
                 "ChainSet::kMaxTotal");
  if (wire_of_item != nullptr) wire_of_item->assign(size(), 0);
  if (wire_load != nullptr) wire_load->assign(wires, 0);
  if (wires == 1) {  // every core is relaxed or has one chain: all on wire 0
    if (wire_load != nullptr) (*wire_load)[0] = total_;
    return total_;
  }

  Scratch& s = scratch();
  const std::size_t words = (wires + 63) / 64;
  s.taken.assign(per_slot_.size() * words, 0);
  s.unplaced.assign(per_slot_.begin(), per_slot_.end());

  // Wires in (load, index) order as keys load << kWireBits | wire: the
  // least-loaded admissible wire, lowest index on ties, is the first one
  // the item's core does not block. A sentinel above every key ends the
  // re-ranking walk.
  constexpr std::uint64_t kWireMask = (std::uint64_t{1} << kWireBits) - 1;
  std::vector<std::uint64_t>& by_load = s.by_load;
  by_load.resize(std::size_t{wires} + 1);
  for (unsigned k = 0; k < wires; ++k) by_load[k] = k;
  by_load[wires] = UINT64_MAX;

  for (const Chain& c : chains_) {
    --s.unplaced[c.slot];
    std::size_t pos = 0;
    // Relaxed when the core overflows the bus (wrapper concatenation).
    if (per_slot_[c.slot] <= wires) {
      // A wire is blocked when a placed sibling holds it. Unplaced
      // siblings still sit on wire 0, so wire 0 is blocked too until this
      // is the core's last chain to be placed. Every other sibling blocks
      // at most one wire (chains - 1 in all) and chains <= wires, so some
      // wire is always free.
      std::uint64_t* held = &s.taken[c.slot * words];
      const bool last = s.unplaced[c.slot] == 0;
      for (; pos < wires; ++pos) {
        const auto w = static_cast<unsigned>(by_load[pos] & kWireMask);
        if ((held[w / 64] >> (w % 64) & 1) == 0 && (w != 0 || last)) break;
      }
      CASBUS_REQUIRE(pos < wires, "assign_lpt_grouped: no free wire");
      const auto w = static_cast<unsigned>(by_load[pos] & kWireMask);
      held[w / 64] |= std::uint64_t{1} << (w % 64);
    }
    const std::uint64_t moved =
        by_load[pos] + (std::uint64_t{c.length} << kWireBits);
    if (wire_of_item != nullptr)
      (*wire_of_item)[c.index] = static_cast<unsigned>(moved & kWireMask);
    // Re-rank: shift the lighter wires after pos forward until the grown
    // wire's place. Keys are distinct, so this is its upper bound.
    std::size_t to = pos + 1;
    for (; by_load[to] < moved; ++to) by_load[to - 1] = by_load[to];
    by_load[to - 1] = moved;
  }
  if (wire_load != nullptr) {
    for (unsigned k = 0; k < wires; ++k)
      (*wire_load)[by_load[k] & kWireMask] = by_load[k] >> kWireBits;
  }
  return by_load[wires - 1] >> kWireBits;
}

Balance ChainSet::grouped(unsigned wires) const {
  Balance b;
  place(wires, &b.wire_of_item, &b.wire_load);
  return b;
}

// The move/swap polish costs O(items * wires + items^2) per round; past
// this size the LPT 4/3 guarantee stands alone. Only the synthetic
// 100–1000-core sessions of src/explore ever cross the limit — every
// physical session in the tree stays far below it (the largest legacy
// user balances ~20 chains). The limit stays at 96 although the polish is
// now cheap: raising it would change explore schedules.
constexpr std::size_t kRefineItemLimit = 96;

std::size_t ChainSet::refined_max_load(unsigned wires) const {
  if (size() > kRefineItemLimit) return place(wires, nullptr, nullptr);
  Scratch& s = scratch();
  place(wires, &s.wire_of_item, &s.wire_load);
  polish(wires, s.wire_of_item, s.wire_load);
  return *std::max_element(s.wire_load.begin(), s.wire_load.end());
}

Balance ChainSet::refined(unsigned wires) const {
  Balance b = grouped(wires);
  if (size() <= kRefineItemLimit) polish(wires, b.wire_of_item, b.wire_load);
  return b;
}

void ChainSet::polish(unsigned wires, std::vector<unsigned>& wire_of_item,
                      std::vector<std::size_t>& wire_load) const {
  // One wire admits no move and no swap.
  if (chains_.empty() || wires == 1) return;
  // The polish walks items in insertion order.
  const std::size_t n = size();
  Scratch& s = scratch();
  std::vector<std::size_t>& length = s.length;
  std::vector<std::uint32_t>& slot_of = s.slot_of;
  length.resize(n);
  slot_of.resize(n);
  for (const Chain& c : chains_) {
    length[c.index] = c.length;
    slot_of[c.index] = c.slot;
  }
  // held[slot * wires + w] counts the core's items on wire w. A relaxed
  // core (more chains than wires) is never checked.
  std::vector<std::uint32_t>& held = s.held;
  held.assign(per_slot_.size() * wires, 0);
  for (std::size_t i = 0; i < n; ++i)
    ++held[slot_of[i] * std::size_t{wires} + wire_of_item[i]];
  const auto free_for = [&](std::size_t i, unsigned wire,
                            std::uint32_t discount) {
    const std::uint32_t slot = slot_of[i];
    return per_slot_[slot] > wires ||
           held[slot * std::size_t{wires} + wire] - discount == 0;
  };
  const auto move_to = [&](std::size_t i, unsigned wire) {
    const std::size_t row = slot_of[i] * std::size_t{wires};
    --held[row + wire_of_item[i]];
    ++held[row + wire];
    wire_of_item[i] = wire;
  };

  bool improved = true;
  while (improved) {
    improved = false;
    const std::size_t before =
        *std::max_element(wire_load.begin(), wire_load.end());
    // Constraint-preserving moves off a maximal wire.
    for (std::size_t i = 0; i < n && !improved; ++i) {
      const unsigned src = wire_of_item[i];
      if (wire_load[src] != before) continue;
      for (unsigned dst = 0; dst < wires; ++dst) {
        if (dst == src || !free_for(i, dst, 0)) continue;
        if (wire_load[dst] + length[i] < before) {
          wire_load[src] -= length[i];
          wire_load[dst] += length[i];
          move_to(i, dst);
          improved = true;
          break;
        }
      }
    }
    // Constraint-preserving swaps: after the swap j no longer holds wj
    // (nor i wi), so a same-core partner is discounted from the count.
    for (std::size_t i = 0; i < n && !improved; ++i) {
      const unsigned wi = wire_of_item[i];
      if (wire_load[wi] != before) continue;
      for (std::size_t j = 0; j < n && !improved; ++j) {
        const unsigned wj = wire_of_item[j];
        if (wj == wi || length[j] >= length[i]) continue;
        const std::size_t delta = length[i] - length[j];
        if (wire_load[wj] + delta >= before) continue;
        const std::uint32_t same = slot_of[i] == slot_of[j] ? 1 : 0;
        if (!free_for(i, wj, same) || !free_for(j, wi, same)) continue;
        wire_load[wi] -= delta;
        wire_load[wj] += delta;
        move_to(i, wj);
        move_to(j, wi);
        improved = true;
      }
    }
  }
}

Balance assign_lpt_grouped(const std::vector<ChainItem>& items,
                           unsigned wires) {
  return ChainSet(items).grouped(wires);
}

Balance assign_lpt_grouped_refined(const std::vector<ChainItem>& items,
                                   unsigned wires) {
  return ChainSet(items).refined(wires);
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
