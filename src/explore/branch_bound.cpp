#include "explore/branch_bound.hpp"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <queue>
#include <thread>
#include <utility>
#include <vector>

#include "sched/exact.hpp"
#include "sched/lower_bound.hpp"
#include "util/threads.hpp"

namespace casbus::explore {

namespace {

using sched::CoreTestSpec;
using sched::GroupBound;

/// One search node: the assignment of scan core `depth-1` (in search
/// order) to `group`, linked to the parent prefix. Nodes live in an arena
/// and share prefixes, so memory stays O(nodes), not O(nodes * depth).
struct Node {
  std::uint32_t parent = 0;
  std::uint16_t depth = 0;
  std::uint16_t group = 0;
  std::uint16_t groups_used = 0;
  std::uint64_t f = 0;
};

/// Min-heap entry: (bound, arena index). The index tie-break makes each
/// shard's expansion order — and with it the whole deterministic-mode
/// search — reproducible.
using OpenEntry = std::pair<std::uint64_t, std::uint32_t>;
using OpenHeap = std::priority_queue<OpenEntry, std::vector<OpenEntry>,
                                     std::greater<OpenEntry>>;

/// Frontier shards in deterministic mode: fixed, so the round structure
/// (and therefore every published result) is independent of the thread
/// count. Non-deterministic mode shards one heap per thread instead.
constexpr std::size_t kDetShards = 16;
/// Nodes popped from each shard per round. Large enough to amortize the
/// round barrier, small enough that incumbent snapshots stay fresh.
constexpr std::size_t kQuantum = 64;

enum class ItemKind : std::uint8_t { kExpand, kLeaf };

/// One unit of round work: an arena node to expand or price, plus an
/// optional greedy dive scheduled (deterministically) at selection time.
struct RoundItem {
  std::uint32_t id = 0;
  ItemKind kind = ItemKind::kExpand;
  bool dive = false;
};

/// A priced complete partition proposed as the new incumbent.
struct Offer {
  std::uint64_t total = UINT64_MAX;
  std::vector<std::vector<std::size_t>> groups;
};

/// What one worker computed for one RoundItem; applied serially at merge.
struct ItemResult {
  std::vector<Node> children;  ///< survivors of the snapshot-bound prune
  std::uint64_t prunes = 0;
  Offer leaf;  ///< set for kLeaf items
  Offer dive;  ///< set when RoundItem::dive
  sched::ScanTerms terms;  ///< pricing effort, terms new to the memo

  /// Empties the slot for the next round; children keeps its capacity.
  void clear() {
    children.clear();
    prunes = 0;
    leaf = Offer{};
    dive = Offer{};
    terms = sched::ScanTerms{};
  }
};

/// Per-worker prefix buffers, reused across every expansion one thread
/// runs, so an expansion allocates nothing but the children it keeps.
struct Scratch {
  std::vector<GroupBound> bounds;
  std::vector<std::uint64_t> bound_of;
};

class Search {
 public:
  Search(const sched::SessionScheduler& scheduler,
         const BranchBoundConfig& config)
      : scheduler_(scheduler),
        config_(config),
        width_(scheduler.width()),
        reconfig_(scheduler.reconfig_cost()) {
    // Each core's bound summary and single-core session bound (the
    // core_session_lower_bound of every core), derived once: expansions
    // and greedy completions merge summaries instead of walking chains.
    const std::size_t n = scheduler.cores().size();
    std::vector<GroupBound> summary_of(n);
    std::vector<std::uint64_t> solo_of(n);
    for (std::size_t i = 0; i < n; ++i) {
      if (core(i).is_scan()) {
        scan_.push_back(i);
        summary_of[i].add(core(i));
        solo_of[i] = summary_of[i].scan_lower_bound(width_);
      } else {
        bist_.push_back(i);
        solo_of[i] = core(i).bist_cycles;
      }
    }
    CASBUS_REQUIRE(scan_.size() < 65535,
                   "BranchBoundScheduler: too many scan cores");
    // Demanding cores first: their bounds dominate early, so pruning and
    // greedy completions both make their hard decisions at the top of the
    // tree. The tie-break clusters equal-geometry cores adjacently, which
    // is what lets the dominance rule below recognize them.
    std::stable_sort(scan_.begin(), scan_.end(),
                     [&](std::size_t a, std::size_t b) {
                       if (solo_of[a] != solo_of[b])
                         return solo_of[a] > solo_of[b];
                       if (core(a).patterns != core(b).patterns)
                         return core(a).patterns > core(b).patterns;
                       return core(a).chains > core(b).chains;
                     });
    for (const std::size_t c : scan_) {
      summary_.push_back(summary_of[c]);
      solo_.push_back(solo_of[c]);
    }
    // Dominance between interchangeable cores: a scan core with the same
    // chain geometry and pattern budget as its predecessor prices
    // identically in every session, so only assignments where it lands in
    // the predecessor's group or later need expanding — together with the
    // canonical first-fit group labels this expands each symmetric
    // partition exactly once.
    same_as_prev_.assign(scan_.size(), 0);
    for (std::size_t i = 1; i < scan_.size(); ++i)
      same_as_prev_[i] = static_cast<char>(
          core(scan_[i]).chains == core(scan_[i - 1]).chains &&
          core(scan_[i]).patterns == core(scan_[i - 1]).patterns);

    const std::uint64_t max_single =
        *std::max_element(solo_of.begin(), solo_of.end());
    // Two floors on the summed session maxima share the reconfiguration
    // term: wire-time conservation and the BIST chunking pigeonhole.
    const std::uint64_t work_bound =
        std::max((sched::total_wire_work(scheduler.cores()) + width_ - 1) /
                     width_,
                 sched::bist_chunk_bound(scheduler.cores(), width_));
    // bound()'s group-count terms, tabulated for every count a prefix can
    // reach (at most one group per scan core).
    for (std::size_t g = 0; g <= scan_.size(); ++g) {
      overflow_cost_.push_back(
          reconfig_ *
          sched::partition_overflow_floor(g, bist_.size(), width_));
      floor_.push_back(std::max(
          work_bound + reconfig_ * sched::partition_session_floor(
                                       g, bist_.size(), width_),
          max_single + reconfig_));
    }
  }

  BranchBoundResult run();

 private:
  const CoreTestSpec& core(std::size_t i) const {
    return scheduler_.cores()[i];
  }

  /// Node bound over a prefix with `groups` fixed sessions whose summed
  /// per-group bounds are `structural` (config included). All terms are
  /// admissible for any completion of the prefix (see
  /// sched/lower_bound.hpp, including the partition-model session floors
  /// that charge for the sessions the BIST engines still force).
  std::uint64_t bound(std::uint64_t structural, std::size_t groups) const {
    return std::max(structural + overflow_cost_[groups], floor_[groups]);
  }

  /// Rebuilds the group assignment of the first node->depth cores.
  std::vector<std::uint16_t> assignment_of(std::uint32_t id) const {
    const Node* n = &arena_[id];
    std::vector<std::uint16_t> group_of(n->depth);
    while (n->depth > 0) {
      group_of[n->depth - 1] = n->group;
      n = &arena_[n->parent];
    }
    return group_of;
  }

  /// Completes a prefix greedily by bound deltas: each remaining core
  /// joins the group whose lower bound grows least, or opens a new one
  /// when that is cheaper. O(cores * groups) — the anytime workhorse on
  /// instances too large to reach leaves by expansion.
  std::vector<std::vector<std::size_t>> complete_greedily(
      const std::vector<std::uint16_t>& group_of,
      std::size_t groups_used) const {
    std::vector<std::vector<std::size_t>> groups(groups_used);
    std::vector<GroupBound> bounds(groups_used);
    for (std::size_t i = 0; i < group_of.size(); ++i) {
      groups[group_of[i]].push_back(scan_[i]);
      bounds[group_of[i]].add(summary_[i]);
    }
    // Each group's current scan_lower_bound, updated as it grows.
    std::vector<std::uint64_t> lower(groups_used);
    for (std::size_t g = 0; g < groups_used; ++g)
      lower[g] = bounds[g].scan_lower_bound(width_);
    for (std::size_t i = group_of.size(); i < scan_.size(); ++i) {
      std::uint64_t best_delta = solo_[i] + reconfig_;
      std::uint64_t best_lower = solo_[i];
      std::size_t best_group = groups.size();
      for (std::size_t g = 0; g < groups.size(); ++g) {
        GroupBound joined = bounds[g];
        joined.add(summary_[i]);
        const std::uint64_t joined_lower = joined.scan_lower_bound(width_);
        const std::uint64_t delta = joined_lower - lower[g];
        if (delta < best_delta) {
          best_delta = delta;
          best_lower = joined_lower;
          best_group = g;
        }
      }
      if (best_group == groups.size()) {
        groups.push_back({scan_[i]});
        bounds.push_back(summary_[i]);
        lower.push_back(best_lower);
      } else {
        groups[best_group].push_back(scan_[i]);
        bounds[best_group].add(summary_[i]);
        lower[best_group] = best_lower;
      }
    }
    return groups;
  }

  /// Adopts a priced partition when it beats the incumbent (serial: seeds
  /// and the merge phase only).
  void apply_offer(Offer&& o) {
    if (o.total < best_total_) {
      best_total_ = o.total;
      best_groups_ = std::move(o.groups);
      ++improvements_;
      live_best_.store(best_total_, std::memory_order_relaxed);
    }
  }

  /// Prices a complete partition, reading scan terms from the memo (the
  /// round-start state while workers run) and recording the rest in
  /// \p terms.
  std::uint64_t price(const std::vector<std::vector<std::size_t>>& groups,
                      sched::ScanTerms& terms,
                      std::vector<sched::ScheduledSession>* sessions =
                          nullptr) const {
    terms.known = &memo_;
    return price_scan_partition(scheduler_, groups, bist_, sessions, &terms);
  }

  /// Adds a pricing's effort to the counters and its terms to the memo
  /// (serial: seeds, the merge phase and the final re-price).
  void absorb(const sched::ScanTerms& terms) {
    memo_.absorb(terms.learned);
    balances_ += terms.balances;
    memo_hits_ += terms.memo_hits;
  }

  /// Prices + offers a complete partition (serial seeding path).
  void seed(std::vector<std::vector<std::size_t>> groups) {
    sched::ScanTerms terms;
    Offer o;
    o.total = price(groups, terms);
    absorb(terms);
    o.groups = std::move(groups);
    apply_offer(std::move(o));
  }

  /// Lock-free incumbent-cost publication (non-deterministic mode): an
  /// atomic min so sibling workers prune against improvements from this
  /// round immediately instead of at the next snapshot.
  void publish(std::uint64_t total) {
    std::uint64_t cur = live_best_.load(std::memory_order_relaxed);
    while (total < cur && !live_best_.compare_exchange_weak(
                              cur, total, std::memory_order_relaxed)) {
    }
  }

  /// The incumbent value workers prune against: the round-start snapshot
  /// in deterministic mode, the live atomic otherwise.
  std::uint64_t cutoff() const {
    return config_.deterministic
               ? snapshot_best_
               : live_best_.load(std::memory_order_relaxed);
  }

  // --- round work (parallel phase; pure w.r.t. round-start state) --------

  void price_leaf(const RoundItem& item, ItemResult& r);
  void expand(const RoundItem& item, ItemResult& r, Scratch& scratch) const;
  void run_dive(const RoundItem& item, ItemResult& r);

  /// Claims and processes batch items until the round is drained. Run by
  /// every pool thread and the caller; items are claimed via an atomic
  /// cursor, results land at the item's own index, so work distribution
  /// cannot affect the merged outcome.
  void drain_batch(Scratch& scratch) {
    for (;;) {
      const std::size_t i = claim_.fetch_add(1, std::memory_order_relaxed);
      if (i >= batch_.size()) return;
      const RoundItem& item = batch_[i];
      ItemResult& r = results_[i];
      if (item.kind == ItemKind::kLeaf)
        price_leaf(item, r);
      else
        expand(item, r, scratch);
      if (item.dive) run_dive(item, r);
    }
  }

  // --- serial round phases ----------------------------------------------

  void select_round(std::size_t dive_interval);
  void merge_round(BranchBoundResult& result);
  void rebalance(BranchBoundResult& result);

  const sched::SessionScheduler& scheduler_;
  BranchBoundConfig config_;
  unsigned width_;
  std::uint64_t reconfig_;
  std::vector<std::size_t> scan_, bist_;
  std::vector<char> same_as_prev_;
  std::vector<GroupBound> summary_;  ///< per scan core, in search order
  std::vector<std::uint64_t> solo_;  ///< its single-core scan bound
  /// Per group count g: reconfig * partition_overflow_floor(g), and the
  /// larger of the work and single-core floors for g groups.
  std::vector<std::uint64_t> overflow_cost_, floor_;

  std::vector<Node> arena_;
  std::size_t shards_ = 1;
  std::vector<OpenHeap> heaps_;
  std::size_t next_shard_ = 0;  ///< round-robin cursor for new entries

  std::uint64_t best_total_ = UINT64_MAX;
  std::vector<std::vector<std::size_t>> best_groups_;
  std::atomic<std::uint64_t> live_best_{UINT64_MAX};
  std::uint64_t snapshot_best_ = UINT64_MAX;

  std::vector<RoundItem> batch_;
  std::vector<ItemResult> results_;
  std::atomic<std::size_t> claim_{0};

  std::uint64_t nodes_expanded_ = 0;
  std::uint64_t prunes_ = 0;
  std::uint64_t improvements_ = 0;
  std::uint64_t dives_ = 0;
  std::uint64_t balances_ = 0;
  std::uint64_t memo_hits_ = 0;

  /// Scan terms of every group priced so far: on 1000-core SoCs it
  /// answers about a third of the terms the dives and the final re-price
  /// need. Freed with the search.
  sched::ScanTermMemo memo_;
};

void Search::price_leaf(const RoundItem& item, ItemResult& r) {
  const std::vector<std::uint16_t> leaf_groups = assignment_of(item.id);
  std::vector<std::vector<std::size_t>> groups(arena_[item.id].groups_used);
  for (std::size_t i = 0; i < leaf_groups.size(); ++i)
    groups[leaf_groups[i]].push_back(scan_[i]);
  r.leaf.total = price(groups, r.terms);
  r.leaf.groups = std::move(groups);
  if (!config_.deterministic) publish(r.leaf.total);
}

void Search::expand(const RoundItem& item, ItemResult& r,
                    Scratch& scratch) const {
  const std::uint64_t cut = cutoff();
  const Node node = arena_[item.id];

  // Rebuild the prefix's group bounds from the parent chain: one O(1)
  // summary merge per assigned core (merges commute, so walking the
  // prefix backwards yields the same aggregates).
  const std::size_t depth = node.depth;
  const std::size_t groups_used = node.groups_used;
  std::vector<GroupBound>& bounds = scratch.bounds;
  std::vector<std::uint64_t>& bound_of = scratch.bound_of;
  bounds.assign(groups_used, GroupBound{});
  bound_of.resize(groups_used);
  for (const Node* n = &node; n->depth > 0; n = &arena_[n->parent])
    bounds[n->group].add(summary_[n->depth - 1]);
  std::uint64_t structural = 0;
  for (std::size_t g = 0; g < groups_used; ++g) {
    bound_of[g] = bounds[g].scan_lower_bound(width_) + reconfig_;
    structural += bound_of[g];
  }

  const GroupBound& next = summary_[depth];
  // Dominance: a core interchangeable with its predecessor never goes to
  // an earlier group than the predecessor did.
  const std::size_t g_min =
      (depth > 0 && same_as_prev_[depth] != 0) ? node.group : 0;
  for (std::size_t g = g_min; g <= groups_used; ++g) {
    const bool fresh = g == groups_used;
    GroupBound joined = fresh ? GroupBound{} : bounds[g];
    joined.add(next);
    const std::uint64_t joined_bound =
        joined.scan_lower_bound(width_) + reconfig_;
    const std::uint64_t child_structural =
        structural - (fresh ? 0 : bound_of[g]) + joined_bound;
    const std::size_t child_groups = groups_used + (fresh ? 1 : 0);
    const std::uint64_t child_f = bound(child_structural, child_groups);
    if (child_f >= cut) {
      ++r.prunes;
      continue;
    }
    r.children.push_back(Node{item.id,
                              static_cast<std::uint16_t>(depth + 1),
                              static_cast<std::uint16_t>(g),
                              static_cast<std::uint16_t>(child_groups),
                              child_f});
  }
}

void Search::run_dive(const RoundItem& item, ItemResult& r) {
  std::vector<std::vector<std::size_t>> groups =
      complete_greedily(assignment_of(item.id), arena_[item.id].groups_used);
  r.dive.total = price(groups, r.terms);
  r.dive.groups = std::move(groups);
  if (!config_.deterministic) publish(r.dive.total);
}

void Search::select_round(std::size_t dive_interval) {
  batch_.clear();
  snapshot_best_ = best_total_;
  std::size_t remaining =
      config_.node_budget > nodes_expanded_
          ? config_.node_budget - nodes_expanded_
          : 0;
  for (std::size_t s = 0; s < shards_ && remaining > 0; ++s) {
    std::size_t taken = 0;
    while (taken < kQuantum && remaining > 0 && !heaps_[s].empty()) {
      const auto [f, id] = heaps_[s].top();
      if (f >= best_total_) {
        // Min-heap: nothing in this shard can beat the incumbent — drop
        // the whole shard (its entries can never certify a lower bound
        // below best either).
        heaps_[s] = OpenHeap{};
        break;
      }
      heaps_[s].pop();
      ++nodes_expanded_;
      --remaining;
      ++taken;
      RoundItem item;
      item.id = id;
      item.kind = arena_[id].depth == scan_.size() ? ItemKind::kLeaf
                                                  : ItemKind::kExpand;
      // Dive cadence, decided here (serially) so it is a pure function of
      // the expansion count — identical at every thread count.
      if (item.kind == ItemKind::kExpand && dive_interval > 0 &&
          dives_ < config_.max_dives &&
          nodes_expanded_ % dive_interval == 0) {
        item.dive = true;
        ++dives_;
      }
      batch_.push_back(item);
    }
  }
}

void Search::merge_round(BranchBoundResult& result) {
  for (std::size_t i = 0; i < batch_.size(); ++i) {
    const RoundItem& item = batch_[i];
    ItemResult& r = results_[i];
    absorb(r.terms);
    if (item.kind == ItemKind::kLeaf) {
      ++result.leaves_priced;
      apply_offer(std::move(r.leaf));
      continue;
    }
    prunes_ += r.prunes;
    for (const Node& child : r.children) {
      // Re-check against the incumbent as merged so far: offers applied
      // earlier in this round prune children their worker could not see.
      if (child.f >= best_total_) {
        ++prunes_;
        continue;
      }
      arena_.push_back(child);
      heaps_[next_shard_].push(
          {child.f, static_cast<std::uint32_t>(arena_.size() - 1)});
      next_shard_ = (next_shard_ + 1) % shards_;
    }
    if (item.dive) apply_offer(std::move(r.dive));
  }
}

void Search::rebalance(BranchBoundResult& result) {
  // Deterministic work rebalancing at the round boundary: every shard
  // that ran dry steals the cheapest half of the fullest frontier, so no
  // worker idles while another drowns.
  for (std::size_t s = 0; s < shards_; ++s) {
    if (!heaps_[s].empty()) continue;
    std::size_t fullest = s;
    std::size_t fullest_size = 0;
    for (std::size_t t = 0; t < shards_; ++t) {
      if (heaps_[t].size() > fullest_size) {
        fullest_size = heaps_[t].size();
        fullest = t;
      }
    }
    if (fullest_size < 2) continue;
    const std::size_t moves = std::min(fullest_size / 2, kQuantum);
    for (std::size_t m = 0; m < moves; ++m) {
      heaps_[s].push(heaps_[fullest].top());
      heaps_[fullest].pop();
    }
    ++result.rebalances;
  }
}

BranchBoundResult Search::run() {
  BranchBoundResult result;

  const std::size_t threads = effective_workers(config_.threads);
  shards_ = config_.deterministic ? kDetShards : threads;
  heaps_.assign(shards_, OpenHeap{});

  // Incumbent seeding: a bound-greedy completion from the empty prefix
  // always; the classical heuristics' partitions too on small instances.
  // The gate no longer guards against quadratic pricing (greedy balances
  // at most once per probe), but on a 1000-core SoC greedy still costs
  // 0.04-0.4 s, about what the default-budget search itself takes, and
  // seeding there would change the incumbent and so every explore result.
  seed(complete_greedily({}, 0));
  dives_ = 1;
  if (scan_.size() <= 24) {
    sched::ScheduleStats greedy;
    seed(sched::greedy_scan_groups(scheduler_, &greedy));
    balances_ += greedy.balances;
    seed({scan_});  // single session
    std::vector<std::vector<std::size_t>> per_core;
    for (const std::size_t c : scan_) per_core.push_back({c});
    seed(std::move(per_core));
  }

  // The dive cadence is clamped to the budget so the anytime machinery
  // still fires when the caller picks a budget smaller than the
  // configured interval (the 1000-core bench rows).
  const std::size_t dive_interval =
      config_.dive_interval == 0
          ? 0
          : std::min(config_.dive_interval,
                     std::max<std::size_t>(
                         1, config_.node_budget / (config_.max_dives + 1)));

  arena_.push_back(Node{0, 0, 0, 0, bound(0, 0)});
  heaps_[0].push({arena_[0].f, 0});
  next_shard_ = 1 % shards_;

  // Worker pool: persistent threads, two-phase barrier per round. The
  // caller is participant 0, so `threads == 1` never spawns.
  std::atomic<bool> quit{false};
  Scratch scratch;
  std::barrier<> start_gate(static_cast<std::ptrdiff_t>(threads));
  std::barrier<> finish_gate(static_cast<std::ptrdiff_t>(threads));
  std::vector<std::thread> pool;
  for (std::size_t t = 1; t < threads; ++t) {
    pool.emplace_back([&] {
      Scratch own;
      for (;;) {
        start_gate.arrive_and_wait();
        if (quit.load(std::memory_order_acquire)) return;
        drain_batch(own);
        finish_gate.arrive_and_wait();
      }
    });
  }

  bool budget_hit = false;
  std::uint64_t frontier_bound = best_total_;
  for (;;) {
    select_round(dive_interval);
    if (batch_.empty()) {
      // No shard holds a node that can beat the incumbent, or the budget
      // is spent. The frontier minimum (if any survives) certifies the
      // lower bound; an empty/beaten frontier proves optimality.
      std::uint64_t frontier = UINT64_MAX;
      for (const OpenHeap& h : heaps_)
        if (!h.empty()) frontier = std::min(frontier, h.top().first);
      if (frontier < best_total_) {
        budget_hit = true;
        frontier_bound = frontier;
      }
      break;
    }
    // Reuse the earlier rounds' result slots: clearing keeps each
    // children buffer's capacity.
    if (results_.size() < batch_.size()) results_.resize(batch_.size());
    for (std::size_t i = 0; i < batch_.size(); ++i) results_[i].clear();
    claim_.store(0, std::memory_order_relaxed);
    if (!pool.empty()) {
      start_gate.arrive_and_wait();
      drain_batch(scratch);
      finish_gate.arrive_and_wait();
    } else {
      drain_batch(scratch);
    }
    merge_round(result);
    rebalance(result);
  }

  if (!pool.empty()) {
    quit.store(true, std::memory_order_release);
    start_gate.arrive_and_wait();
    for (std::thread& t : pool) t.join();
  }

  result.optimal = !budget_hit;
  result.nodes_expanded = nodes_expanded_;
  result.dives = dives_;
  result.prunes = prunes_;
  result.incumbent_improvements = improvements_;
  result.best_cost = best_total_;
  result.lower_bound =
      result.optimal ? best_total_ : std::min(best_total_, frontier_bound);

  std::vector<sched::ScheduledSession> sessions;
  sched::ScanTerms terms;
  result.schedule.total_cycles = price(best_groups_, terms, &sessions);
  absorb(terms);
  result.schedule.sessions = std::move(sessions);
  result.balances = balances_;
  result.term_memo_hits = memo_hits_;
  return result;
}

}  // namespace

BranchBoundScheduler::BranchBoundScheduler(
    const sched::SessionScheduler& scheduler, BranchBoundConfig config)
    : scheduler_(scheduler), config_(config) {}

BranchBoundResult BranchBoundScheduler::run() const {
  // Pure-BIST SoCs have no partition dimension to search: length-sorted
  // chunking is provably optimal (session i's cost equals its lower
  // bound, the i*width-th longest engine, with the minimum session
  // count), so the certificate is exact without any expansion.
  bool any_scan = false;
  for (const auto& c : scheduler_.cores()) any_scan |= c.is_scan();
  if (!any_scan) {
    BranchBoundResult result;
    result.schedule = sched::optimal_pure_bist_schedule(scheduler_);
    result.best_cost = result.schedule.total_cycles;
    result.lower_bound = result.best_cost;
    result.optimal = true;
    return result;
  }
  Search search(scheduler_, config_);
  return search.run();
}

}  // namespace casbus::explore
