/// \file program_cache.hpp
/// The floor-wide, scan-resistant cache of qualified job results.
///
/// A test floor re-running a spec it has already run is doing work whose
/// outcome it provably knows: run_job is a pure function of the JobSpec
/// (see job.hpp). So a recipe that has already executed cleanly is served
/// its qualified JobResult, re-stamped with the new job id, skipping the
/// whole pipeline. This is the production-floor "program qualification"
/// pattern: the first run of a program is validated cycle-accurately,
/// repeats reuse the qualification record. It is what makes a
/// repeated-spec mix measurably faster, since simulation dominates job
/// cost. Results that errored are never qualified (an error may be
/// environmental, e.g. bad_alloc, and so is not provably pure). Entries
/// are keyed by the canonical recipe (JobSpec::cache_key(), verified
/// field-by-field so a hash collision degrades to a miss, never to a
/// wrong answer).
///
/// The cache cannot change a deterministic result field — cache-on and
/// cache-off floors produce byte-identical deterministic_summary() text,
/// which tests/test_floor_session.cpp enforces.
///
/// ## Eviction: segmented LRU
/// A new recipe enters a *probation* list. A recipe the cache serves
/// moves to a *protected* list that holds at most 3/4 of the capacity;
/// the protected list's least recently used entry is demoted back to the
/// front of probation when it overflows. Eviction always takes
/// probation's least recently used entry. So a stream of
/// one-off recipes can only cycle through probation and never flushes a
/// recipe the floor has reused, while recipes that were never reused are
/// still evicted in plain LRU order.
///
/// ## Sharing and thread-safety
/// One ProgramCache serves the whole floor: FloorSession owns it with
/// capacity FloorConfig::cache_capacity × workers, so whichever worker
/// takes a job hits once any worker has qualified the recipe. One mutex
/// guards the entries; every member is safe to call from any thread
/// except set_telemetry(), which must precede concurrent use. Served
/// results are copies and stay valid after their entry is evicted.

#pragma once

#include <cstdint>
#include <iterator>
#include <list>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "floor/telemetry.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace casbus::floor {

class ProgramCache {
 public:
  /// \p capacity is the recipe-entry bound; 0 disables the cache entirely
  /// (every lookup misses, every store is a no-op).
  explicit ProgramCache(std::size_t capacity)
      : capacity_(capacity),
        protected_capacity_(capacity / 4 * 3 + capacity % 4 * 3 / 4) {}

  /// Binds a metric registry: every cache event is then added to its
  /// floor.cache.* counter (on the calling thread's shard). Call before
  /// the first lookup; \p ids must outlive the cache.
  void set_telemetry(obs::Registry* registry, const FloorMetricIds& ids) {
    registry_ = registry;
    ids_ = &ids;
  }

  /// The qualified result of a recipe that already ran cleanly,
  /// re-stamped as a CacheTier::Verdict serve with this execution's
  /// timing and engine counters zeroed (nothing ran — the zeros are the
  /// explicit record of that, paired with the tier tag) — or nullopt.
  /// Counts one lookup (and, when served, one verdict hit).
  [[nodiscard]] std::optional<JobResult> reuse(const JobSpec& spec) {
    count(FloorCounter::CacheLookups);
    if (capacity_ == 0) return std::nullopt;
    std::optional<JobResult> result;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      List::iterator* entry = find(spec);
      if (entry == nullptr) return std::nullopt;
      result = (*entry)->verdict;
      promote(*entry);
    }
    count(FloorCounter::CacheVerdictHits);
    result->cache_tier = CacheTier::Verdict;
    result->stage_seconds.fill(0.0);
    result->wall_seconds = 0.0;
    result->engine = JobEngineCounters{};
    return result;
  }

  /// Qualifies \p result as the recipe's known outcome. Callers must only
  /// pass clean (error-free) results.
  void qualify(const JobSpec& spec, const JobResult& result) {
    if (capacity_ == 0) return;
    const std::lock_guard<std::mutex> lock(mu_);
    obtain(spec)->verdict = result;
  }

  [[nodiscard]] std::size_t size() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return probation_.size() + protected_.size();
  }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

 private:
  struct Entry {
    JobSpec recipe;  ///< canonical fields; id is meaningless here
    JobResult verdict;
    bool kept = false;  ///< in protected_ (else in probation_)
  };
  using List = std::list<Entry>;  ///< front = most recently used

  // Every helper below runs with mu_ held.

  /// The recipe's entry (collision-checked), or null on miss. The pointer
  /// is into index_ and valid until the next insertion or erase.
  [[nodiscard]] List::iterator* find(const JobSpec& spec) {
    const auto it = index_.find(spec.cache_key());
    if (it == index_.end() || !it->second->recipe.same_recipe(spec))
      return nullptr;
    return &it->second;
  }

  [[nodiscard]] List& segment(List::iterator e) {
    return e->kept ? protected_ : probation_;
  }

  /// Makes \p e the most recent entry of its own segment.
  void refresh(List::iterator e) {
    List& seg = segment(e);
    seg.splice(seg.begin(), seg, e);
  }

  /// A served entry: to the front of protected, demoting protected's
  /// least recent entry to the front of probation on overflow.
  void promote(List::iterator e) {
    if (e->kept) {
      refresh(e);
      return;
    }
    e->kept = true;
    protected_.splice(protected_.begin(), probation_, e);
    if (protected_.size() <= protected_capacity_) return;
    const List::iterator demoted = std::prev(protected_.end());
    demoted->kept = false;
    probation_.splice(probation_.begin(), protected_, demoted);
  }

  /// Finds or inserts the recipe's entry (refreshing it, never promoting
  /// it), evicting probation's least recently used entry when over
  /// capacity. Caller fills in the verdict.
  [[nodiscard]] List::iterator obtain(const JobSpec& spec) {
    const std::uint64_t key = spec.cache_key();
    const auto it = index_.find(key);
    if (it != index_.end()) {
      const List::iterator e = it->second;
      // A colliding different recipe is evicted rather than shared; the
      // newcomer starts on probation like any new recipe.
      if (!e->recipe.same_recipe(spec)) {
        e->recipe = spec;
        probation_.splice(probation_.begin(), segment(e), e);
        e->kept = false;
        count(FloorCounter::CacheEvictions);
        count(FloorCounter::CacheInsertions);
      } else {
        refresh(e);
      }
      return e;
    }
    probation_.push_front(Entry{spec, JobResult{}});
    index_[key] = probation_.begin();
    count(FloorCounter::CacheInsertions);
    if (probation_.size() + protected_.size() > capacity_) {
      // protected_ holds at most 3/4 of capacity_, so probation_ holds an
      // older entry behind the new one.
      CASBUS_ASSERT(probation_.size() > 1,
                    "ProgramCache: nothing on probation to evict");
      index_.erase(probation_.back().recipe.cache_key());
      probation_.pop_back();
      count(FloorCounter::CacheEvictions);
    }
    return probation_.begin();
  }

  /// Counts one event in the bound registry, if any.
  void count(FloorCounter c) {
    if (registry_ != nullptr) registry_->add((*ids_)[c]);
  }

  const std::size_t capacity_;
  const std::size_t protected_capacity_;  ///< floor(3/4 × capacity_)
  obs::Registry* registry_ = nullptr;
  const FloorMetricIds* ids_ = nullptr;

  mutable std::mutex mu_;  ///< guards the lists and the index
  List probation_;
  List protected_;
  std::unordered_map<std::uint64_t, List::iterator> index_;
};

}  // namespace casbus::floor
