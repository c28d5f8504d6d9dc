/// \file program_cache.hpp
/// Per-worker LRU cache over the expensive, *pure* parts of run_job.
///
/// A test floor re-running a spec it has already run is doing work whose
/// outcome it provably knows: run_job is a pure function of the JobSpec
/// (see job.hpp), so everything downstream of the spec can be memoized.
/// The cache exploits that at two tiers, both keyed by the canonical
/// recipe (JobSpec::cache_key(), verified field-by-field so a hash
/// collision degrades to a miss, never to a wrong answer):
///
/// 1. **Program tier** — the Schedule+Compile stages of scheduled
///    scenarios: the immutable soc::CompiledProgram is kept and re-run
///    against the job's freshly built SoC, skipping straight to
///    simulation. Sound because compilation is pure (sched::schedule_with
///    over specs_of) and a const CompiledProgram shares no mutable state
///    with any Soc or tester. For paper-sized SoCs scheduling is cheap, so
///    this tier is about architecture (and about strategies whose search
///    cost grows with core count), not the headline throughput.
///
/// 2. **Verdict tier** (optional, on by default) — the whole pipeline: a
///    recipe that has already executed cleanly is served its qualified
///    JobResult, re-stamped with the new job id, skipping Build and
///    Simulate too. This is the production-floor "program qualification"
///    pattern: the first run of a program is validated cycle-accurately,
///    repeats reuse the qualification record. It is what makes a
///    repeated-spec mix measurably faster, since simulation dominates job
///    cost. Results that errored are never qualified (an error may be
///    environmental, e.g. bad_alloc, and so is not provably pure).
///
/// Neither tier can change a deterministic result field — cache-on and
/// cache-off floors produce byte-identical deterministic_summary() text,
/// which tests/test_floor_session.cpp enforces.
///
/// ## Thread-safety
/// None, by design. Each floor worker owns one ProgramCache; entries never
/// cross threads (the shared_ptr is only for cheap handout within the
/// owning worker's job loop). The JobQueue's affinity sharding routes
/// equal-keyed jobs to the same worker precisely so these private caches
/// stay hot without any synchronization.

#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>

#include "floor/telemetry.hpp"
#include "obs/metrics.hpp"
#include "soc/schedule_runner.hpp"

namespace casbus::floor {

class ProgramCache {
 public:
  /// \p capacity is the recipe-entry bound; 0 disables the cache entirely
  /// (every lookup misses, every store is a no-op). \p reuse_verdicts
  /// gates the verdict tier; the program tier is always on when the cache
  /// is.
  explicit ProgramCache(std::size_t capacity, bool reuse_verdicts = true)
      : capacity_(capacity), reuse_verdicts_(reuse_verdicts) {}

  /// Binds the worker's metric registry: every tier event is then added
  /// to its floor.cache.* counter (on the owning worker's shard, so the
  /// hot path stays contention-free). Call before the first lookup;
  /// \p ids must outlive the cache.
  void set_telemetry(obs::Registry* registry, const FloorMetricIds& ids) {
    registry_ = registry;
    ids_ = &ids;
  }

  /// Verdict tier: the qualified result of a recipe that already ran
  /// cleanly, re-stamped as a CacheTier::Verdict serve with this
  /// execution's timing and engine counters zeroed (nothing ran — the
  /// zeros are the explicit record of that, paired with the tier tag) —
  /// or nullopt. Counts one lookup (and, when served, one verdict hit).
  [[nodiscard]] std::optional<JobResult> reuse(const JobSpec& spec) {
    count(FloorCounter::CacheLookups);
    if (!reuse_verdicts_) return std::nullopt;
    Entry* entry = touch(spec);
    if (entry == nullptr || !entry->verdict.has_value()) return std::nullopt;
    count(FloorCounter::CacheVerdictHits);
    JobResult result = *entry->verdict;
    result.cache_tier = CacheTier::Verdict;
    result.stage_seconds.fill(0.0);
    result.wall_seconds = 0.0;
    result.engine = JobEngineCounters{};
    return result;
  }

  /// Qualifies \p result as the recipe's known outcome. Callers must only
  /// pass clean (error-free) results.
  void qualify(const JobSpec& spec, const JobResult& result) {
    if (capacity_ == 0 || !reuse_verdicts_) return;
    obtain(spec).verdict = result;
  }

  /// Program tier: the compiled program of this recipe, or null. Counts a
  /// hit when served (the miss was already counted by the reuse() lookup
  /// preceding it in the pipeline).
  [[nodiscard]] std::shared_ptr<const soc::CompiledProgram> find_program(
      const JobSpec& spec) {
    Entry* entry = touch(spec);
    if (entry == nullptr || entry->program == nullptr) return nullptr;
    count(FloorCounter::CacheProgramHits);
    return entry->program;
  }

  void put_program(const JobSpec& spec,
                   std::shared_ptr<const soc::CompiledProgram> program) {
    if (capacity_ == 0) return;
    obtain(spec).program = std::move(program);
  }

  [[nodiscard]] std::size_t size() const noexcept { return lru_.size(); }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] bool reuse_verdicts() const noexcept {
    return reuse_verdicts_;
  }

 private:
  struct Entry {
    JobSpec recipe;  ///< canonical fields; id is meaningless here
    std::shared_ptr<const soc::CompiledProgram> program;
    std::optional<JobResult> verdict;
  };

  /// Finds the recipe's entry (collision-checked) and refreshes its
  /// recency; null on miss.
  [[nodiscard]] Entry* touch(const JobSpec& spec) {
    if (capacity_ == 0) return nullptr;
    const auto it = index_.find(spec.cache_key());
    if (it == index_.end() || !it->second->recipe.same_recipe(spec))
      return nullptr;
    lru_.splice(lru_.begin(), lru_, it->second);  // most recent to front
    return &*it->second;
  }

  /// Finds or inserts the recipe's entry, evicting the least recently
  /// used one when over capacity. Caller fills in program/verdict.
  [[nodiscard]] Entry& obtain(const JobSpec& spec) {
    const std::uint64_t key = spec.cache_key();
    const auto it = index_.find(key);
    if (it != index_.end()) {
      // A colliding different recipe is evicted rather than shared.
      if (!it->second->recipe.same_recipe(spec)) {
        it->second->recipe = spec;
        it->second->program = nullptr;
        it->second->verdict.reset();
        count(FloorCounter::CacheEvictions);
        count(FloorCounter::CacheInsertions);
      }
      lru_.splice(lru_.begin(), lru_, it->second);
      return *it->second;
    }
    lru_.push_front(Entry{spec, nullptr, std::nullopt});
    index_[key] = lru_.begin();
    count(FloorCounter::CacheInsertions);
    if (lru_.size() > capacity_) {
      index_.erase(lru_.back().recipe.cache_key());
      lru_.pop_back();
      count(FloorCounter::CacheEvictions);
    }
    return lru_.front();
  }

  /// Counts one event in the bound registry, if any.
  void count(FloorCounter c) {
    if (registry_ != nullptr) registry_->add((*ids_)[c]);
  }

  std::size_t capacity_;
  bool reuse_verdicts_;
  obs::Registry* registry_ = nullptr;
  const FloorMetricIds* ids_ = nullptr;
  std::list<Entry> lru_;  ///< front = most recently used
  std::unordered_map<std::uint64_t, std::list<Entry>::iterator> index_;
};

}  // namespace casbus::floor
