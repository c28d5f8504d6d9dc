/// \file metrics.hpp
/// The floor-wide metrics registry: counters, gauges, and fixed-bucket
/// latency histograms with lock-free per-thread shards.
///
/// ## Why shards
/// The instrumented hot paths (the floor's worker loops, the shared
/// program cache, the job pipeline's stage timers) run on N threads at
/// once. A single shared atomic per counter would serialize those threads
/// on cache-line ping-pong; a mutex would be worse. Instead every thread
/// that touches a Registry gets its own *shard* — a private, cache-line-
/// aligned slot array it alone writes (plain load+store on atomics, no
/// RMW, no contention). snapshot() sums the shards under the registration
/// mutex with relaxed loads, which is exact for quiesced threads and a
/// consistent-enough live sample for a running floor.
///
/// ## Cost model (guarded by bench_obs + the CI overhead gate)
/// - add()/observe() hot path: one thread-local cache probe (a linear scan
///   over typically one entry) + one relaxed atomic load/store pair.
/// - disabled telemetry: instrument sites hold a `Registry*` that is null
///   when telemetry is off, so the disabled cost is one pointer test —
///   the "compiles to near-zero" contract the floor relies on.
/// - snapshot(): O(metrics x shards) under a mutex; a cold path by design
///   (periodic stats tailing, end-of-run reports).
///
/// ## Determinism contract
/// The registry only *observes*: it never feeds a value back into any
/// computation, so enabling or disabling it cannot change a deterministic
/// result anywhere in the tree (tests/test_obs.cpp pins the floor's
/// deterministic_summary() on/off equality).
///
/// Metric names are stable identifiers (docs/OBSERVABILITY.md catalogues
/// the floor's); registering the same name twice returns the same id.

#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace casbus::obs {

/// Dense handle of one registered metric; valid for the registry that
/// issued it. Counters and histograms draw from separate id spaces.
using MetricId = std::size_t;

/// Aggregated view of one histogram at snapshot time. Buckets are
/// cumulative-free counts: counts[i] observations fell in
/// (bounds[i-1], bounds[i]]; the last bucket is the +inf overflow.
struct HistogramSnapshot {
  std::string name;
  std::vector<double> bounds;          ///< upper bounds, ascending
  std::vector<std::uint64_t> counts;   ///< bounds.size() + 1 buckets
  std::uint64_t count = 0;             ///< total observations
  double sum = 0.0;                    ///< sum of observed values

  /// Bucket-interpolated quantile (q in [0,1]): the classic Prometheus-
  /// style estimate — exact to bucket resolution, monotone in q. Returns
  /// 0 when empty; values in the overflow bucket report its lower bound.
  [[nodiscard]] double percentile(double q) const;
  [[nodiscard]] double p50() const { return percentile(0.50); }
  [[nodiscard]] double p90() const { return percentile(0.90); }
  [[nodiscard]] double p99() const { return percentile(0.99); }
};

/// One consistent-enough aggregation of a Registry (see file comment).
struct Snapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<HistogramSnapshot> histograms;

  /// Value of the named counter/gauge; 0 when absent (absence and zero
  /// are indistinguishable by design — both mean "nothing happened").
  [[nodiscard]] std::uint64_t counter(std::string_view name) const;
  [[nodiscard]] double gauge(std::string_view name) const;
  /// Null when absent. The pointer aims into this snapshot, so it is
  /// lvalue-only: `registry.snapshot().histogram(...)` would dangle and
  /// does not compile — bind the snapshot to a local first.
  [[nodiscard]] const HistogramSnapshot* histogram(
      std::string_view name) const&;
  const HistogramSnapshot* histogram(std::string_view name) const&& = delete;

  /// One-line JSON object: counters and gauges as numbers, histograms as
  /// {"count","sum","p50","p90","p99"} objects. Stable key order
  /// (registration order) so diffs are line-diffable.
  [[nodiscard]] std::string to_json() const;
};

class Registry {
 public:
  /// Opaque per-thread slot storage; defined in metrics.cpp.
  struct Shard;

  Registry();
  ~Registry();
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Registers (or finds) a monotonic counter. Cold path; typically called
  /// once at session construction, before worker threads start.
  [[nodiscard]] MetricId counter(std::string name);

  /// Registers (or finds) a histogram with the given ascending upper
  /// bounds (an implicit +inf overflow bucket is appended). Re-registering
  /// a name returns the existing id; the bounds must match.
  [[nodiscard]] MetricId histogram(std::string name,
                                   std::vector<double> bounds);

  /// Registers a gauge: \p sampler is called at every snapshot() (under
  /// the registry mutex) and must be thread-safe. Gauges have no hot-path
  /// cost at all — they pull instead of being pushed.
  void gauge(std::string name, std::function<double()> sampler);

  /// Adds \p delta to a counter on the calling thread's shard. Lock-free
  /// except on this thread's very first touch of this registry.
  void add(MetricId id, std::uint64_t delta = 1) noexcept;

  /// Records one observation into a histogram (same sharding as add()).
  void observe(MetricId id, double value) noexcept;

  /// Aggregates all shards. See the cost model in the file comment.
  [[nodiscard]] Snapshot snapshot() const;

  /// Threads that have touched this registry so far (== shard count).
  [[nodiscard]] std::size_t shard_count() const;

  /// The default latency bucket ladder for stage histograms: 1 µs to 10 s
  /// in a 1-2-5 progression, in microseconds.
  [[nodiscard]] static std::vector<double> latency_buckets_us();

 private:
  struct CounterDesc {
    std::string name;
    std::size_t slot;  ///< index into Shard::slots
  };
  struct HistogramDesc {
    std::string name;
    std::vector<double> bounds;
    std::size_t slot;  ///< first of bounds.size()+2 slots (buckets+count)
    std::size_t sum;   ///< index into Shard::sums
  };
  struct GaugeDesc {
    std::string name;
    std::function<double()> sampler;
  };

  /// The calling thread's cached shard-plus-layout view (a cpp-internal
  /// type, hence the erased pointer); creates the shard on first touch.
  [[nodiscard]] const void* local_view_erased() const;
  [[nodiscard]] Shard* make_shard_locked() const;

  const std::uint64_t serial_;  ///< process-unique, keys the TLS cache

  mutable std::mutex mu_;
  std::vector<CounterDesc> counters_;
  std::vector<HistogramDesc> histograms_;
  std::vector<GaugeDesc> gauges_;
  std::size_t slot_count_ = 0;  ///< uint64 slots a new shard must carry
  std::size_t sum_count_ = 0;   ///< double slots a new shard must carry
  mutable std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace casbus::obs
