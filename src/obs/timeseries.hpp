/// \file timeseries.hpp
/// Time-series sampling over an obs::Registry: a bounded ring of periodic
/// snapshots exposing windowed rates and deltas.
///
/// ## Why
/// The registry's counters are cumulative: "floor.jobs.executed = 1843"
/// says nothing about whether the floor is moving *now*. Every consumer
/// that wants a rate (jobs/s, cache hit-rate over the last second, a p99
/// trend) had to pair two snapshots by hand and divide. The sampler does
/// that pairing once, centrally: it snapshots the registry on a fixed
/// interval into per-series ring buffers (bounded, drop-oldest) and
/// answers windowed questions — delta(), rate_per_sec(), window() — over
/// the retained history. floor::HealthMonitor evaluates its rule
/// catalogue against these windows, and incident bundles embed the
/// last-N window as the "what led up to this" record.
///
/// ## Series derivation
/// Each tick flattens one Registry snapshot into named scalar series:
/// every counter and gauge under its registry name, and per histogram
/// three derived series — `<name>.count`, `<name>.sum`, `<name>.p99`.
/// The series set is discovered as ticks happen; a metric registered
/// after the first tick gets a new series backfilled with zeros (the
/// value a fresh counter would have read anyway).
///
/// ## Determinism & cost contract
/// The sampler only *reads* the registry (snapshot() is const) — it can
/// no more change a deterministic result than a human tailing floorstat
/// can, and tests/test_health.cpp pins the floor's
/// deterministic_summary() with the sampler on vs off. One tick costs one
/// Registry::snapshot() plus O(series) ring stores — tens of µs on the
/// floor catalogue, gated at <= 50 µs by bench_obs + CI
/// (tools/bench_gates.json, sampler us_per_tick).
///
/// ## Threading
/// sample_now() is safe from any thread (internally serialized); start()
/// spawns one background thread that ticks every interval_ms and then
/// invokes the optional on_tick callback (the floor hangs its health
/// evaluation there, so one thread drives the whole sample -> evaluate ->
/// alarm loop). All read accessors are mutex-consistent with ticks.

#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace casbus::obs {

struct SamplerConfig {
  /// Background-thread tick period; ignored by manual sample_now() use.
  std::size_t interval_ms = 250;
  /// Samples retained per series (drop-oldest past this).
  std::size_t window = 240;
};

class TimeSeriesSampler {
 public:
  /// \p registry must outlive the sampler.
  explicit TimeSeriesSampler(const Registry& registry,
                             SamplerConfig config = {});
  ~TimeSeriesSampler();  ///< stops the background thread if running
  TimeSeriesSampler(const TimeSeriesSampler&) = delete;
  TimeSeriesSampler& operator=(const TimeSeriesSampler&) = delete;

  /// Spawns the background tick thread (idempotent). After every tick the
  /// optional \p on_tick callback runs on the sampler thread — the hook
  /// the floor's health loop hangs off. The callback must not call
  /// start()/stop() (deadlock) but may call sample_now() and any reader.
  void start(std::function<void()> on_tick = {});

  /// Stops and joins the background thread (idempotent, safe if never
  /// started).
  void stop();

  /// Takes one sample right now (also what the background thread calls).
  /// Safe from any thread, including concurrently with the thread.
  void sample_now();

  /// Total ticks taken since construction (monotonic, not capped).
  [[nodiscard]] std::uint64_t samples() const;

  /// Samples currently retained (<= config.window).
  [[nodiscard]] std::size_t window_size() const;

  [[nodiscard]] const SamplerConfig& config() const noexcept {
    return config_;
  }

  /// Names of every discovered series, in discovery order.
  [[nodiscard]] std::vector<std::string> series_names() const;

  /// Last sampled value of \p name; 0 when the series is unknown or no
  /// tick has happened (absence and zero are indistinguishable, matching
  /// Snapshot::counter()).
  [[nodiscard]] double latest(std::string_view name) const;

  /// last - first over the most recent \p n samples (0 = whole window).
  /// 0 with fewer than two samples.
  [[nodiscard]] double delta(std::string_view name,
                             std::size_t n = 0) const;

  /// delta over the same window divided by its wall-time span, per
  /// second. 0 with fewer than two samples or a degenerate (<= 0) span —
  /// a rate of zero, not a NaN, is what a stalled window reports.
  [[nodiscard]] double rate_per_sec(std::string_view name,
                                    std::size_t n = 0) const;

  /// The most recent \p n (0 = all retained) points of \p name as
  /// (seconds-since-construction, value) pairs, oldest first.
  [[nodiscard]] std::vector<std::pair<double, double>> window(
      std::string_view name, std::size_t n = 0) const;

  /// The retained window as one JSON object:
  /// {"samples":K,"interval_ms":...,"t":[...],"series":{"name":[...]}}.
  /// This is the time-series half of an incident bundle.
  [[nodiscard]] std::string window_json(std::size_t n = 0) const;

 private:
  struct Series {
    std::string name;
    std::vector<double> ring;  ///< config.window slots
  };

  void run();  ///< background thread body

  /// Chronological ring indices of the last \p n retained samples.
  [[nodiscard]] std::vector<std::size_t> last_indices_locked(
      std::size_t n) const;
  [[nodiscard]] const Series* find_locked(std::string_view name) const;

  const Registry& registry_;
  const SamplerConfig config_;
  const std::chrono::steady_clock::time_point epoch_;

  mutable std::mutex mu_;
  std::vector<Series> series_;
  std::vector<double> times_;   ///< seconds since epoch_, ring
  std::size_t head_ = 0;        ///< next ring slot to write
  std::size_t count_ = 0;       ///< retained samples (<= window)
  std::uint64_t ticks_ = 0;     ///< total samples ever taken

  std::mutex thread_mu_;        ///< guards start/stop + stop_ handshake
  std::condition_variable cv_;
  std::thread thread_;
  bool stop_ = false;
  std::function<void()> on_tick_;
};

}  // namespace casbus::obs
