/// \file session.hpp
/// The streaming test-floor service: a long-running worker pool that
/// accepts jobs *while it runs*, with bounded backpressure, one FIFO job
/// queue and one floor-wide cache of qualified results.
///
/// Architecture (one FloorSession):
///
///    submit()/submit_batch() ──▶ JobQueue ──▶ worker 0 ─┐
///       (blocks at capacity)  (one FIFO)  ├─▶ worker 1 ─┼─▶ results[slot]
///                                         └─▶ worker N ─┘         │
///    every worker ◀──▶ ProgramCache (shared, one mutex,           │
///                      segmented LRU)                             │
///    poll_results() ◀── slot-ordered delivery ◀───────────────────┤
///    drain()        ◀── close + join + aggregate ◀────────────────┘
///
/// Lifecycle: open (construction spawns the pool) -> submit / submit_batch
/// / poll_results in any interleaving from any threads -> drain() (or
/// close() + drain()) exactly once -> destruction. Jobs submitted after
/// the workers have started are executed like any other; that is the
/// point.
///
/// ## Determinism guarantee
/// drain()'s FloorReport folds results in arrival-slot order after the
/// pool has joined, so every deterministic aggregate — everything in
/// deterministic_summary() — is a function of the submitted job list
/// alone: byte-identical for 1 worker and N workers, with the cache on or
/// off, and whether the list was submitted in one batch or job by job.
/// The cache cannot break this because run_job is pure (see job.hpp);
/// completion order cannot because results land by slot.
/// Parallelism comes from `workers` alone: each job runs every stage on
/// the thread of the worker that popped it.

#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "floor/health.hpp"
#include "floor/job.hpp"
#include "floor/job_queue.hpp"
#include "floor/program_cache.hpp"
#include "floor/report.hpp"
#include "floor/telemetry.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "util/threads.hpp"

namespace casbus::floor {

struct FloorConfig {
  /// Worker threads; 0 means one per hardware thread (effective_workers).
  std::size_t workers = 0;
  /// Jobs allowed to wait in the queue before submit() blocks (and
  /// try_submit() refuses); 0 means unbounded — batch semantics.
  std::size_t queue_capacity = 0;
  /// Cache entries per worker: the floor's one shared cache of qualified
  /// results holds cache_capacity × workers recipes (segmented LRU, see
  /// program_cache.hpp); 0 disables caching.
  std::size_t cache_capacity = 16;
  /// Enables the metrics registry (src/obs/): per-thread-sharded counters
  /// and stage-latency histograms, surfaced by stats_snapshot(). Pure
  /// observation — cannot change any deterministic result or the
  /// deterministic_summary() text (tests/test_obs.cpp pins this); when
  /// off, the cost at every instrument site is a null-pointer test.
  bool metrics = false;
  /// Span capacity of the pipeline trace (obs::TraceRecorder); 0 disables
  /// tracing. Spans past capacity are counted and dropped — tracing never
  /// blocks a worker. Same determinism guarantee as `metrics`.
  std::size_t trace_capacity = 0;
  /// The health engine (health.hpp): when health.enabled, the session runs
  /// an obs::TimeSeriesSampler whose tick drives a HealthMonitor over
  /// stats_snapshot(), exposed via health_report(), and implies `metrics`
  /// (the rules read registry-backed counters). Same determinism guarantee
  /// as `metrics` — the monitor only observes (tests/test_health.cpp pins
  /// deterministic_summary() on/off equality, TSan-checked).
  HealthConfig health{};
};

/// A live streaming session. Not copyable or movable: workers hold `this`.
class FloorSession {
 public:
  explicit FloorSession(FloorConfig config = {});

  /// Closes and joins if the caller never called drain(); results are
  /// discarded in that case.
  ~FloorSession();

  FloorSession(const FloorSession&) = delete;
  FloorSession& operator=(const FloorSession&) = delete;

  /// Worker threads serving this session.
  [[nodiscard]] std::size_t workers() const noexcept { return workers_; }

  /// Submits one job, blocking while the queue is at capacity. Returns
  /// false (job rejected) once the session is closed — graceful, so
  /// producers may race close()/drain().
  [[nodiscard]] bool submit(JobSpec spec) { return queue_.push(spec); }

  /// Non-blocking submit: false when the session is closed or the queue
  /// is at its capacity bound.
  [[nodiscard]] bool try_submit(JobSpec spec) {
    return queue_.try_push(spec);
  }

  /// Submits jobs in order (each a blocking submit); returns how many
  /// were accepted — short only if the session was closed mid-batch.
  std::size_t submit_batch(const std::vector<JobSpec>& specs);

  /// Jobs accepted so far.
  [[nodiscard]] std::size_t submitted() const { return queue_.pushed(); }

  /// Jobs fully executed so far.
  [[nodiscard]] std::size_t completed() const;

  /// Returns finished results in arrival-slot order, each delivered
  /// exactly once across all poll_results() calls; stops at the first
  /// still-running slot. Non-blocking. Results handed out here are still
  /// included in drain()'s aggregate report.
  [[nodiscard]] std::vector<JobResult> poll_results();

  /// Stops accepting input (submit/try_submit return false). Workers
  /// finish the backlog. Idempotent; does not join.
  void close() { queue_.close(); }

  /// Closes, joins the pool, and returns the aggregate report over every
  /// job the session accepted, in slot order. Call at most once.
  [[nodiscard]] FloorReport drain();

  // --- observability surfaces ----------------------------------------------

  /// A consistent-enough live snapshot of the whole session (telemetry.hpp
  /// documents every field). Safe to call at any time from any thread,
  /// concurrently with running workers; with FloorConfig::metrics off the
  /// registry-backed counters read zero (metrics_enabled says so) while
  /// the queue/flow numbers stay live.
  [[nodiscard]] FloorStats stats_snapshot() const;

  /// The session's metrics registry, or null when FloorConfig::metrics is
  /// off. Useful for registering caller-side gauges next to the floor's.
  [[nodiscard]] obs::Registry* registry() noexcept {
    return registry_.get();
  }

  /// The session's trace recorder, or null when trace_capacity is 0.
  [[nodiscard]] obs::TraceRecorder* trace() noexcept { return trace_.get(); }

  /// The health sampler, or null when FloorConfig::health is off.
  [[nodiscard]] obs::TimeSeriesSampler* sampler() noexcept {
    return sampler_.get();
  }

  /// Forces one sample + health evaluation *now* and returns the
  /// resulting report — deterministic-by-construction for tests and CLI
  /// consumers (no sleeping for the background tick; forced ticks count
  /// as hysteresis samples, so repeated calls walk rules through their
  /// trip/clear transitions). Default-valued report when health is off.
  /// Safe from any thread, concurrently with the background tick.
  [[nodiscard]] HealthReport health_report();

  /// Writes the pipeline trace as Chrome trace-event JSON. False when
  /// tracing is off or the file cannot be written. Intended after
  /// drain(), but safe (published spans only) at any time.
  [[nodiscard]] bool write_trace(const std::string& path) const {
    return trace_ != nullptr && trace_->write_chrome_trace(path);
  }

 private:
  void worker_main(std::size_t worker);

  /// One sample -> evaluate -> alarm pass (the sampler tick callback and
  /// the forced half of health_report()). Serialized internally.
  void health_tick();

  FloorConfig config_;
  std::size_t workers_;
  // Telemetry sinks are constructed before the queue/pool and must
  // outlive the workers that write to them.
  std::unique_ptr<obs::Registry> registry_;  ///< null when metrics off
  FloorMetricIds ids_;                       ///< valid when registry_ set
  std::unique_ptr<obs::TraceRecorder> trace_;  ///< null when tracing off
  ProgramCache cache_;  ///< shared by every worker
  JobQueue queue_;
  std::chrono::steady_clock::time_point start_;
  /// Per-worker busy time in µs; atomic because stats_snapshot() reads
  /// while workers accumulate. unique_ptr array: atomics can't live in a
  /// resizable vector.
  std::unique_ptr<std::atomic<std::uint64_t>[]> busy_us_;
  /// Watchdog inputs: when worker w has a job in flight,
  /// job_start_us_[w] is its start time (µs since start_); kWorkerIdle
  /// otherwise. heartbeats_[w] counts jobs popped by worker w.
  std::unique_ptr<std::atomic<std::uint64_t>[]> job_start_us_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> heartbeats_;
  std::atomic<std::uint64_t> in_flight_{0};
  std::vector<std::thread> pool_;
  bool drained_ = false;

  mutable std::mutex results_mu_;
  std::vector<JobResult> results_;  ///< indexed by slot
  std::vector<char> done_;          ///< parallel to results_
  std::size_t completed_ = 0;
  std::size_t errored_ = 0;    ///< completed jobs with non-empty error
  std::size_t next_poll_ = 0;  ///< first slot not yet handed to poll
  bool harvested_ = false;     ///< drain() took the results vector

  // Health engine (after registry_: the sampler references the registry
  // and must be destroyed first; the destructor also stops it explicitly
  // before joining the pool).
  std::unique_ptr<HealthMonitor> health_;  ///< null when health off
  std::unique_ptr<obs::TimeSeriesSampler> sampler_;  ///< null when off
  std::mutex health_tick_mu_;  ///< serializes forced + background ticks
  std::uint64_t handled_sample_ = 0;    ///< events up to here processed
  std::uint64_t incidents_written_ = 0;  ///< bundle seq (guarded above)
};

}  // namespace casbus::floor
