/// \file telemetry.hpp
/// The floor's metric catalogue and its live stats surface.
///
/// This is the binding layer between the generic obs subsystem and the
/// floor: kFloorCounters is the one table of floor counters,
/// register_floor_metrics() claims each under its stable name
/// (docs/OBSERVABILITY.md documents each), FloorMetricIds carries the resulting handles to the instrument
/// sites, and FloorStats is the structured snapshot FloorSession hands
/// out while running (stats_snapshot()) — the thing `floor_service
/// --stats-json` serializes and `tools/floorstat.py` pretty-prints.
///
/// ## Stable metric names
/// Names are part of the observable API: dashboards and the floorstat
/// tool key on them. Never rename one — add a new name and retire the old
/// one in docs/OBSERVABILITY.md instead.

#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "floor/job.hpp"
#include "floor/job_queue.hpp"
#include "obs/metrics.hpp"

namespace casbus::floor {

/// Every floor counter. The value is the counter's row in kFloorCounters
/// and its index into FloorMetricIds and FloorStats::counters.
enum class FloorCounter : std::uint8_t {
  JobsExecuted,
  JobsErrored,
  CacheLookups,
  CacheVerdictHits,
  CacheInsertions,
  CacheEvictions,
  SimMemoLookups,
  SimMemoHits,
  SimPrecomputeUs,
  SimEvalPasses,
  SimCellEvals,
  SimSweepCellEvals,
  SchedNodesExpanded,
  SchedPrunes,
  SchedImprovements,
  SchedLeavesPriced,
  KernelCycles,
  KernelSettles,
  KernelDeltaPasses,
  KernelGateEvals,
  KernelGateSweeps,
  KernelGateCells,
};
inline constexpr std::size_t kFloorCounterCount = 22;

/// The JobEngineCounters field a counter is credited from after every
/// job (emit_job_telemetry). A seconds field is credited in whole µs and
/// reported back in seconds by FloorStats::to_json().
struct EngineField {
  std::uint64_t JobEngineCounters::*count = nullptr;
  double JobEngineCounters::*seconds = nullptr;

  constexpr EngineField() = default;
  constexpr EngineField(std::uint64_t JobEngineCounters::*field)
      : count(field) {}
  constexpr EngineField(double JobEngineCounters::*field)
      : seconds(field) {}

  [[nodiscard]] constexpr bool present() const {
    return count != nullptr || seconds != nullptr;
  }
  /// This job's registry delta.
  [[nodiscard]] std::uint64_t read(const JobEngineCounters& e) const {
    return count != nullptr
               ? e.*count
               : static_cast<std::uint64_t>(e.*seconds * 1e6);
  }
};

/// One catalogue row: the stable registry name (docs/OBSERVABILITY.md
/// documents each), where FloorStats::to_json() puts the value (no
/// section: registry only), and the engine field it is credited from
/// (none: an instrument site adds it directly).
struct FloorCounterDef {
  FloorCounter id;
  std::string_view name;
  std::string_view section;
  std::string_view key;
  EngineField engine;
};

/// The floor's counter catalogue. Within a section, rows appear in
/// to_json() key order.
inline constexpr std::array<FloorCounterDef, kFloorCounterCount>
    kFloorCounters{{
        {FloorCounter::JobsExecuted, "floor.jobs.executed", "", "", {}},
        {FloorCounter::JobsErrored, "floor.jobs.errored", "", "", {}},
        {FloorCounter::CacheLookups, "floor.cache.lookups", "cache",
         "lookups", {}},
        {FloorCounter::CacheVerdictHits, "floor.cache.hits.verdict",
         "cache", "verdict_hits", {}},
        {FloorCounter::CacheInsertions, "floor.cache.insertions", "cache",
         "insertions", {}},
        {FloorCounter::CacheEvictions, "floor.cache.evictions", "cache",
         "evictions", {}},
        {FloorCounter::SimMemoLookups, "floor.sim.memo.lookups", "sim",
         "memo_lookups", &JobEngineCounters::sim_memo_lookups},
        {FloorCounter::SimMemoHits, "floor.sim.memo.hits", "sim",
         "memo_hits", &JobEngineCounters::sim_memo_hits},
        {FloorCounter::SimPrecomputeUs, "floor.sim.precompute.us", "sim",
         "precompute_seconds", &JobEngineCounters::precompute_seconds},
        {FloorCounter::SimEvalPasses, "floor.sim.eval_passes", "sim",
         "eval_passes", &JobEngineCounters::sim_eval_passes},
        {FloorCounter::SimCellEvals, "floor.sim.cell_evals", "sim",
         "cell_evals", &JobEngineCounters::sim_cell_evals},
        {FloorCounter::SimSweepCellEvals, "floor.sim.sweep_cell_evals",
         "sim", "sweep_cell_evals", &JobEngineCounters::sim_sweep_cell_evals},
        {FloorCounter::SchedNodesExpanded, "floor.sched.nodes_expanded",
         "sched", "nodes_expanded", &JobEngineCounters::sched_nodes_expanded},
        {FloorCounter::SchedPrunes, "floor.sched.prunes", "sched", "prunes",
         &JobEngineCounters::sched_prunes},
        {FloorCounter::SchedImprovements, "floor.sched.improvements",
         "sched", "improvements", &JobEngineCounters::sched_improvements},
        {FloorCounter::SchedLeavesPriced, "floor.sched.leaves_priced",
         "sched", "leaves_priced", &JobEngineCounters::sched_leaves_priced},
        {FloorCounter::KernelCycles, "floor.kernel.cycles", "kernel",
         "cycles", &JobEngineCounters::kernel_cycles},
        {FloorCounter::KernelSettles, "floor.kernel.settles", "kernel",
         "settles", &JobEngineCounters::kernel_settles},
        {FloorCounter::KernelDeltaPasses, "floor.kernel.delta_passes",
         "kernel", "delta_passes", &JobEngineCounters::kernel_delta_passes},
        {FloorCounter::KernelGateEvals, "floor.kernel.gate_evals", "kernel",
         "gate_evals", &JobEngineCounters::kernel_gate_evals},
        {FloorCounter::KernelGateSweeps, "floor.kernel.gate_sweeps",
         "kernel", "gate_sweeps", &JobEngineCounters::kernel_gate_sweeps},
        {FloorCounter::KernelGateCells, "floor.kernel.gate_cells", "kernel",
         "gate_cells", &JobEngineCounters::kernel_gate_cells},
    }};

static_assert(
    [] {
      for (std::size_t i = 0; i < kFloorCounters.size(); ++i)
        if (static_cast<std::size_t>(kFloorCounters[i].id) != i) return false;
      return true;
    }(),
    "kFloorCounters rows must follow FloorCounter order");

/// Handles of every registered floor metric. One instance per
/// FloorSession, shared read-only by its workers.
struct FloorMetricIds {
  std::array<obs::MetricId, kFloorCounterCount> counters{};
  /// Per-stage latency histograms (µs), indexed by Stage.
  std::array<obs::MetricId, kStageCount> stage_us{};  ///< floor.stage.*.us

  [[nodiscard]] obs::MetricId operator[](FloorCounter c) const {
    return counters[static_cast<std::size_t>(c)];
  }
};

/// Registers the whole floor catalogue in \p registry (idempotent — the
/// registry deduplicates by name) and returns the handles.
[[nodiscard]] FloorMetricIds register_floor_metrics(obs::Registry& registry);

/// Latency digest of one pipeline stage, pulled from its histogram.
struct StageDigest {
  std::uint64_t count = 0;      ///< stage executions observed
  double total_seconds = 0.0;   ///< summed stage time
  double p50_us = 0.0;
  double p90_us = 0.0;
  double p99_us = 0.0;
};

/// A consistent-enough live snapshot of one FloorSession — every number a
/// fleet scheduler, an admission controller, or a human tailing
/// `--stats-json` needs. Produced by FloorSession::stats_snapshot() at
/// any point in the session's life (including after drain()).
struct FloorStats {
  double uptime_seconds = 0.0;
  std::size_t workers = 0;
  bool metrics_enabled = false;   ///< counters below are live (vs all-zero)

  // Job flow.
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t in_flight = 0;    ///< popped but not yet deposited
  std::uint64_t errored = 0;

  // Queue (always live — tracked by the queue itself, not the registry).
  QueueStats queue;

  // Registry counters, indexed by FloorCounter (see counter()). The
  // floor.sim.precompute.us entry holds µs.
  std::array<std::uint64_t, kFloorCounterCount> counters{};

  // Per-stage latency digests, indexed by Stage.
  std::array<StageDigest, kStageCount> stages{};

  // Worker utilization: seconds each worker spent executing jobs.
  std::vector<double> worker_busy_seconds;

  // Watchdog inputs (always live, like the queue — tracked by the session
  // itself, not the registry). Age of each worker's current in-flight job
  // in seconds, 0.0 when idle; and each worker's loop heartbeat counter
  // (one tick per job popped — stagnant + in-flight means stuck).
  std::vector<double> worker_inflight_age_seconds;
  std::vector<std::uint64_t> worker_heartbeats;

  // Tracing.
  std::uint64_t trace_recorded = 0;
  std::uint64_t trace_dropped = 0;

  [[nodiscard]] std::uint64_t& counter(FloorCounter c) {
    return counters[static_cast<std::size_t>(c)];
  }
  [[nodiscard]] std::uint64_t counter(FloorCounter c) const {
    return counters[static_cast<std::size_t>(c)];
  }

  /// Jobs the cache served a qualified verdict.
  [[nodiscard]] std::uint64_t cache_hits() const {
    return counter(FloorCounter::CacheVerdictHits);
  }

  /// Cache hits / cache lookups (0 when no lookups).
  [[nodiscard]] double cache_hit_rate() const {
    const std::uint64_t lookups = counter(FloorCounter::CacheLookups);
    return lookups == 0 ? 0.0
                        : static_cast<double>(cache_hits()) /
                              static_cast<double>(lookups);
  }

  /// Mean worker utilization over the session's uptime, in [0, 1].
  [[nodiscard]] double utilization() const;

  /// One-line JSON object with stable keys — the `--stats-json` /
  /// `--stats-interval-ms` wire format tools/floorstat.py consumes.
  [[nodiscard]] std::string to_json() const;
};

}  // namespace casbus::floor
