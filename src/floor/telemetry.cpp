#include "floor/telemetry.hpp"

#include <cmath>
#include <numeric>
#include <sstream>

namespace casbus::floor {

FloorMetricIds register_floor_metrics(obs::Registry& registry) {
  FloorMetricIds ids;
  ids.jobs_executed = registry.counter("floor.jobs.executed");
  ids.jobs_errored = registry.counter("floor.jobs.errored");
  ids.cache_lookups = registry.counter("floor.cache.lookups");
  ids.cache_program_hits = registry.counter("floor.cache.hits.program");
  ids.cache_verdict_hits = registry.counter("floor.cache.hits.verdict");
  ids.cache_insertions = registry.counter("floor.cache.insertions");
  ids.cache_evictions = registry.counter("floor.cache.evictions");
  ids.sim_memo_lookups = registry.counter("floor.sim.memo.lookups");
  ids.sim_memo_hits = registry.counter("floor.sim.memo.hits");
  ids.sim_precompute_us = registry.counter("floor.sim.precompute.us");
  ids.sim_eval_passes = registry.counter("floor.sim.eval_passes");
  ids.sim_cell_evals = registry.counter("floor.sim.cell_evals");
  ids.sim_sweep_cell_evals = registry.counter("floor.sim.sweep_cell_evals");
  ids.sched_nodes = registry.counter("floor.sched.nodes_expanded");
  ids.sched_prunes = registry.counter("floor.sched.prunes");
  ids.sched_improvements = registry.counter("floor.sched.improvements");
  ids.sched_leaves = registry.counter("floor.sched.leaves_priced");
  ids.kernel_cycles = registry.counter("floor.kernel.cycles");
  ids.kernel_settles = registry.counter("floor.kernel.settles");
  ids.kernel_delta_passes = registry.counter("floor.kernel.delta_passes");
  ids.kernel_gate_evals = registry.counter("floor.kernel.gate_evals");
  ids.kernel_gate_sweeps = registry.counter("floor.kernel.gate_sweeps");
  const std::vector<double> buckets = obs::Registry::latency_buckets_us();
  for (std::size_t s = 0; s < kStageCount; ++s) {
    ids.stage_us[s] = registry.histogram(
        std::string("floor.stage.") +
            stage_name(static_cast<Stage>(s)) + ".us",
        buckets);
  }
  return ids;
}

double FloorStats::utilization() const {
  if (workers == 0 || uptime_seconds <= 0.0) return 0.0;
  const double busy = std::accumulate(worker_busy_seconds.begin(),
                                      worker_busy_seconds.end(), 0.0);
  const double frac =
      busy / (uptime_seconds * static_cast<double>(workers));
  return frac < 0.0 ? 0.0 : (frac > 1.0 ? 1.0 : frac);
}

namespace {

std::string num(double v) {
  if (!std::isfinite(v)) return "0";
  std::ostringstream os;
  os.precision(9);
  os << v;
  return os.str();
}

}  // namespace

std::string FloorStats::to_json() const {
  std::ostringstream os;
  // elapsed_seconds duplicates uptime_seconds under the name rate
  // consumers expect (jobs / elapsed_seconds) — single-snapshot tools
  // (floorstat.py) compute rates without pairing snapshots.
  os << "{\"uptime_seconds\":" << num(uptime_seconds)
     << ",\"elapsed_seconds\":" << num(uptime_seconds)
     << ",\"workers\":" << workers
     << ",\"metrics_enabled\":" << (metrics_enabled ? "true" : "false")
     << ",\"submitted\":" << submitted << ",\"completed\":" << completed
     << ",\"in_flight\":" << in_flight << ",\"errored\":" << errored
     << ",\"queue\":{\"depth\":" << queue.depth
     << ",\"capacity\":" << queue.capacity
     << ",\"high_water\":" << queue.high_water
     << ",\"pushed\":" << queue.pushed << ",\"popped\":" << queue.popped
     << ",\"steals\":" << queue.steals
     << ",\"backpressure_engages\":" << queue.backpressure_engages
     << ",\"backpressure_releases\":" << queue.backpressure_releases
     << "},\"cache\":{\"lookups\":" << cache_lookups
     << ",\"program_hits\":" << cache_program_hits
     << ",\"verdict_hits\":" << cache_verdict_hits
     << ",\"insertions\":" << cache_insertions
     << ",\"evictions\":" << cache_evictions
     << ",\"hit_rate\":" << num(cache_hit_rate())
     << "},\"sim\":{\"memo_lookups\":" << sim_memo_lookups
     << ",\"memo_hits\":" << sim_memo_hits
     << ",\"precompute_seconds\":" << num(sim_precompute_seconds)
     << ",\"eval_passes\":" << sim_eval_passes
     << ",\"cell_evals\":" << sim_cell_evals
     << ",\"sweep_cell_evals\":" << sim_sweep_cell_evals
     << "},\"sched\":{\"nodes_expanded\":" << sched_nodes_expanded
     << ",\"prunes\":" << sched_prunes
     << ",\"improvements\":" << sched_improvements
     << ",\"leaves_priced\":" << sched_leaves_priced
     << "},\"kernel\":{\"cycles\":" << kernel_cycles
     << ",\"settles\":" << kernel_settles
     << ",\"delta_passes\":" << kernel_delta_passes
     << ",\"gate_evals\":" << kernel_gate_evals
     << ",\"gate_sweeps\":" << kernel_gate_sweeps
     << ",\"sweeps_per_cycle\":"
     << num(per_cycle(kernel_gate_sweeps, kernel_cycles))
     << ",\"settle_passes_per_cycle\":"
     << num(per_cycle(kernel_delta_passes, kernel_cycles))
     << "},\"stages\":{";
  for (std::size_t s = 0; s < kStageCount; ++s) {
    if (s != 0) os << ',';
    const StageDigest& d = stages[s];
    os << '"' << stage_name(static_cast<Stage>(s))
       << "\":{\"count\":" << d.count
       << ",\"total_seconds\":" << num(d.total_seconds)
       << ",\"p50_us\":" << num(d.p50_us) << ",\"p90_us\":" << num(d.p90_us)
       << ",\"p99_us\":" << num(d.p99_us) << '}';
  }
  os << "},\"worker_busy_seconds\":[";
  for (std::size_t w = 0; w < worker_busy_seconds.size(); ++w) {
    if (w != 0) os << ',';
    os << num(worker_busy_seconds[w]);
  }
  os << "],\"worker_inflight_age_seconds\":[";
  for (std::size_t w = 0; w < worker_inflight_age_seconds.size(); ++w) {
    if (w != 0) os << ',';
    os << num(worker_inflight_age_seconds[w]);
  }
  os << "],\"worker_heartbeats\":[";
  for (std::size_t w = 0; w < worker_heartbeats.size(); ++w) {
    if (w != 0) os << ',';
    os << worker_heartbeats[w];
  }
  os << "],\"utilization\":" << num(utilization())
     << ",\"trace\":{\"recorded\":" << trace_recorded
     << ",\"dropped\":" << trace_dropped << "}}";
  return os.str();
}

}  // namespace casbus::floor
