#include "floor/telemetry.hpp"

#include <cmath>
#include <numeric>
#include <sstream>

namespace casbus::floor {

FloorMetricIds register_floor_metrics(obs::Registry& registry) {
  FloorMetricIds ids;
  for (const FloorCounterDef& row : kFloorCounters)
    ids.counters[static_cast<std::size_t>(row.id)] =
        registry.counter(std::string(row.name));
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

/// \p n / \p cycles, or 0 when no cycle ran — the kernel's per-cycle
/// work ratios.
double per_cycle(std::uint64_t n, std::uint64_t cycles) {
  return cycles == 0 ? 0.0
                     : static_cast<double>(n) / static_cast<double>(cycles);
}

/// Opens `,"<section>":{` and writes the section's catalogue counters;
/// the caller appends any derived keys and closes the brace.
void write_section(std::ostringstream& os, const FloorStats& stats,
                   std::string_view section) {
  os << ",\"" << section << "\":{";
  const char* sep = "";
  for (const FloorCounterDef& row : kFloorCounters) {
    if (row.section != section) continue;
    os << sep << '"' << row.key << "\":";
    const std::uint64_t value = stats.counter(row.id);
    if (row.engine.seconds != nullptr) {
      os << num(static_cast<double>(value) * 1e-6);  // registry holds µs
    } else {
      os << value;
    }
    sep = ",";
  }
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
     << ",\"backpressure_engages\":" << queue.backpressure_engages
     << ",\"backpressure_releases\":" << queue.backpressure_releases
     << '}';
  write_section(os, *this, "cache");
  os << ",\"hit_rate\":" << num(cache_hit_rate()) << '}';
  write_section(os, *this, "sim");
  os << '}';
  write_section(os, *this, "sched");
  os << '}';
  write_section(os, *this, "kernel");
  const std::uint64_t cycles = counter(FloorCounter::KernelCycles);
  os << ",\"sweeps_per_cycle\":"
     << num(per_cycle(counter(FloorCounter::KernelGateSweeps), cycles))
     << ",\"settle_passes_per_cycle\":"
     << num(per_cycle(counter(FloorCounter::KernelDeltaPasses), cycles))
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
