#include "floor/report.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "util/strings.hpp"

namespace casbus::floor {
namespace {

void fold(ScenarioStats& stats, const JobResult& r) {
  ++stats.jobs;
  if (!r.error.empty()) ++stats.errored;
  else if (r.pass) ++stats.passed;
  else ++stats.failed;
  stats.cores += r.cores;
  stats.sessions += r.sessions;
  stats.patterns += r.patterns;
  stats.predicted_cycles += r.predicted_cycles;
  stats.measured_cycles += r.measured_cycles;
  stats.sim_cycles += r.sim_cycles;
  stats.worst_deviation = std::max(stats.worst_deviation, r.deviation());
}

/// Fixed-precision decimal so the summary is byte-stable across platforms
/// (deviations are small exact-integer ratios; 6 digits is plenty).
std::string fixed6(double v) { return format_double(v, 6); }

void print_stats_line(std::ostream& os, const std::string& label,
                      const ScenarioStats& s) {
  os << label << ": jobs=" << s.jobs << " pass=" << s.passed
     << " fail=" << s.failed << " error=" << s.errored
     << " cores=" << s.cores << " sessions=" << s.sessions
     << " patterns=" << s.patterns
     << " predicted=" << s.predicted_cycles
     << " measured=" << s.measured_cycles
     << " sim_cycles=" << s.sim_cycles
     << " worst_dev=" << fixed6(s.worst_deviation) << "\n";
}

}  // namespace

FloorReport aggregate_results(std::vector<JobResult> results,
                              std::size_t workers, double wall_seconds) {
  FloorReport report;
  report.results = std::move(results);
  report.workers = workers;
  report.wall_seconds = wall_seconds;
  for (const JobResult& r : report.results) {
    fold(report.scenario[static_cast<std::size_t>(r.scenario)], r);
    fold(report.total, r);
    for (std::size_t s = 0; s < kStageCount; ++s)
      report.stage_seconds[s] += r.stage_seconds[s];
    if (r.cache_hit()) ++report.cache_hits;
  }
  return report;
}

std::string FloorReport::deterministic_summary() const {
  std::ostringstream os;
  os << "floor-summary v1\n";
  for (const JobResult& r : results) {
    os << "job " << r.id << " " << scenario_name(r.scenario) << " "
       << (!r.error.empty() ? "ERROR" : (r.pass ? "PASS" : "FAIL"))
       << " cores=" << r.cores << " sessions=" << r.sessions
       << " patterns=" << r.patterns << " predicted=" << r.predicted_cycles
       << " measured=" << r.measured_cycles << " sim=" << r.sim_cycles
       << " dev=" << fixed6(r.deviation());
    if (!r.error.empty()) os << " error=" << r.error;
    os << "\n";
  }
  for (std::size_t k = 0; k < kScenarioCount; ++k) {
    if (scenario[k].jobs == 0) continue;
    print_stats_line(os, std::string("scenario ") +
                             scenario_name(static_cast<ScenarioKind>(k)),
                     scenario[k]);
  }
  print_stats_line(os, "total", total);
  return os.str();
}

void FloorReport::print(std::ostream& os) const {
  os << "test floor: " << total.jobs << " jobs over " << workers
     << " worker(s) in " << fixed6(wall_seconds) << " s\n"
     << "  throughput: " << fixed6(programs_per_sec())
     << " programs/sec, " << fixed6(sim_cycles_per_sec())
     << " sim-cycles/sec\n";
  os << "  stages:";
  for (std::size_t s = 0; s < kStageCount; ++s)
    os << ' ' << stage_name(static_cast<Stage>(s)) << '='
       << fixed6(stage_seconds[s]) << "s";
  os << "\n  cache: " << cache_hits << "/" << total.jobs
     << " jobs served a qualified verdict\n";
  for (std::size_t k = 0; k < kScenarioCount; ++k) {
    if (scenario[k].jobs == 0) continue;
    os << "  ";
    print_stats_line(os, std::string("scenario ") +
                             scenario_name(static_cast<ScenarioKind>(k)),
                     scenario[k]);
  }
  os << "  ";
  print_stats_line(os, "total", total);
  for (const JobResult& r : results)
    if (!r.error.empty())
      os << "  job " << r.id << " ERROR: " << r.error << "\n";
}

}  // namespace casbus::floor
