/// \file report.hpp
/// Result collection for the test floor: per-scenario and whole-floor
/// aggregates over a set of JobResults, plus throughput.
///
/// ## Determinism rule (the floor's ordering guarantee)
/// Aggregation is performed *after* all workers have finished, by folding
/// the results vector in job-slot order — never in completion order. Every
/// aggregate field is therefore a deterministic function of (floor seed,
/// job list) alone: a fixed seed yields byte-identical
/// deterministic_summary() output for 1 worker and N workers. Wall-clock
/// fields (wall_seconds, programs_per_sec, ...) are the one exception and
/// are kept out of the summary.

#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "floor/job.hpp"

namespace casbus::floor {

/// Commutative integer aggregates for one scenario bucket (or the total).
struct ScenarioStats {
  std::size_t jobs = 0;
  std::size_t passed = 0;
  std::size_t failed = 0;   ///< ran but some verdict failed
  std::size_t errored = 0;  ///< job threw (JobResult::error non-empty)
  std::size_t cores = 0;
  std::size_t sessions = 0;
  std::size_t patterns = 0;
  std::uint64_t predicted_cycles = 0;
  std::uint64_t measured_cycles = 0;
  std::uint64_t sim_cycles = 0;
  double worst_deviation = 0.0;  ///< max per-job |meas−pred|/pred
};

/// Outcome of one FloorSession::drain(): per-job
/// results (in job-slot order), scenario breakdowns, totals, per-stage
/// accounting, and throughput.
struct FloorReport {
  std::vector<JobResult> results;  ///< index == position in the job list
  std::array<ScenarioStats, kScenarioCount> scenario{};
  ScenarioStats total;
  std::size_t workers = 0;     ///< effective worker-thread count
  double wall_seconds = 0.0;   ///< whole-floor wall time
  /// Summed per-stage wall time across all jobs, indexed by Stage. Like
  /// wall_seconds this is timing, NOT deterministic, and excluded from
  /// deterministic_summary().
  std::array<double, kStageCount> stage_seconds{};
  /// Jobs the cache served a qualified verdict (CacheTier::Verdict), so
  /// their whole pipeline was skipped. NOT deterministic (depends on
  /// interleaving); excluded from the summary.
  std::size_t cache_hits = 0;

  [[nodiscard]] bool all_pass() const {
    return total.jobs == total.passed;
  }
  [[nodiscard]] double programs_per_sec() const {
    return wall_seconds > 0.0
               ? static_cast<double>(total.jobs) / wall_seconds
               : 0.0;
  }
  [[nodiscard]] double sim_cycles_per_sec() const {
    return wall_seconds > 0.0
               ? static_cast<double>(total.sim_cycles) / wall_seconds
               : 0.0;
  }

  /// Serializes every deterministic field (per-job lines + per-scenario
  /// aggregates + totals) into a canonical text form. Byte-identical
  /// across worker counts for a fixed seed and job list — the floor's
  /// determinism guarantee, asserted by tests/test_floor.cpp and
  /// bench_floor.
  [[nodiscard]] std::string deterministic_summary() const;

  /// Human-readable report (includes the non-deterministic throughput).
  void print(std::ostream& os) const;
};

/// Folds \p results (already in job-slot order) into a FloorReport.
[[nodiscard]] FloorReport aggregate_results(std::vector<JobResult> results,
                                            std::size_t workers,
                                            double wall_seconds);

}  // namespace casbus::floor
