/// \file test_floor.hpp
/// Batch front-end of the SoC test-floor service: run a closed job list
/// through a worker pool and report.
///
/// Since the streaming refactor this is a thin adapter over FloorSession
/// (src/floor/session.hpp): run() opens a session, submits the whole
/// batch, and drains — one-shot callers keep the old API, and both paths
/// share the queue, the staged run_job pipeline, the floor-wide cache,
/// and the determinism rule.
///
/// ## Determinism guarantee
/// For a fixed job list (fixed floor seed), FloorReport's deterministic
/// aggregates — everything in deterministic_summary() — are byte-identical
/// for 1 worker and N workers, and to a hand-driven FloorSession over the
/// same list: job randomness is keyed by Rng::derive_stream(seed, job id),
/// results land in job-slot order, and aggregation folds that vector
/// sequentially after the pool has joined. Only wall-clock throughput
/// varies with the worker count.

#pragma once

#include <cstddef>
#include <vector>

#include "floor/job.hpp"
#include "floor/report.hpp"
#include "floor/session.hpp"

namespace casbus::floor {

/// Runs batches of jobs through a worker pool. A TestFloor object is cheap
/// (configuration only); each run() opens and drains a fresh FloorSession.
class TestFloor {
 public:
  explicit TestFloor(FloorConfig config = {});

  /// Effective worker-thread count a run() will use.
  [[nodiscard]] std::size_t workers() const noexcept { return workers_; }

  /// Executes every job and returns the aggregated report (results in
  /// input order). The session pool is capped at min(workers(),
  /// jobs.size()) threads; an empty job list returns an empty report
  /// without spawning any.
  [[nodiscard]] FloorReport run(const std::vector<JobSpec>& jobs) const;

 private:
  FloorConfig config_;
  std::size_t workers_;
};

}  // namespace casbus::floor
