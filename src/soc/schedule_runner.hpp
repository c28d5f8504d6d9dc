/// \file schedule_runner.hpp
/// Bridge from the analytic scheduler to the cycle-accurate simulator:
/// compiles a sched::Schedule into executable ScanSessions and runs them,
/// closing the loop between the time model and the hardware model.
///
/// Constraints: the schedule's core indices map 1:1 onto the Soc's
/// top-level cores (scan specs must match each core's real chain
/// geometry); rail-emulation schedules are rejected (they assume per-group
/// asynchronous sequencing which the broadcast-WSC simulator cannot
/// execute — see DESIGN.md §8).

#pragma once

#include <cstdint>
#include <vector>

#include "sched/scheduler.hpp"
#include "soc/tester.hpp"

namespace casbus::soc {

/// Result of executing one analytic schedule.
struct ScheduleRunReport {
  std::uint64_t predicted_cycles = 0;  ///< schedule.total_cycles
  std::uint64_t measured_cycles = 0;   ///< simulator cycles actually spent
  std::size_t sessions = 0;
  bool all_pass = true;

  /// |measured − predicted| / predicted.
  [[nodiscard]] double deviation() const {
    if (predicted_cycles == 0) return 0.0;
    const auto diff = measured_cycles > predicted_cycles
                          ? measured_cycles - predicted_cycles
                          : predicted_cycles - measured_cycles;
    return static_cast<double>(diff) /
           static_cast<double>(predicted_cycles);
  }
};

/// Derives the CoreTestSpec list of \p soc's top-level cores (chain
/// lengths from the real netlists; \p patterns_per_ff scales pattern
/// budgets: patterns = n_flipflops * patterns_per_ff, min 1). Read-only on
/// the SoC, so callers holding a const Soc can derive specs without
/// pretending to mutate it.
std::vector<sched::CoreTestSpec> specs_of(const Soc& soc,
                                          std::size_t patterns_per_ff = 1);

/// Executes \p schedule (produced by a SessionScheduler over specs_of the
/// same SoC) session by session: scan cores get seeded random patterns of
/// the spec'd count, BIST cores join on the upper wires, all responses are
/// checked against golden models.
ScheduleRunReport run_schedule(Soc& soc, SocTester& tester,
                               const std::vector<sched::CoreTestSpec>& specs,
                               const sched::Schedule& schedule,
                               std::uint64_t pattern_seed = 1);

}  // namespace casbus::soc
