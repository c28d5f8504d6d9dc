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
/// the SoC, so callers holding a const Soc (cache lookups, concurrent
/// inspection) can derive specs without pretending to mutate it.
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

/// A compiled test program: everything needed to execute one SoC's test
/// schedule, bundled as an immutable value object. Compiling and executing
/// are split so concurrent drivers (the src/floor/ service) can share
/// compiled programs: a const CompiledProgram shares no mutable state with
/// any Soc, SocTester, or other program, so several workers may run one
/// program at once against their own *distinct* Soc instances with no
/// synchronization.
struct CompiledProgram {
  std::vector<sched::CoreTestSpec> specs;
  sched::Schedule schedule;
  std::uint64_t pattern_seed = 1;

  /// Total scan-pattern budget across all cores.
  [[nodiscard]] std::size_t total_patterns() const {
    std::size_t n = 0;
    for (const auto& s : specs) n += s.patterns;
    return n;
  }
};

/// Compiles a complete program for \p soc: derives the core specs
/// (specs_of), schedules them on the SoC's own bus width with \p strategy
/// (via the pure sched::schedule_with entry point, so equal inputs compile
/// byte-identical programs — the property the floor's program caches rely
/// on). Strategies other than sched::Strategy::Best always yield an
/// executable (chip-synchronous) program; Best may not — run_program
/// rejects those. Read-only on the SoC: compilation never touches
/// simulation state, so one const Soc may serve compile_program while a
/// cached program for the same geometry is being re-run elsewhere.
CompiledProgram compile_program(const Soc& soc, sched::Strategy strategy,
                                std::size_t patterns_per_ff = 1,
                                std::uint64_t pattern_seed = 1);

/// Executes a compiled program against \p soc (the same SoC geometry it
/// was compiled for) — a thin wrapper over run_schedule.
ScheduleRunReport run_program(Soc& soc, SocTester& tester,
                              const CompiledProgram& program);

}  // namespace casbus::soc
