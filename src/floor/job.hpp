/// \file job.hpp
/// One unit of test-floor work: a self-contained recipe for synthesizing an
/// SoC, compiling its test program, and running it through a private
/// cycle-accurate tester — executed as an explicit staged pipeline
/// (Build -> Schedule -> Compile -> Simulate -> Verdict) with per-stage
/// accounting.
///
/// ## Determinism & thread-safety contract
/// A job is *pure*: run_job() constructs every object it touches (Soc,
/// SocTester, Rng, compiled schedules) from the JobSpec alone and shares no
/// mutable state with other jobs. Two calls with equal specs produce equal
/// results in every deterministic field, regardless of which thread runs
/// them or what runs concurrently. All of a job's randomness flows from its
/// private seed — the floor derives it as Rng::derive_stream(floor_seed,
/// job id) (see util/rng.hpp), which is what makes a whole floor run's
/// aggregates byte-identical for 1 and N workers. An optional floor-wide
/// ProgramCache may serve a repeated spec's qualified result; because the
/// job is pure, a cache hit reproduces the cold path's result and the
/// contract is unchanged.

#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "sched/scheduler.hpp"

namespace casbus::obs {
class Registry;
class TraceRecorder;
}  // namespace casbus::obs

namespace casbus::floor {

struct FloorMetricIds;

/// The test-program shapes a floor job can exercise — one per access type
/// the CAS-BUS serves (paper Fig. 2 plus the §4 maintenance scenario).
enum class ScenarioKind {
  ScanOnly,      ///< scan cores only, scheduled + executed (Fig. 2a)
  BistJoin,      ///< scan cores with BIST/memory engines joining (Fig. 2b)
  Hierarchical,  ///< child cores tunneled through a parent CAS (Fig. 2d)
  Maintenance,   ///< MBIST under live functional memory traffic (§4)
};

inline constexpr std::size_t kScenarioCount = 4;

/// Stable short name ("scan", "bist", "hier", "maint") — used by the
/// --scenario-mix CLI syntax and the report breakdowns.
[[nodiscard]] const char* scenario_name(ScenarioKind kind) noexcept;

/// Inverse of scenario_name(); throws PreconditionError on unknown names.
[[nodiscard]] ScenarioKind scenario_from_name(std::string_view name);

/// The named stages of the run_job pipeline, in execution order. Every job
/// flows Build -> Schedule -> Compile -> Verify -> Simulate -> Verdict.
/// Scheduled scenarios (ScanOnly/BistJoin) run the analytic scheduler in
/// Schedule and leave Compile at zero; scenarios it cannot express
/// (Hierarchical/Maintenance) charge their hand-assembled session setup
/// to Compile and leave Schedule at zero. Verify is the static
/// admission gate (src/verify/): it lints every generated netlist and the
/// compiled schedule in microseconds, so a malformed design fails fast
/// instead of burning the Simulate stage.
enum class Stage {
  Build,     ///< synthesize the SoC (cores, wrappers, CAS-BUS)
  Schedule,  ///< analytic scheduling (specs_of + sched::schedule_with)
  Compile,   ///< assemble hand-built sessions (hier / maint)
  Verify,    ///< static lint of netlists + schedule (verify/)
  Simulate,  ///< cycle-accurate execution through the tester
  Verdict,   ///< harvest pass/fail and cycle accounting
};

inline constexpr std::size_t kStageCount = 6;

/// Stable short name ("build", "schedule", "compile", "verify",
/// "simulate", "verdict") — the report/bench vocabulary for stage
/// breakdowns.
[[nodiscard]] const char* stage_name(Stage stage) noexcept;

/// Everything a worker needs to run one job. Plain value object; copying
/// it into a queue is the only hand-off between producer and workers.
struct JobSpec {
  std::size_t id = 0;             ///< slot in the floor run (and RNG stream)
  ScenarioKind scenario = ScenarioKind::ScanOnly;
  std::uint64_t seed = 1;         ///< private stream seed for *all* job RNG
  sched::Strategy strategy = sched::Strategy::Greedy;
  std::size_t cores = 3;          ///< top-level core count (clamped >= 2)
  unsigned bus_width = 4;         ///< CAS-BUS wires (must be >= 2)
  std::size_t patterns_per_ff = 1;///< scan-pattern budget scale

  /// Canonical signature of every field that determines the job's SoC,
  /// schedule, and result — everything except id (two jobs that differ
  /// only in id are reruns of the same recipe). Stable across platforms
  /// and runs (util/hash.hpp). Equal keys mean byte-identical
  /// deterministic results, which is what makes the floor's cache sound.
  [[nodiscard]] std::uint64_t cache_key() const noexcept;

  /// True when \p other is the same recipe: every field except id equal.
  /// The cache compares recipes on every key match, so a hash collision
  /// degrades to a miss instead of serving the wrong result.
  [[nodiscard]] bool same_recipe(const JobSpec& other) const noexcept;
};

/// Whether the cache served a job (see program_cache.hpp). Not
/// deterministic: it depends on job interleaving and worker count, so it
/// is excluded from digests like all timing.
enum class CacheTier : std::uint8_t {
  None = 0,     ///< executed cold (or cache disabled)
  /// Whole pipeline skipped (qualified result reused). 2, not 1: raw job
  /// records carry the tier as this number, and their readers
  /// (perfbench/run.py) take 2 for a verdict hit.
  Verdict = 2,
};

/// Stable short name ("none", "verdict") — the vocabulary of trace args.
[[nodiscard]] const char* cache_tier_name(CacheTier tier) noexcept;

/// Work counters harvested from the engines a job ran — scheduler search
/// effort, golden-model memoisation, packed-simulation evaluation. All
/// observability payload: they never feed back into any computation, are
/// excluded from digests (a cache hit legitimately reports zeros),
/// and cost nothing to carry when telemetry is off.
struct JobEngineCounters {
  std::uint64_t sim_memo_lookups = 0;   ///< tester golden-response probes
  std::uint64_t sim_memo_hits = 0;      ///< ... served from the memo
  double precompute_seconds = 0.0;      ///< golden-response precompute time
  std::uint64_t sim_eval_passes = 0;    ///< netlist::SimStats::eval_passes
  std::uint64_t sim_cell_evals = 0;     ///< netlist::SimStats::cell_evals
  std::uint64_t sim_sweep_cell_evals = 0;  ///< full-sweep-equivalent work
  std::uint64_t sched_nodes_expanded = 0;  ///< B&B nodes / greedy probes
  std::uint64_t sched_prunes = 0;          ///< cut by the lower bound
  std::uint64_t sched_improvements = 0;    ///< B&B incumbent adoptions
  std::uint64_t sched_leaves_priced = 0;   ///< B&B leaves / probes balanced
  std::uint64_t kernel_cycles = 0;        ///< sim::KernelCounters::cycles
  std::uint64_t kernel_settles = 0;       ///< ... settles
  std::uint64_t kernel_delta_passes = 0;  ///< ... delta_passes
  std::uint64_t kernel_gate_evals = 0;    ///< GateSim::eval() requests
  std::uint64_t kernel_gate_sweeps = 0;   ///< GateSim levelized sweeps
  std::uint64_t kernel_gate_cells = 0;    ///< cells those sweeps evaluated
};

/// Outcome of one job. Every field except wall_seconds, stage_seconds,
/// cache_tier, and engine is a deterministic function of the JobSpec
/// (FloorReport::deterministic_summary() relies on that); those four are
/// execution records filled in by the executing worker.
struct JobResult {
  std::size_t id = 0;
  ScenarioKind scenario = ScenarioKind::ScanOnly;
  bool pass = false;
  std::string error;              ///< non-empty when the job threw
  std::size_t cores = 0;          ///< cores actually built
  std::size_t sessions = 0;       ///< test sessions executed
  std::size_t patterns = 0;       ///< scan patterns applied
  std::uint64_t predicted_cycles = 0;  ///< analytic time-model prediction
  std::uint64_t measured_cycles = 0;   ///< simulator cycles for the same span
  std::uint64_t sim_cycles = 0;   ///< total tester cycles, incl. config
  double wall_seconds = 0.0;      ///< NOT deterministic; excluded from digests
  /// Per-stage wall time, indexed by Stage. NOT deterministic (timing),
  /// excluded from digests like wall_seconds.
  std::array<double, kStageCount> stage_seconds{};
  /// Whether the cache served this job (None = executed cold). NOT
  /// deterministic (depends on job interleaving and worker count),
  /// excluded from digests.
  CacheTier cache_tier = CacheTier::None;
  /// Engine work counters (see JobEngineCounters). NOT deterministic in
  /// aggregate — a cache-served job reports zeros — excluded from digests.
  JobEngineCounters engine;

  /// True when the cache served this job.
  [[nodiscard]] bool cache_hit() const noexcept {
    return cache_tier != CacheTier::None;
  }

  /// |measured − predicted| / predicted (0 when nothing was predicted).
  [[nodiscard]] double deviation() const {
    if (predicted_cycles == 0) return 0.0;
    const auto diff = measured_cycles > predicted_cycles
                          ? measured_cycles - predicted_cycles
                          : predicted_cycles - measured_cycles;
    return static_cast<double>(diff) /
           static_cast<double>(predicted_cycles);
  }
};

class ProgramCache;

/// Observability hooks handed to run_job by the floor (all optional —
/// value-default means "telemetry off", and every instrument site guards
/// on the null pointers, so the disabled cost is a pointer test).
/// Everything here is strictly *write-only* from the job's perspective:
/// counters and spans flow out, nothing flows back in, which is how the
/// telemetry-on == telemetry-off determinism guarantee holds by
/// construction.
struct JobTelemetry {
  obs::Registry* registry = nullptr;      ///< floor metric sink
  const FloorMetricIds* ids = nullptr;    ///< ids registered in *registry
  obs::TraceRecorder* trace = nullptr;    ///< per-stage span sink
  std::uint32_t worker = 0;               ///< executing worker (trace row)
  std::uint64_t slot = 0;                 ///< arrival slot (trace args)
};

/// Executes \p spec end to end through the staged pipeline (Build ->
/// Schedule -> Compile -> Verify -> Simulate -> Verdict) and reports, with
/// per-stage wall time in JobResult::stage_seconds. Never throws: scenario
/// failures and precondition violations come back as JobResult::error.
///
/// The Verify stage lints every generated core netlist and the compiled
/// schedule (src/verify/); an error-grade finding fails the job with the
/// lint summary in JobResult::error and Simulate never runs.
///
/// When \p cache is non-null, a recipe that already ran cleanly skips the
/// whole pipeline and returns its qualified result re-stamped with this
/// job's id (see program_cache.hpp), and a clean cold run qualifies its
/// recipe. This cannot change any deterministic result field, because
/// run_job is pure: a qualified result is byte-identical to what a cold
/// run would recompute, so cache-on and cache-off runs produce equal
/// deterministic_summary() text. The cache is thread-safe; the floor
/// shares one among all its workers.
///
/// \p obs carries the floor's telemetry sinks (JobTelemetry); the default
/// runs with telemetry off. Spans and counters are emitted per executed
/// stage — a cache hit emits none (no stage ran).
[[nodiscard]] JobResult run_job(const JobSpec& spec, ProgramCache* cache,
                                const JobTelemetry& obs = {}) noexcept;

/// Cache-less convenience overload.
[[nodiscard]] JobResult run_job(const JobSpec& spec) noexcept;

}  // namespace casbus::floor
