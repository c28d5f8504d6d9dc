/// \file bench_floor.cpp
/// Experiment FLOOR — test-floor service throughput: scaling, streaming,
/// and repeated-spec caching.
///
/// Part 1 (scaling): streams one fixed, scenario-diverse batch of test
/// programs (the default scan:4,bist:2,hier:1,maint:1 mix) through a
/// FloorSession worker pool at 1, 2, 4, ... workers, reporting programs/sec
/// and sim-cycles/sec per sweep point plus the speedup over the 1-worker
/// baseline. Also checks the floor's determinism rule on the way: every
/// sweep point must produce the same deterministic aggregate summary
/// byte-for-byte.
///
/// Part 2 (streaming): drives the live FloorSession API — jobs submitted
/// while the workers run, producer throttled by the bounded queue — and
/// verifies the streamed report is byte-identical to a one-worker session
/// fed the whole list with submit_batch.
///
/// Part 3 (cache): a repeated-spec mix run cold and with the cache of
/// qualified verdicts, reporting the cache's honest speedup. A last
/// `zipf` point draws a catalogue larger than the cache with Zipf (s = 1)
/// popularity and runs it on one worker, so its hit count is a
/// deterministic function of the eviction policy (the CI hit-rate floor
/// reads it).
///
/// CI gates on the 4-vs-1-worker speedup (> 1.8x on the >= 4-vCPU
/// runners) and on the repeated-spec mix beating the cold mix by >= 1.3x;
/// on smaller machines the sweep still runs and records the honest
/// (smaller) ratio.

#include <algorithm>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "explore/soc_generator.hpp"
#include "floor/job_factory.hpp"
#include "floor/session.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace {

/// Opens a session of \p config, submits \p jobs in one batch, and drains.
casbus::floor::FloorReport run_batch(
    const casbus::floor::FloorConfig& config,
    const std::vector<casbus::floor::JobSpec>& jobs) {
  casbus::floor::FloorSession session(config);
  session.submit_batch(jobs);
  return session.drain();
}

}  // namespace

int main() {
  using namespace casbus;
  using namespace casbus::bench;
  using namespace casbus::floor;

  banner("FLOOR", "test-floor service: throughput vs worker count");
  JsonReporter rep("floor");

  constexpr std::uint64_t kSeed = 20000314;  // DATE 2000 vintage
  constexpr std::size_t kJobs = 48;
  const JobFactory factory(kSeed);
  auto jobs = factory.make_jobs(kJobs);
  // Heavier per-job simulation than the defaults, so queue/thread overhead
  // is negligible against the cycle-accurate work.
  for (JobSpec& job : jobs) job.patterns_per_ff = 2;

  // Sweep 1 -> hardware concurrency, always including the 1/2/4 points the
  // scaling gate reads (running 4 workers on fewer cores is still valid —
  // the speedup is just honest about the hardware).
  std::vector<std::size_t> sweep = {1, 2, 4};
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  for (std::size_t w = 8; w <= hw; w *= 2) sweep.push_back(w);
  if (hw > 4 && std::find(sweep.begin(), sweep.end(), hw) == sweep.end())
    sweep.push_back(hw);

  Table table({"workers", "wall s", "programs/s", "Msim-cycles/s",
               "speedup", "pass"},
              {Align::Right, Align::Right, Align::Right, Align::Right,
               Align::Right, Align::Right});

  double base_pps = 0.0;
  double speedup_at_4 = 0.0;
  std::string reference_summary;
  bool deterministic = true;
  bool all_pass = true;

  for (const std::size_t workers : sweep) {
    const FloorReport report = run_batch(FloorConfig{workers}, jobs);

    const double pps = report.programs_per_sec();
    if (workers == 1) base_pps = pps;
    const double speedup = base_pps > 0.0 ? pps / base_pps : 0.0;
    if (workers == 4) speedup_at_4 = speedup;

    if (reference_summary.empty())
      reference_summary = report.deterministic_summary();
    else if (report.deterministic_summary() != reference_summary)
      deterministic = false;
    all_pass = all_pass && report.all_pass();

    table.add_row({std::to_string(workers), format_double(report.wall_seconds, 3),
                   format_double(pps, 1),
                   format_double(report.sim_cycles_per_sec() / 1e6, 2),
                   format_double(speedup, 2),
                   std::to_string(report.total.passed) + "/" +
                       std::to_string(report.total.jobs)});

    const JsonReporter::Params params = {
        {"workers", std::to_string(workers)},
        {"jobs", std::to_string(kJobs)},
        {"mix", "scan:4,bist:2,hier:1,maint:1"},
        {"seed", std::to_string(kSeed)}};
    rep.record("scaling", params, "wall_seconds", report.wall_seconds);
    rep.record("scaling", params, "programs_per_sec", pps);
    rep.record("scaling", params, "sim_cycles_per_sec",
               report.sim_cycles_per_sec());
    rep.record("scaling", params, "speedup_vs_1_worker", speedup);
    rep.record("scaling", params, "jobs_passed",
               static_cast<std::uint64_t>(report.total.passed));

    // Per-scenario and per-stage breakdowns, recorded once (the scenario
    // aggregates are identical at every sweep point by the determinism
    // rule, which is verified below; stage seconds are timing and simply
    // most meaningful serially).
    if (workers == 1) {
      for (std::size_t k = 0; k < kScenarioCount; ++k) {
        const ScenarioStats& s = report.scenario[k];
        if (s.jobs == 0) continue;
        const JsonReporter::Params sp = {
            {"scenario", scenario_name(static_cast<ScenarioKind>(k))},
            {"seed", std::to_string(kSeed)}};
        rep.record("scenario", sp, "jobs",
                   static_cast<std::uint64_t>(s.jobs));
        rep.record("scenario", sp, "passed",
                   static_cast<std::uint64_t>(s.passed));
        rep.record("scenario", sp, "sim_cycles", s.sim_cycles);
        rep.record("scenario", sp, "worst_deviation", s.worst_deviation);
      }
      for (std::size_t s = 0; s < kStageCount; ++s) {
        rep.record("stages",
                   {{"stage", stage_name(static_cast<Stage>(s))},
                    {"seed", std::to_string(kSeed)}},
                   "seconds", report.stage_seconds[s]);
      }
    }
  }

  table.print(std::cout);
  std::cout << "\nhardware threads: " << hw
            << "\nspeedup at 4 workers: " << format_double(speedup_at_4, 2)
            << "x\ndeterministic aggregates across worker counts: "
            << (deterministic ? "yes" : "NO — BUG") << "\n";

  rep.record("summary", {{"hardware_threads", std::to_string(hw)}},
             "speedup_at_4_workers", speedup_at_4);
  rep.record("summary", {{"hardware_threads", std::to_string(hw)}},
             "deterministic_across_worker_counts",
             std::uint64_t{deterministic ? 1u : 0u});

  // --- Part 2: streaming session (submit-while-running) ---------------------
  banner("FLOOR-STREAM", "streaming session vs one-worker batch");

  const auto stream_jobs = explore::SocGenerator(kSeed).floor_jobs(
      32, explore::SocProfile::Mixed);
  FloorConfig stream_config;
  stream_config.workers = 4;
  stream_config.queue_capacity = 8;

  const FloorReport batch_ref = run_batch(FloorConfig{1}, stream_jobs);

  FloorSession session(stream_config);
  std::size_t polled_live = 0;
  bool stream_accepted = true;
  for (const JobSpec& spec : stream_jobs) {
    stream_accepted = stream_accepted && session.submit(spec);
    polled_live += session.poll_results().size();
  }
  const FloorReport streamed = session.drain();

  const bool streaming_deterministic =
      streamed.deterministic_summary() == batch_ref.deterministic_summary();
  std::cout << "streaming: " << streamed.total.jobs << " jobs at "
            << stream_config.workers << " workers, queue capacity "
            << stream_config.queue_capacity << ", "
            << format_double(streamed.programs_per_sec(), 1)
            << " programs/sec (" << polled_live
            << " results polled live)\nstreamed == batch summary: "
            << (streaming_deterministic ? "yes" : "NO — BUG") << "\n";

  const JsonReporter::Params stream_params = {
      {"workers", std::to_string(stream_config.workers)},
      {"queue_capacity", std::to_string(stream_config.queue_capacity)},
      {"jobs", std::to_string(stream_jobs.size())},
      {"seed", std::to_string(kSeed)}};
  rep.record("streaming", stream_params, "programs_per_sec",
             streamed.programs_per_sec());
  rep.record("streaming", stream_params, "wall_seconds",
             streamed.wall_seconds);
  rep.record("streaming", stream_params, "polled_live",
             static_cast<std::uint64_t>(polled_live));
  rep.record("streaming", stream_params, "matches_batch",
             std::uint64_t{streaming_deterministic ? 1u : 0u});

  // --- Part 3: repeated-spec mix through the floor's cache ------------------
  banner("FLOOR-CACHE", "repeated-spec mix: verdict reuse");

  constexpr std::size_t kCacheJobs = 48;
  constexpr std::size_t kDistinct = 4;
  const JobFactory cache_factory(kSeed);
  std::vector<JobSpec> repeated;
  repeated.reserve(kCacheJobs);
  for (std::size_t i = 0; i < kCacheJobs; ++i) {
    JobSpec spec = cache_factory.make_job(i % kDistinct);
    spec.id = i;
    spec.patterns_per_ff = 2;
    repeated.push_back(spec);
  }

  struct CachePoint {
    const char* label;
    std::size_t cache_capacity;
  };
  const CachePoint points[] = {
      {"cold", 0},
      {"warm", 16},
  };

  double cold_pps = 0.0;
  double warm_speedup = 0.0;
  bool cache_deterministic = true;
  std::string cache_reference;
  Table cache_table({"config", "wall s", "programs/s", "speedup",
                     "cache hits"},
                    {Align::Left, Align::Right, Align::Right, Align::Right,
                     Align::Right});
  for (const CachePoint& point : points) {
    FloorConfig config;
    config.workers = 4;
    config.cache_capacity = point.cache_capacity;
    const FloorReport report = run_batch(config, repeated);

    const double pps = report.programs_per_sec();
    if (std::string(point.label) == "cold") cold_pps = pps;
    const double speedup = cold_pps > 0.0 ? pps / cold_pps : 0.0;
    if (std::string(point.label) == "warm") warm_speedup = speedup;

    if (cache_reference.empty())
      cache_reference = report.deterministic_summary();
    else if (report.deterministic_summary() != cache_reference)
      cache_deterministic = false;
    all_pass = all_pass && report.all_pass();

    cache_table.add_row({point.label,
                         format_double(report.wall_seconds, 3),
                         format_double(pps, 1), format_double(speedup, 2),
                         std::to_string(report.cache_hits) + "/" +
                             std::to_string(report.total.jobs)});

    const JsonReporter::Params params = {
        {"config", point.label},
        {"workers", "4"},
        {"jobs", std::to_string(kCacheJobs)},
        {"distinct_specs", std::to_string(kDistinct)},
        {"seed", std::to_string(kSeed)}};
    rep.record("cache", params, "programs_per_sec", pps);
    rep.record("cache", params, "wall_seconds", report.wall_seconds);
    rep.record("cache", params, "speedup_vs_cold", speedup);
    rep.record("cache", params, "cache_hits",
               static_cast<std::uint64_t>(report.cache_hits));
    rep.record("cache", params, "cache_hit_rate",
               report.total.jobs
                   ? static_cast<double>(report.cache_hits) /
                         static_cast<double>(report.total.jobs)
                   : 0.0);
  }

  // The zipf point: kZipfRecipes distinct recipes (4x the 1-worker cache)
  // drawn kZipfJobs times with Zipf (s = 1) popularity, at one worker so
  // every lookup sees the same cache state on every run.
  constexpr std::size_t kZipfRecipes = 64;
  constexpr std::size_t kZipfJobs = 384;
  std::vector<double> cdf;
  double total = 0.0;
  for (std::size_t r = 0; r < kZipfRecipes; ++r) {
    total += 1.0 / static_cast<double>(r + 1);
    cdf.push_back(total);
  }
  Rng zipf_rng(Rng::derive_stream(kSeed, 0x7a697066));
  std::vector<JobSpec> zipf;
  zipf.reserve(kZipfJobs);
  for (std::size_t i = 0; i < kZipfJobs; ++i) {
    const double u = static_cast<double>(zipf_rng.next() >> 11) * 0x1.0p-53 *
                     total;
    const auto r = static_cast<std::size_t>(
        std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    JobSpec spec = cache_factory.make_job(std::min(r, kZipfRecipes - 1));
    spec.id = i;
    zipf.push_back(spec);
  }
  FloorConfig zipf_config;
  zipf_config.workers = 1;
  const FloorReport zipf_report = run_batch(zipf_config, zipf);
  all_pass = all_pass && zipf_report.all_pass();
  const double zipf_hit_rate = static_cast<double>(zipf_report.cache_hits) /
                               static_cast<double>(zipf_report.total.jobs);
  cache_table.add_row({"zipf", format_double(zipf_report.wall_seconds, 3),
                       format_double(zipf_report.programs_per_sec(), 1), "-",
                       std::to_string(zipf_report.cache_hits) + "/" +
                           std::to_string(zipf_report.total.jobs)});
  const JsonReporter::Params zipf_params = {
      {"config", "zipf"},
      {"workers", "1"},
      {"jobs", std::to_string(kZipfJobs)},
      {"distinct_specs", std::to_string(kZipfRecipes)},
      {"cache_capacity", std::to_string(zipf_config.cache_capacity)},
      {"seed", std::to_string(kSeed)}};
  rep.record("cache", zipf_params, "programs_per_sec",
             zipf_report.programs_per_sec());
  rep.record("cache", zipf_params, "cache_hits",
             static_cast<std::uint64_t>(zipf_report.cache_hits));
  rep.record("cache", zipf_params, "cache_hit_rate", zipf_hit_rate);

  cache_table.print(std::cout);
  std::cout << "\nrepeated-spec warm speedup vs cold: "
            << format_double(warm_speedup, 2)
            << "x\ndeterministic across cache settings: "
            << (cache_deterministic ? "yes" : "NO — BUG") << "\n";

  return deterministic && streaming_deterministic && cache_deterministic &&
                 stream_accepted && all_pass
             ? 0
             : 1;
}
