/// \file floor_service.cpp
/// The SoC test floor as a service: generate a scenario-diverse batch of
/// test jobs, stream them through a worker pool of cycle-accurate testers,
/// and report verdicts, cycle deviation, and throughput.
///
///   floor_service [--workers N] [--jobs M] [--seed S]
///                 [--scenario-mix scan:4,bist:2,hier:1,maint:1]
///                 [--strategy single|per_core|greedy|phased|exact|branch_bound]
///                 [--patterns-per-ff K] [--queue-capacity Q] [--cache C]
///                 [--stream] [--summary]
///                 [--stats-json FILE] [--trace FILE]
///                 [--stats-interval-ms N]
///
/// --workers 0 (the default) uses one worker per hardware thread.
/// --strategy forces one scheduling strategy onto every job (the factory
/// otherwise mixes them); `best` is refused, since it may pick
/// rail-emulation schedules the tester cannot execute. Jobs are submitted
/// to a live FloorSession while its workers run (throttled by
/// --queue-capacity); --stream additionally prints each result as it
/// completes, in arrival order. --cache sets the cache entries per
/// worker: the floor's one shared cache of qualified results holds
/// C x workers recipes (0 disables it). Each job runs on the thread of
/// the worker that picked it up. --summary
/// additionally prints the deterministic aggregate summary — the text
/// that is guaranteed byte-identical for any worker count, queue
/// capacity, or cache setting at a fixed seed.
///
/// Telemetry (docs/OBSERVABILITY.md):
///   --stats-json FILE       write the final FloorStats snapshot as
///                           one-line JSON (tools/floorstat.py reads it)
///   --trace FILE            record per-job pipeline spans and write a
///                           Chrome trace-event file (load in Perfetto)
///   --stats-interval-ms N   additionally print a live snapshot line to
///                           stderr every N ms while the floor runs
///
/// Health engine (docs/OBSERVABILITY.md, "Health rules"):
///   --health                run the SLO rule catalogue + sampler loop;
///                           print the final report
///   --health-interval-ms N  background sample/evaluate period (default
///                           250 ms)
///   --watchdog-ms N         HL006 worker-watchdog deadline (0 = off)
///   --incident-dir DIR      flight recorder: write an incident bundle
///                           on every critical transition
///   --health-json FILE      write the final HealthReport as one-line
///                           JSON (tools/floorhealth.py reads it)
/// --watchdog-ms / --incident-dir / --health-json imply --health.
/// Telemetry and health observe only: the deterministic summary is
/// byte-identical with these flags on or off.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>

#include "floor/job_factory.hpp"
#include "floor/session.hpp"
#include "util/cli.hpp"

namespace {

constexpr const char* kOptionsHelp =
    "[--workers N] [--jobs M] [--seed S]"
    " [--scenario-mix scan:4,bist:2,hier:1,maint:1]"
    " [--strategy single|per_core|greedy|phased|exact|branch_bound]"
    " [--patterns-per-ff K] [--queue-capacity Q] [--cache C]"
    " [--stream] [--summary]"
    " [--stats-json FILE] [--trace FILE] [--stats-interval-ms N]"
    " [--health] [--health-interval-ms N] [--watchdog-ms N]"
    " [--incident-dir DIR] [--health-json FILE]";

/// Periodic stats tail: a helper thread that prints
/// session.stats_snapshot().to_json() to stderr every interval until
/// stopped. Interruptible sleep so shutdown is immediate.
class StatsTailer {
 public:
  StatsTailer(const casbus::floor::FloorSession& session,
              std::size_t interval_ms)
      : session_(session), interval_ms_(interval_ms) {
    if (interval_ms_ > 0)
      thread_ = std::thread([this] { run(); });
  }

  ~StatsTailer() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

 private:
  void run() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!stop_) {
      cv_.wait_for(lock, std::chrono::milliseconds(interval_ms_),
                   [this] { return stop_; });
      if (stop_) break;
      lock.unlock();
      std::cerr << session_.stats_snapshot().to_json() << "\n";
      lock.lock();
    }
  }

  const casbus::floor::FloorSession& session_;
  std::size_t interval_ms_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

struct TelemetryOptions {
  std::string stats_json;       ///< final snapshot file; empty = off
  std::string trace_file;       ///< Chrome trace file; empty = off
  std::size_t interval_ms = 0;  ///< live stderr tail period; 0 = off
  bool health = false;          ///< run + print the health engine
  std::string health_json;      ///< final HealthReport file; empty = off
};

/// Post-drain health settle: with the floor idle every rule's raw verdict
/// is calm, so forced health_report() ticks (each one a hysteresis
/// sample) walk tripped rules back down — critical -> warn -> ok needs
/// clear_k consecutive calm samples per step. Returns the final report.
casbus::floor::HealthReport settle_health(
    casbus::floor::FloorSession& session,
    const casbus::floor::HysteresisConfig& hc) {
  const std::size_t bound = hc.window_n + 2 * hc.clear_k + 4;
  casbus::floor::HealthReport report = session.health_report();
  for (std::size_t i = 0;
       i < bound && report.overall != casbus::floor::HealthLevel::kOk; ++i)
    report = session.health_report();
  return report;
}

/// Submits jobs one by one into a live session (the bounded queue
/// throttles the producer), optionally printing each result as the
/// slot-ordered delivery hands it out, and drains it.
casbus::floor::FloorReport run_session(
    casbus::floor::FloorConfig config,
    const std::vector<casbus::floor::JobSpec>& specs,
    const TelemetryOptions& telemetry, bool print_jobs) {
  using namespace casbus::floor;
  const auto print_result = [](const JobResult& r) {
    std::cout << "  job " << r.id << " [" << scenario_name(r.scenario)
              << "] "
              << (!r.error.empty() ? "ERROR" : (r.pass ? "pass" : "FAIL"))
              << (r.cache_hit() ? " (cached)" : "") << "\n";
  };

  FloorSession session(config);
  StatsTailer tailer(session, telemetry.interval_ms);
  std::size_t printed = 0;
  for (const JobSpec& spec : specs) {
    const bool accepted = session.submit(spec);
    CASBUS_ASSERT(accepted, "session closed while submitting");
    if (!print_jobs) continue;
    for (const JobResult& r : session.poll_results()) {
      print_result(r);
      ++printed;
    }
  }
  FloorReport report = session.drain();
  if (print_jobs) {
    for (std::size_t i = printed; i < report.results.size(); ++i)
      print_result(report.results[i]);
    std::cout << "\n";
  }

  if (!telemetry.stats_json.empty()) {
    std::ofstream out(telemetry.stats_json);
    if (out) {
      out << session.stats_snapshot().to_json() << "\n";
      std::cout << "stats snapshot written to " << telemetry.stats_json
                << "\n";
    } else {
      std::cerr << "cannot write stats to " << telemetry.stats_json
                << "\n";
    }
  }
  if (!telemetry.trace_file.empty()) {
    if (session.write_trace(telemetry.trace_file))
      std::cout << "pipeline trace written to " << telemetry.trace_file
                << " (load at https://ui.perfetto.dev)\n";
    else
      std::cerr << "cannot write trace to " << telemetry.trace_file
                << "\n";
  }
  if (telemetry.health) {
    const HealthReport health =
        settle_health(session, config.health.hysteresis);
    std::cout << health.to_string() << "\n";
    if (!telemetry.health_json.empty()) {
      std::ofstream out(telemetry.health_json);
      if (out) {
        out << health.to_json() << "\n";
        std::cout << "health report written to " << telemetry.health_json
                  << "\n";
      } else {
        std::cerr << "cannot write health report to "
                  << telemetry.health_json << "\n";
      }
    }
  }
  return report;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace casbus::floor;

  std::size_t jobs = 12;
  std::uint64_t seed = 1;
  std::size_t patterns_per_ff = 1;
  FloorConfig config;
  ScenarioMix mix;
  std::optional<casbus::sched::Strategy> strategy;
  bool stream = false;
  bool summary = false;
  TelemetryOptions telemetry;

  casbus::cli::FlagParser cli(argc, argv, kOptionsHelp);
  try {
    while (cli.next()) {
      if (cli.is("--workers")) config.workers = std::stoul(cli.value());
      else if (cli.is("--jobs")) jobs = std::stoul(cli.value());
      else if (cli.is("--seed")) seed = std::stoull(cli.value());
      else if (cli.is("--scenario-mix"))
        mix = parse_scenario_mix(cli.value());
      else if (cli.is("--strategy")) {
        strategy = casbus::sched::strategy_from_name(cli.value());
        if (*strategy == casbus::sched::Strategy::Best)
          throw std::invalid_argument(
              "--strategy best may pick rail-emulation schedules, which "
              "the tester cannot execute");
      }
      else if (cli.is("--patterns-per-ff"))
        patterns_per_ff = std::stoul(cli.value());
      else if (cli.is("--queue-capacity"))
        config.queue_capacity = std::stoul(cli.value());
      else if (cli.is("--cache"))
        config.cache_capacity = std::stoul(cli.value());
      else if (cli.is("--stream")) stream = cli.boolean();
      else if (cli.is("--summary")) summary = cli.boolean();
      else if (cli.is("--stats-json")) telemetry.stats_json = cli.value();
      else if (cli.is("--trace")) telemetry.trace_file = cli.value();
      else if (cli.is("--stats-interval-ms"))
        telemetry.interval_ms = std::stoul(cli.value());
      else if (cli.is("--health")) telemetry.health = cli.boolean();
      else if (cli.is("--health-interval-ms"))
        config.health.interval_ms = std::stoul(cli.value());
      else if (cli.is("--watchdog-ms"))
        config.health.watchdog_ms = std::stoul(cli.value());
      else if (cli.is("--incident-dir"))
        config.health.incident_dir = cli.value();
      else if (cli.is("--health-json")) telemetry.health_json = cli.value();
      else cli.fail();
    }
  } catch (const std::exception& e) {
    std::cerr << "bad arguments: " << e.what() << "\n";
    cli.fail();
  }

  // A watchdog deadline, an incident dir, or a health-json target only
  // make sense with the health engine running.
  telemetry.health = telemetry.health || config.health.watchdog_ms > 0 ||
                     !config.health.incident_dir.empty() ||
                     !telemetry.health_json.empty();
  config.metrics = !telemetry.stats_json.empty() || telemetry.interval_ms > 0;
  config.health.enabled = telemetry.health;
  if (!telemetry.trace_file.empty()) {
    // One job-level span plus at most one span per pipeline stage per
    // job; cached jobs record fewer. Sized exactly so a full run never
    // drops (the acceptance bar for --trace).
    config.trace_capacity = jobs * (kStageCount + 1);
  }

  const JobFactory factory(seed, mix);
  auto specs = factory.make_jobs(jobs);
  for (JobSpec& spec : specs) {
    spec.patterns_per_ff = patterns_per_ff;
    if (strategy) spec.strategy = *strategy;
  }

  std::cout << "test floor: " << jobs << " jobs, "
            << casbus::effective_workers(config.workers)
            << " worker(s), seed " << seed;
  if (config.queue_capacity)
    std::cout << ", queue capacity " << config.queue_capacity;
  std::cout << "\n\n";

  const FloorReport report = run_session(config, specs, telemetry, stream);
  report.print(std::cout);
  if (summary) {
    std::cout << "\ndeterministic summary (worker-count invariant):\n"
              << report.deterministic_summary();
  }
  return report.all_pass() ? 0 : 1;
}
