/// \file driver.cpp
/// Workload driver behind perfbench/run.py. Runs one named workload for a
/// fixed wall-clock budget and prints one JSON document of raw
/// measurements (per-job / per-SoC records, set-up samples, correctness
/// results) on stdout; run.py derives every metric from it.
///
///   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
///                    [--trace-out FILE]
///
/// With --trace 1 the budget is split into an untraced half and a traced
/// half over the same inputs. The traced half records spans around every
/// call the driver makes into a library layer and writes them as Chrome
/// trace events to --trace-out. The library itself is not instrumented.

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "explore/branch_bound.hpp"
#include "explore/explorer.hpp"
#include "explore/soc_generator.hpp"
#include "floor/job_factory.hpp"
#include "floor/report.hpp"
#include "floor/session.hpp"
#include "sched/lower_bound.hpp"
#include "sched/scheduler.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"
#include "verify/schedule_lint.hpp"

namespace {

using namespace casbus;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

Clock::time_point after(Clock::time_point t, double seconds) {
  return t + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// --- spans ---------------------------------------------------------------------

/// One interval. `item` is the job or SoC the span belongs to; `parent` is
/// the id of the enclosing span, 0 for a root.
struct Span {
  const char* name = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t item = 0;
  double ts_us = 0.0;
  double dur_us = 0.0;
};

/// Span buffer written by one thread; buffers are merged when the run ends.
class SpanLog {
 public:
  SpanLog(Clock::time_point epoch, std::uint32_t tid)
      : epoch_(epoch), tid_(tid) {
    spans_.reserve(1 << 16);
  }

  [[nodiscard]] double us_of(Clock::time_point t) const {
    return seconds_between(epoch_, t) * 1e6;
  }
  [[nodiscard]] double now_us() const { return us_of(Clock::now()); }

  /// Appends a span and returns its id (unique across threads).
  std::uint64_t add(const char* name, std::uint64_t parent,
                    std::uint64_t item, double ts_us, double dur_us) {
    const std::uint64_t id =
        (static_cast<std::uint64_t>(tid_) << 40) + spans_.size() + 1;
    spans_.push_back(Span{name, id, parent, item, ts_us, dur_us});
    return id;
  }

  /// Closes span \p id at \p end_us.
  void end(std::uint64_t id, double end_us) {
    Span& s = spans_[(id & ((1ULL << 40) - 1)) - 1];
    s.dur_us = end_us - s.ts_us;
  }

  [[nodiscard]] std::uint32_t tid() const noexcept { return tid_; }
  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

 private:
  Clock::time_point epoch_;
  std::uint32_t tid_;
  std::vector<Span> spans_;
};

/// Records its own lifetime as a span; with a null log it does nothing,
/// which is how the untraced runs share the traced code.
class Scope {
 public:
  Scope(SpanLog* log, const char* name, std::uint64_t item,
        std::uint64_t parent = 0)
      : log_(log) {
    if (log_ != nullptr) id_ = log_->add(name, parent, item, log_->now_us(), 0);
  }
  ~Scope() {
    if (log_ != nullptr) log_->end(id_, log_->now_us());
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }

 private:
  SpanLog* log_;
  std::uint64_t id_ = 0;
};

bool write_chrome_trace(const std::string& path,
                        const std::vector<const SpanLog*>& logs) {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\":[";
  const char* sep = "";
  char buf[512];
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      std::snprintf(buf, sizeof buf,
                    "%s\n{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                    "\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                    "\"args\":{\"id\":%llu,\"parent\":%llu,\"item\":%llu}}",
                    sep, s.name, log->tid(), s.ts_us, s.dur_us,
                    static_cast<unsigned long long>(s.id),
                    static_cast<unsigned long long>(s.parent),
                    static_cast<unsigned long long>(s.item));
      out << buf;
      sep = ",";
    }
  }
  out << "\n],\"displayTimeUnit\":\"ms\"}\n";
  return static_cast<bool>(out);
}

// --- JSON output ---------------------------------------------------------------

/// Appends comma-separated JSON values; numbers keep all their digits.
class Json {
 public:
  Json& key(const char* k) {
    sep();
    os_ << '"' << k << "\":";
    fresh_ = true;
    return *this;
  }
  Json& num(double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return raw(buf);
  }
  Json& num(std::uint64_t v) { return raw(std::to_string(v)); }
  Json& str(const std::string& v) { return raw('"' + v + '"'); }
  Json& open(char c) {
    sep();
    os_ << c;
    fresh_ = true;
    return *this;
  }
  Json& close(char c) {
    os_ << c;
    fresh_ = false;
    return *this;
  }
  [[nodiscard]] std::string text() const { return os_.str(); }

 private:
  Json& raw(const std::string& s) {
    sep();
    os_ << s;
    return *this;
  }
  void sep() {
    if (!fresh_) os_ << ',';
    fresh_ = false;
  }
  std::ostringstream os_;
  bool fresh_ = true;
};

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// --- CPU placement -------------------------------------------------------------

/// The CPUs this process may run on.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return {};
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  return cpus;
}

/// Restricts the calling thread, and the threads it creates from now on,
/// to \p cpus. Best effort: a host that refuses leaves the mask alone.
void pin_thread(const std::vector<int>& cpus) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) CPU_SET(c, &set);
  (void)pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

// --- floor workloads -------------------------------------------------------------

/// floor_requalify: a catalogue of kRecipes distinct recipes, many more
/// than one worker's 16-entry program cache holds, drawn kPassJobs times
/// per pass with Zipf (s = 1) popularity, on kWorkers workers.
constexpr std::size_t kRecipes = 256;
constexpr std::size_t kPassJobs = 1024;
constexpr std::size_t kWorkers = 2;

/// Recipe \p r of a seed: JobFactory's job r with its scenario, strategy,
/// core count and bus width set by r. Scenarios cycle through the default
/// mix (scan:4,bist:2,hier:1,maint:1) and strategies through the factory's
/// own draw (greedy:4,phased:2,per_core:1,single:1), so every seed, and
/// every band of popularity ranks, holds the same blend of job kinds; the
/// seed still draws each job's SoC.
floor::JobSpec stratified_recipe(const floor::JobFactory& factory,
                                 std::size_t r) {
  using floor::ScenarioKind;
  static constexpr ScenarioKind kCycle[] = {
      ScenarioKind::ScanOnly, ScenarioKind::BistJoin,
      ScenarioKind::ScanOnly, ScenarioKind::Hierarchical,
      ScenarioKind::ScanOnly, ScenarioKind::BistJoin,
      ScenarioKind::ScanOnly, ScenarioKind::Maintenance};
  static constexpr sched::Strategy kStrategies[] = {
      sched::Strategy::Greedy,  sched::Strategy::Phased,
      sched::Strategy::Greedy,  sched::Strategy::PerCore,
      sched::Strategy::Greedy,  sched::Strategy::Phased,
      sched::Strategy::Greedy,  sched::Strategy::Single};
  constexpr std::size_t kLen = std::size(kCycle);
  static_assert(std::size(kStrategies) == kLen);
  floor::JobSpec spec = factory.make_job(r);
  spec.scenario = kCycle[r % kLen];
  spec.strategy = kStrategies[(r + r / kLen) % kLen];  // every pair per 64
  spec.cores = 2 + (r / kLen) % 3;                                // 2..4
  spec.bus_width = 4 + static_cast<unsigned>((r / (3 * kLen)) % 3);  // 4..6
  return spec;
}

/// The jobs of one pass, a pure function of the seed.
class JobStream {
 public:
  explicit JobStream(std::uint64_t seed) : seed_(seed), factory_(seed) {}

  void generate() {
    reference_.clear();
    for (std::size_t r = 0; r < kRecipes; ++r)
      reference_.push_back(stratified_recipe(factory_, r));
    recipe_.clear();
    jobs_.clear();
    std::vector<double> cdf;
    double total = 0.0;
    for (std::size_t r = 0; r < kRecipes; ++r) {
      total += 1.0 / static_cast<double>(r + 1);
      cdf.push_back(total);
    }
    for (double& c : cdf) c /= total;
    // The pass's draws are the Zipf quantiles of n evenly spaced points,
    // in an order the seed shuffles: every seed draws each recipe equally
    // often, and only the order of the draws (and so the cache's hits)
    // depends on it.
    const std::size_t n = kPassJobs;
    std::vector<std::size_t> slot(n);
    for (std::size_t i = 0; i < n; ++i) slot[i] = i;
    Rng rng(Rng::derive_stream(seed_, 0x706f70756c6172ULL));
    for (std::size_t i = n; i > 1; --i)
      std::swap(slot[i - 1], slot[rng.below(i)]);
    for (std::size_t i = 0; i < n; ++i) {
      const double u =
          (static_cast<double>(slot[i]) + 0.5) / static_cast<double>(n);
      const auto r = static_cast<std::size_t>(
          std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
      recipe_.push_back(std::min(r, kRecipes - 1));
      jobs_.push_back(reference_[recipe_.back()]);
      jobs_.back().id = i;
    }
  }

  [[nodiscard]] const std::vector<floor::JobSpec>& jobs() const {
    return jobs_;
  }

  /// The catalogue: the distinct recipes every run re-executes for its
  /// checks.
  [[nodiscard]] const std::vector<floor::JobSpec>& reference() const {
    return reference_;
  }

  /// Index into reference() of job \p i's recipe.
  [[nodiscard]] std::size_t recipe_of(std::size_t i) const {
    return recipe_[i];
  }

 private:
  std::uint64_t seed_;
  floor::JobFactory factory_;
  std::vector<floor::JobSpec> reference_;
  std::vector<floor::JobSpec> jobs_;
  std::vector<std::size_t> recipe_;
};

struct FloorPass {
  double setup_s = 0.0;                   ///< input generation + session start
  double elapsed_s = 0.0;                 ///< first submit to last result
  std::vector<floor::JobResult> results;  ///< in delivery order
  std::vector<double> latency_s;          ///< submit to result, per result
};

struct FloorPhase {
  std::vector<FloorPass> passes;
  double rss_mb = 0.0;  ///< peak RSS when the first pass ended
};

/// CPU placement of pass \p pass: its workers on the next `workers` CPUs
/// in rotation, the producer on the others. On a shared host one CPU can
/// run slow for minutes while the others do not; rotating puts every
/// pass's workers somewhere else, so the best pass of a run is not stuck
/// on a slow CPU.
struct Placement {
  std::vector<int> workers;
  std::vector<int> producer;
};

Placement place_pass(const std::vector<int>& cpus, std::size_t workers,
                     std::size_t pass) {
  Placement p;
  if (cpus.size() <= workers) return p;  // too few CPUs to separate
  for (std::size_t i = 0; i < cpus.size(); ++i) {
    const int c = cpus[(pass * workers + i) % cpus.size()];
    (i < workers ? p.workers : p.producer).push_back(c);
  }
  return p;
}

/// Lays the stages a job reports (JobResult::stage_seconds) out as child
/// spans of its run, which ends when the driver saw the result.
void record_job_spans(SpanLog& log, std::uint64_t job_span,
                      const floor::JobResult& r, std::uint64_t item,
                      double end_us) {
  static constexpr const char* kStageSpan[floor::kStageCount] = {
      "soc.build", "sched.schedule", "sched.compile",
      "verify.lint", "soc.simulate", "floor.verdict"};
  log.end(job_span, end_us);
  double t = end_us - r.wall_seconds * 1e6;
  const std::uint64_t run =
      log.add("floor.run_job", job_span, item, t, r.wall_seconds * 1e6);
  for (std::size_t s = 0; s < floor::kStageCount; ++s) {
    const double dur = r.stage_seconds[s] * 1e6;
    if (dur <= 0.0) continue;
    const std::uint64_t id = log.add(kStageSpan[s], run, item, t, dur);
    if (s == static_cast<std::size_t>(floor::Stage::Simulate) &&
        r.engine.precompute_seconds > 0.0)
      log.add("netlist.golden", id, item, t,
              std::min(dur, r.engine.precompute_seconds * 1e6));
    t += dur;
  }
}

/// One pass: every job of the stream through a fresh session, so each
/// pass starts with cold caches. Its set-up (input generation and session
/// start) is timed on its own. Closed loop: two jobs per worker are in
/// flight and the next job is submitted only when one completes. Latency
/// runs to the result's delivery. Span items are \p item_base + job id.
FloorPass run_floor_pass(const floor::FloorConfig& config, JobStream& stream,
                         const Placement& where, SpanLog* log,
                         std::uint64_t item_base) {
  FloorPass pass;
  pin_thread(where.workers);  // the session's workers inherit this mask
  const auto t0 = Clock::now();
  stream.generate();
  floor::FloorSession session(config);
  pass.setup_s = seconds_between(t0, Clock::now());
  pin_thread(where.producer);
  const std::vector<floor::JobSpec>& jobs = stream.jobs();
  const std::size_t slots = 2 * config.workers;
  std::vector<Clock::time_point> submitted(jobs.size());
  std::vector<std::uint64_t> job_span(jobs.size(), 0);
  std::size_t next = 0;
  const auto start = Clock::now();
  auto last = start;
  while (pass.results.size() < jobs.size()) {
    while (next < jobs.size() && next - session.completed() < slots) {
      const auto t = Clock::now();
      submitted[next] = t;
      if (log != nullptr)
        job_span[next] =
            log->add("floor.job", 0, item_base + next, log->us_of(t), 0);
      const Scope s(log, "floor.submit", item_base + next, job_span[next]);
      if (!session.submit(jobs[next]))
        throw std::runtime_error("floor session refused a job");
      ++next;
    }
    std::vector<floor::JobResult> got = session.poll_results();
    const auto t = Clock::now();
    for (floor::JobResult& r : got) {
      const std::size_t i = r.id;
      if (log != nullptr)
        record_job_spans(*log, job_span[i], r, item_base + i, log->us_of(t));
      pass.latency_s.push_back(seconds_between(submitted[i], t));
      pass.results.push_back(std::move(r));
      last = t;
    }
    if (got.empty()) std::this_thread::sleep_for(std::chrono::microseconds(20));
  }
  pass.elapsed_s = seconds_between(start, last);
  const floor::FloorReport drained = session.drain();
  (void)drained;
  return pass;
}

/// Passes back to back until the budget is spent, each on the next CPUs
/// in rotation.
FloorPhase run_floor_phase(const floor::FloorConfig& config,
                           JobStream& stream, double budget_s, SpanLog* log) {
  FloorPhase phase;
  const std::vector<int> cpus = allowed_cpus();
  const auto deadline = after(Clock::now(), budget_s);
  for (;;) {
    const std::size_t k = phase.passes.size();
    phase.passes.push_back(
        run_floor_pass(config, stream, place_pass(cpus, config.workers, k),
                       log, k * stream.jobs().size()));
    // A fixed amount of work, so the figure does not grow with throughput.
    if (phase.passes.size() == 1) phase.rss_mb = peak_rss_mb();
    // Stop when another pass would end well past the deadline.
    if (after(Clock::now(), phase.passes.back().elapsed_s / 2) >= deadline)
      break;
  }
  pin_thread(cpus);
  return phase;
}

void emit_floor_phase(Json& j, const FloorPhase& p) {
  j.open('{').key("passes").open('[');
  for (const FloorPass& pass : p.passes) {
    j.open('{').key("elapsed_s").num(pass.elapsed_s).key("jobs").open('[');
    for (std::size_t i = 0; i < pass.results.size(); ++i) {
      const floor::JobResult& r = pass.results[i];
      // Field order is the JOB_FIELDS list in run.py.
      j.open('[')
          .num(std::uint64_t{static_cast<std::uint64_t>(r.scenario)})
          .num(std::uint64_t{r.pass})
          .num(std::uint64_t{!r.error.empty()})
          .num(pass.latency_s[i])
          .num(r.wall_seconds);
      for (const double s : r.stage_seconds) j.num(s);
      j.num(std::uint64_t{static_cast<std::uint64_t>(r.cache_tier)})
          .num(r.sim_cycles)
          .num(r.deviation())
          .num(r.engine.sim_memo_lookups)
          .num(r.engine.sim_memo_hits)
          .num(r.engine.precompute_seconds)
          .num(r.engine.sim_cell_evals)
          .num(r.engine.sim_sweep_cell_evals)
          .close(']');
    }
    j.close(']').close('}');
  }
  j.close(']').close('}');
}

std::string run_floor(std::uint64_t seed, double seconds, SpanLog* log) {
  floor::FloorConfig config;  // default program cache and verdict reuse
  config.workers = kWorkers;

  JobStream stream(seed);
  std::vector<FloorPhase> phases;
  const double budget = log != nullptr ? seconds / 2 : seconds;
  phases.push_back(run_floor_phase(config, stream, budget, nullptr));
  if (log != nullptr)
    phases.push_back(run_floor_phase(config, stream, budget, log));

  // Correctness: the reference recipes run again at another worker count
  // with every cache off. Their summary is the run's digest, and every
  // measured job of every untraced pass must reproduce the result of its
  // recipe.
  floor::FloorConfig check_config;
  check_config.workers = 1;
  check_config.cache_capacity = 0;
  floor::FloorSession check(check_config);
  if (check.submit_batch(stream.reference()) != stream.reference().size())
    throw std::runtime_error("check session refused a job");
  const floor::FloorReport reference = check.drain();
  bool agree = true;
  for (const FloorPass& pass : phases.front().passes) {
    std::vector<floor::JobResult> want;
    for (const floor::JobResult& r : pass.results) {
      want.push_back(reference.results.at(stream.recipe_of(r.id)));
      want.back().id = r.id;
    }
    agree = agree &&
            floor::aggregate_results(pass.results, 1, 0.0)
                    .deterministic_summary() ==
                floor::aggregate_results(std::move(want), 1, 0.0)
                    .deterministic_summary();
  }

  Json j;
  j.open('{').key("kind").str("floor").key("workers").num(
      std::uint64_t{kWorkers});
  j.key("setup_s").open('[');
  for (const FloorPass& pass : phases.front().passes) j.num(pass.setup_s);
  j.close(']').key("peak_rss_mb").num(phases.front().rss_mb);
  j.key("test_cycles").num(reference.total.sim_cycles)
      .key("digest").str(hex64(
          StableHash{}.mix(reference.deterministic_summary()).value()))
      .key("agree").num(std::uint64_t{agree});
  j.key("phases").open('[');
  for (const FloorPhase& p : phases) emit_floor_phase(j, p);
  j.close(']').close('}');
  return j.text();
}

// --- explore workload ------------------------------------------------------------

constexpr explore::SocProfile kProfiles[] = {explore::SocProfile::Mixed,
                                             explore::SocProfile::ScanHeavy,
                                             explore::SocProfile::BistHeavy};
constexpr std::size_t kProfileCount = std::size(kProfiles);
/// SoCs generated per profile during set-up. The slots cycle through all
/// of them, so each is swept several times in a run; every run sweeps each
/// at least once, and they are the fixed set behind test_cycles.
constexpr std::size_t kSocsPerProfile = 2;
constexpr std::size_t kReferenceSocs = kSocsPerProfile * kProfileCount;
/// Concurrent sweeps (each single-threaded), within a 4-thread host.
constexpr std::size_t kExploreSlots = 3;
constexpr std::size_t kSocCores = 1000;
/// Set-up is timed this many times per run; run.py reports the median.
constexpr int kSetupRepeats = 101;

explore::ExploreConfig explore_config() {
  explore::ExploreConfig config;  // default widths and strategies
  config.branch_bound.threads = 1;
  config.branch_bound.deterministic = true;
  return config;
}

/// Search effort of one branch-and-bound call.
struct BbCall {
  std::uint64_t nodes = 0;
  std::uint64_t prunes = 0;
  std::uint64_t leaves = 0;
  double seconds = 0.0;
};

struct Decomposed {
  std::vector<explore::ExplorePoint> points;
  std::vector<BbCall> bb;
};

/// The work of DesignSpaceExplorer::sweep (minus the Pareto marking), made
/// of direct calls into the sched and explore layers so each can carry a
/// span. A non-null \p lint_errors receives the error count of linting
/// every schedule, outside the spans.
Decomposed sweep_decomposed(const explore::GeneratedSoc& soc,
                            const explore::ExploreConfig& config,
                            SpanLog* log, std::uint64_t item,
                            std::uint64_t parent, std::size_t* lint_errors) {
  Decomposed out;
  const unsigned s = soc.suggested_width;
  std::vector<unsigned> widths = {std::max(2u, s / 2), s,
                                  std::min(64u, s * 2)};
  std::sort(widths.begin(), widths.end());
  widths.erase(std::unique(widths.begin(), widths.end()), widths.end());
  for (const unsigned width : widths) {
    std::unique_ptr<sched::SessionScheduler> scheduler;
    {
      const Scope sp(log, "sched.scheduler_init", item, parent);
      scheduler = std::make_unique<sched::SessionScheduler>(soc.cores, width);
    }
    std::uint64_t global_lb = 0;
    {
      const Scope sp(log, "sched.lower_bound", item, parent);
      global_lb = sched::schedule_lower_bound(soc.cores, width,
                                              scheduler->reconfig_cost());
    }
    double area = 0.0;
    double pass_area = 0.0;
    {
      const Scope sp(log, "explore.area", item, parent);
      area = explore::DesignSpaceExplorer::bus_area_ge(soc.cores, width);
      pass_area =
          explore::DesignSpaceExplorer::bus_pass_transistor_ge(soc.cores, width);
    }
    for (const sched::Strategy strategy : config.strategies) {
      explore::ExplorePoint pt;
      pt.width = width;
      pt.strategy = strategy;
      pt.bus_area_ge = area;
      pt.pass_transistor_ge = pass_area;
      pt.lower_bound = global_lb;
      const auto t0 = Clock::now();
      if (strategy == sched::Strategy::BranchBound) {
        explore::BranchBoundResult bb;
        {
          const Scope sp(log, "explore.bb", item, parent);
          bb = explore::BranchBoundScheduler(*scheduler, config.branch_bound)
                   .run();
        }
        pt.test_cycles = bb.best_cost;
        pt.lower_bound = std::max(global_lb, bb.lower_bound);
        pt.proven_optimal = bb.optimal;
        out.bb.push_back(BbCall{bb.nodes_expanded, bb.prunes,
                                bb.leaves_priced,
                                seconds_between(t0, Clock::now())});
        if (lint_errors != nullptr)
          *lint_errors +=
              verify::lint_branch_bound(bb, soc.cores, width).error_count();
      } else {
        sched::Schedule schedule;
        {
          const Scope sp(log,
                         strategy == sched::Strategy::Greedy ? "sched.greedy"
                         : strategy == sched::Strategy::Phased
                             ? "sched.phased"
                             : "sched.other",
                         item, parent);
          schedule = scheduler->schedule_with(strategy);
        }
        pt.test_cycles = schedule.total_cycles;
        if (lint_errors != nullptr)
          *lint_errors +=
              verify::lint_schedule(schedule, soc.cores, width).error_count();
      }
      pt.schedule_seconds = seconds_between(t0, Clock::now());
      if (pt.lower_bound > 0 && pt.test_cycles > pt.lower_bound)
        pt.gap = static_cast<double>(pt.test_cycles) /
                     static_cast<double>(pt.lower_bound) -
                 1.0;
      out.points.push_back(pt);
    }
  }
  return out;
}

struct SocRecord {
  std::size_t item = 0;  ///< position in the SoC stream
  double latency_s = 0.0;
  std::vector<explore::ExplorePoint> points;
  std::vector<BbCall> bb;  ///< traced phases only
};

struct ExplorePhase {
  std::vector<SocRecord> socs;
  double rss_mb = 0.0;  ///< peak RSS when the first sweep returned
};

/// kExploreSlots closed-loop slots: each takes the next SoC of the stream
/// when its previous sweep returns, until the budget is spent and the
/// reference SoCs are taken.
ExplorePhase run_explore_phase(const std::vector<explore::GeneratedSoc>& socs,
                               const explore::ExploreConfig& config,
                               double budget_s,
                               std::vector<std::unique_ptr<SpanLog>>* logs) {
  ExplorePhase phase;
  std::atomic<std::size_t> next{0};
  std::mutex mu;
  std::exception_ptr failure;
  const auto deadline = after(Clock::now(), budget_s);
  auto slot = [&](std::size_t w) {
    try {
      SpanLog* log = logs != nullptr ? (*logs)[w].get() : nullptr;
      for (;;) {
        const std::size_t item = next.fetch_add(1);
        if (item >= kReferenceSocs && Clock::now() >= deadline) break;
        const explore::GeneratedSoc& soc = socs[item % socs.size()];
        SocRecord rec;
        rec.item = item;
        const auto t0 = Clock::now();
        if (log == nullptr) {
          rec.points = explore::DesignSpaceExplorer(soc).sweep(config).points;
        } else {
          const Scope root(log, "explore.soc", item);
          Decomposed d =
              sweep_decomposed(soc, config, log, item, root.id(), nullptr);
          rec.points = std::move(d.points);
          rec.bb = std::move(d.bb);
        }
        rec.latency_s = seconds_between(t0, Clock::now());
        const std::lock_guard<std::mutex> lock(mu);
        phase.socs.push_back(std::move(rec));
        if (phase.socs.size() == 1) phase.rss_mb = peak_rss_mb();
      }
    } catch (...) {
      const std::lock_guard<std::mutex> lock(mu);
      failure = std::current_exception();
    }
  };
  {
    std::vector<std::jthread> pool;  // joins on every exit from this block
    for (std::size_t w = 0; w < kExploreSlots; ++w) pool.emplace_back(slot, w);
  }
  if (failure) std::rethrow_exception(failure);
  std::sort(phase.socs.begin(), phase.socs.end(),
            [](const SocRecord& a, const SocRecord& b) {
              return a.item < b.item;
            });
  return phase;
}

struct ExploreCheck {
  std::size_t lint_errors = 0;
  std::size_t mismatches = 0;     ///< decomposed point != sweep point
  std::size_t lb_violations = 0;  ///< lower_bound > test_cycles
};

/// Re-derives every point of the first SoC of each profile through the
/// layer calls, lints every schedule, and compares with the sweep.
ExploreCheck check_explore(const std::vector<explore::GeneratedSoc>& socs,
                           const explore::ExploreConfig& config,
                           const ExplorePhase& measured) {
  std::vector<ExploreCheck> part(kProfileCount);
  std::mutex mu;
  std::exception_ptr failure;
  {
    std::vector<std::jthread> pool;  // joins on every exit from this block
    for (std::size_t k = 0; k < kProfileCount; ++k) {
      pool.emplace_back([&, k] {
        try {
          ExploreCheck& c = part[k];
          const Decomposed d =
              sweep_decomposed(socs[k], config, nullptr, k, 0, &c.lint_errors);
          const std::vector<explore::ExplorePoint>& swept =
              measured.socs.at(k).points;
          if (swept.size() != d.points.size()) ++c.mismatches;
          for (std::size_t i = 0; i < std::min(swept.size(), d.points.size());
               ++i) {
            const explore::ExplorePoint& a = swept[i];
            const explore::ExplorePoint& b = d.points[i];
            if (a.test_cycles != b.test_cycles ||
                a.lower_bound != b.lower_bound)
              ++c.mismatches;
          }
        } catch (...) {
          const std::lock_guard<std::mutex> lock(mu);
          failure = std::current_exception();
        }
      });
    }
  }
  if (failure) std::rethrow_exception(failure);
  ExploreCheck total;
  for (const ExploreCheck& c : part) {
    total.lint_errors += c.lint_errors;
    total.mismatches += c.mismatches;
  }
  for (const SocRecord& rec : measured.socs)
    for (const explore::ExplorePoint& p : rec.points)
      total.lb_violations += p.lower_bound > p.test_cycles ? 1 : 0;
  return total;
}

void emit_explore_phase(Json& j, const ExplorePhase& p) {
  j.open('{').key("socs").open('[');
  for (const SocRecord& rec : p.socs) {
    j.open('{').key("item").num(std::uint64_t{rec.item})
        .key("latency_s").num(rec.latency_s).key("points").open('[');
    for (const explore::ExplorePoint& pt : rec.points)
      // Field order is the POINT_FIELDS list in run.py.
      j.open('[')
          .num(std::uint64_t{pt.width})
          .str(sched::strategy_name(pt.strategy))
          .num(pt.test_cycles)
          .num(pt.lower_bound)
          .num(pt.gap)
          .num(pt.schedule_seconds)
          .close(']');
    j.close(']').key("bb").open('[');
    for (const BbCall& c : rec.bb)
      // Field order is the BB_FIELDS list in run.py.
      j.open('[').num(c.nodes).num(c.prunes).num(c.leaves).num(c.seconds)
          .close(']');
    j.close(']').close('}');
  }
  j.close(']').close('}');
}

std::string run_explore(std::uint64_t seed, double seconds,
                        std::vector<std::unique_ptr<SpanLog>>* logs) {
  const explore::ExploreConfig config = explore_config();
  // Set-up: generating the six SoCs, timed kSetupRepeats times, each on
  // the next CPU in rotation so that one slow CPU moves few of the timings.
  const explore::SocGenerator generator(seed);
  const std::vector<int> cpus = allowed_cpus();
  std::vector<explore::GeneratedSoc> socs;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    if (!cpus.empty()) pin_thread({cpus[rep % cpus.size()]});
    socs.clear();
    const auto t0 = Clock::now();
    for (std::size_t instance = 0; instance < kSocsPerProfile; ++instance)
      for (const explore::SocProfile profile : kProfiles)
        socs.push_back(generator.generate(kSocCores, profile, instance));
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  pin_thread(cpus);

  std::vector<ExplorePhase> phases;
  const double budget = logs != nullptr ? seconds / 2 : seconds;
  phases.push_back(run_explore_phase(socs, config, budget, nullptr));
  // Taken when the first sweep returns, after one sweep of each profile
  // ran side by side from the start: a fixed amount of work. Later sweeps
  // reuse fragmented allocator arenas, so RSS creeps up with every sweep
  // and a figure taken at the end would grow with throughput.
  const double rss = phases.front().rss_mb;
  if (logs != nullptr)
    phases.push_back(run_explore_phase(socs, config, budget, logs));

  const ExplorePhase& measured = phases.front();
  std::uint64_t test_cycles = 0;
  StableHash digest;
  for (std::size_t k = 0; k < kReferenceSocs; ++k) {
    std::uint64_t best = ~0ULL;
    for (const explore::ExplorePoint& p : measured.socs[k].points) {
      best = std::min(best, p.test_cycles);
      digest.mix(p.width).mix(sched::strategy_name(p.strategy))
          .mix(p.test_cycles).mix(p.lower_bound);
    }
    test_cycles += best;
  }
  const ExploreCheck check = check_explore(socs, config, measured);

  Json j;
  j.open('{').key("kind").str("explore").key("workers").num(
      std::uint64_t{kExploreSlots});
  j.key("soc_set").num(std::uint64_t{kReferenceSocs});
  j.key("setup_s").open('[');
  for (const double s : setup_s) j.num(s);
  j.close(']').key("peak_rss_mb").num(rss);
  j.key("test_cycles").num(test_cycles)
      .key("digest").str(hex64(digest.value()))
      .key("check").open('{')
      .key("lint_errors").num(std::uint64_t{check.lint_errors})
      .key("mismatches").num(std::uint64_t{check.mismatches})
      .key("lb_violations").num(std::uint64_t{check.lb_violations})
      .close('}');
  j.key("phases").open('[');
  for (const ExplorePhase& p : phases) emit_explore_phase(j, p);
  j.close(']').close('}');
  return j.text();
}

// --- main ----------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string trace_out;
};

Args parse(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") a.workload = value;
    else if (flag == "--seed") { a.seed = std::stoull(value); have_seed = true; }
    else if (flag == "--seconds") a.seconds = std::stod(value);
    else if (flag == "--trace") a.trace = value == "1";
    else if (flag == "--trace-out") a.trace_out = value;
    else throw std::invalid_argument("unknown flag " + flag);
  }
  if (argc % 2 != 1 || a.workload.empty() || !have_seed || a.seconds <= 0.0)
    throw std::invalid_argument(
        "usage: perfbench_driver --workload NAME --seed N --seconds S "
        "--trace 0|1 [--trace-out FILE]");
  if (a.trace && a.trace_out.empty())
    throw std::invalid_argument("--trace 1 needs --trace-out");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse(argc, argv);
    const auto epoch = Clock::now();
    std::vector<std::unique_ptr<SpanLog>> logs;
    const std::size_t threads =
        args.workload == "explore_1000" ? kExploreSlots : 1;
    if (args.trace)
      for (std::size_t t = 0; t < threads; ++t)
        logs.push_back(
            std::make_unique<SpanLog>(epoch, static_cast<std::uint32_t>(t)));

    std::string raw;
    if (args.workload == "explore_1000") {
      raw = run_explore(args.seed, args.seconds, args.trace ? &logs : nullptr);
    } else if (args.workload == "floor_requalify") {
      raw = run_floor(args.seed, args.seconds,
                      args.trace ? logs.front().get() : nullptr);
    } else {
      throw std::invalid_argument("unknown workload " + args.workload);
    }
    if (args.trace) {
      std::vector<const SpanLog*> view;
      for (const auto& l : logs) view.push_back(l.get());
      if (!write_chrome_trace(args.trace_out, view))
        throw std::runtime_error("cannot write " + args.trace_out);
    }
    std::cout << raw << '\n';
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << '\n';
    return 1;
  }
}
