// The health engine: time-series sampling over the registry, the
// hysteresis state machine, the HL001… rule catalogue over synthetic and
// real FloorStats, the flight recorder's atomic incident bundles, the
// session wiring (worker watchdog tripping on a real stalled-looking
// job), and the layer's acceptance bar — health monitoring on vs off
// cannot change a deterministic floor result.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "floor/health.hpp"
#include "floor/job_factory.hpp"
#include "floor/session.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"

namespace casbus::obs {
namespace {

// --- TimeSeriesSampler ------------------------------------------------------

TEST(TimeSeriesSampler, ManualTicksRecordCountersGaugesAndHistograms) {
  Registry registry;
  const MetricId jobs = registry.counter("t.jobs");
  registry.gauge("t.depth", [] { return 4.0; });
  const MetricId lat = registry.histogram("t.lat", {10.0, 100.0});

  TimeSeriesSampler sampler(registry, SamplerConfig{1000, 16});
  registry.add(jobs, 5);
  registry.observe(lat, 3.0);
  sampler.sample_now();
  registry.add(jobs, 7);
  registry.observe(lat, 50.0);
  sampler.sample_now();

  EXPECT_EQ(sampler.samples(), 2u);
  EXPECT_EQ(sampler.window_size(), 2u);
  EXPECT_DOUBLE_EQ(sampler.latest("t.jobs"), 12.0);
  EXPECT_DOUBLE_EQ(sampler.delta("t.jobs"), 7.0);
  EXPECT_DOUBLE_EQ(sampler.latest("t.depth"), 4.0);
  // Histograms derive three series.
  EXPECT_DOUBLE_EQ(sampler.latest("t.lat.count"), 2.0);
  EXPECT_DOUBLE_EQ(sampler.latest("t.lat.sum"), 53.0);
  EXPECT_GT(sampler.latest("t.lat.p99"), 0.0);
  const auto names = sampler.series_names();
  EXPECT_EQ(names.size(), 5u);  // counter + gauge + 3 histogram series
}

TEST(TimeSeriesSampler, RingDropsOldestPastTheWindow) {
  Registry registry;
  const MetricId c = registry.counter("t.c");
  TimeSeriesSampler sampler(registry, SamplerConfig{1000, 3});
  for (int i = 0; i < 5; ++i) {
    registry.add(c);
    sampler.sample_now();
  }
  EXPECT_EQ(sampler.samples(), 5u);
  EXPECT_EQ(sampler.window_size(), 3u);  // bounded, drop-oldest
  const auto window = sampler.window("t.c");
  ASSERT_EQ(window.size(), 3u);
  EXPECT_DOUBLE_EQ(window.front().second, 3.0);  // ticks 3,4,5 retained
  EXPECT_DOUBLE_EQ(window.back().second, 5.0);
  EXPECT_DOUBLE_EQ(sampler.delta("t.c"), 2.0);
}

TEST(TimeSeriesSampler, RatePerSecIsDeltaOverWallTime) {
  Registry registry;
  const MetricId c = registry.counter("t.c");
  TimeSeriesSampler sampler(registry, SamplerConfig{1000, 8});
  sampler.sample_now();
  registry.add(c, 100);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  sampler.sample_now();
  const double rate = sampler.rate_per_sec("t.c");
  EXPECT_GT(rate, 0.0);
  EXPECT_LT(rate, 100.0 / 0.015);  // at least ~15 ms elapsed
  // Degenerate cases report 0, never NaN.
  EXPECT_DOUBLE_EQ(sampler.rate_per_sec("absent"), 0.0);
  EXPECT_DOUBLE_EQ(sampler.delta("absent"), 0.0);
}

TEST(TimeSeriesSampler, LateRegisteredSeriesBackfillsWithZeros) {
  Registry registry;
  (void)registry.counter("t.first");
  TimeSeriesSampler sampler(registry, SamplerConfig{1000, 8});
  sampler.sample_now();
  const MetricId late = registry.counter("t.late");
  registry.add(late, 9);
  sampler.sample_now();
  const auto window = sampler.window("t.late");
  ASSERT_EQ(window.size(), 2u);
  EXPECT_DOUBLE_EQ(window[0].second, 0.0);  // backfilled
  EXPECT_DOUBLE_EQ(window[1].second, 9.0);
}

TEST(TimeSeriesSampler, WindowJsonIsParseableShape) {
  Registry registry;
  const MetricId c = registry.counter("t.c");
  TimeSeriesSampler sampler(registry, SamplerConfig{250, 4});
  registry.add(c, 2);
  sampler.sample_now();
  sampler.sample_now();
  const std::string json = sampler.window_json();
  EXPECT_EQ(json.find("{\"samples\":2,\"interval_ms\":250,\"t\":["), 0u);
  EXPECT_NE(json.find("\"series\":{\"t.c\":[2,2]}"), std::string::npos);
  EXPECT_EQ(json.back(), '}');
}

TEST(TimeSeriesSampler, BackgroundThreadTicksAndStops) {
  Registry registry;
  (void)registry.counter("t.c");
  TimeSeriesSampler sampler(registry, SamplerConfig{2, 64});
  std::atomic<int> callbacks{0};
  sampler.start([&] { callbacks.fetch_add(1); });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (sampler.samples() < 3 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  sampler.stop();
  EXPECT_GE(sampler.samples(), 3u);
  EXPECT_GE(callbacks.load(), 1);
  const std::uint64_t after_stop = sampler.samples();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(sampler.samples(), after_stop);  // really stopped
  sampler.stop();  // idempotent
}

}  // namespace
}  // namespace casbus::obs

namespace casbus::floor {
namespace {

// --- Hysteresis -------------------------------------------------------------

TEST(Hysteresis, TripsOnMOfNSamplesNotOnOne) {
  Hysteresis h(HysteresisConfig{3, 5, 5});
  // A lone critical sample (a flap) must not trip.
  EXPECT_EQ(h.update(HealthLevel::kCritical), HealthLevel::kOk);
  EXPECT_EQ(h.update(HealthLevel::kOk), HealthLevel::kOk);
  EXPECT_EQ(h.update(HealthLevel::kCritical), HealthLevel::kOk);
  // The third critical within the 5-sample window trips.
  EXPECT_EQ(h.update(HealthLevel::kCritical), HealthLevel::kCritical);
}

TEST(Hysteresis, ClearsOneLevelAfterKConsecutiveCalmSamples) {
  Hysteresis h(HysteresisConfig{2, 3, 3});
  (void)h.update(HealthLevel::kCritical);
  ASSERT_EQ(h.update(HealthLevel::kCritical), HealthLevel::kCritical);
  // Two calm samples are not enough; a relapse resets the calm count.
  EXPECT_EQ(h.update(HealthLevel::kOk), HealthLevel::kCritical);
  EXPECT_EQ(h.update(HealthLevel::kOk), HealthLevel::kCritical);
  EXPECT_EQ(h.update(HealthLevel::kCritical), HealthLevel::kCritical);
  // Three consecutive calms step down one level only (critical -> warn).
  (void)h.update(HealthLevel::kOk);
  (void)h.update(HealthLevel::kOk);
  EXPECT_EQ(h.update(HealthLevel::kOk), HealthLevel::kWarn);
  // Three more reach ok.
  (void)h.update(HealthLevel::kOk);
  (void)h.update(HealthLevel::kOk);
  EXPECT_EQ(h.update(HealthLevel::kOk), HealthLevel::kOk);
}

TEST(Hysteresis, WarnSamplesNeverReachCritical) {
  Hysteresis h(HysteresisConfig{2, 4, 2});
  for (int i = 0; i < 8; ++i) {
    const HealthLevel s = h.update(HealthLevel::kWarn);
    EXPECT_NE(s, HealthLevel::kCritical);
  }
  EXPECT_EQ(h.state(), HealthLevel::kWarn);
}

// --- Rule catalogue ids -----------------------------------------------------

TEST(HealthRules, IdsAreStableAndDense) {
  EXPECT_STREQ(health_rule_id(HealthRule::kQueueSaturation), "HL001");
  EXPECT_STREQ(health_rule_id(HealthRule::kBackpressure), "HL002");
  EXPECT_STREQ(health_rule_id(HealthRule::kStageLatency), "HL003");
  EXPECT_STREQ(health_rule_id(HealthRule::kErrorRate), "HL004");
  EXPECT_STREQ(health_rule_id(HealthRule::kCacheHitRate), "HL005");
  EXPECT_STREQ(health_rule_id(HealthRule::kWorkerWatchdog), "HL006");
  EXPECT_STREQ(health_rule_id(HealthRule::kTraceDrops), "HL007");
  EXPECT_STREQ(health_rule_name(HealthRule::kWorkerWatchdog),
               "worker-watchdog");
  EXPECT_STREQ(health_level_name(HealthLevel::kCritical), "critical");
}

// --- HealthMonitor over synthetic FloorStats --------------------------------

HealthConfig fast_config() {
  HealthConfig config;
  config.enabled = true;
  config.hysteresis = HysteresisConfig{1, 1, 1};  // instant trip/clear
  return config;
}

TEST(HealthMonitor, QueueSaturationGradesByFillRatio) {
  HealthMonitor monitor(fast_config());
  FloorStats stats;
  stats.queue.capacity = 10;

  stats.queue.depth = 5;  // 50% — fine
  HealthReport r = monitor.evaluate(stats, 0.1);
  EXPECT_EQ(r.rule(HealthRule::kQueueSaturation).raw, HealthLevel::kOk);

  stats.queue.depth = 8;  // 80% — warn
  r = monitor.evaluate(stats, 0.2);
  EXPECT_EQ(r.rule(HealthRule::kQueueSaturation).raw, HealthLevel::kWarn);

  stats.queue.depth = 10;  // 100% — critical
  r = monitor.evaluate(stats, 0.3);
  const RuleStatus& st = r.rule(HealthRule::kQueueSaturation);
  EXPECT_EQ(st.raw, HealthLevel::kCritical);
  EXPECT_EQ(st.level, HealthLevel::kCritical);
  EXPECT_DOUBLE_EQ(st.value, 1.0);
  EXPECT_NE(st.message.find("queue 10/10"), std::string::npos);
  EXPECT_EQ(r.overall, HealthLevel::kCritical);
}

TEST(HealthMonitor, QueueRuleDisabledWhenUnbounded) {
  HealthMonitor monitor(fast_config());
  FloorStats stats;  // capacity 0 = unbounded
  stats.queue.depth = 1000000;
  const HealthReport r = monitor.evaluate(stats, 0.1);
  EXPECT_FALSE(r.rule(HealthRule::kQueueSaturation).enabled);
  EXPECT_EQ(r.rule(HealthRule::kQueueSaturation).level, HealthLevel::kOk);
}

TEST(HealthMonitor, ErrorRateIsWindowedAndIdleBelowMinJobs) {
  HealthMonitor monitor(fast_config());
  FloorStats stats;
  stats.completed = 100;
  stats.errored = 0;
  HealthReport r = monitor.evaluate(stats, 1.0);
  EXPECT_EQ(r.rule(HealthRule::kErrorRate).raw, HealthLevel::kOk);

  // Only 2 more jobs (below error_min_jobs=4): idle, even though both
  // errored — a windowed rule must not judge a near-empty window.
  stats.completed = 102;
  stats.errored = 2;
  r = monitor.evaluate(stats, 2.0);
  EXPECT_EQ(r.rule(HealthRule::kErrorRate).raw, HealthLevel::kOk);

  // 60% of the windowed jobs errored: critical (>= 50%). The *lifetime*
  // error rate is only ~6% — the window is what catches a sudden break.
  stats.completed = 110;
  stats.errored = 6;
  r = monitor.evaluate(stats, 3.0);
  const RuleStatus& st = r.rule(HealthRule::kErrorRate);
  EXPECT_EQ(st.raw, HealthLevel::kCritical);
  EXPECT_NEAR(st.value, 0.6, 1e-9);
}

TEST(HealthMonitor, WatchdogTripsOnInFlightAge) {
  HealthConfig config = fast_config();
  config.watchdog_ms = 10;
  HealthMonitor monitor(config);
  FloorStats stats;
  stats.worker_inflight_age_seconds = {0.0, 0.006};  // 6 ms: warn (> 5 ms)
  HealthReport r = monitor.evaluate(stats, 0.1);
  EXPECT_EQ(r.rule(HealthRule::kWorkerWatchdog).raw, HealthLevel::kWarn);

  stats.worker_inflight_age_seconds = {0.0, 0.5};  // 500 ms: critical
  r = monitor.evaluate(stats, 0.2);
  const RuleStatus& st = r.rule(HealthRule::kWorkerWatchdog);
  EXPECT_EQ(st.raw, HealthLevel::kCritical);
  EXPECT_NE(st.message.find("worker 1"), std::string::npos);
}

TEST(HealthMonitor, WatchdogDisabledWithoutDeadline) {
  HealthMonitor monitor(fast_config());  // watchdog_ms = 0
  FloorStats stats;
  stats.worker_inflight_age_seconds = {100.0};
  const HealthReport r = monitor.evaluate(stats, 0.1);
  EXPECT_FALSE(r.rule(HealthRule::kWorkerWatchdog).enabled);
  EXPECT_EQ(r.rule(HealthRule::kWorkerWatchdog).level, HealthLevel::kOk);
}

TEST(HealthMonitor, CacheHitRateFloorAndStageCeilingJudgeMetrics) {
  HealthConfig config = fast_config();
  config.cache_hit_floor = 0.5;
  config.cache_min_lookups = 10;
  config.stage_p99_ceiling_us[static_cast<std::size_t>(Stage::Simulate)] =
      100.0;
  HealthMonitor monitor(config);

  FloorStats stats;
  stats.metrics_enabled = true;
  stats.counter(FloorCounter::CacheLookups) = 0;
  HealthReport r = monitor.evaluate(stats, 1.0);
  EXPECT_EQ(r.rule(HealthRule::kCacheHitRate).raw, HealthLevel::kOk);

  // 10% windowed hit-rate under a 50% floor (and under half of it).
  stats.counter(FloorCounter::CacheLookups) = 100;
  stats.counter(FloorCounter::CacheVerdictHits) = 10;
  // Simulate p99 at 2x its ceiling: critical.
  auto& sim = stats.stages[static_cast<std::size_t>(Stage::Simulate)];
  sim.count = 50;
  sim.p99_us = 250.0;
  r = monitor.evaluate(stats, 2.0);
  EXPECT_EQ(r.rule(HealthRule::kCacheHitRate).raw, HealthLevel::kCritical);
  EXPECT_EQ(r.rule(HealthRule::kStageLatency).raw, HealthLevel::kCritical);
  EXPECT_NE(r.rule(HealthRule::kStageLatency).message.find("simulate"),
            std::string::npos);
}

TEST(HealthMonitor, TraceDropsWarnOnWindowedDelta) {
  HealthMonitor monitor(fast_config());
  FloorStats stats;
  stats.trace_dropped = 40;  // pre-existing drops: no *windowed* delta yet
  HealthReport r = monitor.evaluate(stats, 1.0);
  EXPECT_EQ(r.rule(HealthRule::kTraceDrops).raw, HealthLevel::kOk);
  stats.trace_dropped = 45;
  r = monitor.evaluate(stats, 2.0);
  EXPECT_EQ(r.rule(HealthRule::kTraceDrops).raw, HealthLevel::kWarn);
  stats.trace_dropped = 45;  // window slides past the burst eventually
  for (int i = 0; i < 10; ++i) r = monitor.evaluate(stats, 3.0 + i);
  EXPECT_EQ(r.rule(HealthRule::kTraceDrops).raw, HealthLevel::kOk);
}

TEST(HealthMonitor, TransitionsAppendEventsAndReportsSerialize) {
  HealthConfig config = fast_config();
  config.watchdog_ms = 10;
  HealthMonitor monitor(config);
  FloorStats stats;
  (void)monitor.evaluate(stats, 0.1);
  stats.worker_inflight_age_seconds = {1.0};
  HealthReport r = monitor.evaluate(stats, 0.2);
  ASSERT_EQ(r.events.size(), 1u);
  EXPECT_EQ(r.events[0].rule, HealthRule::kWorkerWatchdog);
  EXPECT_EQ(r.events[0].from, HealthLevel::kOk);
  EXPECT_EQ(r.events[0].to, HealthLevel::kCritical);
  // Clearing steps down one level at a time: critical -> warn -> ok.
  stats.worker_inflight_age_seconds = {0.0};
  r = monitor.evaluate(stats, 0.3);
  ASSERT_EQ(r.events.size(), 2u);  // the log carries forward
  EXPECT_EQ(r.events[1].to, HealthLevel::kWarn);
  r = monitor.evaluate(stats, 0.4);
  ASSERT_EQ(r.events.size(), 3u);
  EXPECT_EQ(r.events[2].to, HealthLevel::kOk);

  const std::string json = r.to_json();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"overall\":\"ok\""), std::string::npos);
  EXPECT_NE(json.find("\"id\":\"HL006\""), std::string::npos);
  EXPECT_NE(json.find("\"events\":[{"), std::string::npos);
  EXPECT_EQ(json.find('\n'), std::string::npos);  // one line

  const std::string text = monitor.last_report().to_string();
  EXPECT_EQ(text.find("health: ok"), 0u);
}

// --- Flight recorder --------------------------------------------------------

TEST(FlightRecorder, WritesACompleteAtomicBundle) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(::testing::TempDir()) / "casbus_incidents";
  fs::remove_all(dir);

  obs::TraceRecorder trace(8);
  trace.record(obs::TraceSpan{"span", "stage", nullptr, nullptr, 0, 0, 1, 2});
  IncidentInputs inputs;
  inputs.rule_id = "HL006";
  inputs.t_seconds = 1.25;
  inputs.stats_json = "{\"completed\":3}";
  inputs.health_json = "{\"overall\":\"critical\"}";
  inputs.timeseries_json = "{\"samples\":0}";
  inputs.trace = &trace;

  std::string path;
  ASSERT_TRUE(write_incident_bundle(dir.string(), 0, inputs, &path));
  const fs::path bundle(path);
  EXPECT_EQ(bundle.filename().string(), "incident_0000_HL006");
  for (const char* name :
       {"MANIFEST.json", "stats.json", "health.json", "timeseries.json",
        "trace.json"}) {
    EXPECT_TRUE(fs::is_regular_file(bundle / name)) << name;
  }
  // No half-written temp directory left behind.
  for (const auto& entry : fs::directory_iterator(dir)) {
    EXPECT_NE(entry.path().filename().string().find("incident_"),
              std::string::npos);
  }
  std::ifstream manifest(bundle / "MANIFEST.json");
  std::stringstream body;
  body << manifest.rdbuf();
  EXPECT_NE(body.str().find("\"rule\":\"HL006\""), std::string::npos);
  EXPECT_NE(body.str().find("\"seq\":0"), std::string::npos);
  fs::remove_all(dir);
}

TEST(FlightRecorder, FailsCleanlyOnUnwritableDir) {
  IncidentInputs inputs;
  inputs.rule_id = "HL001";
  EXPECT_FALSE(write_incident_bundle(
      "/proc/definitely/not/writable/here", 0, inputs));
}

// --- Session wiring ---------------------------------------------------------

std::vector<JobSpec> slow_batch(std::uint64_t seed, std::size_t count,
                                std::size_t patterns_per_ff) {
  const JobFactory factory(seed);
  std::vector<JobSpec> jobs;
  for (std::size_t i = 0; i < count; ++i) {
    jobs.push_back(factory.make_job(i));
    jobs.back().patterns_per_ff = patterns_per_ff;
  }
  return jobs;
}

/// Health config for session tests: instant hysteresis, and a background
/// interval long enough that only forced health_report() ticks happen —
/// the test controls every hysteresis sample.
HealthConfig session_health(std::size_t watchdog_ms) {
  HealthConfig config;
  config.enabled = true;
  config.interval_ms = 60000;
  config.hysteresis = HysteresisConfig{1, 1, 1};
  config.watchdog_ms = watchdog_ms;
  return config;
}

TEST(SessionHealth, ReportIsDefaultWhenHealthOff) {
  FloorSession session(FloorConfig{});
  EXPECT_EQ(session.sampler(), nullptr);
  const HealthReport r = session.health_report();
  EXPECT_EQ(r.samples, 0u);
  EXPECT_EQ(r.overall, HealthLevel::kOk);
  (void)session.drain();
}

TEST(SessionHealth, HealthImpliesMetricsAndForcedTicksCount) {
  FloorConfig config;
  config.workers = 1;
  config.health = session_health(0);
  FloorSession session(config);
  EXPECT_NE(session.registry(), nullptr);  // health implies metrics
  ASSERT_NE(session.sampler(), nullptr);
  const HealthReport r1 = session.health_report();
  const HealthReport r2 = session.health_report();
  EXPECT_GT(r1.samples, 0u);
  EXPECT_EQ(r2.samples, r1.samples + 1);
  (void)session.drain();
  // health_report stays usable after drain (rules judge an idle floor).
  EXPECT_EQ(session.health_report().overall, HealthLevel::kOk);
}

TEST(SessionHealth, WatchdogTripsOnSlowJobThenClearsAfterDrain) {
  FloorConfig config;
  config.workers = 1;
  config.health = session_health(1);  // 1 ms deadline, jobs take 10s of ms
  FloorSession session(config);
  const auto jobs = slow_batch(91, 6, 6);
  for (const JobSpec& spec : jobs) ASSERT_TRUE(session.submit(spec));

  // Poll while the floor runs: some forced tick must land >1 ms into a
  // job (each takes tens of ms), tripping HL006 with 1-sample hysteresis.
  bool tripped = false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (!tripped && std::chrono::steady_clock::now() < deadline &&
         session.completed() < jobs.size()) {
    tripped = session.health_report().rule(HealthRule::kWorkerWatchdog)
                  .level == HealthLevel::kCritical;
  }
  EXPECT_TRUE(tripped) << "watchdog never saw an in-flight job older than "
                          "1 ms across six multi-ms jobs";
  (void)session.drain();

  // Idle floor: one calm forced tick per step walks it back to ok.
  HealthReport report = session.health_report();
  for (int i = 0; i < 4 && report.overall != HealthLevel::kOk; ++i)
    report = session.health_report();
  EXPECT_EQ(report.rule(HealthRule::kWorkerWatchdog).level,
            HealthLevel::kOk);
  // The trip is in the transition log with its stable id semantics.
  bool saw_critical_event = false;
  for (const HealthEvent& ev : report.events)
    saw_critical_event = saw_critical_event ||
                         (ev.rule == HealthRule::kWorkerWatchdog &&
                          ev.to == HealthLevel::kCritical);
  EXPECT_TRUE(saw_critical_event);
}

TEST(SessionHealth, CriticalTransitionWritesIncidentBundle) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(::testing::TempDir()) / "casbus_session_inc";
  fs::remove_all(dir);

  FloorConfig config;
  config.workers = 1;
  config.trace_capacity = 256;
  config.health = session_health(1);
  config.health.incident_dir = dir.string();
  FloorSession session(config);
  const auto jobs = slow_batch(92, 6, 6);
  for (const JobSpec& spec : jobs) ASSERT_TRUE(session.submit(spec));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (session.health_report().incidents_written == 0 &&
         std::chrono::steady_clock::now() < deadline &&
         session.completed() < jobs.size()) {
  }
  (void)session.drain();

  const HealthReport report = session.health_report();
  ASSERT_GT(report.incidents_written, 0u);
  std::size_t bundles = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    ++bundles;
    EXPECT_EQ(entry.path().filename().string().find("incident_"), 0u);
    for (const char* name : {"MANIFEST.json", "stats.json", "health.json",
                             "timeseries.json", "trace.json"}) {
      EXPECT_TRUE(fs::is_regular_file(entry.path() / name))
          << entry.path() << '/' << name;
    }
  }
  EXPECT_EQ(bundles, report.incidents_written);
  EXPECT_LE(bundles, config.health.max_incidents);
  fs::remove_all(dir);
}

TEST(SessionHealth, StatsJsonCarriesTheNewWatchdogAndQueueFields) {
  FloorConfig config;
  config.workers = 2;
  config.queue_capacity = 8;
  FloorSession session(config);
  (void)session.drain();
  const FloorStats stats = session.stats_snapshot();
  EXPECT_EQ(stats.queue.capacity, 8u);
  EXPECT_EQ(stats.worker_inflight_age_seconds.size(), 2u);
  EXPECT_EQ(stats.worker_heartbeats.size(), 2u);
  const std::string json = stats.to_json();
  EXPECT_NE(json.find("\"elapsed_seconds\":"), std::string::npos);
  EXPECT_NE(json.find("\"workers\":2"), std::string::npos);
  EXPECT_NE(json.find("\"capacity\":8"), std::string::npos);
  EXPECT_NE(json.find("\"worker_inflight_age_seconds\":["),
            std::string::npos);
  EXPECT_NE(json.find("\"worker_heartbeats\":["), std::string::npos);
}

// --- The determinism contract (the layer's acceptance bar) ------------------

TEST(SessionHealth, DeterministicSummaryIdenticalWithHealthOnOrOff) {
  const auto jobs = slow_batch(93, 8, 1);
  FloorConfig off;
  off.workers = 1;
  std::string reference;
  {
    FloorSession session(off);
    for (const JobSpec& spec : jobs) ASSERT_TRUE(session.submit(spec));
    reference = session.drain().deterministic_summary();
  }

  for (std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    FloorConfig on;
    on.workers = workers;
    on.trace_capacity = 256;
    on.health = session_health(1);   // watchdog armed, sampling fast
    on.health.interval_ms = 1;       // hammer the sampler while running
    FloorSession session(on);
    for (const JobSpec& spec : jobs) ASSERT_TRUE(session.submit(spec));
    while (session.completed() < jobs.size())
      (void)session.health_report();  // forced ticks during execution too
    EXPECT_EQ(session.drain().deterministic_summary(), reference)
        << "health monitoring changed a deterministic result at workers="
        << workers;
  }
}

}  // namespace
}  // namespace casbus::floor
