// The test-floor service: queue draining, worker-count edge cases,
// per-scenario aggregation, and the floor's headline determinism
// guarantee — a fixed seed yields byte-identical deterministic aggregates
// for 1 worker and N workers.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <set>
#include <thread>

#include "floor/job_factory.hpp"
#include "floor/job_queue.hpp"
#include "floor/report.hpp"
#include "floor/session.hpp"
#include "util/rng.hpp"

namespace casbus::floor {
namespace {

// --- JobQueue ---------------------------------------------------------------

TEST(JobQueue, FifoOrderAndCloseSemantics) {
  JobQueue queue;
  for (std::size_t i = 0; i < 4; ++i) {
    JobSpec spec;
    spec.id = 100 + i;
    EXPECT_TRUE(queue.push(spec));
  }
  EXPECT_EQ(queue.size(), 4u);
  EXPECT_EQ(queue.pushed(), 4u);
  EXPECT_FALSE(queue.closed());
  queue.close();
  EXPECT_TRUE(queue.closed());

  for (std::size_t i = 0; i < 4; ++i) {
    const auto job = queue.pop();
    ASSERT_TRUE(job.has_value());
    EXPECT_EQ(job->slot, i);
    EXPECT_EQ(job->spec.id, 100 + i);
  }
  EXPECT_FALSE(queue.pop().has_value());  // drained + closed
  // Push after close is a graceful rejection (streaming producers may
  // race close()), never a crash or an exception.
  EXPECT_FALSE(queue.push(JobSpec{}));
  EXPECT_FALSE(queue.try_push(JobSpec{}));
  EXPECT_EQ(queue.pushed(), 4u);
}

TEST(JobQueue, ConcurrentDrainDeliversEachJobExactlyOnce) {
  constexpr std::size_t kJobs = 64;
  JobQueue queue;
  for (std::size_t i = 0; i < kJobs; ++i) {
    JobSpec spec;
    spec.id = i;
    spec.seed = i;
    EXPECT_TRUE(queue.push(spec));
  }
  queue.close();

  std::mutex mu;
  std::set<std::size_t> seen;
  std::vector<std::thread> poppers;
  for (std::size_t t = 0; t < 4; ++t) {
    poppers.emplace_back([&queue, &mu, &seen] {
      while (const auto job = queue.pop()) {
        const std::lock_guard<std::mutex> lock(mu);
        EXPECT_TRUE(seen.insert(job->slot).second)
            << "slot " << job->slot << " delivered twice";
      }
    });
  }
  for (auto& t : poppers) t.join();
  EXPECT_EQ(seen.size(), kJobs);
  EXPECT_EQ(queue.size(), 0u);
}

TEST(JobQueue, BoundedCapacityBackpressure) {
  JobQueue queue(/*capacity=*/2);
  EXPECT_EQ(queue.capacity(), 2u);
  EXPECT_TRUE(queue.try_push(JobSpec{}));
  EXPECT_TRUE(queue.try_push(JobSpec{}));
  EXPECT_FALSE(queue.try_push(JobSpec{}));  // full: refused, not blocked

  // A blocking push parks until a pop frees a slot, then lands.
  std::thread producer([&queue] {
    JobSpec spec;
    spec.id = 42;
    EXPECT_TRUE(queue.push(spec));
  });
  EXPECT_TRUE(queue.pop().has_value());  // releases the producer
  producer.join();
  EXPECT_EQ(queue.pushed(), 3u);

  // The released push really is in the queue.
  std::size_t drained = 0;
  queue.close();
  while (queue.pop().has_value()) ++drained;
  EXPECT_EQ(drained, 2u);
}

TEST(JobQueue, CloseUnblocksBlockedProducersAndPoppers) {
  // Phase 1: a producer parked on the capacity bound. With no popper to
  // free a slot, its push can only finish via close() — and must come
  // back as a graceful rejection, not a crash.
  JobQueue full(/*capacity=*/1);
  EXPECT_TRUE(full.push(JobSpec{}));  // queue now full
  std::thread producer([&full] { EXPECT_FALSE(full.push(JobSpec{})); });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  full.close();
  producer.join();
  EXPECT_EQ(full.pushed(), 1u);

  // Phase 2: poppers parked on an open-but-empty queue; a concurrent
  // close must wake every one with the shutdown signal.
  JobQueue empty;
  std::atomic<int> null_pops{0};
  std::vector<std::thread> poppers;
  for (std::size_t t = 0; t < 2; ++t)
    poppers.emplace_back([&empty, &null_pops] {
      EXPECT_FALSE(empty.pop().has_value());
      ++null_pops;
    });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  empty.close();
  for (auto& t : poppers) t.join();
  EXPECT_EQ(null_pops.load(), 2);
}

TEST(JobQueue, ManyPoppersRaceDeliversExactlyOnce) {
  // Hammer the one deque: a producer throttled by backpressure while four
  // poppers race to drain it; every slot must come out exactly once.
  constexpr std::size_t kJobs = 256;
  JobQueue queue(/*capacity=*/16);
  std::thread producer([&queue] {
    JobSpec spec;
    for (std::size_t i = 0; i < kJobs; ++i) {
      spec.id = i;
      EXPECT_TRUE(queue.push(spec));  // backpressure throttles us
    }
    queue.close();
  });

  std::mutex mu;
  std::set<std::size_t> seen;
  std::vector<std::thread> poppers;
  for (std::size_t t = 0; t < 4; ++t) {
    poppers.emplace_back([&queue, &mu, &seen] {
      while (const auto job = queue.pop()) {
        const std::lock_guard<std::mutex> lock(mu);
        EXPECT_TRUE(seen.insert(job->slot).second)
            << "slot " << job->slot << " delivered twice";
      }
    });
  }
  producer.join();
  for (auto& t : poppers) t.join();
  EXPECT_EQ(seen.size(), kJobs);
  EXPECT_EQ(queue.size(), 0u);
}

// --- JobFactory -------------------------------------------------------------

TEST(JobFactory, JobsAreDeterministicAndBatchSizeIndependent) {
  const JobFactory factory(1234);
  const auto batch = factory.make_jobs(10);
  ASSERT_EQ(batch.size(), 10u);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const JobSpec lone = factory.make_job(i);
    EXPECT_EQ(batch[i].id, i);
    EXPECT_EQ(lone.seed, batch[i].seed);
    EXPECT_EQ(lone.scenario, batch[i].scenario);
    EXPECT_EQ(lone.strategy, batch[i].strategy);
    EXPECT_EQ(lone.cores, batch[i].cores);
    EXPECT_EQ(lone.bus_width, batch[i].bus_width);
  }
  // A different floor seed must describe different jobs.
  const JobFactory other(1235);
  bool any_difference = false;
  for (std::size_t i = 0; i < batch.size(); ++i)
    any_difference |= other.make_job(i).seed != batch[i].seed;
  EXPECT_TRUE(any_difference);
}

TEST(JobFactory, MixWeightsAreRespected) {
  ScenarioMix scan_only;
  scan_only.weight = {1, 0, 0, 0};
  const JobFactory factory(7, scan_only);
  for (const JobSpec& job : factory.make_jobs(16))
    EXPECT_EQ(job.scenario, ScenarioKind::ScanOnly);
}

TEST(JobFactory, ParseScenarioMix) {
  const ScenarioMix mix = parse_scenario_mix("scan:4,bist:2,hier:1,maint:3");
  EXPECT_EQ(mix.weight[static_cast<std::size_t>(ScenarioKind::ScanOnly)], 4u);
  EXPECT_EQ(mix.weight[static_cast<std::size_t>(ScenarioKind::BistJoin)], 2u);
  EXPECT_EQ(
      mix.weight[static_cast<std::size_t>(ScenarioKind::Hierarchical)], 1u);
  EXPECT_EQ(
      mix.weight[static_cast<std::size_t>(ScenarioKind::Maintenance)], 3u);

  const ScenarioMix partial = parse_scenario_mix("hier:2");
  EXPECT_EQ(partial.total(), 2u);

  EXPECT_THROW((void)parse_scenario_mix("warp:1"), PreconditionError);
  EXPECT_THROW((void)parse_scenario_mix("scan"), PreconditionError);
  EXPECT_THROW((void)parse_scenario_mix("scan:x"), PreconditionError);
  EXPECT_THROW((void)parse_scenario_mix("scan:0"), PreconditionError);
  // Oversized weights must hit the documented PreconditionError, not
  // silently truncate through unsigned conversion or leak std::stoul's
  // out_of_range.
  EXPECT_THROW((void)parse_scenario_mix("scan:4294967297"),
               PreconditionError);
  EXPECT_THROW((void)parse_scenario_mix("scan:99999999999999999999"),
               PreconditionError);
}

TEST(JobFactory, ScenarioNamesRoundTrip) {
  for (std::size_t k = 0; k < kScenarioCount; ++k) {
    const auto kind = static_cast<ScenarioKind>(k);
    EXPECT_EQ(scenario_from_name(scenario_name(kind)), kind);
  }
  EXPECT_THROW((void)scenario_from_name("nope"), PreconditionError);
}

TEST(JobFactory, StrategyNamesRoundTrip) {
  using sched::Strategy;
  for (const Strategy s :
       {Strategy::Single, Strategy::PerCore, Strategy::Greedy,
        Strategy::Phased, Strategy::Best, Strategy::Exact,
        Strategy::BranchBound}) {
    EXPECT_EQ(sched::strategy_from_name(sched::strategy_name(s)), s);
  }
  EXPECT_THROW((void)sched::strategy_from_name("random"),
               PreconditionError);
}

// --- run_job ----------------------------------------------------------------

TEST(RunJob, EveryScenarioPassesAndIsDeterministic) {
  for (std::size_t k = 0; k < kScenarioCount; ++k) {
    JobSpec spec;
    spec.id = k;
    spec.scenario = static_cast<ScenarioKind>(k);
    spec.seed = Rng::derive_stream(42, k);
    spec.cores = 3;
    spec.bus_width = 4;

    const JobResult a = run_job(spec);
    const JobResult b = run_job(spec);
    EXPECT_TRUE(a.error.empty()) << scenario_name(spec.scenario) << ": "
                                 << a.error;
    EXPECT_TRUE(a.pass) << scenario_name(spec.scenario);
    EXPECT_GT(a.cores, 0u) << scenario_name(spec.scenario);
    EXPECT_GT(a.sim_cycles, 0u) << scenario_name(spec.scenario);

    // Re-running the same spec (possibly on another thread) must reproduce
    // every deterministic field bit-for-bit.
    EXPECT_EQ(a.pass, b.pass);
    EXPECT_EQ(a.cores, b.cores);
    EXPECT_EQ(a.sessions, b.sessions);
    EXPECT_EQ(a.patterns, b.patterns);
    EXPECT_EQ(a.predicted_cycles, b.predicted_cycles);
    EXPECT_EQ(a.measured_cycles, b.measured_cycles);
    EXPECT_EQ(a.sim_cycles, b.sim_cycles);
  }
}

TEST(RunJob, InvalidSpecBecomesErrorResultNotException) {
  JobSpec spec;
  spec.bus_width = 1;  // documented minimum is 2
  const JobResult result = run_job(spec);
  EXPECT_FALSE(result.pass);
  EXPECT_FALSE(result.error.empty());
}

// --- FloorSession over a whole batch ---------------------------------------

/// Opens a session of \p config, submits \p jobs in one batch, and drains.
FloorReport run_batch(const FloorConfig& config,
                      const std::vector<JobSpec>& jobs) {
  FloorSession session(config);
  EXPECT_EQ(session.submit_batch(jobs), jobs.size());
  return session.drain();
}

TEST(FloorBatch, DrainsEveryJobExactlyOnceInInputOrder) {
  const JobFactory factory(99);
  const auto jobs = factory.make_jobs(9);
  const FloorReport report = run_batch(FloorConfig{3}, jobs);

  ASSERT_EQ(report.results.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(report.results[i].id, jobs[i].id);
    EXPECT_EQ(report.results[i].scenario, jobs[i].scenario);
    EXPECT_TRUE(report.results[i].error.empty())
        << "job " << i << ": " << report.results[i].error;
  }
  EXPECT_EQ(report.total.jobs, jobs.size());
  EXPECT_TRUE(report.all_pass());
  EXPECT_GT(report.total.sim_cycles, 0u);
}

TEST(FloorBatch, WorkerCountEdgeCases) {
  // 0 = auto-detect, clamped to at least one worker.
  EXPECT_GE(FloorSession(FloorConfig{0}).workers(), 1u);
  EXPECT_EQ(FloorSession(FloorConfig{1}).workers(), 1u);

  const JobFactory factory(5);
  const auto jobs = factory.make_jobs(3);

  // More workers than jobs: every job still runs exactly once.
  const FloorReport many = run_batch(FloorConfig{16}, jobs);
  EXPECT_EQ(many.workers, 16u);
  EXPECT_EQ(many.total.jobs, 3u);
  EXPECT_TRUE(many.all_pass());

  // An empty batch drains to an empty report.
  const FloorReport empty = run_batch(FloorConfig{4}, {});
  EXPECT_EQ(empty.total.jobs, 0u);
  EXPECT_TRUE(empty.results.empty());
}

TEST(FloorBatch, PerScenarioAggregationIsExact) {
  // One single-scenario batch per kind; the scenario bucket must hold the
  // whole batch and every other bucket must stay empty.
  for (std::size_t k = 0; k < kScenarioCount; ++k) {
    ScenarioMix mix;
    mix.weight.fill(0);
    mix.weight[k] = 1;
    const JobFactory factory(11 + k, mix);
    const FloorReport report = run_batch(FloorConfig{2}, factory.make_jobs(4));

    EXPECT_EQ(report.scenario[k].jobs, 4u);
    EXPECT_EQ(report.scenario[k].passed, 4u);
    for (std::size_t other = 0; other < kScenarioCount; ++other) {
      if (other != k) {
        EXPECT_EQ(report.scenario[other].jobs, 0u);
      }
    }

    // Totals are the sum of the scenario buckets.
    EXPECT_EQ(report.total.jobs, 4u);
    EXPECT_EQ(report.total.sim_cycles, report.scenario[k].sim_cycles);
  }
}

TEST(FloorBatch, ErroredJobIsIsolatedFromTheRest) {
  const JobFactory factory(21);
  auto jobs = factory.make_jobs(4);
  jobs[1].bus_width = 1;  // forces a precondition error inside the worker
  const FloorReport report = run_batch(FloorConfig{2}, jobs);

  EXPECT_FALSE(report.results[1].error.empty());
  EXPECT_EQ(report.total.errored, 1u);
  EXPECT_EQ(report.total.passed, 3u);
  EXPECT_FALSE(report.all_pass());
}

TEST(FloorBatch, DeterministicAggregatesAcrossWorkerCounts) {
  // The headline guarantee: byte-identical deterministic summaries for
  // 1 worker and N workers on the same seed (see session.hpp).
  const JobFactory factory(20260729);
  const auto jobs = factory.make_jobs(8);

  const FloorReport serial = run_batch(FloorConfig{1}, jobs);
  const FloorReport parallel = run_batch(FloorConfig{4}, jobs);

  EXPECT_EQ(serial.deterministic_summary(), parallel.deterministic_summary());
  EXPECT_EQ(serial.total.sim_cycles, parallel.total.sim_cycles);
  EXPECT_EQ(serial.total.passed, parallel.total.passed);
  // And the summary is genuinely seed-sensitive.
  const FloorReport other =
      run_batch(FloorConfig{1}, JobFactory(20260730).make_jobs(8));
  EXPECT_NE(serial.deterministic_summary(), other.deterministic_summary());
}

}  // namespace
}  // namespace casbus::floor
