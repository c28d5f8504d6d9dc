// The streaming test-floor service: live submission, slot-ordered polling,
// bounded backpressure, graceful close, the floor-wide verdict cache,
// and the floor's headline guarantee — deterministic summaries that are
// byte-identical across worker counts, cache settings, and submission
// patterns.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "floor/job_factory.hpp"
#include "floor/program_cache.hpp"
#include "floor/session.hpp"

namespace casbus::floor {
namespace {

/// Opens a session of \p config, submits \p jobs in one batch, and drains.
FloorReport run_batch(const FloorConfig& config,
                      const std::vector<JobSpec>& jobs) {
  FloorSession session(config);
  EXPECT_EQ(session.submit_batch(jobs), jobs.size());
  return session.drain();
}

/// A repeated-spec job list: \p count jobs cycling through \p distinct
/// base recipes (ids stay 0..count-1 so slots and summaries line up).
std::vector<JobSpec> repeated_jobs(std::uint64_t seed, std::size_t count,
                                   std::size_t distinct) {
  const JobFactory factory(seed);
  std::vector<JobSpec> jobs;
  jobs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    JobSpec spec = factory.make_job(i % distinct);
    spec.id = i;
    jobs.push_back(spec);
  }
  return jobs;
}

/// The first \p count JobFactory(seed) recipes that, with the strategy
/// forced to Best, error deterministically: Best may pick a rail-emulation
/// schedule, which run_schedule refuses. Ids follow \p first_id.
std::vector<JobSpec> erroring_best_jobs(std::uint64_t seed,
                                        std::size_t count,
                                        std::size_t first_id) {
  const JobFactory factory(seed);
  std::vector<JobSpec> jobs;
  for (std::size_t r = 0; r < 64 && jobs.size() < count; ++r) {
    JobSpec spec = factory.make_job(r);
    spec.strategy = sched::Strategy::Best;
    if (run_job(spec).error.find("rail-emulation") == std::string::npos)
      continue;
    spec.id = first_id + jobs.size();
    jobs.push_back(spec);
  }
  EXPECT_EQ(jobs.size(), count) << "too few erroring Best recipes";
  return jobs;
}

// --- FloorSession: streaming behavior ---------------------------------------

TEST(FloorSession, ExecutesJobsSubmittedAfterWorkersStart) {
  const JobFactory factory(31);
  FloorConfig config;
  config.workers = 2;
  FloorSession session(config);

  // First wave; wait until the pool has demonstrably executed some of it,
  // then submit the second wave — the jobs arrive *while the floor runs*.
  for (std::size_t i = 0; i < 4; ++i)
    ASSERT_TRUE(session.submit(factory.make_job(i)));
  while (session.completed() < 2)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  for (std::size_t i = 4; i < 8; ++i)
    ASSERT_TRUE(session.submit(factory.make_job(i)));

  const FloorReport report = session.drain();
  EXPECT_EQ(report.total.jobs, 8u);
  EXPECT_TRUE(report.all_pass());
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(report.results[i].id, i);
}

TEST(FloorSession, PollDeliversSlotOrderedResultsExactlyOnce) {
  const JobFactory factory(32);
  FloorConfig config;
  config.workers = 3;
  FloorSession session(config);
  for (std::size_t i = 0; i < 9; ++i)
    ASSERT_TRUE(session.submit(factory.make_job(i)));

  // Poll while running: results must come out in arrival order with no
  // gaps, duplicates, or losses, no matter how workers interleave.
  std::vector<JobResult> collected;
  while (collected.size() < 9) {
    for (JobResult& r : session.poll_results())
      collected.push_back(std::move(r));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (std::size_t i = 0; i < 9; ++i) EXPECT_EQ(collected[i].id, i);
  EXPECT_TRUE(session.poll_results().empty());  // delivered exactly once

  // Polled results still appear in the drained aggregate, and polling
  // after drain is a clean no-op (drain owns the results).
  const FloorReport report = session.drain();
  EXPECT_EQ(report.total.jobs, 9u);
  EXPECT_EQ(report.results.size(), 9u);
  EXPECT_TRUE(session.poll_results().empty());
}

TEST(FloorSession, SubmitAfterCloseIsRejectedGracefully) {
  const JobFactory factory(33);
  FloorConfig config;
  config.workers = 2;
  FloorSession session(config);
  ASSERT_TRUE(session.submit(factory.make_job(0)));
  session.close();
  EXPECT_FALSE(session.submit(factory.make_job(1)));
  EXPECT_FALSE(session.try_submit(factory.make_job(2)));
  EXPECT_EQ(session.submitted(), 1u);

  const FloorReport report = session.drain();
  EXPECT_EQ(report.total.jobs, 1u);  // only the accepted job ran
}

TEST(FloorSession, BackpressureRefusesAndReleases) {
  // One worker, capacity 1: a producer spamming try_submit must hit the
  // bound long before the worker can drain 32 simulations; blocking
  // submits behind the same bound must all eventually land.
  FloorConfig config;
  config.workers = 1;
  config.queue_capacity = 1;
  config.cache_capacity = 0;  // every job simulates: keeps the worker busy
  const JobFactory factory(34);
  FloorSession session(config);

  bool refused = false;
  std::size_t accepted = 0;
  for (std::size_t burst = 0; burst < 32 && !refused; ++burst) {
    if (session.try_submit(factory.make_job(accepted))) ++accepted;
    else refused = true;
  }
  EXPECT_TRUE(refused) << "capacity bound never engaged";

  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_TRUE(session.submit(factory.make_job(accepted + i)));

  const FloorReport report = session.drain();
  EXPECT_EQ(report.total.jobs, accepted + 4);
  EXPECT_TRUE(report.all_pass());
}

TEST(FloorSession, ProducersRacingCloseAreSafe) {
  // Regression for the old push-after-close hard failure: producers
  // submitting while another thread closes must see clean rejections.
  FloorConfig config;
  config.workers = 2;
  config.queue_capacity = 2;
  const JobFactory factory(35);
  auto session = std::make_unique<FloorSession>(config);

  std::atomic<bool> go{false};
  std::vector<std::thread> producers;
  std::atomic<std::size_t> rejected{0};
  for (int p = 0; p < 3; ++p) {
    producers.emplace_back([&session, &factory, &go, &rejected, p] {
      while (!go.load()) {
      }
      for (std::size_t i = 0; i < 16; ++i)
        if (!session->submit(factory.make_job(16 * p + i))) ++rejected;
    });
  }
  go.store(true);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  session->close();
  for (auto& t : producers) t.join();

  const FloorReport report = session->drain();
  EXPECT_EQ(report.total.jobs + rejected.load(), 48u);
}

// --- Determinism across APIs, worker counts, and cache settings -------------

TEST(FloorSession, StreamingMatchesBatchByteForByte) {
  const JobFactory factory(20260729);
  const auto jobs = factory.make_jobs(10);

  FloorConfig config;
  config.workers = 4;
  config.queue_capacity = 3;  // exercise backpressure on the way
  FloorSession session(config);
  EXPECT_EQ(session.submit_batch(jobs), jobs.size());
  const FloorReport streamed = session.drain();

  const FloorReport batch = run_batch(FloorConfig{1}, jobs);
  EXPECT_EQ(streamed.deterministic_summary(),
            batch.deterministic_summary());
}

TEST(FloorSession, CacheOnAndOffAreByteIdenticalAt1And4Workers) {
  // Repeated specs make the cache actually fire; the deterministic
  // summary must not notice it, at any worker count. Three erroring
  // recipes, each run twice, ride along: they must never be served.
  auto jobs = repeated_jobs(77, 24, 3);
  const std::size_t clean = jobs.size();
  for (const JobSpec& spec : erroring_best_jobs(77, 3, 0)) {
    for (int rerun = 0; rerun < 2; ++rerun) {
      jobs.push_back(spec);
      jobs.back().id = jobs.size() - 1;
    }
  }
  ASSERT_EQ(jobs.size(), clean + 6);

  std::string reference;
  for (const std::size_t workers : {1u, 4u}) {
    for (const std::size_t cache : {0u, 8u}) {
      FloorConfig config;
      config.workers = workers;
      config.cache_capacity = cache;
      const FloorReport report = run_batch(config, jobs);
      if (reference.empty()) reference = report.deterministic_summary();
      EXPECT_EQ(report.deterministic_summary(), reference)
          << "workers=" << workers << " cache=" << cache;
      for (std::size_t i = clean; i < jobs.size(); ++i) {
        EXPECT_FALSE(report.results[i].error.empty()) << "job " << i;
        EXPECT_FALSE(report.results[i].cache_hit()) << "job " << i;
      }
      // Every clean repeat hits once its recipe is qualified; at most
      // one job per worker and recipe can miss before that.
      if (cache > 0) {
        EXPECT_GE(report.cache_hits, clean - 3 * workers);
      } else {
        EXPECT_EQ(report.cache_hits, 0u);
      }
    }
  }
}

TEST(FloorSession, ErroredRecipesAreNeverCached) {
  // An error may be environmental, so an errored recipe is never
  // qualified, and no other record of it is kept: every rerun runs cold.
  const std::vector<JobSpec> erroring = erroring_best_jobs(77, 1, 0);
  ASSERT_EQ(erroring.size(), 1u);
  ProgramCache cache(16);
  for (std::size_t i = 0; i < 3; ++i) {
    JobSpec spec = erroring.front();
    spec.id = i;
    const JobResult result = run_job(spec, &cache);
    EXPECT_FALSE(result.error.empty()) << "job " << i;
    EXPECT_EQ(result.cache_tier, CacheTier::None) << "job " << i;
  }
  EXPECT_EQ(cache.size(), 0u);
}

TEST(FloorSession, VerdictReuseRestampsJobIds) {
  const auto jobs = repeated_jobs(55, 8, 1);  // one recipe, 8 jobs
  FloorConfig config;
  config.workers = 1;
  const FloorReport report = run_batch(config, jobs);
  ASSERT_EQ(report.results.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(report.results[i].id, i);  // not the qualifying job's id
    if (i > 0) {
      EXPECT_TRUE(report.results[i].cache_hit());
      EXPECT_EQ(report.results[i].cache_tier, CacheTier::Verdict);
    }
  }
  EXPECT_EQ(report.cache_hits, 7u);
}

TEST(FloorSession, EveryWorkerHitsOnceAnyWorkerQualified) {
  // One recipe x 64 jobs at 4 workers: at most one job per worker can be
  // in flight before the first verdict is qualified, and every later job
  // hits the shared cache whichever worker takes it.
  const auto jobs = repeated_jobs(88, 64, 1);
  FloorConfig config;
  config.workers = 4;
  FloorSession session(config);
  ASSERT_EQ(session.submit_batch(jobs), jobs.size());
  const FloorReport report = session.drain();
  EXPECT_EQ(report.total.jobs, 64u);
  EXPECT_GE(report.cache_hits, 60u);
  EXPECT_TRUE(report.all_pass());
}

// --- Stage accounting -------------------------------------------------------

TEST(FloorSession, StageSecondsCoverThePipeline) {
  const JobFactory factory(66);
  const FloorReport report = run_batch(FloorConfig{2}, factory.make_jobs(6));
  double total = 0.0;
  for (std::size_t s = 0; s < kStageCount; ++s) {
    EXPECT_GE(report.stage_seconds[s], 0.0);
    total += report.stage_seconds[s];
  }
  EXPECT_GT(total, 0.0);
  // Simulation dominates these paper-sized jobs by construction.
  EXPECT_GT(report.stage_seconds[static_cast<std::size_t>(Stage::Simulate)],
            report.stage_seconds[static_cast<std::size_t>(Stage::Schedule)]);
}

// --- ProgramCache unit behavior ---------------------------------------------

TEST(ProgramCache, LruEvictsOldestRecipe) {
  ProgramCache cache(2);
  JobSpec a, b, c;
  a.seed = 1;
  b.seed = 2;
  c.seed = 3;
  JobResult result;
  result.pass = true;
  cache.qualify(a, result);
  cache.qualify(b, result);
  EXPECT_TRUE(cache.reuse(a).has_value());  // refresh a; b is now LRU
  cache.qualify(c, result);                 // evicts b
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_TRUE(cache.reuse(a).has_value());
  EXPECT_FALSE(cache.reuse(b).has_value());
  EXPECT_TRUE(cache.reuse(c).has_value());
}

TEST(ProgramCache, OneOffRecipesDoNotFlushAReusedOne) {
  constexpr std::size_t kCapacity = 8;
  ProgramCache cache(kCapacity);
  JobResult result;
  result.pass = true;
  JobSpec reused;
  reused.seed = 1000;
  cache.qualify(reused, result);
  ASSERT_TRUE(cache.reuse(reused).has_value());  // served once
  // A scan of one-off recipes, as many as the cache holds: under plain
  // LRU they would push the reused recipe out.
  for (std::size_t i = 0; i < kCapacity; ++i) {
    JobSpec one_off;
    one_off.seed = i + 1;
    cache.qualify(one_off, result);
  }
  EXPECT_EQ(cache.size(), kCapacity);
  EXPECT_TRUE(cache.reuse(reused).has_value());
}

TEST(ProgramCache, ConcurrentLookupsOnOverlappingRecipes) {
  // Four threads drive every entry point over overlapping recipes of one
  // cache smaller than their union, so hits, promotions, demotions and
  // evictions interleave; TSan checks the locking, the asserts check that
  // a served entry is always the recipe asked for.
  obs::Registry registry;
  const FloorMetricIds ids = register_floor_metrics(registry);
  ProgramCache cache(6);
  cache.set_telemetry(&registry, ids);
  constexpr std::size_t kRecipes = 12;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&cache, t] {
      for (std::size_t i = 0; i < 2000; ++i) {
        const std::size_t r = (i * (t + 1) + t) % kRecipes;
        JobSpec spec;
        spec.seed = r + 1;
        JobResult result;
        result.pass = true;
        result.sim_cycles = r;
        if (const auto memo = cache.reuse(spec)) {
          EXPECT_EQ(memo->sim_cycles, r);
        }
        if (i % 3 == t % 3) cache.qualify(spec, result);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_LE(cache.size(), 6u);
  const obs::Snapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counter("floor.cache.lookups"), 4u * 2000u);
  EXPECT_GT(snap.counter("floor.cache.hits.verdict"), 0u);
  EXPECT_GT(snap.counter("floor.cache.evictions"), 0u);
}

TEST(ProgramCache, CapacityZeroDisablesEverything) {
  ProgramCache cache(0);
  JobSpec spec;
  JobResult result;
  result.pass = true;
  cache.qualify(spec, result);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.reuse(spec).has_value());
}

TEST(ProgramCache, ReuseZeroesTimingAndMarksHit) {
  obs::Registry registry;
  const FloorMetricIds ids = register_floor_metrics(registry);
  ProgramCache cache(4);
  cache.set_telemetry(&registry, ids);
  JobSpec spec;
  JobResult result;
  result.pass = true;
  result.wall_seconds = 1.5;
  result.stage_seconds[0] = 0.5;
  cache.qualify(spec, result);
  const auto memo = cache.reuse(spec);
  ASSERT_TRUE(memo.has_value());
  EXPECT_TRUE(memo->cache_hit());
  EXPECT_EQ(memo->cache_tier, CacheTier::Verdict);
  EXPECT_EQ(memo->wall_seconds, 0.0);
  EXPECT_EQ(memo->stage_seconds[0], 0.0);
  EXPECT_TRUE(memo->pass);
  const obs::Snapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counter("floor.cache.hits.verdict"), 1u);
  EXPECT_EQ(snap.counter("floor.cache.lookups"), 1u);
}

}  // namespace
}  // namespace casbus::floor
