// BatchRunner / ThreadPool contract tests. These run under ThreadSanitizer
// in the ARFS_SANITIZE=thread build (ctest label "batch"), so they
// deliberately exercise contended paths: many jobs, small chunks, pools
// reused across batches, exceptions racing normal completions. They also
// pin the thread-count cap that bounds what outside input can ask for.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "arfs/analysis/dependability.hpp"
#include "arfs/common/check.hpp"
#include "arfs/sim/batch.hpp"
#include "arfs/sim/fleet.hpp"
#include "arfs/sim/thread_pool.hpp"

namespace arfs::sim {
namespace {

TEST(JobSeed, DeterministicAndDistinct) {
  EXPECT_EQ(job_seed(42, 0), job_seed(42, 0));
  std::set<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < 1000; ++i) seeds.insert(job_seed(7, i));
  EXPECT_EQ(seeds.size(), 1000u);  // no collisions in a small batch
  EXPECT_NE(job_seed(1, 0), job_seed(2, 0));  // base seed matters
}

TEST(JobSeed, MatchesSerialSplitMixStream) {
  // job_seed(base, i) is exactly the (i+1)-th draw of a serial Rng(base),
  // so serial code that forks one stream per job via next_u64() and
  // parallel code using job_seed agree.
  Rng serial(99);
  for (std::uint64_t i = 0; i < 8; ++i) {
    EXPECT_EQ(job_seed(99, i), serial.next_u64());
  }
}

TEST(ThreadPool, EmptyBatchIsNoOp) {
  ThreadPool pool(4);
  bool touched = false;
  pool.run_chunked(0, 1, [&](std::size_t, std::size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ThreadPool, SingleThreadRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  std::vector<int> hits(10, 0);
  pool.run_chunked(10, 3, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) ++hits[i];
  });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 10);
}

TEST(ThreadPool, EveryJobRunsExactlyOnce) {
  ThreadPool pool(8);
  constexpr std::size_t kJobs = 10'000;
  std::vector<std::atomic<int>> hits(kJobs);
  pool.run_chunked(kJobs, 7, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (std::size_t i = 0; i < kJobs; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "job " << i;
  }
}

TEST(ThreadPool, ReusableAcrossBatches) {
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::atomic<std::size_t> sum{0};
    pool.run_chunked(100, 9, [&](std::size_t begin, std::size_t end) {
      std::size_t local = 0;
      for (std::size_t i = begin; i < end; ++i) local += i;
      sum.fetch_add(local, std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), 4950u);
  }
}

TEST(BatchRunner, ExceptionPropagates) {
  BatchRunner runner{BatchOptions{4}};
  EXPECT_THROW(
      runner.run(64,
                 [](std::size_t i) {
                   if (i == 13) throw std::runtime_error("job 13 failed");
                 }),
      std::runtime_error);
  // The pool survives a failed batch and runs the next one normally.
  std::atomic<int> ran{0};
  runner.run(64, [&](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 64);
}

TEST(BatchRunner, ExceptionFromCallingThreadChunkPropagates) {
  // With a single-thread runner every chunk runs inline on the caller.
  BatchRunner runner{BatchOptions{1}};
  EXPECT_THROW(runner.run(4,
                          [](std::size_t i) {
                            if (i == 0) throw std::logic_error("inline");
                          }),
               std::logic_error);
}

TEST(BatchRunner, MapReturnsResultsInJobOrder) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    BatchRunner runner{BatchOptions{threads}};
    const std::vector<std::string> out = runner.map<std::string>(
        25, [](std::size_t i) { return "job" + std::to_string(i); });
    ASSERT_EQ(out.size(), 25u);
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out[i], "job" + std::to_string(i));
    }
  }
}

TEST(BatchRunner, EmptyJobListIsNoOp) {
  BatchRunner runner{BatchOptions{4}};
  runner.run(0, [](std::size_t) { FAIL() << "no job should run"; });
  EXPECT_TRUE(
      runner.map<int>(0, [](std::size_t) { return 1; }).empty());
}

TEST(BatchRunner, ThreadsEnvOverrideAppliesToDefault) {
  ASSERT_EQ(setenv("ARFS_THREADS", "3", /*overwrite=*/1), 0);
  EXPECT_EQ(ThreadPool::default_thread_count(), 3u);
  BatchRunner env_sized;  // threads = 0 -> env override
  EXPECT_EQ(env_sized.thread_count(), 3u);
  ASSERT_EQ(unsetenv("ARFS_THREADS"), 0);
  EXPECT_GE(ThreadPool::default_thread_count(), 1u);
}

// ARFS_THREADS counts only as a whole decimal in [1, kMaxThreads]; any
// other value falls back to the hardware default. The check reads the
// count only — no pool is built from the rejected values.
TEST(ThreadPool, DefaultThreadCountIgnoresMalformedOrOversizedEnv) {
  ASSERT_EQ(unsetenv("ARFS_THREADS"), 0);
  const std::size_t fallback = ThreadPool::default_thread_count();
  EXPECT_GE(fallback, 1u);
  EXPECT_LE(fallback, kMaxThreads);
  for (const char* bad : {"1000000", "257", "4abc", " 4", "+4", "-3", "0",
                          ""}) {
    ASSERT_EQ(setenv("ARFS_THREADS", bad, /*overwrite=*/1), 0);
    EXPECT_EQ(ThreadPool::default_thread_count(), fallback)
        << "ARFS_THREADS=\"" << bad << "\"";
  }
  for (const char* good : {"1", "7", "256"}) {
    ASSERT_EQ(setenv("ARFS_THREADS", good, /*overwrite=*/1), 0);
    EXPECT_EQ(ThreadPool::default_thread_count(),
              static_cast<std::size_t>(std::atoi(good)));
  }
  ASSERT_EQ(unsetenv("ARFS_THREADS"), 0);
}

TEST(ThreadPool, RejectsMoreThanMaxThreadsBeforeSpawningAny) {
  EXPECT_THROW(ThreadPool pool(kMaxThreads + 1), ContractViolation);
  EXPECT_THROW(BatchRunner runner{BatchOptions{kMaxThreads + 1}},
               ContractViolation);
}

// The flagship determinism property, exercised on the engine's own pool
// here and again (against more consumers) in determinism_test.cpp and
// fleet_test.cpp: the dependability estimate is bit-identical at 1, 2, and
// 8 threads.
TEST(BatchRunner, DependabilityBitIdenticalAcrossThreadCounts) {
  const analysis::DesignUnits design{4, 3, 2};
  analysis::MissionParams mission;
  mission.failure_rate_per_hour = 0.05;
  mission.trials = 20'000;

  FleetRunner serial{FleetOptions{1}};
  Rng rng_serial(314);
  const analysis::DependabilityEstimate reference =
      analysis::estimate_dependability(design, mission, rng_serial, serial);

  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    FleetRunner parallel{FleetOptions{threads}};
    Rng rng(314);
    const analysis::DependabilityEstimate got =
        analysis::estimate_dependability(design, mission, rng, parallel);
    EXPECT_EQ(got.p_full_whole_mission, reference.p_full_whole_mission);
    EXPECT_EQ(got.p_safe_whole_mission, reference.p_safe_whole_mission);
    EXPECT_EQ(got.p_loss, reference.p_loss);
    EXPECT_EQ(got.full_service_fraction, reference.full_service_fraction);
    EXPECT_EQ(got.safe_or_better_fraction, reference.safe_or_better_fraction);
    EXPECT_EQ(got.mean_failures, reference.mean_failures);
  }
}

}  // namespace
}  // namespace arfs::sim
