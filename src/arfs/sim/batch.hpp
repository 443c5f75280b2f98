// Parallel job fan-out: the layer under the fleet engine.
//
// The repo's heavy analyses — Monte-Carlo dependability sweeps, mission
// replays, certification sweeps — are sets of *independent* jobs. They run
// through sim::FleetRunner (fleet.hpp), which owns one BatchRunner and adds
// the chunked reduction; the crash sweep takes a BatchRunner directly.
// BatchRunner fans jobs across a fixed ThreadPool with two guarantees:
//
//   1. Deterministic seeding: job_seed(base_seed, index) derives one
//      independent SplitMix64 stream per job, so a job's randomness depends
//      only on (base_seed, index) — never on which thread ran it or how many
//      threads exist.
//   2. Ordered results: map() writes each job's result into its own slot and
//      returns them in job-index order.
//
// Together these make parallel results bit-identical to serial ones at any
// thread count, which is what lets the determinism test suite cover the
// parallel engine with plain EXPECT_EQ.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "arfs/sim/thread_pool.hpp"

namespace arfs::sim {

/// Independent 64-bit seed for job `index` of a batch rooted at `base_seed`.
/// This is SplitMix64 output at state base_seed + index * gamma, i.e. each
/// job gets one element of the stream a serial Rng(base_seed) would produce,
/// without any thread having to consume the elements before it.
[[nodiscard]] constexpr std::uint64_t job_seed(std::uint64_t base_seed,
                                               std::uint64_t index) {
  std::uint64_t z = base_seed + (index + 1) * 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

struct BatchOptions {
  /// Worker count including the calling thread, at most kMaxThreads. 0 =
  /// the ARFS_THREADS environment override if valid, else
  /// hardware_concurrency().
  std::size_t threads = 0;
};

class BatchRunner {
 public:
  explicit BatchRunner(BatchOptions options = {}) : pool_(options.threads) {}

  [[nodiscard]] std::size_t thread_count() const { return pool_.size(); }

  /// Runs fn(index) for every index in [0, jobs); blocks until done.
  /// Exceptions from jobs propagate (first one wins); an empty batch is a
  /// no-op.
  void run(std::size_t jobs, const std::function<void(std::size_t)>& fn) {
    pool_.run_chunked(jobs, chunk_for(jobs),
                      [&fn](std::size_t begin, std::size_t end) {
                        for (std::size_t i = begin; i < end; ++i) fn(i);
                      });
  }

  /// Runs fn(index) for every index and returns the results in index order.
  template <typename R>
  [[nodiscard]] std::vector<R> map(
      std::size_t jobs, const std::function<R(std::size_t)>& fn) {
    std::vector<std::optional<R>> slots(jobs);
    run(jobs, [&](std::size_t i) { slots[i].emplace(fn(i)); });
    std::vector<R> out;
    out.reserve(jobs);
    for (std::optional<R>& slot : slots) out.push_back(std::move(*slot));
    return out;
  }

 private:
  /// Jobs handed to a worker per grab: jobs / (8 * threads), at least 1.
  /// Chunking affects scheduling granularity only, never results.
  [[nodiscard]] std::size_t chunk_for(std::size_t jobs) const {
    const std::size_t target = pool_.size() * 8;
    return jobs > target ? jobs / target : 1;
  }

  ThreadPool pool_;
};

}  // namespace arfs::sim
