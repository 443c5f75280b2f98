// Fixed-size fork-join thread pool for batch simulation.
//
// The pool is deliberately work-stealing-free: a run() hands out contiguous
// job chunks from a single atomic cursor, so scheduling is chunked,
// allocation-free on the hot path, and trivially starvation-free. The
// calling thread participates as a worker, which means a pool constructed
// with one thread spawns *no* threads at all and executes jobs inline —
// the serial and parallel code paths are literally the same loop.
//
// Determinism contract: the pool guarantees every job index in [0, jobs) is
// executed exactly once, but says nothing about order or placement. Callers
// that need reproducible results must make each job self-contained (own RNG
// stream, own output slot) — see sim::BatchRunner.
//
// A pool never runs more than kMaxThreads workers: thread counts come from
// outside input (ARFS_THREADS, `arfsctl fleet --threads`), and each worker
// beyond the caller is an OS thread.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace arfs::sim {

/// Upper bound on a pool's worker count, calling thread included.
inline constexpr std::size_t kMaxThreads = 256;

class ThreadPool {
 public:
  /// `threads` counts the calling thread: 1 means fully inline execution,
  /// 0 means default_thread_count(). Requires threads <= kMaxThreads.
  /// Workers are spawned once and live for the pool's lifetime.
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total worker count, including the calling thread.
  [[nodiscard]] std::size_t size() const { return workers_.size() + 1; }

  /// Runs `fn(begin, end)` over [0, jobs) in chunks of `chunk` jobs and
  /// blocks until every chunk completed. The first exception thrown by any
  /// chunk is rethrown here (remaining chunks are skipped, not cancelled
  /// mid-flight). Concurrent top-level calls from different threads are
  /// allowed (each caller drains its own batch; workers help the newest).
  /// Reentrant calls from inside a job of the same pool are not.
  void run_chunked(std::size_t jobs, std::size_t chunk,
                   const std::function<void(std::size_t, std::size_t)>& fn);

  /// `ARFS_THREADS` when the whole value is a decimal in [1, kMaxThreads],
  /// else std::thread::hardware_concurrency() capped at kMaxThreads, else 1.
  /// Any other ARFS_THREADS value ("0", "-2", "4abc", "1000000") is ignored.
  [[nodiscard]] static std::size_t default_thread_count();

 private:
  /// One fork-join episode. Heap-allocated and shared with the workers so a
  /// late-waking worker can observe an already-finished batch safely.
  struct Batch {
    std::size_t jobs = 0;
    std::size_t chunk = 1;
    std::size_t total_chunks = 0;
    const std::function<void(std::size_t, std::size_t)>* fn = nullptr;
    std::atomic<std::size_t> next{0};  ///< Next chunk index to claim.
    std::atomic<std::size_t> done{0};  ///< Chunks finished (or skipped).
    std::mutex error_mutex;
    std::exception_ptr error;
    std::atomic<bool> failed{false};
  };

  void worker_loop();
  void work_on(Batch& batch);

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable batch_done_;
  std::shared_ptr<Batch> batch_;   ///< Current batch, null when idle.
  std::uint64_t generation_ = 0;   ///< Bumped per run() to wake workers.
  bool stopping_ = false;
};

}  // namespace arfs::sim
