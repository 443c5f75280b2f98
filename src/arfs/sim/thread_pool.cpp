#include "arfs/sim/thread_pool.hpp"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <string_view>

#include "arfs/common/check.hpp"

namespace arfs::sim {

std::size_t ThreadPool::default_thread_count() {
  if (const char* env = std::getenv("ARFS_THREADS")) {
    const std::string_view text(env);
    std::size_t parsed = 0;
    const auto [stop, error] =
        std::from_chars(text.data(), text.data() + text.size(), parsed);
    if (error == std::errc{} && stop == text.data() + text.size() &&
        parsed >= 1 && parsed <= kMaxThreads) {
      return parsed;
    }
  }
  const std::size_t hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw, 1, kMaxThreads);
}

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = default_thread_count();
  require(threads <= kMaxThreads, "ThreadPool: more than kMaxThreads workers");
  workers_.reserve(threads - 1);
  for (std::size_t i = 1; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::work_on(Batch& batch) {
  for (;;) {
    const std::size_t c = batch.next.fetch_add(1, std::memory_order_relaxed);
    if (c >= batch.total_chunks) return;
    // After a failure, remaining chunks are claimed but skipped so the done
    // count still reaches total_chunks and run_chunked() can return.
    if (!batch.failed.load(std::memory_order_acquire)) {
      const std::size_t begin = c * batch.chunk;
      const std::size_t end = std::min(begin + batch.chunk, batch.jobs);
      try {
        (*batch.fn)(begin, end);
      } catch (...) {
        std::lock_guard<std::mutex> lock(batch.error_mutex);
        if (!batch.error) batch.error = std::current_exception();
        batch.failed.store(true, std::memory_order_release);
      }
    }
    if (batch.done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        batch.total_chunks) {
      // Synchronize with the waiter's predicate check before notifying.
      { std::lock_guard<std::mutex> lock(mutex_); }
      batch_done_.notify_all();
    }
  }
}

void ThreadPool::worker_loop() {
  std::uint64_t seen_generation = 0;
  for (;;) {
    std::shared_ptr<Batch> batch;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_ready_.wait(lock, [&] {
        return stopping_ || generation_ != seen_generation;
      });
      if (stopping_) return;
      seen_generation = generation_;
      batch = batch_;
    }
    if (batch) work_on(*batch);
  }
}

void ThreadPool::run_chunked(
    std::size_t jobs, std::size_t chunk,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (jobs == 0) return;
  require(chunk > 0, "ThreadPool chunk must be positive");

  if (workers_.empty()) {
    // Single-thread pool: plain inline loop, no synchronization at all.
    for (std::size_t begin = 0; begin < jobs; begin += chunk) {
      fn(begin, std::min(begin + chunk, jobs));
    }
    return;
  }

  auto batch = std::make_shared<Batch>();
  batch->jobs = jobs;
  batch->chunk = chunk;
  batch->total_chunks = (jobs + chunk - 1) / chunk;
  batch->fn = &fn;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    batch_ = batch;
    ++generation_;
  }
  work_ready_.notify_all();

  work_on(*batch);  // the calling thread is worker 0

  {
    std::unique_lock<std::mutex> lock(mutex_);
    batch_done_.wait(lock, [&] {
      return batch->done.load(std::memory_order_acquire) ==
             batch->total_chunks;
    });
    // Another thread may have submitted a newer batch meanwhile (concurrent
    // top-level run_chunked calls are allowed; each caller drains its own
    // batch) — only retire the pointer if it is still ours.
    if (batch_ == batch) batch_ = nullptr;
  }
  if (batch->error) std::rethrow_exception(batch->error);
}

}  // namespace arfs::sim
