// Experiment E12 — stable-storage hot path.
//
// What does the flat sorted-vector stable storage cost on the per-frame
// read/commit hot path, across realistic key counts? No other bench
// measures it; the estimator-by-threads timings are E17's (bench_fleet).
//
// Emit machine-readable numbers for the perf trajectory with:
//   bench_batch --benchmark_out=BENCH_parallel.json --benchmark_out_format=json
#include <iostream>
#include <string>
#include <vector>

#include "arfs/storage/stable_storage.hpp"
#include "bench_main.hpp"

namespace {

using namespace arfs;

void report() {
  bench::banner("E12: stable-storage hot path",
                "the fail-stop processor's per-frame stable-storage commit");
  std::cout << "bm_storage_commit/N: one frame's commit of N staged updates\n"
            << "over N committed keys; bm_storage_read/N: one read among N\n"
            << "committed keys. Run without --benchmark_filter=none to time\n"
            << "them.\n\n";
}

// --- google-benchmark timings for the perf trajectory ---

void bm_storage_commit(benchmark::State& state) {
  // One simulated frame's commit: `keys` staged writes over an existing
  // committed population of the same keys (the steady state of a running
  // System, where commits are pure updates).
  const std::size_t keys = static_cast<std::size_t>(state.range(0));
  storage::StableStorage s;
  std::vector<std::string> names;
  names.reserve(keys);
  for (std::size_t i = 0; i < keys; ++i) {
    names.push_back("a" + std::to_string(i % 8) + "/var" + std::to_string(i));
  }
  for (const std::string& k : names) s.write(k, std::int64_t{0});
  s.commit(0);

  Cycle cycle = 1;
  for (auto _ : state) {
    for (const std::string& k : names) {
      s.write(k, static_cast<std::int64_t>(cycle));
    }
    benchmark::DoNotOptimize(s.commit(cycle++));
  }
  state.SetItemsProcessed(state.iterations() * keys);
}
BENCHMARK(bm_storage_commit)->Arg(16)->Arg(256)->Arg(4096)
    ->Unit(benchmark::kMicrosecond);

void bm_storage_read(benchmark::State& state) {
  const std::size_t keys = static_cast<std::size_t>(state.range(0));
  storage::StableStorage s;
  std::vector<std::string> names;
  names.reserve(keys);
  for (std::size_t i = 0; i < keys; ++i) {
    names.push_back("a" + std::to_string(i % 8) + "/var" + std::to_string(i));
    s.write(names.back(), static_cast<std::int64_t>(i));
  }
  s.commit(0);

  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.read(names[i]));
    i = (i + 1) % keys;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(bm_storage_read)->Arg(16)->Arg(256)->Arg(4096);

}  // namespace

ARFS_BENCH_MAIN(report)
