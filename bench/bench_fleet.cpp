// Experiment E17 — fleet-scale chunked Monte-Carlo engine.
//
// Two perf claims, both with the determinism contract on top:
//   * scaling: estimate_dependability streamed through sim::FleetRunner
//     sustains near-linear thread scaling to 10^6 mission samples, and the
//     estimate digest is bit-identical to the 1-thread serial oracle at
//     every thread count;
//   * pool reuse: run_fleet_missions with checkpoint-seeded system pools
//     (SystemCheckpoint::restore() per sample) beats construct-per-sample
//     by the cost ratio of a restore to a full build + warm-up replay,
//     with bit-identical mission reports.
//
// ARFS_FLEET_SAMPLES / ARFS_FLEET_MISSIONS scale the table down for smoke
// runs (CI) without changing its shape. On single-core hosts the wall-clock
// speedups degenerate to ~1x — the digest columns carry the correctness
// claim there; the samples/sec column carries the throughput claim.
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "arfs/analysis/dependability.hpp"
#include "arfs/core/system.hpp"
#include "arfs/sim/fleet.hpp"
#include "arfs/support/fleet.hpp"
#include "arfs/support/simple_app.hpp"
#include "arfs/support/synthetic.hpp"
#include "bench_main.hpp"

namespace {

using namespace arfs;

double wall_ms(const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

std::size_t env_size(const char* name, std::size_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return static_cast<std::size_t>(std::strtoull(value, nullptr, 10));
}

analysis::MissionParams mc_mission(std::uint32_t trials) {
  analysis::MissionParams m;
  m.mission_hours = 10.0;
  m.failure_rate_per_hour = 0.05;
  m.trials = trials;
  return m;
}

/// Chain-spec mission with durable processors and one SimpleApp per
/// declared app — the standard pooled-sweep workload.
support::MissionFactory chain_factory() {
  return [] {
    auto spec = std::make_shared<core::ReconfigSpec>(
        support::make_chain_spec({}));
    core::SystemOptions options;
    options.durable_storage = true;
    options.durability.snapshot_every_epochs = 7;
    auto system = std::make_unique<core::System>(*spec, options);
    for (const core::AppDecl& decl : spec->apps()) {
      system->add_app(std::make_unique<support::SimpleApp>(decl.id,
                                                           decl.name));
    }
    support::CrashMission mission;
    mission.keepalive = spec;
    mission.system = std::move(system);
    return mission;
  };
}

support::PlanFactory chain_plans(Cycle warmup, Cycle frames) {
  support::EnvPlanParams params;
  params.factors = support::make_chain_spec({}).factors().factors();
  params.changes = 3;
  params.first_frame = warmup;
  params.frames = frames;
  return support::make_env_plan_factory(std::move(params));
}

void report_mc_scaling() {
  const std::uint32_t trials = static_cast<std::uint32_t>(
      env_size("ARFS_FLEET_SAMPLES", 1'000'000));
  const analysis::DesignPair pair = analysis::section51_designs(4, 2, 2);
  const analysis::MissionParams mission = mc_mission(trials);

  // Serial oracle: the engine on one thread, where every chunk runs inline
  // on the caller in chunk order.
  Rng oracle_rng(42);
  sim::FleetRunner serial{sim::FleetOptions{1}};
  auto start = std::chrono::steady_clock::now();
  const analysis::DependabilityEstimate oracle =
      analysis::estimate_dependability(pair.reconfig, mission, oracle_rng,
                                       serial);
  const double serial_ms = wall_ms(start);
  const std::uint64_t oracle_digest = oracle.digest();

  std::cout << "Monte-Carlo dependability estimate, " << trials
            << " mission samples per cell (reconfig design, rate 0.05/h).\n"
            << "serial oracle: " << std::fixed << std::setprecision(1)
            << serial_ms << " ms, digest " << std::hex << oracle_digest
            << std::dec << "\n\n";
  std::cout << std::left << std::setw(9) << "threads" << std::setw(14)
            << "wall (ms)" << std::setw(16) << "samples/sec" << std::setw(10)
            << "speedup" << "digest==oracle\n";

  double base_ms = 0.0;  // 1-thread fleet wall time, speedup denominator
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    sim::FleetOptions options;
    options.threads = threads;
    sim::FleetRunner fleet(options);
    Rng rng(42);  // same root seed → same base_seed → comparable digest
    start = std::chrono::steady_clock::now();
    const analysis::DependabilityEstimate estimate =
        analysis::estimate_dependability(pair.reconfig, mission, rng, fleet);
    const double ms = wall_ms(start);
    if (threads == 1) base_ms = ms;
    const bool equal = estimate.digest() == oracle_digest;
    const double rate = ms > 0 ? trials / ms * 1e3 : 0.0;
    const double speedup = ms > 0 ? base_ms / ms : 0.0;
    std::cout << std::left << std::setw(9) << threads << std::setw(14)
              << std::fixed << std::setprecision(1) << ms << std::setw(16)
              << std::setprecision(0) << rate << std::setw(10)
              << std::setprecision(2) << speedup << (equal ? "yes" : "NO")
              << "\n";

    const std::string cell = "fleet/mc/t" + std::to_string(threads);
    bench::trajectory().record(cell + "/samples_per_sec", rate, "1/s");
    bench::trajectory().record(cell + "/speedup", speedup, "x");
    bench::trajectory().record(cell + "/digest_equal", equal ? 1 : 0, "bool");
  }
  bench::trajectory().record("fleet/mc/samples", trials, "samples");
  std::cout << "\n(digest == oracle at every thread count is the contract:\n"
               " threads move work, never results)\n\n";
}

void report_pool_ablation() {
  const std::size_t samples = env_size("ARFS_FLEET_MISSIONS", 256);
  const Cycle warmup = 64;
  const Cycle frames = 4;

  support::FleetMissionOptions options;
  options.samples = samples;
  options.frames = frames;
  options.warmup_frames = warmup;
  options.base_seed = 7;

  const support::MissionFactory factory = chain_factory();
  const support::PlanFactory plans = chain_plans(warmup, frames);
  sim::FleetRunner fleet;

  std::cout << "pool-reuse ablation: " << samples << " chain missions, "
            << warmup << "-frame shared warm-up + " << frames
            << " mission frames each.\n\n";

  options.pool_systems = true;
  auto start = std::chrono::steady_clock::now();
  const support::FleetMissionReport pooled =
      support::run_fleet_missions(factory, plans, options, fleet);
  const double pooled_ms = wall_ms(start);

  options.pool_systems = false;
  start = std::chrono::steady_clock::now();
  const support::FleetMissionReport constructed =
      support::run_fleet_missions(factory, plans, options, fleet);
  const double constructed_ms = wall_ms(start);

  const bool equal = pooled.digest == constructed.digest;
  const double speedup =
      pooled_ms > 0 ? constructed_ms / pooled_ms : 0.0;
  std::cout << std::left << std::setw(22) << "mode" << std::setw(12)
            << "wall (ms)" << std::setw(14) << "systems" << std::setw(12)
            << "resets" << "digest\n";
  std::cout << std::left << std::setw(22) << "pooled (restore)"
            << std::setw(12) << std::fixed << std::setprecision(1)
            << pooled_ms << std::setw(14) << pooled.systems_constructed
            << std::setw(12) << pooled.pool_resets << std::hex
            << pooled.digest << std::dec << "\n";
  std::cout << std::left << std::setw(22) << "construct-per-sample"
            << std::setw(12) << constructed_ms << std::setw(14)
            << constructed.systems_constructed << std::setw(12)
            << constructed.pool_resets << std::hex << constructed.digest
            << std::dec << "\n";
  std::cout << "\npool reuse speedup: " << std::setprecision(2) << speedup
            << "x, reports bit-identical: " << (equal ? "yes" : "NO")
            << "\n(restore() replaces a full System build + " << warmup
            << "-frame warm-up replay per sample)\n\n";

  bench::trajectory().record("fleet/pool/speedup", speedup, "x");
  bench::trajectory().record("fleet/pool/digest_equal", equal ? 1 : 0,
                             "bool");
  bench::trajectory().record("fleet/pool/systems_pooled",
                             static_cast<double>(pooled.systems_constructed),
                             "systems");
  bench::trajectory().record(
      "fleet/pool/systems_constructed",
      static_cast<double>(constructed.systems_constructed), "systems");
  bench::trajectory().record("fleet/pool/samples",
                             static_cast<double>(samples), "missions");

  // Per-mission latency percentiles, serial: the tail is what an interactive
  // caller waits on, and a mean hides it — restore() must flatten p99, not
  // just the average.
  const std::size_t lat_samples = std::min<std::size_t>(samples, 64);
  bench::Log2Histogram pooled_lat;
  bench::Log2Histogram constructed_lat;
  {
    support::SystemPool pool(factory, warmup);
    for (std::size_t i = 0; i < lat_samples; ++i) {
      const auto t0 = std::chrono::steady_clock::now();
      support::SystemPool::Lease lease = pool.lease();
      lease.mission().reset();
      lease.mission().system().set_fault_plan(
          plans(sim::job_seed(options.base_seed, i)));
      lease.mission().system().run(frames);
      pooled_lat.record(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - t0)
              .count()));
    }
  }
  for (std::size_t i = 0; i < lat_samples; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    support::CrashMission mission = factory();
    mission.system->run(warmup);
    mission.system->set_fault_plan(
        plans(sim::job_seed(options.base_seed, i)));
    mission.system->run(frames);
    constructed_lat.record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count()));
  }
  std::cout << "per-mission latency over " << lat_samples
            << " serial samples (us):\n"
            << std::left << std::setw(22) << "mode" << std::setw(10) << "p50"
            << std::setw(10) << "p95" << std::setw(10) << "p99"
            << "max\n";
  const auto us = [](std::uint64_t ns) {
    return static_cast<double>(ns) / 1e3;
  };
  std::cout << std::left << std::setw(22) << "pooled (restore)"
            << std::setprecision(0) << std::setw(10) << us(pooled_lat.p50())
            << std::setw(10) << us(pooled_lat.p95()) << std::setw(10)
            << us(pooled_lat.p99()) << us(pooled_lat.max()) << "\n";
  std::cout << std::left << std::setw(22) << "construct-per-sample"
            << std::setw(10) << us(constructed_lat.p50()) << std::setw(10)
            << us(constructed_lat.p95()) << std::setw(10)
            << us(constructed_lat.p99()) << us(constructed_lat.max())
            << "\n\n";
  bench::trajectory().record("fleet/pool/latency_p50",
                             us(pooled_lat.p50()), "us");
  bench::trajectory().record("fleet/pool/latency_p99",
                             us(pooled_lat.p99()), "us");
  bench::trajectory().record("fleet/construct/latency_p50",
                             us(constructed_lat.p50()), "us");
  bench::trajectory().record("fleet/construct/latency_p99",
                             us(constructed_lat.p99()), "us");
}

void report() {
  bench::banner("E17: fleet-scale chunked Monte-Carlo engine",
                "ROADMAP north-star: fleet-scale schedule coverage");
  report_mc_scaling();
  report_pool_ablation();
}

void bm_fleet_estimate(benchmark::State& state) {
  const analysis::DesignPair pair = analysis::section51_designs(4, 2, 2);
  const analysis::MissionParams mission =
      mc_mission(static_cast<std::uint32_t>(state.range(1)));
  sim::FleetOptions options;
  options.threads = static_cast<std::size_t>(state.range(0));
  sim::FleetRunner fleet(options);
  Rng rng(42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        analysis::estimate_dependability(pair.reconfig, mission, rng, fleet)
            .p_loss);
  }
  state.SetItemsProcessed(state.iterations() * mission.trials);
}
BENCHMARK(bm_fleet_estimate)
    ->Args({1, 100'000})
    ->Args({4, 100'000})
    ->Unit(benchmark::kMillisecond);

void bm_fleet_pooled_missions(benchmark::State& state) {
  support::FleetMissionOptions options;
  options.samples = 64;
  options.frames = 4;
  options.warmup_frames = 64;
  options.pool_systems = state.range(0) != 0;
  const support::MissionFactory factory = chain_factory();
  const support::PlanFactory plans = chain_plans(64, 4);
  sim::FleetRunner fleet;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        support::run_fleet_missions(factory, plans, options, fleet).digest);
  }
  state.SetItemsProcessed(state.iterations() * options.samples);
}
BENCHMARK(bm_fleet_pooled_missions)
    ->Arg(1)
    ->Arg(0)
    ->Unit(benchmark::kMillisecond);

}  // namespace

ARFS_BENCH_MAIN(report)
