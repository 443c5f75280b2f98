// The fleet engine's determinism contract, end to end.
//
// Contracts under test:
//  * sim::auto_stride and ShardPlan — the explicit sharding info: balanced
//    contiguous chunk ranges, exact inverses, clamped auto-tune;
//  * FleetRunner::reduce / map are bit-identical to the serial chunk loop
//    at every (threads, shards) point — sharding moves accumulator
//    locality, never results;
//  * analysis::estimate_dependability on the fleet path equals the
//    BatchRunner oracle exactly (all six fields and the digest) at every
//    (threads, shards) point;
//  * analysis::check_coverage / certify on the fleet path reproduce the
//    serial reports;
//  * support::run_fleet_missions — chain and §7 avionics missions — has one
//    digest across {threads} × {shards} × {pooled, construct-per-sample},
//    equal to the 1-thread/1-shard/no-pool serial oracle; its samples run
//    untraced, and its digest is the same whether the factory's systems
//    record a trace or not;
//  * PooledMission's checkpoint ladder rewinds exactly: reset_to(f) is
//    bit-identical to a fresh build run f frames.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "arfs/analysis/certify.hpp"
#include "arfs/analysis/coverage.hpp"
#include "arfs/analysis/dependability.hpp"
#include "arfs/avionics/uav_system.hpp"
#include "arfs/core/system.hpp"
#include "arfs/sim/fleet.hpp"
#include "arfs/support/fleet.hpp"
#include "arfs/support/mission.hpp"
#include "arfs/support/simple_app.hpp"
#include "arfs/support/sweep.hpp"
#include "arfs/support/synthetic.hpp"

namespace arfs::support {
namespace {

TEST(AutoStride, RoundedIntegerSquareRoot) {
  EXPECT_EQ(sim::auto_stride(0), 1u);
  EXPECT_EQ(sim::auto_stride(1), 1u);
  EXPECT_EQ(sim::auto_stride(2), 1u);
  EXPECT_EQ(sim::auto_stride(3), 2u);  // 3-1=2 > 4-3=1 → round up
  EXPECT_EQ(sim::auto_stride(4), 2u);
  EXPECT_EQ(sim::auto_stride(20), 4u);   // 20-16=4 <= 25-20=5
  EXPECT_EQ(sim::auto_stride(24), 5u);   // 24-16=8 > 25-24=1
  EXPECT_EQ(sim::auto_stride(100), 10u);
  EXPECT_EQ(sim::auto_stride(10'000), 100u);
}

TEST(ShardPlan, PartitionsChunksContiguouslyAndBalanced) {
  // 10'000 samples at chunk 1024 → 10 chunks; explicit 3 shards.
  const sim::ShardPlan p = sim::ShardPlan::make(10'000, 1024, 3);
  EXPECT_EQ(p.samples(), 10'000u);
  EXPECT_EQ(p.chunk(), 1024u);
  EXPECT_EQ(p.chunks(), 10u);
  EXPECT_EQ(p.shards(), 3u);

  // Shard ranges tile [0, chunks) in order with sizes differing by <= 1,
  // and shard_of_chunk is the exact inverse.
  std::size_t next = 0;
  std::size_t min_size = p.chunks(), max_size = 0;
  for (std::size_t s = 0; s < p.shards(); ++s) {
    const sim::ShardPlan::Range r = p.chunks_of_shard(s);
    EXPECT_EQ(r.first, next);
    EXPECT_GT(r.size(), 0u);
    min_size = std::min(min_size, r.size());
    max_size = std::max(max_size, r.size());
    for (std::size_t c = r.first; c < r.end; ++c) {
      EXPECT_EQ(p.shard_of_chunk(c), s);
    }
    next = r.end;
  }
  EXPECT_EQ(next, p.chunks());
  EXPECT_LE(max_size - min_size, 1u);

  // Sample ranges: full chunks except the last (10'000 = 9·1024 + 784).
  EXPECT_EQ(p.samples_of_chunk(0).first, 0u);
  EXPECT_EQ(p.samples_of_chunk(0).size(), 1024u);
  EXPECT_EQ(p.samples_of_chunk(9).end, 10'000u);
  EXPECT_EQ(p.samples_of_chunk(9).size(), 10'000u - 9u * 1024u);
}

TEST(ShardPlan, ClampsShardRequestAndAutoTunes) {
  // Never more shards than chunks...
  EXPECT_EQ(sim::ShardPlan::make(4 * 1024, 1024, 50).shards(), 4u);
  // ...never zero, even for an empty run...
  EXPECT_EQ(sim::ShardPlan::make(0, 1024, 0).shards(), 1u);
  EXPECT_EQ(sim::ShardPlan::make(0, 1024, 0).chunks(), 0u);
  // ...and 0 auto-tunes to ~√chunks (100 chunks → 10 shards).
  EXPECT_EQ(sim::ShardPlan::make(100 * 1024, 1024, 0).shards(), 10u);
}

/// reduce() must equal the serial chunk loop bit for bit at every
/// (threads, shards) point — including a partial final chunk.
TEST(FleetRunner, ReduceMatchesSerialChunkLoopAtAnyThreadAndShardCount) {
  struct Acc {
    double sum = 0.0;
    std::uint64_t mix = 0xCBF29CE484222325ULL;
  };
  const std::size_t samples = 10 * 64 + 17;  // chunk 64 → partial tail
  const std::uint64_t base_seed = 99;
  const auto consume = [](const sim::FleetSample& s, Acc& a) {
    a.sum += 1.0 / static_cast<double>((s.seed % 1'000) + 1);
    a.mix ^= s.seed;
    a.mix *= 0x100000001B3ULL;
  };
  const auto fold = [](Acc& into, Acc& part) {
    into.sum += part.sum;
    into.mix ^= part.mix;
    into.mix *= 0x100000001B3ULL;
  };

  // Serial oracle: the documented loop, one chunk at a time in order.
  Acc oracle;
  for (std::size_t first = 0; first < samples; first += 64) {
    Acc chunk;
    const std::size_t end = std::min(first + 64, samples);
    for (std::size_t i = first; i < end; ++i) {
      consume(sim::FleetSample{i, sim::job_seed(base_seed, i), 0}, chunk);
    }
    fold(oracle, chunk);
  }

  for (const std::size_t threads : {1u, 2u, 8u}) {
    for (const std::size_t shards : {1u, 4u, 16u}) {
      sim::FleetOptions options;
      options.threads = threads;
      options.shards = shards;
      options.chunk = 64;
      sim::FleetRunner fleet(options);
      const Acc got = fleet.reduce<Acc>(samples, base_seed, consume, fold);
      EXPECT_EQ(got.sum, oracle.sum)
          << "threads=" << threads << " shards=" << shards;
      EXPECT_EQ(got.mix, oracle.mix)
          << "threads=" << threads << " shards=" << shards;
    }
  }
}

/// map() materializes job results in job order regardless of sharding.
TEST(FleetRunner, MapPreservesJobOrder) {
  for (const std::size_t shards : {1u, 3u, 16u}) {
    sim::FleetOptions options;
    options.threads = 4;
    options.shards = shards;
    sim::FleetRunner fleet(options);
    const std::vector<std::uint64_t> out = fleet.map<std::uint64_t>(
        23, /*base_seed=*/5,
        [](const sim::FleetSample& s) { return s.seed ^ s.index; });
    ASSERT_EQ(out.size(), 23u);
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out[i], sim::job_seed(5, i) ^ i) << "job " << i;
    }
  }
}

TEST(Dependability, FleetEstimateEqualsBatchOracleAtEveryThreadShardPoint) {
  const analysis::DesignPair pair = analysis::section51_designs(4, 2, 2);
  analysis::MissionParams mission;
  mission.mission_hours = 10.0;
  mission.failure_rate_per_hour = 0.05;
  mission.trials = 5'000;  // ~5 chunks at kFleetChunk, partial tail

  Rng oracle_rng(7);
  sim::BatchRunner serial{sim::BatchOptions{1, 0}};
  const analysis::DependabilityEstimate oracle =
      analysis::estimate_dependability(pair.reconfig, mission, oracle_rng,
                                       serial);

  for (const std::size_t threads : {1u, 2u, 8u}) {
    for (const std::size_t shards : {1u, 4u, 16u}) {
      sim::FleetOptions options;
      options.threads = threads;
      options.shards = shards;
      sim::FleetRunner fleet(options);
      Rng rng(7);  // same caller seed → same base_seed
      const analysis::DependabilityEstimate got =
          analysis::estimate_dependability(pair.reconfig, mission, rng,
                                           fleet);
      // Exact equality, field by field — not near-equality: the fleet path
      // must reproduce the oracle's floating-point addition sequence.
      EXPECT_EQ(got.p_full_whole_mission, oracle.p_full_whole_mission);
      EXPECT_EQ(got.p_safe_whole_mission, oracle.p_safe_whole_mission);
      EXPECT_EQ(got.p_loss, oracle.p_loss);
      EXPECT_EQ(got.full_service_fraction, oracle.full_service_fraction);
      EXPECT_EQ(got.safe_or_better_fraction, oracle.safe_or_better_fraction);
      EXPECT_EQ(got.mean_failures, oracle.mean_failures);
      EXPECT_EQ(got.digest(), oracle.digest())
          << "threads=" << threads << " shards=" << shards;
    }
  }
}

TEST(Coverage, FleetSweepReproducesSerialReport) {
  const core::ReconfigSpec spec = make_chain_spec({});
  const analysis::CoverageReport serial =
      analysis::check_coverage(spec, /*keep_discharged=*/true);

  sim::FleetOptions options;
  options.threads = 4;
  options.shards = 2;
  sim::FleetRunner fleet(options);
  const analysis::CoverageReport fleet_report =
      analysis::check_coverage(spec, /*keep_discharged=*/true,
                               /*env_limit=*/1u << 20, fleet);

  EXPECT_EQ(fleet_report.generated, serial.generated);
  EXPECT_EQ(fleet_report.discharged, serial.discharged);
  ASSERT_EQ(fleet_report.obligations.size(), serial.obligations.size());
  for (std::size_t i = 0; i < serial.obligations.size(); ++i) {
    EXPECT_EQ(fleet_report.obligations[i].description,
              serial.obligations[i].description);
    EXPECT_EQ(fleet_report.obligations[i].discharged,
              serial.obligations[i].discharged);
  }
}

TEST(Certify, FleetPathRendersIdenticalReport) {
  const core::ReconfigSpec spec = make_chain_spec({});
  const analysis::CertificationReport serial = analysis::certify(spec);

  sim::FleetOptions fleet_options;
  fleet_options.threads = 4;
  fleet_options.shards = 3;
  sim::FleetRunner fleet(fleet_options);
  analysis::CertifyOptions options;
  options.fleet = &fleet;
  const analysis::CertificationReport via_fleet =
      analysis::certify(spec, options);

  EXPECT_EQ(via_fleet.certified(), serial.certified());
  EXPECT_EQ(analysis::render_json(via_fleet), analysis::render_json(serial));
}

/// Chain-spec mission without a baked fault plan — fleet samples get their
/// plans from the PlanFactory, per seed.
MissionFactory fleet_chain_factory() {
  return [] {
    auto spec = std::make_shared<core::ReconfigSpec>(make_chain_spec({}));
    core::SystemOptions options;
    options.durable_storage = true;
    options.durability.snapshot_every_epochs = 7;
    auto system = std::make_unique<core::System>(*spec, options);
    for (const core::AppDecl& decl : spec->apps()) {
      system->add_app(std::make_unique<SimpleApp>(decl.id, decl.name));
    }
    CrashMission mission;
    mission.keepalive = spec;
    mission.system = std::move(system);
    return mission;
  };
}

/// The paper's §7 avionics mission — autopilot + FCS on the UAV spec — with
/// the factory-baked MissionProfile omitted: in a fleet sweep the
/// environment campaign is the per-sample fault plan.
MissionFactory fleet_uav_factory() {
  return [] {
    struct Bundle {
      core::ReconfigSpec spec;
      avionics::UavPlant plant;
      Bundle(core::ReconfigSpec s, std::uint64_t seed)
          : spec(std::move(s)), plant(seed) {}
    };
    avionics::UavSpecOptions spec_options;
    spec_options.dwell_frames = 10;
    auto bundle = std::make_shared<Bundle>(
        avionics::make_uav_spec(spec_options), 42);

    core::SystemOptions options;
    options.frame_length = 20'000;
    options.durable_storage = true;
    options.durability.snapshot_every_epochs = 16;
    auto system = std::make_unique<core::System>(bundle->spec, options);
    system->add_app(std::make_unique<avionics::AutopilotApp>(bundle->plant));
    system->add_app(std::make_unique<avionics::FcsApp>(bundle->plant));

    CrashMission out;
    out.keepalive = bundle;
    out.system = std::move(system);
    return out;
  };
}

PlanFactory env_plans_for(const core::ReconfigSpec& spec, Cycle warmup,
                          Cycle frames, SimDuration frame_length) {
  EnvPlanParams params;
  params.factors = spec.factors().factors();
  params.changes = 3;
  params.first_frame = warmup;
  params.frames = frames;
  params.frame_length = frame_length;
  return make_env_plan_factory(std::move(params));
}

/// One digest across {threads} × {shards} × {pooled, construct}, equal to
/// the 1-thread / 1-shard / no-pool serial oracle.
void expect_fleet_digest_invariant(const MissionFactory& factory,
                                   const PlanFactory& plans,
                                   FleetMissionOptions options,
                                   std::size_t chunk) {
  // Serial oracle: one thread, one shard, construct-per-sample.
  sim::FleetOptions serial_options;
  serial_options.threads = 1;
  serial_options.shards = 1;
  serial_options.chunk = chunk;
  sim::FleetRunner serial(serial_options);
  options.pool_systems = false;
  const FleetMissionReport oracle =
      run_fleet_missions(factory, plans, options, serial);
  ASSERT_NE(oracle.digest, 0u);
  EXPECT_EQ(oracle.samples, options.samples);
  EXPECT_EQ(oracle.systems_constructed, options.samples);
  EXPECT_EQ(oracle.pool_resets, 0u);

  for (const std::size_t threads : {1u, 2u, 8u}) {
    for (const std::size_t shards : {1u, 4u, 16u}) {
      for (const bool pooled : {true, false}) {
        sim::FleetOptions fleet_options;
        fleet_options.threads = threads;
        fleet_options.shards = shards;
        fleet_options.chunk = chunk;
        sim::FleetRunner fleet(fleet_options);
        options.pool_systems = pooled;
        const FleetMissionReport got =
            run_fleet_missions(factory, plans, options, fleet);
        EXPECT_EQ(got.digest, oracle.digest)
            << "threads=" << threads << " shards=" << shards
            << " pooled=" << pooled;
        EXPECT_EQ(got.fault_events, oracle.fault_events);
        EXPECT_EQ(got.reconfigurations, oracle.reconfigurations);
        EXPECT_EQ(got.frames_run, oracle.frames_run);
        if (pooled) {
          EXPECT_EQ(got.pool_resets, options.samples);
          // The pool grows to at most the active lanes, never per sample.
          EXPECT_LE(got.systems_constructed, got.pool_resets);
        } else {
          EXPECT_EQ(got.systems_constructed, options.samples);
        }
      }
    }
  }
}

TEST(FleetMissions, ChainDigestInvariantAcrossThreadsShardsAndPooling) {
  const MissionFactory factory = fleet_chain_factory();
  const core::ReconfigSpec spec = make_chain_spec({});
  FleetMissionOptions options;
  options.samples = 22;
  options.frames = 4;
  options.warmup_frames = 6;
  options.base_seed = 11;
  expect_fleet_digest_invariant(
      factory, env_plans_for(spec, options.warmup_frames, options.frames,
                             10'000),
      options, /*chunk=*/4);
}

TEST(FleetMissions, AvionicsDigestInvariantAcrossThreadsShardsAndPooling) {
  const MissionFactory factory = fleet_uav_factory();
  avionics::UavSpecOptions spec_options;
  spec_options.dwell_frames = 10;
  const core::ReconfigSpec spec = avionics::make_uav_spec(spec_options);
  FleetMissionOptions options;
  options.samples = 6;
  options.frames = 5;
  options.warmup_frames = 4;
  options.base_seed = 3;
  expect_fleet_digest_invariant(
      factory, env_plans_for(spec, options.warmup_frames, options.frames,
                             20'000),
      options, /*chunk=*/2);
}

TEST(FleetMissions, EnvPlanFactoryIsAPureFunctionOfTheSeed) {
  const core::ReconfigSpec spec = make_chain_spec({});
  const PlanFactory plans = env_plans_for(spec, 6, 4, 10'000);
  for (const std::uint64_t seed : {1ull, 42ull, 0xDEADBEEFull}) {
    const sim::FaultPlan a = plans(seed);
    const sim::FaultPlan b = plans(seed);
    ASSERT_EQ(a.events().size(), b.events().size());
    EXPECT_EQ(a.events().size(), 3u);
    for (std::size_t i = 0; i < a.events().size(); ++i) {
      EXPECT_EQ(a.events()[i].when, b.events()[i].when);
      EXPECT_EQ(a.events()[i].new_value, b.events()[i].new_value);
      // Every event lands at or after the warm point — the shared prefix.
      EXPECT_GE(a.events()[i].when, 6 * 10'000);
    }
  }
}

TEST(PooledMission, ResetToRewindsExactlyToAnyPrefixFrame) {
  const MissionFactory factory = fleet_chain_factory();
  PooledMission pooled(factory, /*warmup_frames=*/10);
  for (const Cycle f : {0u, 3u, 7u, 10u}) {
    pooled.reset_to(f);
    CrashMission fresh = factory();
    fresh.system->run(f);
    EXPECT_EQ(pooled.system().digest(), fresh.system->digest())
        << "frame " << f;
  }
  // reset() is reset_to(warmup), and resets are counted.
  pooled.reset();
  CrashMission warm = factory();
  warm.system->run(10);
  EXPECT_EQ(pooled.system().digest(), warm.system->digest());
  EXPECT_EQ(pooled.resets(), 5u);
}

TEST(SystemPool, ReusesIdleMissionsAndCountsConstructions) {
  SystemPool pool(fleet_chain_factory(), /*warmup_frames=*/4);
  {
    SystemPool::Lease a = pool.lease();
    a.mission().reset();
  }
  {
    // The first lease has been returned: this one must reuse it.
    SystemPool::Lease b = pool.lease();
    b.mission().reset();
    // A concurrent lease while b is out forces a second construction.
    SystemPool::Lease c = pool.lease();
    c.mission().reset();
  }
  const SystemPool::Stats stats = pool.stats();
  EXPECT_EQ(stats.leases, 3u);
  EXPECT_EQ(stats.constructions, 2u);
}

/// Wraps `inner` so every system it builds stops recording its trace.
MissionFactory non_recording(MissionFactory inner) {
  return [inner] {
    CrashMission mission = inner();
    mission.system->set_record_trace(false);
    return mission;
  };
}

TEST(Fleet, ReportDigestIsIndependentOfTraceRecording) {
  // The §7 mission with durable storage: the digest covers device bytes,
  // and reconfigurations land inside the sampled leg.
  avionics::UavSpecOptions spec_options;
  spec_options.dwell_frames = 10;
  const core::ReconfigSpec spec = avionics::make_uav_spec(spec_options);
  FleetMissionOptions options;
  options.samples = 5;
  options.frames = 6;
  options.warmup_frames = 3;
  options.base_seed = 7;
  const PlanFactory plans =
      env_plans_for(spec, options.warmup_frames, options.frames, 20'000);
  const MissionFactory recording = fleet_uav_factory();
  const MissionFactory untraced = non_recording(recording);

  std::uint64_t first = 0;
  for (const bool pooled : {true, false}) {
    for (const std::size_t threads : {1u, 3u}) {
      sim::FleetOptions fleet_options;
      fleet_options.threads = threads;
      fleet_options.chunk = 2;
      sim::FleetRunner fleet(fleet_options);
      options.pool_systems = pooled;
      const FleetMissionReport traced_report =
          run_fleet_missions(recording, plans, options, fleet);
      const FleetMissionReport untraced_report =
          run_fleet_missions(untraced, plans, options, fleet);
      EXPECT_EQ(traced_report.digest, untraced_report.digest)
          << "pooled=" << pooled << " threads=" << threads;
      EXPECT_EQ(traced_report.frames_run, untraced_report.frames_run);
      if (first == 0) first = traced_report.digest;
      EXPECT_EQ(traced_report.digest, first)
          << "pooled=" << pooled << " threads=" << threads;
    }
  }
  EXPECT_NE(first, 0u);
}

TEST(Fleet, SamplesRunUntraced) {
  // A recording factory whose systems report the trace size at the start
  // of every frame (an environment hook: configuration, never digested).
  struct Probe {
    std::atomic<std::uint64_t> frames{0};
    std::atomic<std::size_t> largest_trace{0};
  };
  auto probe = std::make_shared<Probe>();
  const MissionFactory inner = fleet_chain_factory();
  const MissionFactory factory = [inner, probe] {
    CrashMission mission = inner();
    const core::System* system = mission.system.get();
    mission.system->add_env_hook(
        [system, probe](env::Environment&, Cycle, SimTime) {
          probe->frames.fetch_add(1);
          const std::size_t size = system->trace().size();
          std::size_t seen = probe->largest_trace.load();
          while (size > seen &&
                 !probe->largest_trace.compare_exchange_weak(seen, size)) {
          }
        });
    return mission;
  };
  {
    // The probe sees a recording system's trace grow: 0, 1, 2.
    CrashMission mission = factory();
    mission.system->run(3);
    ASSERT_EQ(probe->largest_trace.load(), 2u);
  }

  const core::ReconfigSpec spec = make_chain_spec({});
  FleetMissionOptions options;
  options.samples = 9;
  options.frames = 5;
  options.warmup_frames = 4;
  options.base_seed = 5;
  const PlanFactory plans =
      env_plans_for(spec, options.warmup_frames, options.frames, 10'000);
  for (const bool pooled : {true, false}) {
    probe->frames = 0;
    probe->largest_trace = 0;
    sim::FleetOptions fleet_options;
    fleet_options.threads = 2;
    fleet_options.chunk = 2;
    sim::FleetRunner fleet(fleet_options);
    options.pool_systems = pooled;
    const FleetMissionReport report =
        run_fleet_missions(factory, plans, options, fleet);
    // Every simulated frame was observed — warm-ups included — and none
    // started with a recorded state.
    const std::uint64_t warmups = pooled ? report.systems_constructed
                                         : options.samples;
    EXPECT_EQ(probe->frames.load(),
              warmups * options.warmup_frames + report.frames_run)
        << "pooled=" << pooled;
    EXPECT_EQ(probe->largest_trace.load(), 0u) << "pooled=" << pooled;
  }
}

TEST(Sweep, FleetOverloadMatchesBatchRunnerSweep) {
  const std::function<std::uint64_t(const MissionJob&)> fly =
      [](const MissionJob& job) { return job.seed * 31 + job.index; };
  const std::vector<std::uint64_t> batch =
      run_mission_sweep<std::uint64_t>(17, /*base_seed=*/9, fly);
  sim::FleetOptions options;
  options.threads = 4;
  options.shards = 3;
  sim::FleetRunner fleet(options);
  const std::vector<std::uint64_t> via_fleet =
      run_mission_sweep<std::uint64_t>(17, /*base_seed=*/9, fly, fleet);
  EXPECT_EQ(via_fleet, batch);
}

TEST(Sweep, PooledOverloadMatchesConstructPerMissionSweep) {
  const core::ReconfigSpec spec = make_chain_spec({});
  const PlanFactory plans = env_plans_for(spec, 0, 4, 10'000);
  const Cycle frames = 4;

  // Self-contained oracle: build a fresh system inside every call.
  const MissionFactory factory = fleet_chain_factory();
  const std::function<std::uint64_t(const MissionJob&)> construct_fly =
      [&](const MissionJob& job) {
        CrashMission mission = factory();
        mission.system->set_fault_plan(plans(job.seed));
        mission.system->run(frames);
        return mission.system->digest();
      };
  const std::vector<std::uint64_t> oracle =
      run_mission_sweep<std::uint64_t>(9, /*base_seed=*/13, construct_fly);

  // Pooled path: leased warm systems, reset per mission (warmup 0 pools the
  // pristine frame-0 state, matching the oracle's fresh builds).
  SystemPool pool(factory, /*warmup_frames=*/0);
  sim::FleetRunner fleet;
  const std::function<std::uint64_t(const MissionJob&, PooledMission&)>
      pooled_fly = [&](const MissionJob& job, PooledMission& mission) {
        mission.system().set_fault_plan(plans(job.seed));
        mission.system().run(frames);
        return mission.system().digest();
      };
  const std::vector<std::uint64_t> pooled = run_mission_sweep<std::uint64_t>(
      9, /*base_seed=*/13, pooled_fly, pool, fleet);
  EXPECT_EQ(pooled, oracle);
  EXPECT_LT(pool.stats().constructions, 9u);
}

}  // namespace
}  // namespace arfs::support
