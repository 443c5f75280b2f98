// Crash-point sweep: fail-stop a durable processor at *every* frame of a
// mission, in parallel, and verify every recovery lands exactly on a
// committed frame boundary at or above the last durable epoch — the
// paper's §5.1 halt contract checked exhaustively rather than at a few
// hand-picked crash points.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "arfs/avionics/uav_system.hpp"
#include "arfs/core/system.hpp"
#include "arfs/sim/batch.hpp"
#include "arfs/support/crash_sweep.hpp"
#include "arfs/support/mission.hpp"
#include "arfs/support/simple_app.hpp"
#include "arfs/support/synthetic.hpp"

namespace arfs::support {
namespace {

using storage::durable::SyncPolicy;

/// The four policies every sweep must pass under.
std::vector<std::pair<std::string, SyncPolicy>> all_policies() {
  return {{"every-commit", SyncPolicy::every_commit()},
          {"bytes(512)", SyncPolicy::bytes(512)},
          {"frames(4)", SyncPolicy::frames(4)},
          {"hybrid(4096,8)", SyncPolicy::hybrid(4096, 8)}};
}

/// Chain-spec mission: durable processors, one SimpleApp per declared app,
/// no faults of its own — every frame is a plain commit. With `shipping`
/// every durable processor also feeds a replica cohort of
/// max(1, `replicas`) members over the TDMA shipping slots (the warm-start
/// sweeps).
MissionFactory chain_factory(SyncPolicy policy, bool shipping = false,
                             std::uint32_t replicas = 0,
                             bool record_trace = true) {
  return [policy, shipping, replicas, record_trace] {
    auto spec =
        std::make_shared<core::ReconfigSpec>(make_chain_spec({}));
    core::SystemOptions options;
    options.durable_storage = true;
    options.journal_shipping = shipping;
    options.quorum_replicas = replicas;
    options.record_trace = record_trace;
    options.durability.snapshot_every_epochs = 7;
    options.durability.sync = policy;
    auto system = std::make_unique<core::System>(*spec, options);
    for (const core::AppDecl& decl : spec->apps()) {
      system->add_app(
          std::make_unique<SimpleApp>(decl.id, decl.name));
    }
    CrashMission mission;
    mission.keepalive = spec;
    mission.system = std::move(system);
    return mission;
  };
}

/// The paper's avionics mission: autopilot + FCS over the three service
/// configurations, with the electrical factor driving two reconfigurations
/// down and one back up. The victim (computer 1) hosts applications in
/// every configuration and is never failed by the mission itself.
MissionFactory uav_factory(SyncPolicy policy, bool shipping = false) {
  return [policy, shipping] {
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
    options.journal_shipping = shipping;
    options.durability.snapshot_every_epochs = 16;
    options.durability.sync = policy;
    auto system = std::make_unique<core::System>(bundle->spec, options);
    system->add_app(
        std::make_unique<avionics::AutopilotApp>(bundle->plant));
    system->add_app(std::make_unique<avionics::FcsApp>(bundle->plant));

    MissionProfile mission(options.frame_length);
    mission.at(10, avionics::kPowerFactor, 1)
        .at(25, avionics::kPowerFactor, 2)
        .at(40, avionics::kPowerFactor, 0);
    system->set_fault_plan(mission.build());

    CrashMission out;
    out.keepalive = bundle;
    out.system = std::move(system);
    return out;
  };
}

TEST(CrashSweep, ChainMissionRecoversAtEveryFrameUnderEveryPolicy) {
  for (const auto& [name, policy] : all_policies()) {
    CrashSweepOptions options;
    options.frames = 20;
    options.victim = synthetic_processor(0);
    const CrashSweepReport report =
        run_crash_sweep(chain_factory(policy), options);
    ASSERT_EQ(report.points.size(), 20u) << name;
    EXPECT_TRUE(report.all_match())
        << name << ": " << report.mismatches << " mismatching crash points";
    if (policy.mode == storage::durable::SyncMode::kEveryCommit) {
      EXPECT_EQ(report.max_lost_frames, 0u) << name;
    }
  }
}

TEST(CrashSweep, FramesWatermarkBoundsLostFramesByTheWatermark) {
  CrashSweepOptions options;
  options.frames = 20;
  options.victim = synthetic_processor(0);
  const CrashSweepReport report =
      run_crash_sweep(chain_factory(SyncPolicy::frames(4)), options);
  EXPECT_TRUE(report.all_match());
  // The lag can never reach the watermark before the sync fires, and the
  // snapshot boundary (every 7 epochs) also flushes it.
  EXPECT_LT(report.max_lost_frames, 4u);
  EXPECT_GT(report.max_lost_frames, 0u);  // group commit really deferred
}

TEST(CrashSweep, AvionicsMissionRecoversAtEveryFrameUnderEveryPolicy) {
  for (const auto& [name, policy] : all_policies()) {
    CrashSweepOptions options;
    options.frames = 60;
    options.victim = avionics::kComputer1;
    const CrashSweepReport report =
        run_crash_sweep(uav_factory(policy), options);
    ASSERT_EQ(report.points.size(), 60u) << name;
    EXPECT_TRUE(report.all_match())
        << name << ": " << report.mismatches << " mismatching crash points";
  }
}

TEST(CrashSweep, TornWriteStillRecoversOnACommitBoundary) {
  // The final in-flight write tears: a few buffered-tail bytes land on the
  // durable image. Recovery must truncate the torn record, and the
  // durable-epoch floor still holds — synced bytes are untouched.
  for (const auto& [name, policy] : all_policies()) {
    CrashSweepOptions options;
    options.frames = 20;
    options.victim = synthetic_processor(0);
    options.io_fault = CrashSweepOptions::IoFault::kTornWrite;
    const CrashSweepReport report =
        run_crash_sweep(chain_factory(policy), options);
    EXPECT_TRUE(report.all_match())
        << name << ": " << report.mismatches << " mismatching crash points";
    // Group-commit policies carry a buffered tail most frames, so the tear
    // really deposits torn bytes recovery has to truncate. (Under
    // every-commit the tail is empty at the boundary — nothing to tear.)
    if (policy.mode != storage::durable::SyncMode::kEveryCommit) {
      bool truncated = false;
      for (const CrashPoint& p : report.points) {
        truncated = truncated || p.journal_truncated;
      }
      EXPECT_TRUE(truncated) << name;
    }
  }
}

TEST(CrashSweep, BitFlipStillRecoversOnACommitBoundary) {
  // A latent media fault flips one durable bit at every crash point. It may
  // land in *synced* records, so the durable-epoch floor is waived — but
  // recovery must still land on an exact frame-commit boundary, never on
  // torn state.
  for (const auto& [name, policy] : all_policies()) {
    CrashSweepOptions options;
    options.frames = 20;
    options.victim = synthetic_processor(0);
    options.io_fault = CrashSweepOptions::IoFault::kBitFlip;
    const CrashSweepReport report =
        run_crash_sweep(chain_factory(policy), options);
    EXPECT_TRUE(report.all_match())
        << name << ": " << report.mismatches << " mismatching crash points";
  }
}

TEST(CrashSweep, WarmStartReplicaMatchesRecoveryAtEveryFrame) {
  // The warm-start contract at every crash point of the chain mission,
  // under every sync policy: after the post-crash catch-up the standby
  // replica's fingerprint is bit-identical to the recovered
  // commit-boundary fingerprint.
  for (const auto& [name, policy] : all_policies()) {
    CrashSweepOptions options;
    options.frames = 20;
    options.victim = synthetic_processor(0);
    options.warm_start = true;
    const CrashSweepReport report =
        run_crash_sweep(chain_factory(policy, /*shipping=*/true), options);
    EXPECT_TRUE(report.all_match()) << name << ": " << report.mismatches
                                    << " recovery / "
                                    << report.replica_mismatches
                                    << " replica mismatches";
    EXPECT_EQ(report.replica_mismatches, 0u) << name;
  }
}

TEST(CrashSweep, WarmStartAvionicsReplicaMatchesUnderEveryPolicy) {
  for (const auto& [name, policy] : all_policies()) {
    CrashSweepOptions options;
    options.frames = 30;
    options.victim = avionics::kComputer1;
    options.warm_start = true;
    const CrashSweepReport report =
        run_crash_sweep(uav_factory(policy, /*shipping=*/true), options);
    EXPECT_TRUE(report.all_match()) << name;
    EXPECT_EQ(report.replica_mismatches, 0u) << name;
  }
}

TEST(CrashSweep, ReportIsBitIdenticalAcrossThreadCounts) {
  const auto digest_with = [](std::size_t threads) {
    sim::BatchOptions batch;
    batch.threads = threads;
    sim::BatchRunner runner(batch);
    CrashSweepOptions options;
    options.frames = 12;
    options.victim = synthetic_processor(0);
    return run_crash_sweep(chain_factory(SyncPolicy::frames(3)), options,
                           runner)
        .digest();
  };
  EXPECT_EQ(digest_with(1), digest_with(4));
}

TEST(CrashSweep, WarmStartReportIsBitIdenticalAcrossThreadCounts) {
  const auto digest_with = [](std::size_t threads) {
    sim::BatchOptions batch;
    batch.threads = threads;
    sim::BatchRunner runner(batch);
    CrashSweepOptions options;
    options.frames = 10;
    options.victim = synthetic_processor(0);
    options.warm_start = true;
    return run_crash_sweep(
               chain_factory(SyncPolicy::frames(3), /*shipping=*/true),
               options, runner)
        .digest();
  };
  EXPECT_EQ(digest_with(1), digest_with(4));
}

// --- the sweep never reads the sys_trace ---

TEST(CrashSweep, ReportIsIndependentOfTraceRecording) {
  // Recording factories and non-recording factories must give the same
  // report under every device fault, for the warm standby and for a
  // 3-member cohort losing its leader, in both sweep strategies.
  for (const CrashSweepOptions::IoFault fault :
       {CrashSweepOptions::IoFault::kNone,
        CrashSweepOptions::IoFault::kTornWrite,
        CrashSweepOptions::IoFault::kBitFlip}) {
    for (const std::uint32_t replicas : {0u, 3u}) {
      for (const bool checkpointing : {true, false}) {
        CrashSweepOptions options;
        options.frames = 16;
        options.victim = synthetic_processor(0);
        options.io_fault = fault;
        options.warm_start = true;
        options.quorum_kills = replicas == 3 ? 1 : 0;
        options.checkpointing = checkpointing;
        const CrashSweepReport traced = run_crash_sweep(
            chain_factory(SyncPolicy::frames(4), /*shipping=*/true, replicas,
                          /*record_trace=*/true),
            options);
        const CrashSweepReport untraced = run_crash_sweep(
            chain_factory(SyncPolicy::frames(4), /*shipping=*/true, replicas,
                          /*record_trace=*/false),
            options);
        const std::string label =
            "io-fault " + std::to_string(static_cast<int>(fault)) +
            ", replicas " + std::to_string(replicas) +
            (checkpointing ? ", checkpointed" : ", from scratch");
        EXPECT_TRUE(traced.all_match()) << label;
        EXPECT_EQ(untraced.digest(), traced.digest()) << label;
      }
    }
  }
}

/// What the systems a probed factory builds saw: frames run, and the
/// largest sys_trace any of them held at the start of a frame.
struct TraceProbe {
  std::atomic<std::uint64_t> frames{0};
  std::atomic<std::size_t> largest_trace{0};
};

/// Wraps `inner` so every system it builds reports each frame to `probe`
/// (an environment hook: configuration, never checkpointed or digested).
MissionFactory probed(MissionFactory inner,
                      std::shared_ptr<TraceProbe> probe) {
  return [inner, probe] {
    CrashMission mission = inner();
    const core::System* system = mission.system.get();
    mission.system->add_env_hook([system, probe](env::Environment&, Cycle,
                                                 SimTime) {
      probe->frames.fetch_add(1);
      const std::size_t size = system->trace().size();
      std::size_t seen = probe->largest_trace.load();
      while (size > seen &&
             !probe->largest_trace.compare_exchange_weak(seen, size)) {
      }
    });
    return mission;
  };
}

TEST(CrashSweep, CheckpointsAndProbesHoldNoTraceStates) {
  auto probe = std::make_shared<TraceProbe>();
  const MissionFactory factory =
      probed(chain_factory(SyncPolicy::frames(4), /*shipping=*/true, 3),
             probe);
  {
    // The probe sees a recording system's trace grow: 0, 1, 2.
    CrashMission mission = factory();
    mission.system->run(3);
    ASSERT_EQ(probe->largest_trace.load(), 2u);
  }
  for (const bool checkpointing : {true, false}) {
    probe->frames = 0;
    probe->largest_trace = 0;
    // F = 18 auto-tunes to stride 4, so the last checkpoint (frame 16) is
    // restored by points 17 and 18: every checkpoint is restored into a
    // probe that runs at least one frame.
    CrashSweepOptions options;
    options.frames = 18;
    options.victim = synthetic_processor(0);
    options.warm_start = true;
    options.quorum_kills = 1;
    options.checkpointing = checkpointing;
    const CrashSweepReport report = run_crash_sweep(factory, options);
    EXPECT_TRUE(report.all_match());
    // Every simulated frame (baseline and probes) was observed, and none
    // started with a recorded state: the baseline records nothing, so its
    // checkpoints carry empty traces and every restore installs one.
    EXPECT_EQ(probe->frames.load(), report.simulated_frames)
        << (checkpointing ? "checkpointed" : "from scratch");
    EXPECT_EQ(probe->largest_trace.load(), 0u)
        << (checkpointing ? "checkpointed" : "from scratch");
    if (checkpointing) EXPECT_EQ(report.checkpoints_taken, 5u);
  }
}

TEST(CrashSweep, UntracedSystemRunsTheSameMissionWithAnEmptyTrace) {
  // The §7 mission reconfigures at frames 10, 25 and 40, so the compared
  // frames cover every SFTA phase, with journal shipping on.
  const MissionFactory factory =
      uav_factory(SyncPolicy::hybrid(4096, 8), /*shipping=*/true);
  CrashMission traced = factory();
  CrashMission untraced = factory();
  untraced.system->set_record_trace(false);
  constexpr Cycle kFrames = 45;
  constexpr Cycle kCheckpointAt = 20;
  std::optional<core::SystemCheckpoint> mid;
  std::uint64_t mid_digest = 0;
  for (Cycle f = 1; f <= kFrames; ++f) {
    traced.system->run(1);
    untraced.system->run(1);
    ASSERT_EQ(traced.system->trace().size(), f);
    ASSERT_TRUE(untraced.system->trace().empty()) << "frame " << f;
    ASSERT_TRUE(untraced.system->stats() == traced.system->stats())
        << "frame " << f;
    ASSERT_EQ(untraced.system->scram().current_config(),
              traced.system->scram().current_config())
        << "frame " << f;
    for (const ProcessorId p : traced.system->processors().processor_ids()) {
      ASSERT_EQ(
          untraced.system->processors().processor(p).poll_stable()
              .fingerprint(),
          traced.system->processors().processor(p).poll_stable().fingerprint())
          << "frame " << f << ", processor " << p.value();
    }
    if (f == kCheckpointAt) {
      mid.emplace(untraced.system->checkpoint());
      mid_digest = untraced.system->digest();
    }
  }
  EXPECT_GT(traced.system->scram().stats().reconfigs_completed, 0u);

  // Round trip: the checkpoint holds an empty trace, and a fresh
  // non-recording system restored from it reaches the same end state.
  ASSERT_TRUE(mid.has_value() && mid->trace.has_value());
  EXPECT_TRUE(mid->trace->empty());
  EXPECT_EQ(mid->digest(), mid_digest);
  CrashMission fork = factory();
  fork.system->set_record_trace(false);
  fork.system->restore(*mid);
  EXPECT_EQ(fork.system->digest(), mid_digest);
  fork.system->run(kFrames - kCheckpointAt);
  EXPECT_TRUE(fork.system->trace().empty());
  EXPECT_EQ(fork.system->digest(), untraced.system->digest());
  EXPECT_TRUE(fork.system->stats() == traced.system->stats());
}

}  // namespace
}  // namespace arfs::support
