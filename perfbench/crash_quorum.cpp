// crash-quorum: the durable stack's crash-point sweep.
//
// support::run_crash_sweep over 4096 crash points of chain:4 with durable
// WAL storage and journal shipping to a 3-member quorum cohort, warm start
// and one elected-leader kill per point, auto stride, on a BatchRunner with
// a fixed thread count. The seed picks the environment campaign baked into
// the mission factory. Every point builds a mission, restores a checkpoint,
// runs the residual frames, fail-stops the victim (journal recovery), kills
// the shipper-leader and catches the cohort up.
//
// Checks: all_match(); an independent re-judgement of every point from
// its reported fields; a short-prefix sweep gives the same digest with
// checkpointing on and off. The traced replay re-derives a subsample of
// points through the same public calls and compares them field by field.
#include <atomic>
#include <sstream>
#include <vector>

#include "arfs/failstop/processor.hpp"
#include "arfs/sim/batch.hpp"
#include "arfs/sim/fleet.hpp"
#include "arfs/support/crash_sweep.hpp"
#include "arfs/support/synthetic.hpp"
#include "missions.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace arfs;

namespace {

constexpr Cycle kPoints = 4096;
constexpr std::size_t kCampaignChanges = 32;
constexpr std::uint32_t kReplicas = 3;
constexpr std::uint32_t kKills = 1;
constexpr Cycle kPrefix = 128;             ///< Checkpointing on/off check.
constexpr std::size_t kReplayPoints = 64;  ///< Serial layer replay.
constexpr std::size_t kSetupRepsPerPass = 9;
constexpr std::size_t kTracedPairs = 3;  ///< Untraced/traced sweep pairs.

ProcessorId victim() { return support::synthetic_processor(0); }

support::CrashSweepOptions sweep_options(Cycle frames, bool checkpointing) {
  support::CrashSweepOptions options;
  options.frames = frames;
  options.victim = victim();
  options.warm_start = true;
  options.quorum_kills = kKills;
  options.checkpointing = checkpointing;
  return options;
}

struct Pass {
  double seconds = 0;
  support::CrashSweepReport report;
};

Pass sweep_pass(const support::MissionFactory& factory, Cycle frames,
                bool checkpointing, std::size_t threads) {
  sim::BatchOptions batch;
  batch.threads = threads;
  sim::BatchRunner runner(batch);
  Pass pass;
  const Clock::time_point t0 = Clock::now();
  pass.report =
      support::run_crash_sweep(factory, sweep_options(frames, checkpointing),
                               runner);
  pass.seconds = seconds_since(t0);
  return pass;
}

/// Re-judges every point from its reported fields: with no device fault
/// the recovered epoch is exactly the durable floor, the recovered store
/// is the floor's fingerprint, and the warm-started replica equals it
/// without a reseed. Returns the points that fail.
std::uint64_t failed_points(const support::CrashSweepReport& report) {
  std::uint64_t failed = report.points.size() == kPoints ? 0 : kPoints;
  for (const support::CrashPoint& p : report.points) {
    const bool ok = p.match && p.replica_match &&
                    p.recovered_epoch == p.durable_epoch &&
                    p.recovered_fingerprint == p.expected_fingerprint &&
                    p.replica_fingerprint == p.recovered_fingerprint &&
                    p.replica_epoch == p.recovered_epoch && !p.replica_reseeded;
    if (!ok) ++failed;
  }
  return failed;
}

bool same_point(const support::CrashPoint& a, const support::CrashPoint& b) {
  return a.crash_frame == b.crash_frame &&
         a.expected_fingerprint == b.expected_fingerprint &&
         a.recovered_fingerprint == b.recovered_fingerprint &&
         a.durable_epoch == b.durable_epoch &&
         a.recovered_epoch == b.recovered_epoch &&
         a.replica_epoch == b.replica_epoch &&
         a.replica_fingerprint == b.replica_fingerprint &&
         a.replica_catchup_bytes == b.replica_catchup_bytes &&
         a.replica_reseeded == b.replica_reseeded;
}

struct Replay {
  Counters counters;
  std::uint64_t mismatched = 0;  ///< Replayed points unlike the report's.
};

/// Serial replay of a subsample of crash points through the calls
/// run_crash_sweep makes: one baseline pass dropping stride checkpoints,
/// then per point a fresh mission, restore, residual frames, fail-stop,
/// leader kill and cohort catch-up. Each point is compared with `report`.
Replay replay_points(const support::MissionFactory& factory,
                     const support::CrashSweepReport& report, Tracer& tracer) {
  Replay out;
  const Cycle stride = sim::auto_stride(kPoints);
  support::CrashMission baseline =
      tracer.call("support.mission_build", 0, factory);
  core::System& base = *baseline.system;
  const failstop::Processor& base_victim =
      base.processors().processor(victim());
  std::vector<std::uint64_t> fingerprints{
      base_victim.poll_stable().fingerprint()};
  std::vector<core::SystemCheckpoint> checkpoints;
  checkpoints.push_back(
      tracer.call("core.checkpoint", 0, [&] { return base.checkpoint(); }));
  for (Cycle f = 1; f <= kPoints; ++f) {
    tracer.call("core.run_frame", 0, [&] { base.run_frame(); });
    fingerprints.push_back(base_victim.poll_stable().fingerprint());
    if (f % stride == 0) {
      checkpoints.push_back(
          tracer.call("core.checkpoint", 0, [&] { return base.checkpoint(); }));
    }
  }

  const Cycle step = kPoints / kReplayPoints;
  for (std::size_t k = 1; k <= kReplayPoints; ++k) {
    // Spread over the mission, with residuals of every length.
    const Cycle crash_frame = k * step - (k * 37) % step;
    const std::uint64_t unit = crash_frame;
    tracer.begin_unit("crash_point", unit);
    support::CrashMission mission =
        tracer.call("support.mission_build", unit, factory);
    core::System& system = *mission.system;
    const Cycle base_frame = crash_frame - crash_frame % stride;
    tracer.call("core.restore", unit, [&] {
      system.restore(checkpoints[static_cast<std::size_t>(base_frame / stride)]);
    });
    const Counters before = Counters::read(system);
    for (Cycle f = base_frame; f < crash_frame; ++f) {
      tracer.call("core.run_frame", unit, [&] { system.run_frame(); });
    }

    failstop::Processor& proc = system.processors().processor(victim());
    support::CrashPoint point;
    point.crash_frame = crash_frame;
    point.durable_epoch = proc.durability()->stats().last_durable_epoch;
    point.expected_fingerprint =
        fingerprints[static_cast<std::size_t>(point.durable_epoch)];
    tracer.call("failstop.fail_recover", unit,
                [&] { proc.fail(crash_frame); });
    point.recovered_fingerprint = proc.poll_stable().fingerprint();
    point.recovered_epoch =
        proc.last_recovery().has_value() ? proc.last_recovery()->last_epoch : 0;
    const core::System::ShipCatchUp catch_up =
        tracer.call("core.ship_catch_up", unit, [&] {
          for (std::uint32_t kill = 0; kill < kKills; ++kill) {
            system.fail_quorum_member(
                victim(), system.quorum_group(victim()).leader().value());
          }
          return system.ship_catch_up(victim());
        });
    point.replica_epoch = system.ship_replica(victim()).store().commit_epochs();
    point.replica_fingerprint =
        system.ship_replica(victim()).store().fingerprint();
    point.replica_catchup_bytes = catch_up.bytes;
    point.replica_reseeded = catch_up.reseeded;
    if (!same_point(point, report.points[static_cast<std::size_t>(
                               crash_frame - 1)])) {
      ++out.mismatched;
    }
    (void)tracer.call("core.digest", unit, [&] { return system.digest(); });
    out.counters += Counters::read(system).since(before);
    tracer.end_unit();
  }
  return out;
}

PassCounts pass_counts(const support::CrashSweepReport& report) {
  return {.simulated_frames = report.simulated_frames,
          .checkpoints_taken = report.checkpoints_taken};
}

}  // namespace

Result run_crash_quorum(const Options& options) {
  Result result;
  Tracer tracer(options.trace);
  const sim::FaultPlan campaign = tracer.call("support.plan_build", 0, [&] {
    return env_plans(false, kCampaignChanges, 0, kPoints)(options.seed);
  });
  const support::MissionFactory factory = chain_mission(kReplicas, campaign);

  // Short prefix, checkpointed vs from scratch; run after the measured
  // sweeps so it does not count towards their peak RSS.
  const auto check_prefix = [&] {
    const Pass fast = sweep_pass(factory, kPrefix, true, options.threads);
    const Pass oracle = sweep_pass(factory, kPrefix, false, options.threads);
    const std::uint64_t oracle_digest = oracle.report.digest();
    const bool ok = fast.report.digest() == oracle_digest;
    result.check(ok, "checkpointed and from-scratch prefix digests differ",
                 ok ? 0 : kPrefix);
    result.attempted += kPrefix;
    const bool caught = fast.report.digest() != (oracle_digest ^ 1);
    result.note(std::string("self-check, corrupted oracle digest: ") +
                (caught ? "caught" : "MISSED"));
    result.check(caught, "a corrupted oracle digest went unnoticed", 0);
  };

  const auto judge = [&](const Pass& pass, const Pass& first) {
    const std::uint64_t failed = failed_points(pass.report);
    result.check(failed == 0,
                 std::to_string(failed) + " crash points failed their checks",
                 failed);
    result.check(pass.report.all_match(), "the sweep reports mismatches", 0);
    result.check(pass.report.digest() == first.report.digest(),
                 "a sweep's digest drifted from the first sweep of this seed",
                 0);
    result.attempted += kPoints;
  };

  if (!options.trace) {
    // Gaps between successive crash points on one worker. The first call
    // of a sweep builds the baseline mission and is not a point.
    GapRecorder gaps;
    std::atomic<bool> baseline_built{false};
    const support::MissionFactory marked = [&] {
      if (baseline_built.exchange(true)) {
        gaps.mark_this_thread();
      }
      return factory();
    };
    std::vector<double> setup_s;
    const std::vector<Pass> passes = measure(
        options.seconds, kSetupRepsPerPass,
        [&](bool measured) {
          gaps.restart();
          baseline_built = false;
          return sweep_pass(measured ? marked : factory, kPoints, true,
                            options.threads);
        },
        [&] {
          const Clock::time_point t0 = Clock::now();
          const support::CrashMission mission = factory();
          return seconds_since(t0);
        },
        setup_s);
    std::vector<double> points_per_s;
    for (const Pass& pass : passes) {
      points_per_s.push_back(static_cast<double>(kPoints) / pass.seconds);
    }
    const double peak = peak_rss_mib();

    check_prefix();
    for (const Pass& pass : passes) judge(pass, passes.front());
    support::CrashSweepReport corrupted = passes.front().report;
    corrupted.points[0].expected_fingerprint ^= 1;
    const bool point_caught = failed_points(corrupted) > 0;
    result.note(std::string("self-check, corrupted crash-point floor: ") +
                (point_caught ? "caught" : "MISSED"));
    result.check(point_caught, "a corrupted crash point went unnoticed", 0);

    set_end_to_end(result, setup_s, peak, points_per_s, gaps);
    std::ostringstream note;
    note << passes.size() << " sweeps of " << kPoints << " crash points on "
         << options.threads << " threads; points/s per pass:";
    for (const double v : points_per_s) note << " " << v;
    result.note(note.str());
    result.note("point " + gaps.describe());
    pass_counts(passes.front().report).report(result);
    Tracer off(false);
    const Replay replay = replay_points(factory, passes.front().report, off);
    result.check(replay.mismatched == 0,
                 "replayed crash points differ from the sweep's",
                 replay.mismatched);
    report_counters(replay.counters, result);
    return result;
  }

  // Traced run: alternating untraced and traced sweeps (mission-build spans
  // from the worker threads), a 1-thread sweep for the scaling ratio, and
  // the serial layer replay.
  const support::MissionFactory traced_factory = [&] {
    return tracer.call("job.mission_build", 0, factory);
  };
  std::vector<Pass> passes;
  std::vector<double> plain_s;
  std::vector<double> traced_s;
  for (std::size_t r = 0; r < kTracedPairs; ++r) {
    passes.push_back(sweep_pass(factory, kPoints, true, options.threads));
    plain_s.push_back(passes.back().seconds);
    passes.push_back(
        sweep_pass(traced_factory, kPoints, true, options.threads));
    traced_s.push_back(passes.back().seconds);
  }
  passes.push_back(sweep_pass(factory, kPoints, true, 1));
  const double serial_s = passes.back().seconds;
  check_prefix();
  for (const Pass& pass : passes) judge(pass, passes.front());
  const Replay replay = replay_points(factory, passes.front().report, tracer);
  result.check(replay.mismatched == 0,
               "replayed crash points differ from the sweep's",
               replay.mismatched);

  add_layer_timings(tracer, result);
  add_run_layers(result, growth(tracer.durations_us("core.digest")),
                 serial_s / median(plain_s), options.threads,
                 median(traced_s) / median(plain_s) - 1.0);
  pass_counts(passes.front().report).report(result);
  report_counters(replay.counters, result);
  if (!options.spans_path.empty()) tracer.write(options.spans_path);
  return result;
}

}  // namespace perfbench
