// fleet-uav: the paper's section 7 instantiation as a Monte-Carlo campaign.
//
// support::run_fleet_missions over the UAV mission with durable WAL
// storage, as `arfsctl fleet uav` runs it: pooled, a 16-frame shared
// warm-up, 64 frames and 3 seeded power-factor changes per sample, on a
// FleetRunner with a fixed thread count. Each sample costs one pool reset
// (checkpoint restore), 64 run_frame calls and one System::digest().
//
// Checks: a pooled and a construct-per-sample (pool_systems = false) run
// of the same seed over the leading samples give equal report digests, and
// every pass of the run reports the same digest and tallies.
#include <sstream>
#include <unordered_map>
#include <vector>

#include "arfs/sim/batch.hpp"
#include "arfs/sim/fleet.hpp"
#include "arfs/support/sweep.hpp"
#include "missions.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace arfs;

namespace {

constexpr Cycle kWarmup = 16;
constexpr Cycle kFrames = 64;
constexpr std::size_t kChanges = 3;
constexpr std::size_t kSamples = 16384;      ///< Samples per pass.
constexpr std::size_t kCheckSamples = 256;   ///< Pooled vs per-sample check.
constexpr std::size_t kReplaySamples = 256;  ///< Serial layer replay.
constexpr std::size_t kSetupRepsPerPass = 5;
constexpr std::size_t kTracedPairs = 3;  ///< Untraced/traced pass pairs.

support::FleetMissionOptions mission_options(std::size_t samples,
                                             std::uint64_t seed, bool pooled) {
  support::FleetMissionOptions options;
  options.samples = samples;
  options.frames = kFrames;
  options.base_seed = seed;
  options.warmup_frames = kWarmup;
  options.pool_systems = pooled;
  return options;
}

struct Pass {
  double seconds = 0;
  support::FleetMissionReport report;
};

/// One timed run_fleet_missions call on `threads` workers.
Pass fleet_pass(const support::MissionFactory& factory,
                const support::PlanFactory& plans, std::size_t samples,
                std::uint64_t seed, bool pooled, std::size_t threads) {
  sim::FleetOptions fleet_options;
  fleet_options.threads = threads;
  sim::FleetRunner fleet(fleet_options);
  Pass pass;
  const Clock::time_point t0 = Clock::now();
  pass.report = support::run_fleet_missions(
      factory, plans, mission_options(samples, seed, pooled), fleet);
  pass.seconds = seconds_since(t0);
  return pass;
}

/// The report fields that must repeat exactly for one seed.
bool same_tallies(const support::FleetMissionReport& a,
                  const support::FleetMissionReport& b) {
  return a.samples == b.samples && a.frames_run == b.frames_run &&
         a.fault_events == b.fault_events &&
         a.reconfigurations == b.reconfigurations &&
         a.region_relocations == b.region_relocations &&
         a.deadline_violations == b.deadline_violations &&
         a.digest == b.digest && a.pool_resets == b.pool_resets;
}

/// Pooled vs construct-per-sample over the leading samples. Returns the
/// samples charged as failed: all of them when the digests differ.
std::uint64_t check_pool_oracle(std::uint64_t pooled_digest,
                                std::uint64_t oracle_digest) {
  return pooled_digest == oracle_digest ? 0 : kCheckSamples;
}

/// Serial replay of the leading samples through one pooled mission, as a
/// fleet chunk runs them: reset, plan, 64 frames, final digest.
Counters replay_samples(const support::MissionFactory& factory,
                        const support::PlanFactory& plans, std::uint64_t seed,
                        Tracer& tracer) {
  const support::MissionFactory timed_factory = [&] {
    return tracer.call("support.mission_build", 0, factory);
  };
  support::SystemPool pool(timed_factory, kWarmup);
  support::SystemPool::Lease lease = pool.lease();
  support::PooledMission& mission = lease.mission();
  core::System& system = mission.system();
  Counters total;
  for (std::size_t i = 0; i < kReplaySamples; ++i) {
    const std::uint64_t unit = i + 1;
    tracer.begin_unit("sample", unit);
    tracer.call("support.pool_reset", unit, [&] { mission.reset(); });
    const std::uint64_t sample_seed = sim::job_seed(seed, i);
    system.set_fault_plan(tracer.call("support.plan_build", unit,
                                      [&] { return plans(sample_seed); }));
    const Counters before = Counters::read(system);
    for (Cycle f = 0; f < kFrames; ++f) {
      tracer.call("core.run_frame", unit, [&] { system.run_frame(); });
    }
    (void)tracer.call("core.digest", unit, [&] { return system.digest(); });
    total += Counters::read(system).since(before);
    tracer.end_unit();
  }
  return total;
}

PassCounts pass_counts(const support::FleetMissionReport& report) {
  return {.simulated_frames = report.frames_run,
          .pool_resets = report.pool_resets};
}

}  // namespace

Result run_fleet_uav(const Options& options) {
  Result result;
  const support::MissionFactory factory = uav_mission();
  const support::PlanFactory plans = env_plans(true, kChanges, kWarmup, kFrames);
  const std::uint64_t seed = options.seed;

  // The pooled-vs-per-sample oracle over the leading samples, run after
  // the measured passes so it does not count towards their peak RSS.
  const auto check_oracle = [&] {
    const Pass oracle = fleet_pass(factory, plans, kCheckSamples, seed,
                                   /*pooled=*/false, options.threads);
    const Pass leading = fleet_pass(factory, plans, kCheckSamples, seed,
                                    /*pooled=*/true, options.threads);
    const std::uint64_t failed =
        check_pool_oracle(leading.report.digest, oracle.report.digest);
    result.check(failed == 0, "pooled and construct-per-sample digests differ",
                 failed);
    result.attempted += kCheckSamples;
    const bool caught =
        check_pool_oracle(leading.report.digest, oracle.report.digest ^ 1) > 0;
    result.note(std::string("self-check, corrupted oracle digest: ") +
                (caught ? "caught" : "MISSED"));
    result.check(caught, "a corrupted oracle digest went unnoticed", 0);
  };

  if (!options.trace) {
    GapRecorder gaps;
    const support::PlanFactory marked = [&](std::uint64_t sample_seed) {
      gaps.mark_this_thread();
      return plans(sample_seed);
    };
    std::vector<double> setup_s;
    const std::vector<Pass> passes = measure(
        options.seconds, kSetupRepsPerPass,
        [&](bool measured) {
          gaps.restart();
          return fleet_pass(factory, measured ? marked : plans, kSamples,
                            seed, true, options.threads);
        },
        [&] {
          const Clock::time_point t0 = Clock::now();
          const support::PooledMission mission(factory, kWarmup);
          return seconds_since(t0);
        },
        setup_s);
    std::vector<double> samples_per_s;
    for (const Pass& pass : passes) {
      samples_per_s.push_back(static_cast<double>(kSamples) / pass.seconds);
    }
    const double peak = peak_rss_mib();

    check_oracle();
    for (const Pass& pass : passes) {
      const bool same = same_tallies(pass.report, passes.front().report);
      result.check(same, "a pass drifted from the first pass of this seed",
                   same ? 0 : kSamples);
      result.attempted += kSamples;
    }
    set_end_to_end(result, setup_s, peak, samples_per_s, gaps);
    std::ostringstream note;
    note << passes.size() << " passes of " << kSamples << " samples on "
         << options.threads << " threads; samples/s per pass:";
    for (const double v : samples_per_s) note << " " << v;
    result.note(note.str());
    result.note("sample " + gaps.describe());
    pass_counts(passes.front().report).report(result);
    Tracer off(false);
    report_counters(replay_samples(factory, plans, seed, off), result);
    return result;
  }

  // Traced run: alternating untraced and traced passes (callback spans, one
  // identifier per sample), a 1-thread pass for the scaling ratio, and the
  // serial layer replay.
  Tracer tracer(true);
  const std::vector<std::uint64_t> seeds =
      support::mission_seeds(kSamples, seed);
  std::unordered_map<std::uint64_t, std::uint64_t> unit_of;
  for (std::size_t i = 0; i < seeds.size(); ++i) unit_of[seeds[i]] = i + 1;
  const support::PlanFactory traced_plans = [&](std::uint64_t sample_seed) {
    return tracer.call("job.plan_build", unit_of.at(sample_seed),
                       [&] { return plans(sample_seed); });
  };
  std::vector<Pass> passes;
  std::vector<double> plain_s;
  std::vector<double> traced_s;
  for (std::size_t r = 0; r < kTracedPairs; ++r) {
    passes.push_back(
        fleet_pass(factory, plans, kSamples, seed, true, options.threads));
    plain_s.push_back(passes.back().seconds);
    passes.push_back(fleet_pass(factory, traced_plans, kSamples, seed, true,
                                options.threads));
    traced_s.push_back(passes.back().seconds);
  }
  passes.push_back(fleet_pass(factory, plans, kSamples, seed, true, 1));
  const double serial_s = passes.back().seconds;
  check_oracle();
  for (const Pass& pass : passes) {
    const bool same = same_tallies(pass.report, passes.front().report);
    result.check(same, "a pass drifted across threads or tracing",
                 same ? 0 : kSamples);
    result.attempted += kSamples;
  }
  const Counters replay = replay_samples(factory, plans, seed, tracer);

  add_layer_timings(tracer, result);
  add_run_layers(result, growth(tracer.durations_us("core.digest")),
                 serial_s / median(plain_s), options.threads,
                 median(traced_s) / median(plain_s) - 1.0);
  pass_counts(passes.front().report).report(result);
  report_counters(replay, result);
  if (!options.spans_path.empty()) tracer.write(options.spans_path);
  return result;
}

}  // namespace perfbench
