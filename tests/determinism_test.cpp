// Whole-system determinism: the reproduction's central methodological
// promise is that every run is exactly replayable from its seeds. Two
// systems built identically must produce byte-identical traces, stats, and
// exports — including under noise, random campaigns, and the full avionics
// stack.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "arfs/analysis/dependability.hpp"
#include "arfs/avionics/uav_system.hpp"
#include "arfs/core/system.hpp"
#include "arfs/support/simple_app.hpp"
#include "arfs/support/sweep.hpp"
#include "arfs/support/synthetic.hpp"
#include "arfs/trace/export.hpp"

namespace arfs {
namespace {

std::string run_synthetic(std::uint64_t seed) {
  support::RandomSpecParams params;
  params.apps = 3;
  params.configs = 4;
  params.dependencies = 1;
  const core::ReconfigSpec spec = support::make_random_spec(params, seed);

  core::SystemOptions options;
  options.heartbeat_loss_prob = 0.02;
  options.noise_seed = seed * 3 + 1;
  core::System system(spec, options);
  for (const core::AppDecl& decl : spec.apps()) {
    system.add_app(
        std::make_unique<support::SimpleApp>(decl.id, decl.name));
  }

  Rng rng(seed);
  sim::CampaignParams campaign;
  campaign.horizon = 300 * 10'000;
  campaign.environment_changes = 10;
  for (const env::FactorSpec& f : spec.factors().factors()) {
    campaign.factors.push_back(f.id);
  }
  campaign.factor_max = 1;
  system.set_fault_plan(sim::generate_campaign(campaign, rng));
  system.run(400);

  std::ostringstream os;
  trace::write_csv(system.trace(), os);
  os << system.stats().heartbeats_lost << '/' << system.stats().false_alarms
     << '/' << system.scram().stats().reconfigs_completed;
  return os.str();
}

TEST(Determinism, SyntheticCampaignByteIdentical) {
  EXPECT_EQ(run_synthetic(11), run_synthetic(11));
}

TEST(Determinism, DifferentSeedsDiverge) {
  EXPECT_NE(run_synthetic(11), run_synthetic(12));
}

std::string run_avionics() {
  avionics::UavSystem uav;
  uav.run(5);
  uav.autopilot().engage(avionics::ApMode::kClimbTo, 5600.0);
  uav.run(100);
  uav.electrical().fail_alternator(0);
  uav.run(50);
  uav.electrical().fail_alternator(1);
  uav.run(50);

  std::ostringstream os;
  trace::write_json(uav.system().trace(), os);
  os << uav.plant().truth().altitude_ft << '/'
     << uav.plant().truth().heading_deg;
  return os.str();
}

TEST(Determinism, AvionicsStackByteIdentical) {
  // Covers the aircraft dynamics, sensor noise, electrical model, SCRAM,
  // and JSON export in one equality.
  EXPECT_EQ(run_avionics(), run_avionics());
}

// The parallel fleet engine's promise: results are bit-identical at any
// thread count. Verified here at 1, 2, and 8 threads for the Monte-Carlo
// dependability estimate (20k trials, the paper's section 5.1 workload).
TEST(Determinism, DependabilityBitIdenticalAt1_2_8Threads) {
  const analysis::DesignUnits design{6, 4, 2};
  analysis::MissionParams mission;
  mission.failure_rate_per_hour = 0.02;
  mission.trials = 20'000;

  auto estimate = [&](std::size_t threads) {
    sim::FleetRunner fleet{sim::FleetOptions{threads}};
    Rng rng(271828);
    return analysis::estimate_dependability(design, mission, rng, fleet);
  };

  const analysis::DependabilityEstimate e1 = estimate(1);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    const analysis::DependabilityEstimate en = estimate(threads);
    EXPECT_EQ(en.p_full_whole_mission, e1.p_full_whole_mission) << threads;
    EXPECT_EQ(en.p_safe_whole_mission, e1.p_safe_whole_mission) << threads;
    EXPECT_EQ(en.p_loss, e1.p_loss) << threads;
    EXPECT_EQ(en.full_service_fraction, e1.full_service_fraction) << threads;
    EXPECT_EQ(en.safe_or_better_fraction, e1.safe_or_better_fraction)
        << threads;
    EXPECT_EQ(en.mean_failures, e1.mean_failures) << threads;
  }
}

// Whole-system missions fanned across threads stay byte-identical too:
// each job builds its own System and campaign from its job seed, so the
// trace digests must match a serial sweep of the same seeds exactly.
TEST(Determinism, MissionSweepBitIdenticalAcrossThreadCounts) {
  constexpr std::size_t kMissions = 6;
  constexpr std::uint64_t kBase = 2024;
  const std::function<std::string(const support::MissionJob&)> fly =
      [](const support::MissionJob& job) { return run_synthetic(job.seed); };

  sim::FleetRunner serial{sim::FleetOptions{1}};
  const std::vector<std::string> reference =
      support::run_mission_sweep<std::string>(kMissions, kBase, fly, serial);

  // The sweep's seeds are exposed for serial replay of any single mission.
  const std::vector<std::uint64_t> seeds =
      support::mission_seeds(kMissions, kBase);
  ASSERT_EQ(seeds.size(), kMissions);
  EXPECT_EQ(run_synthetic(seeds[3]), reference[3]);

  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    sim::FleetRunner parallel{sim::FleetOptions{threads}};
    EXPECT_EQ(support::run_mission_sweep<std::string>(kMissions, kBase, fly,
                                                      parallel),
              reference)
        << "thread count " << threads;
  }
}

}  // namespace
}  // namespace arfs
