// Randomized avionics campaigns: electrical failures and repairs drawn from
// a seed drive the real section 7 system (with the computer-status
// extension active in half the sweep); every completed reconfiguration must
// satisfy SP1-SP4 and the final configuration must match what choose() says
// about the final environment.
#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "arfs/avionics/uav_system.hpp"
#include "arfs/props/report.hpp"
#include "arfs/support/sweep.hpp"
#include "arfs/trace/export.hpp"

namespace arfs::avionics {
namespace {

struct SweepParam {
  std::uint64_t seed = 0;
  bool with_computers = false;
  Cycle dwell = 0;

  friend std::ostream& operator<<(std::ostream& os, const SweepParam& p) {
    return os << "seed" << p.seed << (p.with_computers ? "_ext" : "_base")
              << "_dwell" << p.dwell;
  }
};

class AvionicsSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(AvionicsSweep, RandomElectricalCampaignKeepsAllProperties) {
  const SweepParam& p = GetParam();
  UavOptions options;
  options.spec.with_computer_status = p.with_computers;
  options.spec.dwell_frames = p.dwell;
  options.plant_seed = p.seed;
  UavSystem uav(options);
  Rng rng(p.seed * 131 + 7);

  uav.run(10);
  // 30 random electrical events: fail or repair a random alternator, with
  // random gaps; the electrical model derives the power state.
  for (int event = 0; event < 30; ++event) {
    const int alternator = static_cast<int>(rng.uniform(0, 1));
    if (rng.chance(0.5)) {
      uav.electrical().fail_alternator(alternator);
    } else {
      uav.electrical().repair_alternator(alternator);
    }
    uav.run(5 + rng.uniform(0, 30));
  }
  uav.run(40);  // quiet tail

  const props::TraceReport report =
      props::check_trace(uav.system().trace(), uav.spec());
  EXPECT_TRUE(report.all_hold()) << props::render(report);
  EXPECT_FALSE(report.incomplete_at_end);

  // Quiescence agreement: with the dwell window expired, the resting
  // configuration is exactly choose(current, final environment).
  const ConfigId current = uav.system().scram().current_config();
  EXPECT_EQ(uav.spec().choose(current, uav.system().environment().state()),
            current);

  // Invariant: whatever happened, the FCS is running (it is assigned in
  // every configuration — control is never lost).
  EXPECT_TRUE(uav.fcs().current_spec().has_value());
}

std::vector<SweepParam> matrix() {
  std::vector<SweepParam> params;
  for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u}) {
    SweepParam base;
    base.seed = seed;
    params.push_back(base);

    SweepParam ext;
    ext.seed = seed;
    ext.with_computers = true;
    params.push_back(ext);

    SweepParam dwelled;
    dwelled.seed = seed;
    dwelled.dwell = 15;
    params.push_back(dwelled);
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(Campaigns, AvionicsSweep,
                         ::testing::ValuesIn(matrix()),
                         [](const auto& info) {
                           std::ostringstream os;
                           os << info.param;
                           return os.str();
                         });

/// One full campaign (the same shape the parameterized test drives),
/// reduced to a digest: property verdict + final config + trace CSV.
std::string fly_campaign(const SweepParam& p) {
  UavOptions options;
  options.spec.with_computer_status = p.with_computers;
  options.spec.dwell_frames = p.dwell;
  options.plant_seed = p.seed;
  UavSystem uav(options);
  Rng rng(p.seed * 131 + 7);

  uav.run(10);
  for (int event = 0; event < 30; ++event) {
    const int alternator = static_cast<int>(rng.uniform(0, 1));
    if (rng.chance(0.5)) {
      uav.electrical().fail_alternator(alternator);
    } else {
      uav.electrical().repair_alternator(alternator);
    }
    uav.run(5 + rng.uniform(0, 30));
  }
  uav.run(40);

  const props::TraceReport report =
      props::check_trace(uav.system().trace(), uav.spec());
  std::ostringstream os;
  os << (report.all_hold() ? "holds" : "FAILS") << '/'
     << uav.system().scram().current_config().value() << '/';
  trace::write_csv(uav.system().trace(), os);
  return os.str();
}

// The whole campaign matrix through support::run_mission_sweep: every
// mission keeps SP1-SP4, and the parallel result vector is bit-identical
// to the serial one (the sweep engine's core promise, on the real
// section 7 avionics stack rather than a synthetic system).
TEST(AvionicsSweepParallel, MatrixIdenticalSerialVsParallel) {
  const std::vector<SweepParam> params = matrix();
  const std::function<std::string(const support::MissionJob&)> fly =
      [&params](const support::MissionJob& job) {
        return fly_campaign(params[job.index]);
      };

  sim::FleetRunner serial{sim::FleetOptions{1}};
  const std::vector<std::string> reference =
      support::run_mission_sweep<std::string>(params.size(), 0, fly, serial);
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(reference[i].substr(0, 5), "holds") << params[i];
  }

  sim::FleetRunner parallel{sim::FleetOptions{4}};
  EXPECT_EQ(support::run_mission_sweep<std::string>(params.size(), 0, fly,
                                                    parallel),
            reference);
}

}  // namespace
}  // namespace arfs::avionics
