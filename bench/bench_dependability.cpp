// Experiment E6b — the section 5.1 argument in probabilistic form.
//
// Section 5.1 compares worst-case component counts; this harness compares
// mission dependability under random (exponential) component failures:
//   * equal-dependability framing: the reconfiguration design keeps *safe*
//     service with high probability using far fewer components than the
//     masking design needs to keep *full* service;
//   * equal-hardware framing: given the same component count, the ability
//     to degrade strictly reduces the probability of loss.
#include <functional>
#include <iomanip>
#include <iostream>
#include <vector>

#include "arfs/analysis/dependability.hpp"
#include "arfs/support/sweep.hpp"
#include "bench_main.hpp"

namespace {

using namespace arfs;
using analysis::DependabilityEstimate;
using analysis::DesignPair;
using analysis::DesignUnits;
using analysis::estimate_dependability;
using analysis::MissionParams;
using analysis::section51_designs;

MissionParams mission(double rate_per_hour) {
  MissionParams m;
  m.mission_hours = 10.0;
  m.failure_rate_per_hour = rate_per_hour;
  m.trials = 50'000;
  return m;
}

void report() {
  bench::banner("E6b: mission dependability, masking vs reconfiguration",
                "paper section 5.1 (probabilistic form)");
  std::cout << "10-hour mission, exponential component lifetimes, 50k\n"
            << "Monte-Carlo trials per cell (deterministic seed).\n\n";

  std::cout << "design pair: full service = 4 units, safe service = 2,\n"
            << "spares = 2  ->  masking fields 6 units, reconfig fields 4.\n\n";
  std::cout << std::left << std::setw(14) << "rate (1/h)" << std::setw(12)
            << "design" << std::setw(8) << "units" << std::setw(14)
            << "P(full all)" << std::setw(14) << "P(safe all)"
            << std::setw(10) << "P(loss)" << "mean failures\n";

  const DesignPair pair = section51_designs(4, 2, 2);
  // Each rate cell is an independent 2x50k-trial mission — fan the grid
  // across the shared fleet engine. Inside a cell the estimates run on a
  // 1-thread engine of their own (the shared pool is not reentrant); the
  // row order and values are thread-count invariant.
  const std::vector<double> rates{0.001, 0.01, 0.05, 0.1};
  struct Row {
    DependabilityEstimate mask;
    DependabilityEstimate reconf;
  };
  const std::function<Row(const support::MissionJob&)> fly =
      [&](const support::MissionJob& job) {
        Rng rng_a(100);
        Rng rng_b(100);
        sim::FleetRunner inline_fleet{sim::FleetOptions{1}};
        return Row{estimate_dependability(pair.masking, mission(rates[job.index]),
                                          rng_a, inline_fleet),
                   estimate_dependability(pair.reconfig,
                                          mission(rates[job.index]), rng_b,
                                          inline_fleet)};
      };
  const std::vector<Row> rows =
      support::run_mission_sweep<Row>(rates.size(), 0, fly);
  for (std::size_t r = 0; r < rates.size(); ++r) {
    const double rate = rates[r];
    for (const auto& [name, units, e] :
         {std::tuple{"masking", pair.masking.total, rows[r].mask},
          std::tuple{"reconfig", pair.reconfig.total, rows[r].reconf}}) {
      std::cout << std::left << std::setw(14) << rate << std::setw(12)
                << name << std::setw(8) << units << std::setw(14)
                << std::fixed << std::setprecision(4)
                << e.p_full_whole_mission << std::setw(14)
                << e.p_safe_whole_mission << std::setw(10) << e.p_loss
                << std::setprecision(3) << e.mean_failures << "\n";
    }
  }

  std::cout << "\nequal hardware (4 units each), rate 0.05/h:\n";
  Rng rng_c(200);
  Rng rng_d(200);
  const DependabilityEstimate rigid = estimate_dependability(
      DesignUnits{4, 4, 4}, mission(0.05), rng_c);  // no degraded mode
  const DependabilityEstimate degrading = estimate_dependability(
      DesignUnits{4, 4, 2}, mission(0.05), rng_d);  // degrades to 2
  std::cout << std::fixed << std::setprecision(4)
            << "  rigid (full-or-loss): P(loss) = " << rigid.p_loss << "\n"
            << "  degradable to safe:   P(loss) = " << degrading.p_loss
            << "  (safe-or-better fraction "
            << degrading.safe_or_better_fraction << ")\n";
  std::cout << "(same components: degradation converts most losses into\n"
               " degraded-but-safe missions — the paper's thesis)\n\n";
}

void bm_monte_carlo(benchmark::State& state) {
  const DesignPair pair = section51_designs(4, 2, 2);
  MissionParams m = mission(0.05);
  m.trials = static_cast<std::uint32_t>(state.range(0));
  Rng rng(42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        estimate_dependability(pair.reconfig, m, rng).p_loss);
  }
  state.SetItemsProcessed(state.iterations() * m.trials);
}
BENCHMARK(bm_monte_carlo)->Arg(1000)->Arg(10'000)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

ARFS_BENCH_MAIN(report)
