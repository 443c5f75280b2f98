// Parallel mission sweeps.
//
// A sweep runs many independent missions — whole core::System or avionics
// campaigns — and collects one result per mission. Missions are
// embarrassingly parallel (each builds its own System from its own spec and
// draws from its own RNG stream), so the sweep fans them across a
// sim::FleetRunner as independent jobs. Seeding follows the fleet engine's
// determinism contract: mission i gets sim::job_seed(base_seed, i), making
// every result a function of (base_seed, i) alone and the full result
// vector bit-identical at any thread count.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "arfs/sim/fleet.hpp"
#include "arfs/support/fleet.hpp"

namespace arfs::support {

/// Identity of one mission within a sweep.
struct MissionJob {
  std::size_t index = 0;    ///< 0-based mission index.
  std::uint64_t seed = 0;   ///< job_seed(base_seed, index).
};

/// The per-mission seeds a sweep of `missions` jobs rooted at `base_seed`
/// will use, in mission order. Exposed so serial reference runs (tests,
/// bisection) can replay any single mission of a sweep without the runner.
[[nodiscard]] std::vector<std::uint64_t> mission_seeds(std::size_t missions,
                                                       std::uint64_t base_seed);

/// Runs `missions` independent missions on `fleet` and returns their
/// results in mission order. `fly` must be self-contained: build the whole
/// system inside the call and derive all randomness from the job's seed.
template <typename R>
[[nodiscard]] std::vector<R> run_mission_sweep(
    std::size_t missions, std::uint64_t base_seed,
    const std::function<R(const MissionJob&)>& fly,
    sim::FleetRunner& fleet = sim::FleetRunner::shared()) {
  return fleet.map<R>(missions, base_seed, [&](const sim::FleetSample& s) {
    return fly(MissionJob{s.index, s.seed});
  });
}

/// Pooled fleet sweep: kills the per-mission allocation churn of
/// self-contained `fly` callbacks. Instead of building a System (and its
/// fault-plan buffers) inside every call, `fly` receives a leased
/// PooledMission already reset to its warm point and derives everything
/// else from the job's seed. Results are bit-identical to a
/// construct-per-mission sweep whose missions start from the same warmed
/// state — reuse is SystemCheckpoint::restore(), not a fresh build.
template <typename R>
[[nodiscard]] std::vector<R> run_mission_sweep(
    std::size_t missions, std::uint64_t base_seed,
    const std::function<R(const MissionJob&, PooledMission&)>& fly,
    SystemPool& pool, sim::FleetRunner& fleet) {
  return fleet.map<R>(missions, base_seed, [&](const sim::FleetSample& s) {
    SystemPool::Lease lease = pool.lease();
    lease.mission().reset();
    return fly(MissionJob{s.index, s.seed}, lease.mission());
  });
}

}  // namespace arfs::support
