// The benchmark's missions, built the way arfsctl builds them, and the
// counters it reads back from a system after a unit of work.
#pragma once

#include <cstdint>

#include "arfs/common/types.hpp"
#include "arfs/core/system.hpp"
#include "arfs/sim/fault_plan.hpp"
#include "arfs/support/fleet.hpp"
#include "bench.hpp"

namespace perfbench {

inline constexpr arfs::SimDuration kChainFrameLength = 10'000;
inline constexpr arfs::SimDuration kUavFrameLength = 20'000;

/// chain:4 with durable WAL storage and SimpleApps, as `arfsctl serve` and
/// `arfsctl sweep chain:4` build it. `quorum_replicas > 0` turns on
/// journal shipping to a cohort of that size; `plan` is baked into every
/// mission the factory builds.
[[nodiscard]] arfs::support::MissionFactory chain_mission(
    std::uint32_t quorum_replicas = 0, arfs::sim::FaultPlan plan = {});

/// The section 7 UAV mission (autopilot + FCS on plant seed 42) with durable
/// WAL storage and no baked plan, as `arfsctl fleet uav` builds it.
[[nodiscard]] arfs::support::MissionFactory uav_mission();

/// Seeded environment campaign over the spec's factors: `changes` factor
/// changes landing in [first_frame, first_frame + frames), a pure function
/// of the seed (support::make_env_plan_factory).
[[nodiscard]] arfs::support::PlanFactory env_plans(bool uav,
                                                   std::size_t changes,
                                                   arfs::Cycle first_frame,
                                                   arfs::Cycle frames);

/// Counters one unit of work moved, read as differences of the system's
/// cumulative counters (see Counters::since).
struct Counters {
  std::uint64_t frames = 0;
  std::uint64_t fault_events = 0;
  std::uint64_t reconfigurations = 0;
  std::uint64_t region_relocations = 0;
  std::uint64_t deadline_violations = 0;
  std::uint64_t ship_bytes = 0;
  // Summed over every durable processor's engine.
  std::uint64_t bytes_appended = 0;
  std::uint64_t syncs = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;

  [[nodiscard]] static Counters read(arfs::core::System& system);
  /// This reading minus `before`, field by field.
  [[nodiscard]] Counters since(const Counters& before) const;
  Counters& operator+=(const Counters& other);
};

/// Pass-level counts from a workload's own reports. A count the workload
/// has no use for stays 0.
struct PassCounts {
  std::uint64_t simulated_frames = 0;
  std::uint64_t checkpoints_taken = 0;
  std::uint64_t pool_resets = 0;
  std::uint64_t frames_skipped = 0;
  std::uint64_t gap_records = 0;

  friend bool operator==(const PassCounts&, const PassCounts&) = default;
  /// Adds the counts to `result.counts`.
  void report(Result& result) const;
};

/// Adds the replay's simulated statistics and storage counters to
/// `result.counts`: per-frame storage and shipping ratios, the cache hit
/// rate, and the reconfiguration / relocation / deadline / fault tallies.
void report_counters(const Counters& replay, Result& result);

}  // namespace perfbench
