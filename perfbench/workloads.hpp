// The benchmark's three workloads. Each builds its inputs from the seed,
// measures for options.seconds (untraced) or runs its traced pass and
// serial layer replay (options.trace), and checks every output against an
// independent path of the same run.
#pragma once

#include "bench.hpp"

namespace perfbench {

/// serve::SimServer over the shm FrameRing: 4 closed-loop sessions x 2048
/// frames of chain:4 with durable WAL storage.
[[nodiscard]] Result run_serve_long(const Options& options);

/// support::run_fleet_missions on the section 7 UAV mission: pooled,
/// 16-frame shared warm-up, 64 frames and 3 power-factor changes a sample.
[[nodiscard]] Result run_fleet_uav(const Options& options);

/// support::run_crash_sweep: 4096 crash points of chain:4 with durable WAL,
/// journal shipping to a 3-member quorum, warm start and one leader kill.
[[nodiscard]] Result run_crash_quorum(const Options& options);

}  // namespace perfbench
