// Mission dependability of masking vs. reconfiguration designs.
//
// Section 5.1 argues with worst-case component counts; this module puts
// probabilities on the same comparison. Components fail independently with
// an exponential lifetime; a design survives at a given service level while
// enough components remain:
//   * a masking design fields (full + spares) components and provides full
//     service while at least `full` survive — below that it has *lost* (the
//     original fail-stop framework has no degraded mode, section 5.2);
//   * a reconfiguration design fields a chosen total and degrades: full
//     service while >= full survive, safe service while >= safe survive,
//     loss below safe.
// Monte-Carlo simulation (deterministic from a seed) yields whole-mission
// probabilities and the time-weighted fraction of the mission spent at each
// level, so equal-hardware and equal-dependability comparisons can both be
// read off.
//
// Trials are independent and stream through sim::FleetRunner. Each trial
// draws from its own RNG stream seeded by sim::job_seed(base, trial), where
// `base` is one draw from the caller's Rng, and chunk partial sums are
// reduced in global chunk order — so the estimate is bit-identical at any
// thread count (including 1) for a given caller seed.
#pragma once

#include <cstdint>

#include "arfs/common/rng.hpp"
#include "arfs/sim/fleet.hpp"

namespace arfs::analysis {

struct MissionParams {
  double mission_hours = 10.0;
  /// Failure rate per component per hour (exponential lifetimes).
  double failure_rate_per_hour = 1e-3;
  std::uint32_t trials = 20'000;
};

struct DesignUnits {
  int total = 0;  ///< Components fielded.
  int full = 0;   ///< Minimum components for full service.
  int safe = 0;   ///< Minimum components for basic safe service
                  ///< (masking designs: safe == full — no degraded mode).
};

struct DependabilityEstimate {
  double p_full_whole_mission = 0.0;  ///< Never dropped below full service.
  double p_safe_whole_mission = 0.0;  ///< Never dropped below safe service.
  double p_loss = 0.0;                ///< Dropped below safe at some point.
  double full_service_fraction = 0.0; ///< Time-weighted, mean over trials.
  double safe_or_better_fraction = 0.0;
  double mean_failures = 0.0;

  /// Order-sensitive FNV-1a digest over the bit patterns of all six
  /// fields — one number to compare estimates across thread counts and
  /// storage backends for exact equality.
  [[nodiscard]] std::uint64_t digest() const;
};

/// Runs the Monte-Carlo estimate for one design, streaming the trials
/// through `fleet` in per-chunk accumulators (no shared mutex on the trial
/// path, memory bounded by the chunk count). The estimate is bit-identical
/// at every thread count; tests pin its digests at the default chunk
/// (sim::kFleetChunk). A custom chunk changes the (equally valid)
/// reduction order.
/// Preconditions: 0 < safe <= full <= total, positive mission and trials.
/// Consumes exactly one draw from `rng` (the run's base seed).
[[nodiscard]] DependabilityEstimate estimate_dependability(
    const DesignUnits& design, const MissionParams& mission, Rng& rng,
    sim::FleetRunner& fleet = sim::FleetRunner::shared());

/// One Monte-Carlo trial's audit row — the per-sample evidence behind an
/// estimate, compact (32 bytes) and trivially copyable so sweeps can
/// materialize billions of them through a storage::MappedArena. The row
/// holds exactly the values the trial contributes to the estimate's
/// accumulators, so folding rows in global order reproduces the estimate
/// bit for bit.
struct TrialEvidence {
  double full_fraction = 0.0;  ///< Time-weighted full-service fraction.
  double safe_fraction = 0.0;  ///< Time-weighted safe-or-better fraction.
  double failures = 0.0;       ///< Component failures during the mission.
  std::uint32_t flags = 0;
  std::uint32_t reserved = 0;

  static constexpr std::uint32_t kFullMission = 1u;  ///< Never below full.
  static constexpr std::uint32_t kSafeMission = 2u;  ///< Never below safe.
  static constexpr std::uint32_t kLoss = 4u;         ///< Dropped below safe.
};

struct EvidenceSweep {
  DependabilityEstimate estimate;
  std::uint64_t rows = 0;
  /// Order-sensitive FNV-1a over every row's bit patterns in global trial
  /// order — invariant across thread counts and storage backend.
  std::uint64_t evidence_digest = 0;
  bool arena_backed = false;  ///< Rows went through fleet.options().arena.
};

/// The evidence-producing estimator: materializes one TrialEvidence row per
/// trial and re-derives the estimate by folding the rows in global chunk
/// order — `estimate` is bit-identical (same digest) to
/// estimate_dependability above at the same chunk grain. With `fleet.options().arena` set the
/// rows stream through arena regions (peak RSS bounded by in-flight chunks,
/// rows retained in the arena file as the audit artifact); otherwise they
/// are held in RAM. Consumes exactly one draw from `rng` either way.
[[nodiscard]] EvidenceSweep estimate_dependability_evidence(
    const DesignUnits& design, const MissionParams& mission, Rng& rng,
    sim::FleetRunner& fleet);

/// Convenience: the section 5.1 design pair for a given service shape and
/// spare count — masking fields full+spares with no degraded mode;
/// reconfiguration fields safe+spares and degrades.
struct DesignPair {
  DesignUnits masking;
  DesignUnits reconfig;
};

[[nodiscard]] DesignPair section51_designs(int units_full_service,
                                           int units_safe_service,
                                           int spares);

}  // namespace arfs::analysis
