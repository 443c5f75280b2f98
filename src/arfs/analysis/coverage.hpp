// Coverage obligations: the executable counterpart of the covering_txns
// type-correctness condition (paper Figure 2 and section 5.2: "Transition
// existence can be guaranteed in a straightforward way by including a
// coverage requirement over environmental transitions, potential failures,
// and permissible reconfigurations").
//
// For every (configuration, environment-state) pair the checker generates
// and evaluates the obligations that PVS would emit as TCCs:
//   * choose(c, e) names a declared configuration;
//   * if choose(c, e) != c, a transition time bound T(c, choose(c,e)) exists;
//   * every application assigned in the chosen target has a declared
//     specification and a placement (structural; also enforced by
//     ReconfigSpec::validate).
// Plus the global obligations:
//   * at least one safe configuration exists;
//   * from every configuration reachable from the initial one, some safe
//     configuration remains reachable.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "arfs/analysis/graph.hpp"
#include "arfs/core/reconfig_spec.hpp"
#include "arfs/sim/fleet.hpp"

namespace arfs::analysis {

struct Obligation {
  std::string description;
  bool discharged = false;
  std::string detail;  ///< Explanation when not discharged.
};

struct CoverageReport {
  std::vector<Obligation> obligations;
  std::uint64_t generated = 0;
  std::uint64_t discharged = 0;

  [[nodiscard]] bool all_discharged() const { return generated == discharged; }
  /// Obligations that failed (convenience for reporting).
  [[nodiscard]] std::vector<Obligation> failures() const;
};

/// Evaluates all coverage obligations. `keep_discharged` controls whether
/// discharged obligations are materialized in the report (large sweeps only
/// need the counts). The per-configuration sweep fans out as `fleet` jobs
/// whose reports merge in configuration order, so the report is identical
/// at any thread count (choose functions must be pure).
[[nodiscard]] CoverageReport check_coverage(
    const core::ReconfigSpec& spec, bool keep_discharged = false,
    std::size_t env_limit = 1u << 20,
    sim::FleetRunner& fleet = sim::FleetRunner::shared());

}  // namespace arfs::analysis
