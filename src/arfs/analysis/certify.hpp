// The combined static assurance pass: everything that must be discharged
// about a reconfiguration specification *before* the system runs, in one
// call. This is the reproduction's analogue of "the PVS type checker
// accepted the instantiation and all TCCs were proven" (paper section 7.2).
//
// Sections:
//   structure      — ReconfigSpec::validate (well-formedness)
//   coverage       — covering_txns obligations (Figure 2)
//   transitions    — graph construction, cycle detection, safe reachability
//   timing         — chain-sum and interposition restriction bounds (§5.3)
//   schedulability — per-configuration partition schedules fit the frame
//   feasibility    — per-configuration resource demand fits the platform
//                    (optional: requires a PlatformModel)
#pragma once

#include <optional>
#include <string>

#include "arfs/analysis/coverage.hpp"
#include "arfs/analysis/feasibility.hpp"
#include "arfs/analysis/graph.hpp"
#include "arfs/analysis/schedulability.hpp"
#include "arfs/analysis/timing.hpp"
#include "arfs/core/reconfig_spec.hpp"

namespace arfs::analysis {

struct CertifyOptions {
  SimDuration frame_length = 10'000;
  /// When set, resource feasibility is checked against this platform.
  std::optional<PlatformModel> platform;
  /// Whether a cyclic transition graph without a dwell rule fails
  /// certification (the §5.3 caveat). Default: it does.
  bool require_dwell_for_cycles = true;
  /// Engine for the per-configuration coverage sweep (the hot part of
  /// certification on large specs). Null = sim::FleetRunner::shared(); the
  /// report is identical at any thread count.
  sim::FleetRunner* fleet = nullptr;
};

struct CertificationReport {
  bool structure_ok = false;
  std::string structure_detail;

  CoverageReport coverage;

  bool cyclic = false;
  bool dwell_ok = false;  ///< Acyclic, or dwell rule present.
  std::size_t transition_edges = 0;

  ChainBound worst_chain;
  InterpositionBound interposition;

  std::vector<ScheduleFinding> schedules;
  bool schedulable = false;

  std::optional<FeasibilityReport> feasibility;

  /// Overall verdict: every applicable section discharged.
  [[nodiscard]] bool certified() const;
};

[[nodiscard]] CertificationReport certify(const core::ReconfigSpec& spec,
                                          const CertifyOptions& options = {});

/// Human-readable rendering, section by section.
[[nodiscard]] std::string render(const CertificationReport& report);

/// Machine-readable rendering for CI pipelines: one JSON object with a
/// boolean per section, the failing obligations, and the timing bounds.
[[nodiscard]] std::string render_json(const CertificationReport& report);

}  // namespace arfs::analysis
