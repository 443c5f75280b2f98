#include "arfs/analysis/certify.hpp"

#include <sstream>

namespace arfs::analysis {

bool CertificationReport::certified() const {
  if (!structure_ok) return false;
  if (!coverage.all_discharged()) return false;
  if (!dwell_ok) return false;
  if (!schedulable) return false;
  if (feasibility.has_value() && !feasibility->all_feasible()) return false;
  return true;
}

CertificationReport certify(const core::ReconfigSpec& spec,
                            const CertifyOptions& options) {
  CertificationReport report;

  try {
    spec.validate();
    report.structure_ok = true;
  } catch (const std::exception& e) {
    report.structure_detail = e.what();
    return report;  // nothing else is meaningful on a malformed spec
  }

  report.coverage = check_coverage(
      spec, /*keep_discharged=*/false, /*env_limit=*/1u << 20,
      options.fleet != nullptr ? *options.fleet : sim::FleetRunner::shared());

  const TransitionGraph graph = TransitionGraph::build(spec);
  report.transition_edges = graph.edges().size();
  report.cyclic = graph.has_cycle();
  report.dwell_ok = !report.cyclic || !options.require_dwell_for_cycles ||
                    spec.dwell_frames() > 0;

  report.worst_chain = worst_chain_restriction(spec, graph);
  report.interposition = safe_interposition_restriction(spec);

  report.schedules = check_schedulability(spec, options.frame_length);
  report.schedulable = all_schedulable(report.schedules);

  if (options.platform.has_value()) {
    report.feasibility = check_feasibility(spec, *options.platform);
  }
  return report;
}

std::string render(const CertificationReport& report) {
  std::ostringstream os;
  const auto mark = [](bool ok) { return ok ? "[ok]  " : "[FAIL]"; };

  os << mark(report.structure_ok) << " structure";
  if (!report.structure_ok) os << ": " << report.structure_detail;
  os << "\n";
  if (!report.structure_ok) return os.str();

  os << mark(report.coverage.all_discharged()) << " coverage: "
     << report.coverage.discharged << "/" << report.coverage.generated
     << " obligations discharged\n";
  for (const Obligation& o : report.coverage.failures()) {
    os << "         failed: " << o.description << " — " << o.detail << "\n";
  }

  os << mark(report.dwell_ok) << " transitions: " << report.transition_edges
     << " edges, " << (report.cyclic ? "cyclic" : "acyclic");
  if (report.cyclic) {
    os << (report.dwell_ok ? " (dwell rule present)"
                           : " (NO dwell rule: unbounded reconfiguration "
                             "possible, section 5.3)");
  }
  os << "\n";

  os << "[info] restriction bounds: chain-sum ";
  if (report.worst_chain.frames.has_value()) {
    os << *report.worst_chain.frames << " frames";
  } else {
    os << "unbounded";
  }
  os << ", interposition ";
  if (report.interposition.frames.has_value()) {
    os << *report.interposition.frames << " frames";
  } else {
    os << "unavailable (" << report.interposition.missing_safe_edges.size()
       << " configs lack a direct safe edge)";
  }
  os << "\n";

  os << mark(report.schedulable) << " schedulability: "
     << report.schedules.size() << " (config, processor) windows checked\n";
  for (const ScheduleFinding& f : report.schedules) {
    if (!f.feasible) {
      os << "         config " << f.config.value() << " processor "
         << f.processor.value() << ": " << f.load << "us > "
         << f.frame_length << "us frame\n";
    }
  }

  if (report.feasibility.has_value()) {
    os << mark(report.feasibility->all_feasible())
       << " resource feasibility: " << report.feasibility->findings.size()
       << " findings\n";
    for (const FeasibilityFinding& f : report.feasibility->violations()) {
      os << "         config " << f.config.value() << " on processor "
         << f.processor.value() << ": " << f.detail << "\n";
    }
  }

  os << (report.certified() ? "CERTIFIED: all static obligations discharged"
                            : "NOT CERTIFIED")
     << "\n";
  return os.str();
}

namespace {

std::string json_escape(const std::string& in) {
  std::string out;
  out.reserve(in.size());
  for (const char c : in) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

}  // namespace

std::string render_json(const CertificationReport& report) {
  std::ostringstream os;
  const auto b = [](bool v) { return v ? "true" : "false"; };
  os << "{\n";
  os << "  \"certified\": " << b(report.certified()) << ",\n";
  os << "  \"structure\": {\"ok\": " << b(report.structure_ok)
     << ", \"detail\": \"" << json_escape(report.structure_detail)
     << "\"},\n";
  os << "  \"coverage\": {\"ok\": " << b(report.coverage.all_discharged())
     << ", \"generated\": " << report.coverage.generated
     << ", \"discharged\": " << report.coverage.discharged
     << ", \"failures\": [";
  bool first = true;
  for (const Obligation& o : report.coverage.failures()) {
    if (!first) os << ", ";
    first = false;
    os << "\"" << json_escape(o.description) << "\"";
  }
  os << "]},\n";
  os << "  \"transitions\": {\"edges\": " << report.transition_edges
     << ", \"cyclic\": " << b(report.cyclic) << ", \"dwell_ok\": "
     << b(report.dwell_ok) << "},\n";
  os << "  \"restriction\": {\"chain_sum_frames\": ";
  if (report.worst_chain.frames.has_value()) {
    os << *report.worst_chain.frames;
  } else {
    os << "null";
  }
  os << ", \"interposition_frames\": ";
  if (report.interposition.frames.has_value()) {
    os << *report.interposition.frames;
  } else {
    os << "null";
  }
  os << "},\n";
  os << "  \"schedulability\": {\"ok\": " << b(report.schedulable)
     << ", \"windows\": " << report.schedules.size() << "},\n";
  os << "  \"feasibility\": ";
  if (report.feasibility.has_value()) {
    os << "{\"ok\": " << b(report.feasibility->all_feasible())
       << ", \"findings\": " << report.feasibility->findings.size()
       << ", \"violations\": " << report.feasibility->violations().size()
       << "}";
  } else {
    os << "null";
  }
  os << "\n}\n";
  return os.str();
}

}  // namespace arfs::analysis
