// arfs_perfbench: the repository's end-to-end benchmark program.
//
//   arfs_perfbench --workload serve-long|fleet-uav|crash-quorum --seed N
//                  --seconds S --trace 0|1 [--spans FILE] [--state-dir DIR]
//
// --trace 0 measures the workload untraced for S seconds and reports its
// end-to-end metrics; --trace 1 runs the traced pass and the serial layer
// replay and reports the per-layer metrics. Every run checks its outputs,
// prints a human-readable report, and ends with one JSON line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// perfbench/run.py builds this program and validates that line against
// BENCHMARK.json.
#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Metric;
using perfbench::Options;
using perfbench::Result;

int usage() {
  std::cerr << "usage: arfs_perfbench --workload serve-long|fleet-uav|"
               "crash-quorum --seed N --seconds S --trace 0|1 "
               "[--spans FILE] [--state-dir DIR]\n";
  return 2;
}

std::string json_number(double v) {
  std::ostringstream out;
  out << std::setprecision(17) << v;
  return out.str();
}

/// The untraced metrics under their workload-specific names, for the
/// human-readable report.
void print_report(const Options& options, const Result& result) {
  const auto value = [&](const std::string& name) {
    for (const Metric& m : result.end_to_end) {
      if (m.name == name) return m.value;
    }
    return 0.0;
  };
  const double failed_share =
      result.attempted > 0 ? static_cast<double>(result.failed) /
                                 static_cast<double>(result.attempted)
                           : 0.0;
  std::string unit_rate = "sweep_points_per_s";
  std::string gap = "sweep_point_gap";
  if (options.workload == "serve-long") {
    unit_rate = "serve_frames_per_s";
    gap = "serve_frame_gap";
  } else if (options.workload == "fleet-uav") {
    unit_rate = "fleet_samples_per_s";
    gap = "fleet_sample_gap";
  }
  std::cout << options.workload << " (seed " << options.seed << ", "
            << options.threads << " threads of nproc " << options.nproc
            << ")\n";
  const auto row = [](const std::string& name, double v,
                      const std::string& unit) {
    std::cout << "  " << std::left << std::setw(28) << name << std::right
              << std::setw(16) << std::setprecision(6) << v << " " << unit
              << "\n";
  };
  row("setup_s", value("setup_s"), "s");
  row("peak_rss_mib", value("peak_rss_mib"), "MiB");
  row("failed_share", failed_share, "ratio");
  row(unit_rate, value("units_per_s"), "1/s");
  row(gap + "_p50_us", value("unit_gap_p50_us"), "us");
  row(gap + "_p99_us", value("unit_gap_p99_us"), "us");
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  options.nproc = std::max(1u, std::thread::hardware_concurrency());
  // One processor is left to the rest of the machine, so that the workers
  // are not the ones it preempts.
  options.threads = std::clamp<std::size_t>(options.nproc - 1, 1, 4);
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage();
    const char* v = argv[++i];
    if (arg == "--workload") {
      options.workload = v;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(v, nullptr);
    } else if (arg == "--trace") {
      options.trace = std::strcmp(v, "1") == 0;
      have_trace = true;
    } else if (arg == "--spans") {
      options.spans_path = v;
    } else if (arg == "--state-dir") {
      options.state_dir = v;
    } else {
      return usage();
    }
  }
  if (!have_trace || !(options.seconds > 0)) return usage();

  Result result;
  try {
    if (options.workload == "serve-long") {
      result = perfbench::run_serve_long(options);
    } else if (options.workload == "fleet-uav") {
      result = perfbench::run_fleet_uav(options);
    } else if (options.workload == "crash-quorum") {
      result = perfbench::run_crash_quorum(options);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::cerr << "arfs_perfbench: " << options.workload
              << " failed: " << e.what() << "\n";
    return 1;
  }
  perfbench::check_count_drift(options, result);

  if (!options.trace) print_report(options, result);
  for (const std::string& line : result.notes) std::cout << line << "\n";
  std::cout << "exact counts:\n";
  for (const Metric& m : result.counts) {
    std::cout << "  " << m.name << " = " << json_number(m.value) << " "
              << m.unit << "\n";
  }

  std::vector<Metric> metrics = result.end_to_end;
  if (options.trace) {
    metrics = result.layers;
    metrics.push_back(
        {"sim.nproc", static_cast<double>(options.nproc), "count"});
    metrics.insert(metrics.end(), result.counts.begin(),
                   result.counts.end());
  }
  std::cout << "{\"correct\": " << (result.correct ? "true" : "false")
            << ", \"attempted\": " << result.attempted
            << ", \"failed\": " << result.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::cout << (i > 0 ? ", " : "") << "\"" << metrics[i].name
              << "\": {\"value\": " << json_number(metrics[i].value)
              << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  std::cout << "}}" << std::endl;
  return 0;
}
