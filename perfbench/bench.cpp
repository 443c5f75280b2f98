#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1 ? 0 : std::min(values.size(), static_cast<std::size_t>(rank)) - 1;
  return values[index];
}

void Result::check(bool ok, const std::string& what, std::uint64_t units) {
  if (ok) return;
  correct = false;
  failed += units;
  notes.push_back("CHECK FAILED: " + what);
}

void Tracer::begin_unit(const char* kind, std::uint64_t unit) {
  if (!enabled_) return;
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{kind, unit, -1, now_ns(), 0});
  open_unit_ = static_cast<std::int64_t>(spans_.size()) - 1;
}

void Tracer::end_unit() {
  if (!enabled_) return;
  const std::lock_guard<std::mutex> lock(mutex_);
  if (open_unit_ >= 0) {
    spans_[static_cast<std::size_t>(open_unit_)].end_ns = now_ns();
  }
  open_unit_ = -1;
}

void Tracer::record(const char* name, std::uint64_t unit, std::uint64_t start,
                    std::uint64_t end) {
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{name, unit, open_unit_, start, end});
}

std::vector<double> Tracer::durations_us(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (name == span.name) {
      out.push_back(static_cast<double>(span.end_ns - span.start_ns) / 1e3);
    }
  }
  return out;
}

bool Tracer::write(const std::string& path) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path);
  out << "name,unit,parent,start_ns,end_ns\n";
  for (const Span& span : spans_) {
    out << span.name << ',' << span.unit << ',' << span.parent << ','
        << span.start_ns << ',' << span.end_ns << '\n';
  }
  return out.good();
}

void GapRecorder::mark(std::uint64_t lane, std::uint64_t t_ns) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto [it, fresh] = last_.try_emplace(lane, t_ns);
  if (!fresh) {
    if (passes_.empty()) passes_.emplace_back();
    passes_.back().push_back(static_cast<double>(t_ns - it->second) / 1e3);
    it->second = t_ns;
  }
}

void GapRecorder::mark_this_thread() {
  mark(std::hash<std::thread::id>{}(std::this_thread::get_id()), now_ns());
}

void GapRecorder::restart() {
  const std::lock_guard<std::mutex> lock(mutex_);
  last_.clear();
  if (!passes_.empty() && !passes_.back().empty()) passes_.emplace_back();
}

std::vector<double> GapRecorder::pass_quantiles(double q) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> out;
  for (const std::vector<double>& gaps : passes_) {
    if (!gaps.empty()) out.push_back(quantile(gaps, q));
  }
  return out;
}

double GapRecorder::pass_mean(double q) const {
  return perfbench::pass_mean(pass_quantiles(q));
}

std::string GapRecorder::describe() const {
  std::size_t per_pass = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!passes_.empty()) per_pass = passes_.front().size();
  }
  std::ostringstream out;
  out << per_pass << " gaps a pass, " << per_pass / 100
      << " beyond p99; p50/p99 us per pass:";
  const std::vector<double> p50 = pass_quantiles(0.50);
  const std::vector<double> p99 = pass_quantiles(0.99);
  for (std::size_t i = 0; i < p50.size(); ++i) {
    out << " " << p50[i] << "/" << p99[i];
  }
  return out.str();
}

void add_layer_timings(const Tracer& tracer, Result& result) {
  for (const char* layer : kTimedLayers) {
    const std::vector<double> us = tracer.durations_us(layer);
    const std::string name = layer;
    result.layers.push_back({name + "_us.p50", quantile(us, 0.50), "us"});
    result.layers.push_back({name + "_us.p99", quantile(us, 0.99), "us"});
    result.layers.push_back(
        {name + ".calls", static_cast<double>(us.size()), "count"});
  }
}

double pass_mean(std::vector<double> per_pass) {
  if (per_pass.empty()) return 0;
  std::sort(per_pass.begin(), per_pass.end());
  const std::size_t cut = per_pass.size() / 10;
  double sum = 0;
  for (std::size_t i = cut; i < per_pass.size() - cut; ++i) sum += per_pass[i];
  return sum / static_cast<double>(per_pass.size() - 2 * cut);
}

void set_end_to_end(Result& result, const std::vector<double>& setup_s,
                    double peak_rss_mib, const std::vector<double>& units_per_s,
                    const GapRecorder& gaps) {
  result.end_to_end = {
      {"setup_s", median(setup_s), "s"},
      {"peak_rss_mib", peak_rss_mib, "MiB"},
      {"units_per_s", pass_mean(units_per_s), "1/s"},
      {"unit_gap_p50_us", gaps.pass_mean(0.50), "us"},
      {"unit_gap_p99_us", gaps.pass_mean(0.99), "us"},
  };
}

void add_run_layers(Result& result, double digest_growth, double scaling,
                    std::size_t threads, double overhead_share) {
  result.layers.push_back({"core.digest_growth", digest_growth, "ratio"});
  result.layers.push_back({"sim.scaling", scaling, "ratio"});
  result.layers.push_back(
      {"sim.threads", static_cast<double>(threads), "count"});
  result.layers.push_back({"trace.overhead_share", overhead_share, "ratio"});
}

double growth(const std::vector<double>& series) {
  const std::size_t window = std::min<std::size_t>(512, series.size() / 2);
  if (window == 0) return 0;
  double first = 0;
  double last = 0;
  for (std::size_t i = 0; i < window; ++i) {
    first += series[i];
    last += series[series.size() - window + i];
  }
  return first > 0 ? last / first : 0;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void check_count_drift(const Options& options, Result& result) {
  if (options.state_dir.empty()) return;
  std::ostringstream now;
  now.precision(17);
  for (const Metric& m : result.counts) {
    now << m.name << ' ' << m.value << ' ' << m.unit << '\n';
  }
  const std::string path = options.state_dir + "/counts-" + options.workload +
                           "-seed" + std::to_string(options.seed) + ".txt";
  std::ifstream in(path);
  if (!in.is_open()) {
    std::ofstream(path) << now.str();
    return;
  }
  std::ostringstream before;
  before << in.rdbuf();
  const bool same = before.str() == now.str();
  result.note(std::string("count drift vs earlier run of this seed: ") +
              (same ? "none" : "DRIFT"));
  result.check(same, "exact counts drifted from an earlier run of seed " +
                         std::to_string(options.seed) + " (" + path + ")",
               0);
}

}  // namespace perfbench
