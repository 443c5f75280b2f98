// Shared plumbing of the arfs benchmark: run options, results, quantiles,
// and the span recorder the traced pass times layer calls with.
//
// The benchmark drives the library from outside, through its public API
// only. Every span is recorded by the benchmark around a call it makes into
// one layer (or around a callback the library makes into the benchmark's
// own mission/plan factories); nothing inside the library is instrumented.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

[[nodiscard]] inline double seconds_since(Clock::time_point since) {
  return std::chrono::duration<double>(Clock::now() - since).count();
}

/// Nearest-rank quantile (q in [0, 1]) of `values`; 0 for an empty set.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Worker threads of the batch workloads: nproc - 1, within [1, 4].
  std::size_t threads = 1;
  std::size_t nproc = 1;
  /// Where the traced pass writes its spans (empty: not written).
  std::string spans_path;
  /// Directory holding the exact counts of earlier runs, keyed by workload
  /// and seed, for the same-seed drift check (empty: no cross-run check).
  std::string state_dir;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one workload run produced. `attempted`/`failed` count units
/// (sessions, samples, crash points); `failed / attempted` is the
/// workload's failed_share.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;  ///< Untraced run.
  std::vector<Metric> layers;      ///< Traced run.
  /// Counts that must repeat exactly for a seed (simulated statistics,
  /// storage and pool counters); reported in every run.
  std::vector<Metric> counts;
  std::vector<std::string> notes;  ///< Human-readable report lines.

  /// Records one output check. A failed check marks the run incorrect and
  /// charges `units` failed units.
  void check(bool ok, const std::string& what, std::uint64_t units);
  void note(std::string line) { notes.push_back(std::move(line)); }
  void count(const std::string& name, double value,
             const std::string& unit = "count") {
    counts.push_back({name, value, unit});
  }
};

/// Spans recorded around calls into the library. Each span carries the
/// unit (session, sample or crash point) it belongs to and the index of the
/// unit's root span as its parent. Thread-safe: the traced batch passes
/// record from the library's worker threads.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// Times `fn()` as one call of layer function `name` within `unit`.
  template <typename F>
  decltype(auto) call(const char* name, std::uint64_t unit, F&& fn) {
    if (!enabled_) return fn();
    const std::uint64_t start = now_ns();
    struct Closer {
      Tracer& tracer;
      const char* name;
      std::uint64_t unit;
      std::uint64_t start;
      ~Closer() { tracer.record(name, unit, start, now_ns()); }
    } closer{*this, name, unit, start};
    return fn();
  }

  /// Opens / closes the root span of one unit of a serial replay; spans
  /// recorded in between name it as their parent.
  void begin_unit(const char* kind, std::uint64_t unit);
  void end_unit();

  /// Durations (µs) of every span named `name`, in recording order.
  [[nodiscard]] std::vector<double> durations_us(const std::string& name) const;

  /// Writes every span as CSV (name,unit,parent,start_ns,end_ns).
  bool write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::uint64_t unit;
    std::int64_t parent;
    std::uint64_t start_ns;
    std::uint64_t end_ns;
  };
  void record(const char* name, std::uint64_t unit, std::uint64_t start,
              std::uint64_t end);

  bool enabled_;
  mutable std::mutex mutex_;  // guards spans_ and open_unit_
  std::vector<Span> spans_;
  std::int64_t open_unit_ = -1;
};

/// Per-lane gaps between consecutive marks: the time one worker (or one
/// client) spends between successive units of work. Quantiles are taken per
/// pass, so a slow pass moves its own quantiles, not the run's.
class GapRecorder {
 public:
  void mark(std::uint64_t lane, std::uint64_t t_ns);
  /// mark() on the calling thread's lane, now.
  void mark_this_thread();
  /// Starts a new pass: forgets the last mark of every lane.
  void restart();
  /// Each pass's q-quantile gap (µs), in pass order.
  [[nodiscard]] std::vector<double> pass_quantiles(double q) const;
  /// pass_mean() of pass_quantiles(q); 0 when no gap was recorded.
  [[nodiscard]] double pass_mean(double q) const;
  /// Gaps recorded per pass, and beyond the per-pass p99, for the report.
  [[nodiscard]] std::string describe() const;

 private:
  mutable std::mutex mutex_;  // guards last_ and passes_
  std::map<std::uint64_t, std::uint64_t> last_;
  std::vector<std::vector<double>> passes_;
};

/// The layer functions the traced pass times, in report order. Every run
/// reports p50/p99/calls for each; a layer the workload bypasses reports
/// zero calls.
inline constexpr const char* kTimedLayers[] = {
    "core.run_frame",        "core.digest",         "core.checkpoint",
    "core.restore",          "core.ship_catch_up",  "serve.make_frame_record",
    "serve.pump",            "serve.client_poll",   "serve.ring_send",
    "serve.ring_poll",       "support.pool_reset",  "support.plan_build",
    "support.mission_build", "failstop.fail_recover",
};

/// Appends `<layer>_us.p50`, `<layer>_us.p99` and `<layer>.calls` for every
/// timed layer to `result.layers`.
void add_layer_timings(const Tracer& tracer, Result& result);

/// The mean of per-pass values without the lowest and the highest tenth of
/// them (none are dropped below ten passes). A shared host switches the
/// program between a fast state and one about 1.4x slower every second or
/// so, and the share of slow time changes from run to run. A per-pass p50
/// lands in one state or the other, so a median or any other single rank
/// over passes jumps between the states as the share moves; a mean moves
/// with the share. Dropping the tenths keeps a stalled pass from pulling it.
[[nodiscard]] double pass_mean(std::vector<double> per_pass);

/// Sets the end-to-end metrics of an untraced run: the median set-up time,
/// the peak RSS, and the pass_mean() of the per-pass unit rates and of the
/// per-pass p50/p99 gaps between units.
void set_end_to_end(Result& result, const std::vector<double>& setup_s,
                    double peak_rss_mib, const std::vector<double>& units_per_s,
                    const GapRecorder& gaps);

/// Appends the traced run's whole-run layer metrics.
void add_run_layers(Result& result, double digest_growth, double scaling,
                    std::size_t threads, double overhead_share);

/// Mean of the last `window` values over the mean of the first `window`,
/// window = min(512, n / 2); 1.0 means flat. 0 when there are too few.
[[nodiscard]] double growth(const std::vector<double>& series);

/// Peak resident set of this process so far (getrusage), in MiB.
[[nodiscard]] double peak_rss_mib();

/// The untraced measurement loop. One untimed warm-up pass faults memory in
/// and warms caches, then passes repeat until `seconds` have elapsed (at
/// least one). Before every pass, `setup_reps` calls of `setup()` (each
/// returning its own duration in seconds) add to `setup_s`, so set-up
/// samples spread over the whole run, not one instant of it. `pass(bool
/// measured)` returns the pass's record.
template <typename PassFn, typename SetupFn>
auto measure(double seconds, std::size_t setup_reps, PassFn&& pass,
             SetupFn&& setup, std::vector<double>& setup_s) {
  (void)pass(false);
  std::vector<decltype(pass(true))> passes;
  const Clock::time_point start = Clock::now();
  do {
    for (std::size_t r = 0; r < setup_reps; ++r) setup_s.push_back(setup());
    passes.push_back(pass(true));
  } while (seconds_since(start) < seconds);
  return passes;
}

/// Compares this run's exact counts with the stored counts of an earlier
/// run of the same workload and seed (stored on first sight). Records a
/// failed check on drift.
void check_count_drift(const Options& options, Result& result);

}  // namespace perfbench
