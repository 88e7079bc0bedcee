#pragma once

// Shared pieces of the perfbench harness: run options, timing and
// quantile helpers, the reference data (pinned optima, held-out sets), the
// per-operation outcome tally and the metric/result printer.

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "benchmarks/benchmark.hpp"
#include "clsim/platform.hpp"
#include "tuner/param.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Latency limit of slo_share: hits and predicts answered within it, ms.
inline constexpr double kSloMs = 50.0;

[[nodiscard]] double seconds_between(Clock::time_point a, Clock::time_point b);
[[nodiscard]] double ms_between(Clock::time_point a, Clock::time_point b);

/// Quantile by linear interpolation between closest ranks (q in [0, 1]).
/// Empty input yields 0.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Share of values at or below `limit` (1 for no values).
[[nodiscard]] double share_within(const std::vector<double>& values, double limit);

/// Arithmetic and geometric mean (0 for no values).
[[nodiscard]] double mean(std::vector<double> values);
[[nodiscard]] double geomean(const std::vector<double>& values);

/// A statistic taken per cell, combined across cells by geometric mean
/// (cells without samples are skipped). The cells' values form separate
/// clusters (device speeds differ), and a median over pooled samples would
/// flip between clusters from run to run.
template <typename Stat>
[[nodiscard]] double across_cells(const std::vector<std::vector<double>>& per_cell,
                                  Stat stat) {
  std::vector<double> values;
  for (const auto& samples : per_cell)
    if (!samples.empty()) values.push_back(stat(samples));
  return geomean(values);
}

/// Time `setup` repeatedly: at least five times, and while it is cheap
/// until about a quarter second has been spent (at most 1000 times).
/// Returns each duration in seconds; report the median.
template <typename F>
std::vector<double> repeat_setup(F&& setup) {
  std::vector<double> seconds;
  double total = 0.0;
  while (seconds.size() < 5 || (total < 0.25 && seconds.size() < 1000)) {
    const Clock::time_point t0 = Clock::now();
    setup(seconds.size());
    seconds.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
    total += seconds.back();
  }
  return seconds;
}

/// Stream `stream`, element `index` of the workload seed: a splitmix64 hash,
/// so every generated input is a pure function of (seed, stream, index).
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed,
                                        std::uint64_t stream,
                                        std::uint64_t index);

/// Peak resident set size of this process so far, in MiB.
[[nodiscard]] double peak_rss_mb();

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 20;
  bool trace = false;
  std::string commit = "unknown";
  /// Directory for the result record and the trace (inside the checkout).
  std::string out_dir = ".";
  /// Pinned optima file (reference/optima.tsv).
  std::string reference = "perfbench/reference/optima.tsv";
};

/// One (benchmark, device) pair a workload tunes.
struct Cell {
  std::string benchmark;
  std::string device;
  [[nodiscard]] std::string label() const { return benchmark + "@" + device; }
};

/// Noise-free optimum of a cell, as pinned in the reference data.
struct Optimum {
  Cell cell;
  double time_ms = 0.0;
  pt::tuner::Configuration config;
};

[[nodiscard]] std::vector<Optimum> load_optima(const std::string& path);
[[nodiscard]] std::string format_optimum(const Optimum& optimum);

/// The device model with measurement jitter switched off (structural noise
/// stays: it is part of the modeled hardware, the same for every call).
[[nodiscard]] pt::clsim::Platform noise_free_platform();

/// Everything the output checks need for one cell, built once per run.
struct CellReference {
  Cell cell;
  Optimum optimum;
  std::unique_ptr<pt::benchkit::TunableBenchmark> paper;
  std::unique_ptr<pt::benchkit::TunableBenchmark> small;
  std::unique_ptr<pt::benchkit::BenchmarkEvaluator> noise_free;
  /// Fixed, seeded held-out set of valid configurations and their
  /// noise-free times (independent of the workload seed).
  std::vector<pt::tuner::Configuration> heldout;
  std::vector<double> heldout_ms;
};

/// Build the reference for `cell` on the noise-free platform `nf`.
[[nodiscard]] CellReference make_reference(const Cell& cell,
                                           const std::vector<Optimum>& optima,
                                           const pt::clsim::Platform& nf);

/// Result of checking one winning configuration.
struct WinnerCheck {
  bool ok = false;
  std::string problem;
  double tuned_vs_opt = 0.0;  // noise-free winner time / pinned optimum
};

/// Re-measure the winner on the noise-free device (must be valid and no
/// faster than the pinned optimum) and verify it functionally on the small
/// geometry within tolerance.
[[nodiscard]] WinnerCheck check_winner(CellReference& ref,
                                       const pt::tuner::Configuration& best);

/// Tally of attempted operations. A failed operation (no prediction,
/// rejected request) counts in `failed`; an output-check miss counts in
/// `failed` and also makes the run incorrect.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void fail(const std::string& what);
  void wrong(const std::string& what);
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Every per-layer metric a traced run reports, in order, with its unit.
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
layer_metric_units();

/// The measured per-layer metrics in table order, with 0 for the layers a
/// workload does not exercise (e.g. serve.* on a tune workload).
[[nodiscard]] std::vector<Metric> complete_layer_metrics(
    const std::vector<Metric>& measured);

/// Key/value pairs describing the run (written into every result).
struct RunRecord {
  std::vector<std::pair<std::string, std::string>> fields;
  void add(const std::string& key, const std::string& value) {
    fields.emplace_back(key, value);
  }
};

[[nodiscard]] RunRecord make_run_record(const RunOptions& options);

/// Shortest round-trip decimal form of a double.
[[nodiscard]] std::string number(double v);
[[nodiscard]] std::string json_string(const std::string& s);

/// Print the result line (last line of stdout) and write the result record
/// file beside the trace.
void emit_result(const RunOptions& options, const RunRecord& record,
                 const Outcome& outcome, const std::vector<Metric>& metrics);

}  // namespace perfbench
