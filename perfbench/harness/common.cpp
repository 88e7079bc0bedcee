#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <sys/resource.h>

#include "archsim/devices.hpp"
#include "benchmarks/convolution.hpp"
#include "benchmarks/raycasting.hpp"
#include "benchmarks/registry.hpp"
#include "benchmarks/stereo.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "common/thread_pool.hpp"
#include "serve/service.hpp"
#include "tuner/autotuner.hpp"

namespace perfbench {

namespace json = pt::common::json;

namespace {

/// Held-out set size per cell and the draw budget for finding it.
constexpr std::size_t kHeldout = 2000;
constexpr std::size_t kHeldoutDraws = 200000;
constexpr std::uint64_t kHeldoutSeed = 0x68656c646f7574ULL;
/// Functional verification tolerance (max abs error on the small geometry),
/// the same bound the repository's functional tests use.
constexpr double kVerifyTolerance = 1e-5;

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

/// A copy of the small geometry `small` (of concrete type B) whose image
/// extent is widened to at least w x h; nullptr when `small` is not a B or
/// already large enough.
template <typename B>
std::unique_ptr<pt::benchkit::TunableBenchmark> widened(
    const pt::benchkit::TunableBenchmark& small, std::size_t w, std::size_t h) {
  const auto* concrete = dynamic_cast<const B*>(&small);
  if (concrete == nullptr) return nullptr;
  typename B::Geometry g = concrete->geometry();
  if (g.width >= w && g.height >= h) return nullptr;
  g.width = std::max(g.width, w);
  g.height = std::max(g.height, h);
  return std::make_unique<B>(g);
}

}  // namespace

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double share_within(const std::vector<double>& values, double limit) {
  if (values.empty()) return 1.0;
  const auto n = std::count_if(values.begin(), values.end(),
                               [limit](double v) { return v <= limit; });
  return static_cast<double>(n) / static_cast<double>(values.size());
}

double mean(std::vector<double> values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream,
                          std::uint64_t index) {
  std::uint64_t state = seed ^ (stream * 0x9e3779b97f4a7c15ULL);
  (void)pt::common::splitmix64(state);
  state ^= index * 0xbf58476d1ce4e5b9ULL;
  return pt::common::splitmix64(state);
}

double peak_rss_mb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::vector<Optimum> load_optima(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read reference optima: " + path);
  std::vector<Optimum> optima;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    Optimum opt;
    std::string time;
    std::string config;
    if (!std::getline(fields, opt.cell.benchmark, '\t') ||
        !std::getline(fields, opt.cell.device, '\t') ||
        !std::getline(fields, time, '\t') || !std::getline(fields, config))
      throw std::runtime_error("malformed reference line: " + line);
    opt.time_ms = std::stod(time);
    std::istringstream values(config);
    std::string v;
    while (std::getline(values, v, ',')) opt.config.values.push_back(std::stoi(v));
    optima.push_back(std::move(opt));
  }
  return optima;
}

std::string format_optimum(const Optimum& optimum) {
  std::string out = optimum.cell.benchmark + "\t" + optimum.cell.device +
                    "\t" + number(optimum.time_ms) + "\t";
  for (std::size_t i = 0; i < optimum.config.values.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(optimum.config.values[i]);
  }
  return out;
}

pt::clsim::Platform noise_free_platform() {
  pt::archsim::TimingModel::Options options;
  options.measurement_noise = false;
  return pt::archsim::default_platform(options);
}

CellReference make_reference(const Cell& cell,
                             const std::vector<Optimum>& optima,
                             const pt::clsim::Platform& nf) {
  CellReference ref;
  ref.cell = cell;
  const auto it = std::find_if(optima.begin(), optima.end(), [&](const Optimum& o) {
    return o.cell.benchmark == cell.benchmark && o.cell.device == cell.device;
  });
  if (it == optima.end())
    throw std::runtime_error("no pinned optimum for " + cell.label());
  ref.optimum = *it;
  ref.paper = pt::benchkit::make_benchmark(cell.benchmark);
  ref.small = pt::benchkit::make_benchmark_small(cell.benchmark);
  ref.noise_free = std::make_unique<pt::benchkit::BenchmarkEvaluator>(
      *ref.paper, nf.device_by_name(cell.device));
  const pt::tuner::ParamSpace& space = ref.paper->space();
  pt::common::Rng rng(kHeldoutSeed ^ fnv1a(cell.label()));
  for (std::size_t draw = 0; draw < kHeldoutDraws && ref.heldout.size() < kHeldout;
       ++draw) {
    pt::tuner::Configuration config = space.decode(rng.below(space.size()));
    const pt::tuner::Measurement m = ref.noise_free->measure(config);
    if (!m.valid) continue;
    ref.heldout.push_back(std::move(config));
    ref.heldout_ms.push_back(m.time_ms);
  }
  if (ref.heldout.size() < kHeldout)
    throw std::runtime_error("held-out set incomplete for " + cell.label());
  return ref;
}

WinnerCheck check_winner(CellReference& ref,
                         const pt::tuner::Configuration& best) {
  WinnerCheck check;
  const pt::tuner::ParamSpace& space = ref.paper->space();
  const std::string what = ref.cell.label() + " " + space.to_string(best);
  const pt::tuner::Measurement m = ref.noise_free->measure(best);
  if (!m.valid) {
    check.problem = what + ": winner invalid on the noise-free device";
    return check;
  }
  check.tuned_vs_opt = m.time_ms / ref.optimum.time_ms;
  if (check.tuned_vs_opt < 1.0 - 1e-12) {
    check.problem = what + ": winner faster than the pinned optimum (" +
                    number(m.time_ms) + " < " + number(ref.optimum.time_ms) +
                    " ms); the reference data is stale";
    return check;
  }
  try {
    // The small geometry rejects per-thread work larger than its image; such
    // winners are verified on the small geometry widened to fit them.
    const auto ppt_x = static_cast<std::size_t>(space.value_of(best, "PPT_X"));
    const auto ppt_y = static_cast<std::size_t>(space.value_of(best, "PPT_Y"));
    auto wide =
        widened<pt::benchkit::ConvolutionBenchmark>(*ref.small, ppt_x, ppt_y);
    if (!wide) wide = widened<pt::benchkit::StereoBenchmark>(*ref.small, ppt_x, ppt_y);
    if (!wide)
      wide = widened<pt::benchkit::RaycastingBenchmark>(*ref.small, ppt_x, ppt_y);
    const pt::benchkit::TunableBenchmark* verifier =
        wide ? wide.get() : ref.small.get();
    const double err = verifier->verify(ref.noise_free->device(), best);
    if (!(err <= kVerifyTolerance)) {
      check.problem = what + ": functional verification error " + number(err);
      return check;
    }
  } catch (const std::exception& e) {
    check.problem = what + ": functional verification threw: " + e.what();
    return check;
  }
  check.ok = true;
  return check;
}

void Outcome::fail(const std::string& what) {
  ++failed;
  std::cerr << "perfbench: failed: " << what << "\n";
}

void Outcome::wrong(const std::string& what) {
  ++failed;
  correct = false;
  std::cerr << "perfbench: WRONG OUTPUT: " << what << "\n";
}

const std::vector<std::pair<std::string, std::string>>& layer_metric_units() {
  static const std::vector<std::pair<std::string, std::string>> table = {
      {"tuner.scan.ms", "ms"},
      {"tuner.scan.mconfigs_per_s", "Mconfig/s"},
      {"ml.fit.ms", "ms"},
      {"ml.fit.epochs", "count"},
      {"benchmarks.measure.calls", "count"},
      {"benchmarks.measure.valid_ratio", "ratio"},
      {"benchmarks.measure.us_per_call", "us"},
      {"benchmarks.measure.build_share", "ratio"},
      {"tuner.stage2.measured", "count"},
      {"tuner.stage2.invalid_ratio", "ratio"},
      {"tuner.no_prediction_share", "ratio"},
      {"tuner.iterative.rounds", "count"},
      {"tuner.iterative.exploit_share", "ratio"},
      {"serve.hit.client_p90_ms", "ms"},
      {"serve.hit.client_p99_ms", "ms"},
      {"serve.hit.service_p99_ms", "ms"},
      {"serve.predict.client_p90_ms", "ms"},
      {"serve.predict.client_p99_ms", "ms"},
      {"serve.predict.service_p99_ms", "ms"},
      {"serve.cold.client_p50_ms", "ms"},
      {"serve.cold.service_p50_ms", "ms"},
      {"serve.store.lookup_us", "us"},
      {"serve.cache_hit_ratio", "ratio"},
      {"serve.coalesced", "count"},
      {"serve.rejected", "count"},
      {"serve.tunes_executed", "count"},
      {"serve.gen_lag_ms", "ms"},
      {"archsim.history_drift", "count"},
      {"self_share.tuner.scan", "ratio"},
      {"self_share.ml.fit", "ratio"},
      {"self_share.benchmarks.measure", "ratio"},
      {"self_share.tuner.other", "ratio"},
      {"self_share.serve.client", "ratio"},
      {"self_share.serve.service", "ratio"},
      {"trace.overhead_ms", "ms"},
      {"trace.overhead_pct", "%"},
      {"trace.spans", "count"},
  };
  return table;
}

std::vector<Metric> complete_layer_metrics(const std::vector<Metric>& measured) {
  std::vector<Metric> out;
  for (const auto& [name, unit] : layer_metric_units()) {
    const auto it = std::find_if(measured.begin(), measured.end(),
                                 [&](const Metric& m) { return m.name == name; });
    out.push_back(it != measured.end() ? *it : Metric{name, 0.0, unit});
  }
  for (const Metric& m : measured) {
    const auto& table = layer_metric_units();
    if (std::none_of(table.begin(), table.end(),
                     [&](const auto& row) { return row.first == m.name; }))
      throw std::logic_error("per-layer metric missing from the table: " + m.name);
  }
  return out;
}

RunRecord make_run_record(const RunOptions& options) {
  RunRecord record;
  record.add("workload", options.workload);
  record.add("seed", std::to_string(options.seed));
  record.add("seconds", std::to_string(options.seconds));
  record.add("trace", options.trace ? "1" : "0");
  record.add("commit", options.commit);
  record.add("nproc", std::to_string(std::thread::hardware_concurrency()));
  record.add("pool_threads", std::to_string(pt::common::global_pool().size()));
  record.add("service_workers",
             std::to_string(pt::serve::TuneServiceOptions{}.workers));
  record.add("simd_backend", pt::common::simd::backend_name());
  record.add("scan_inference",
             pt::tuner::scan_inference_name(
                 pt::tuner::AutoTunerOptions{}.model.scan.inference));
  record.add("build_type", PERFBENCH_BUILD_TYPE);
  return record;
}

std::string number(double v) { return json::number_to_string(v); }

std::string json_string(const std::string& s) {
  return "\"" + json::escape(s) + "\"";
}

void emit_result(const RunOptions& options, const RunRecord& record,
                 const Outcome& outcome, const std::vector<Metric>& metrics) {
  std::string rec = "{";
  for (std::size_t i = 0; i < record.fields.size(); ++i) {
    if (i > 0) rec += ", ";
    rec += json_string(record.fields[i].first) + ": " +
           json_string(record.fields[i].second);
  }
  rec += "}";
  std::string mets = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) mets += ", ";
    mets += json_string(metrics[i].name) + ": {\"value\": " +
            number(metrics[i].value) + ", \"unit\": " +
            json_string(metrics[i].unit) + "}";
  }
  mets += "}";
  const std::string result =
      std::string("{\"correct\": ") + (outcome.correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(outcome.attempted) +
      ", \"failed\": " + std::to_string(outcome.failed) +
      ", \"metrics\": " + mets + "}";

  const std::string path = options.out_dir + "/result-" + options.workload +
                           "-seed" + std::to_string(options.seed) + "-trace" +
                           (options.trace ? "1" : "0") + ".json";
  std::ofstream file(path);
  file << "{\"run_record\": " << rec << ", \"result\": " << result << "}\n";
  if (!file) std::cerr << "perfbench: could not write " << path << "\n";

  std::cout << "run_record " << rec << "\n" << result << "\n" << std::flush;
}

}  // namespace perfbench
