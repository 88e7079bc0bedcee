// The tune workloads: cold_scan, cold_fit and iterative.
//
// Each run performs a fixed list of tunes derived from (--seed, --seconds):
// tune i runs on cell i mod |cells| with seed derive_seed(seed, 1, i). Every
// tune gets a freshly built archsim::default_platform() and evaluator, as a
// cold user process would, so every output is a pure function of
// (workload seed, tune index). The list is sized so that one run takes
// about --seconds at the library defaults (fp64 scan, N=2000, M=100, the
// default global pool).
//
// Untraced runs report the end-to-end metrics. Traced runs repeat each tune
// three times: untraced on a fresh platform (the baseline for the tracing
// overhead), traced on another fresh platform (spans, per-call accounting;
// must reproduce the untraced result bit for bit), and once more untraced on
// the platform the traced tune just used, counting winners that change
// (archsim.history_drift: measurement jitter that depends on what ran
// before on the platform).

#include <algorithm>
#include <cmath>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "archsim/devices.hpp"
#include "benchmarks/registry.hpp"
#include "trace.hpp"
#include "tuner/autotuner.hpp"
#include "tuner/iterative.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace tuner = pt::tuner;

enum class TunerKind { kOneShot, kIterative };

struct TuneWorkload {
  std::string name;
  TunerKind kind = TunerKind::kOneShot;
  std::vector<Cell> cells;
  /// Typical host seconds per tune at the defaults; sizes the tune list.
  double nominal_tune_s = 1.0;
  /// Cells tuned only in the traced run, as many times as each regular
  /// cell (see the AMD note below).
  std::vector<Cell> probe_cells = {};
  /// Fewest tunes in a run (all cells together).
  std::size_t min_tunes = 3;
};

const std::vector<TuneWorkload>& tune_workloads() {
  static const std::vector<TuneWorkload> workloads = {
      {"cold_scan",
       TunerKind::kOneShot,
       {{"stereo", pt::archsim::kNvidiaK40}, {"stereo", pt::archsim::kIntelI7}},
       4.5},
      {"cold_fit",
       TunerKind::kOneShot,
       {{"convolution", pt::archsim::kIntelI7},
        {"convolution", pt::archsim::kNvidiaK40}},
       2.7,
       // About a third of one-shot convolution tunes on the AMD part give
       // no prediction (every stage-2 candidate exceeds its work-group
       // limit), the paper's failure mode. So many lost tunes would make
       // every end-to-end figure depend on how many the seed loses, so the
       // traced run measures it (tuner.no_prediction_share).
       {{"convolution", pt::archsim::kAmdHd7970}}},
      {"iterative",
       TunerKind::kIterative,
       {{"raycasting", pt::archsim::kNvidiaK40}},
       6.5,
       {},
       // Its tunes take 5.5 to 9 s, depending on the seed, so the median
       // needs five of them to be steady from seed to seed.
       5},
  };
  return workloads;
}

/// Iterative workload budget: 1200 measurements, 400 initial, batches of
/// 200 (five rounds).
tuner::IterativeTunerOptions iterative_options() {
  tuner::IterativeTunerOptions options;
  options.measurement_budget = 1200;
  options.initial_samples = 400;
  options.batch_size = 200;
  return options;
}

struct TuneRecord {
  bool success = false;
  tuner::Configuration best;
  double best_time_ms = 0.0;
  double cost_ms = 0.0;
  double wall_s = 0.0;
  std::optional<tuner::AnnPerformanceModel> model;
  std::size_t stage2_measured = 0;
  std::size_t stage2_invalid = 0;
  std::size_t rounds = 0;
  std::string failure;
};

/// Per-tune layer figures from a traced tune.
struct LayerSample {
  double scan_ms = 0.0;
  double scanned_configs = 0.0;
  double fit_ms = 0.0;
  double epochs = 0.0;
  MeasureTally measure;
};

/// One tune on `platform`. With a recorder the tune is traced: a
/// SpanObserver receives the stage callbacks and a TimedEvaluator wraps the
/// benchmark evaluator.
TuneRecord tune_once(const TuneWorkload& w, const Cell& cell,
                     std::uint64_t seed, const pt::clsim::Platform& platform,
                     SpanRecorder* recorder, std::int64_t request,
                     LayerSample* layers) {
  const auto bench = pt::benchkit::make_benchmark(cell.benchmark);
  pt::benchkit::BenchmarkEvaluator eval(*bench,
                                        platform.device_by_name(cell.device));
  std::optional<SpanObserver> observer;
  std::optional<TimedEvaluator> timed;
  tuner::Evaluator* target = &eval;
  tuner::TuneRun run = tuner::TuneRun::with_seed(seed);
  if (recorder != nullptr) {
    observer.emplace(*recorder, request);
    timed.emplace(eval, *recorder, *observer);
    target = &*timed;
    run.context->observer = &*observer;
  }

  TuneRecord rec;
  const Clock::time_point start = Clock::now();
  if (w.kind == TunerKind::kOneShot) {
    tuner::AutoTuneResult r = tuner::AutoTuner().tune(*target, run);
    rec.wall_s = seconds_between(start, Clock::now());
    rec.success = r.success;
    rec.best = std::move(r.best_config);
    rec.best_time_ms = r.best_time_ms;
    rec.cost_ms = r.data_gathering_cost_ms;
    rec.model = std::move(r.model);
    rec.stage2_measured = r.stage2_measured;
    rec.stage2_invalid = r.stage2_invalid;
    if (!r.success)
      rec.failure = "no prediction (" + r.stage2_rejections.to_string() + ")";
  } else {
    tuner::IterativeTuneResult r =
        tuner::IterativeTuner(iterative_options()).tune(*target, run);
    rec.wall_s = seconds_between(start, Clock::now());
    rec.success = r.success;
    rec.best = std::move(r.best_config);
    rec.best_time_ms = r.best_time_ms;
    rec.cost_ms = r.data_gathering_cost_ms;
    rec.model = std::move(r.model);
    rec.rounds = r.rounds;
    if (!r.success)
      rec.failure = "no prediction (" + r.rejections.to_string() + ")";
  }

  if (layers != nullptr) {
    // Scan time excludes the measurements iterative.exploit makes inside
    // its span.
    const double space = static_cast<double>(eval.space().size());
    const std::vector<Span> spans = recorder->spans();
    for (const Span& s : spans) {
      if (s.request != request || s.end_ns < 0) continue;
      const double ms = static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
      if (s.name == "tuner.scan") {
        layers->scan_ms += ms;
        layers->scanned_configs += space;
      } else if (s.name == "ml.fit") {
        layers->fit_ms += ms;
      } else if (s.name == "benchmarks.measure" && s.parent >= 0 &&
                 spans[static_cast<std::size_t>(s.parent)].name == "tuner.scan") {
        layers->scan_ms -= ms;
      }
    }
    layers->epochs = static_cast<double>(observer->epochs());
    layers->measure = timed->tally();
  }
  return rec;
}

bool same_result(const TuneRecord& a, const TuneRecord& b) {
  return a.success == b.success && a.best == b.best &&
         a.best_time_ms == b.best_time_ms && a.cost_ms == b.cost_ms;
}

std::size_t tune_count(const TuneWorkload& w, int seconds) {
  const std::size_t cells = w.cells.size();
  const auto rounds = static_cast<std::size_t>(std::lround(
      static_cast<double>(seconds) / w.nominal_tune_s /
      static_cast<double>(cells)));
  // At least min_tunes tunes, and the same number on every cell.
  return std::max<std::size_t>(rounds, (w.min_tunes + cells - 1) / cells) * cells;
}

/// End-to-end samples of one cell, accumulated over the tunes of a run
/// and combined across cells with across_cells.
struct Figures {
  std::vector<double> wall_s;
  std::vector<double> cost_s;
  std::vector<double> tuned_vs_opt;
  std::vector<double> mre_pct;
};

/// Output checks for one finished tune. "No prediction" is the tuner's
/// documented answer (paper §6), counted in tuner.no_prediction_share, not
/// a failed operation.
void check_tune(const TuneRecord& rec, std::uint64_t seed, CellReference& ref,
                Outcome& outcome, Figures& fig) {
  const std::string what = ref.cell.label() + " seed " + std::to_string(seed);
  ++outcome.attempted;
  fig.wall_s.push_back(rec.wall_s);
  fig.cost_s.push_back(rec.cost_ms / 1000.0);
  if (!rec.success) {
    std::cerr << "perfbench: " << what << ": " << rec.failure << "\n";
    return;
  }
  const WinnerCheck check = check_winner(ref, rec.best);
  if (!check.ok) {
    outcome.wrong(check.problem);
    return;
  }
  fig.tuned_vs_opt.push_back(check.tuned_vs_opt);
  if (!rec.model || !rec.model->fitted()) {
    outcome.wrong(what + ": successful tune without a fitted model");
    return;
  }
  double rel = 0.0;
  for (std::size_t i = 0; i < ref.heldout.size(); ++i)
    rel += std::abs(rec.model->predict_ms(ref.heldout[i]) - ref.heldout_ms[i]) /
           ref.heldout_ms[i];
  fig.mre_pct.push_back(100.0 * rel / static_cast<double>(ref.heldout.size()));
}

/// A finished tune as a store entry for the idle-service probe.
WarmEntry warm_entry(const TuneRecord& rec, std::size_t c, std::uint64_t seed,
                     const CellReference& ref) {
  WarmEntry warm;
  warm.cell = c;
  warm.entry.key = {ref.cell.benchmark, ref.cell.device, "paper"};
  warm.entry.seed = seed;
  warm.entry.best_config = rec.best;
  warm.entry.best_time_ms = rec.best_time_ms;
  warm.entry.data_gathering_cost_ms = rec.cost_ms;
  warm.entry.model = std::make_shared<const tuner::AnnPerformanceModel>(*rec.model);
  warm.configs = &ref.heldout;
  return warm;
}

}  // namespace

bool is_tune_workload(const std::string& name) {
  const auto& ws = tune_workloads();
  return std::any_of(ws.begin(), ws.end(),
                     [&](const TuneWorkload& w) { return w.name == name; });
}

std::vector<Cell> all_cells() {
  std::vector<Cell> cells;
  for (const TuneWorkload& w : tune_workloads()) {
    std::vector<Cell> mine = w.cells;
    mine.insert(mine.end(), w.probe_cells.begin(), w.probe_cells.end());
    for (const Cell& c : mine) {
      const bool seen = std::any_of(cells.begin(), cells.end(), [&](const Cell& have) {
        return have.benchmark == c.benchmark && have.device == c.device;
      });
      if (!seen) cells.push_back(c);
    }
  }
  return cells;
}

int run_tune_workload(const RunOptions& options) {
  const auto& ws = tune_workloads();
  const TuneWorkload& w = *std::find_if(
      ws.begin(), ws.end(),
      [&](const TuneWorkload& x) { return x.name == options.workload; });
  const Clock::time_point origin = Clock::now();
  SpanRecorder recorder(origin);
  const std::vector<Optimum> optima = load_optima(options.reference);

  // The tune list: tune i on cell i mod |cells| with seed (seed, 1, i).
  // Traced runs execute every tune three times, so they take the first half
  // of the list (at least one tune per cell) and append the probe cells'.
  struct Planned {
    std::size_t cell = 0;  // index into `cells`
    std::uint64_t seed = 0;
  };
  std::vector<Cell> cells = w.cells;
  std::vector<Planned> plan;
  std::size_t n = tune_count(w, options.seconds);
  if (options.trace)
    n = std::max(w.cells.size(), n / w.cells.size() / 2 * w.cells.size());
  for (std::size_t i = 0; i < n; ++i)
    plan.push_back({i % w.cells.size(), derive_seed(options.seed, 1, i)});
  if (options.trace) {
    const std::size_t per_cell = n / w.cells.size();
    for (const Cell& probe : w.probe_cells) {
      cells.push_back(probe);
      for (std::size_t j = 0; j < per_cell; ++j)
        plan.push_back({cells.size() - 1, derive_seed(options.seed, 6, plan.size())});
    }
  }

  // The reference data of the output checks (noise-free evaluators,
  // held-out sets): the harness's own input, not part of set-up.
  std::vector<CellReference> refs;
  {
    const pt::clsim::Platform nf = noise_free_platform();
    for (const Cell& c : cells) refs.push_back(make_reference(c, optima, nf));
  }

  // Set-up, what a user process builds before its first tune: the platform
  // and, per cell, the benchmark and its evaluator. Repeated.
  const std::vector<double> setup_s = repeat_setup([&](std::size_t rep) {
    const Clock::time_point t0 = Clock::now();
    const pt::clsim::Platform platform = pt::archsim::default_platform();
    for (const Cell& c : w.cells) {
      const auto bench = pt::benchkit::make_benchmark(c.benchmark);
      const pt::benchkit::BenchmarkEvaluator eval(
          *bench, platform.device_by_name(c.device));
      (void)eval;
    }
    if (options.trace)
      recorder.add("setup", t0, Clock::now(), -1, static_cast<std::int64_t>(rep));
  });

  std::cerr << "perfbench: " << w.name << ": " << plan.size() << " tunes\n";
  Outcome outcome;
  std::vector<Figures> figs(cells.size());
  IdleServiceProbe warm(cells.size());

  std::vector<LayerSample> layers;
  std::vector<double> traced_wall;
  std::vector<double> untraced_wall;
  std::vector<double> stage2_measured;
  std::vector<double> stage2_invalid;
  std::vector<double> rounds;
  std::size_t drift = 0;
  std::size_t no_prediction = 0;

  // The tunes run back to back: between two of them only the idle-service
  // probe answers the new result (a few milliseconds, spreading its samples
  // over the run). The output checks follow once every tune is done.
  std::vector<TuneRecord> records;
  records.reserve(plan.size());
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const std::size_t c = plan[i].cell;
    const Cell& cell = cells[c];
    const std::uint64_t seed = plan[i].seed;
    const auto request = static_cast<std::int64_t>(i);

    records.push_back(tune_once(w, cell, seed, pt::archsim::default_platform(),
                                nullptr, request, nullptr));
    const TuneRecord& rec = records.back();
    std::cerr << "perfbench: tune " << i << " " << cell.label() << " seed "
              << seed << ": " << rec.wall_s << " s\n";
    if (!rec.success) ++no_prediction;
    if (rec.success && rec.model && rec.model->fitted())
      warm.add(warm_entry(rec, c, seed, refs[c]), outcome);
    if (!options.trace) continue;
    stage2_measured.push_back(static_cast<double>(rec.stage2_measured));
    stage2_invalid.push_back(static_cast<double>(rec.stage2_invalid));
    rounds.push_back(static_cast<double>(rec.rounds));

    LayerSample sample;
    const pt::clsim::Platform used = pt::archsim::default_platform();
    const TuneRecord traced =
        tune_once(w, cell, seed, used, &recorder, request, &sample);
    traced_wall.push_back(traced.wall_s);
    untraced_wall.push_back(rec.wall_s);
    layers.push_back(sample);
    if (!same_result(rec, traced))
      outcome.wrong(cell.label() + " seed " + std::to_string(seed) +
                    ": traced tune differs from the untraced one");
    const TuneRecord again =
        tune_once(w, cell, seed, used, nullptr, request, nullptr);
    if (!(again.success == rec.success && again.best == rec.best)) ++drift;
  }

  for (std::size_t i = 0; i < plan.size(); ++i) {
    const std::size_t c = plan[i].cell;
    const Clock::time_point check_start = Clock::now();
    check_tune(records[i], plan[i].seed, refs[c], outcome, figs[c]);
    if (options.trace)
      recorder.add("check", check_start, Clock::now(), -1, static_cast<std::int64_t>(i));
  }

  const RunRecord record = make_run_record(options);
  std::vector<Metric> metrics;
  if (!options.trace) {
    std::vector<double> answered;
    for (std::size_t c = 0; c < cells.size(); ++c) {
      answered.insert(answered.end(), warm.hit_ms()[c].begin(),
                      warm.hit_ms()[c].end());
      answered.insert(answered.end(), warm.predict_ms()[c].begin(),
                      warm.predict_ms()[c].end());
    }
    const auto per_cell = [&](auto field) {
      std::vector<std::vector<double>> out;
      for (const Figures& f : figs) out.push_back(f.*field);
      return out;
    };
    const auto p50 = [](std::vector<double> v) { return quantile(std::move(v), 0.5); };
    metrics = {
        {"tune_wall_s_p50", across_cells(per_cell(&Figures::wall_s), median), "s"},
        {"device_cost_s_p50", across_cells(per_cell(&Figures::cost_s), median),
         "s"},
        {"tuned_vs_opt_mean", across_cells(per_cell(&Figures::tuned_vs_opt), mean),
         "x"},
        {"model_mre_pct_mean", across_cells(per_cell(&Figures::mre_pct), mean),
         "%"},
        {"hit_p50_ms", across_cells(warm.hit_ms(), p50), "ms"},
        {"predict_p50_ms", across_cells(warm.predict_ms(), p50), "ms"},
        {"slo_share", share_within(answered, kSloMs), "share"},
        {"ok_share",
         1.0 - static_cast<double>(outcome.failed) /
                   static_cast<double>(outcome.attempted),
         "share"},
        {"setup_s", median(setup_s), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MiB"},
    };
  } else {
    std::vector<double> scan_ms;
    std::vector<double> fit_ms;
    std::vector<double> epochs;
    std::vector<double> calls;
    double scan_total = 0.0;
    double scanned = 0.0;
    MeasureTally all;
    for (const LayerSample& s : layers) {
      scan_ms.push_back(s.scan_ms);
      fit_ms.push_back(s.fit_ms);
      epochs.push_back(s.epochs);
      calls.push_back(static_cast<double>(s.measure.calls));
      scan_total += s.scan_ms;
      scanned += s.scanned_configs;
      all.calls += s.measure.calls;
      all.valid += s.measure.valid;
      all.host_ms += s.measure.host_ms;
      all.cost_ms += s.measure.cost_ms;
      all.kernel_ms += s.measure.kernel_ms;
    }
    double s2_measured = 0.0;
    double s2_invalid = 0.0;
    for (std::size_t i = 0; i < stage2_measured.size(); ++i) {
      s2_measured += stage2_measured[i];
      s2_invalid += stage2_invalid[i];
    }
    std::vector<double> overhead_ms;
    std::vector<double> overhead_pct;
    for (std::size_t i = 0; i < traced_wall.size(); ++i) {
      overhead_ms.push_back(1000.0 * (traced_wall[i] - untraced_wall[i]));
      overhead_pct.push_back(100.0 * (traced_wall[i] / untraced_wall[i] - 1.0));
    }
    std::vector<double> exploit_share;
    for (std::size_t i = 0; i < layers.size(); ++i)
      exploit_share.push_back(layers[i].scan_ms / 1000.0 / traced_wall[i]);

    const std::map<std::string, double> self = recorder.self_ms();
    double tune_self = 0.0;
    double other_tuner = 0.0;
    for (const auto& [name, ms] : self) {
      const bool in_tune = name.rfind("tuner.", 0) == 0 ||
                           name.rfind("ml.", 0) == 0 ||
                           name == "benchmarks.measure";
      if (!in_tune) continue;
      tune_self += ms;
      if (name.rfind("tuner.", 0) == 0 && name != "tuner.scan")
        other_tuner += ms;
    }
    const auto self_share = [&](const std::string& name) {
      const auto it = self.find(name);
      return it == self.end() || tune_self <= 0.0 ? 0.0 : it->second / tune_self;
    };
    const bool iterative = w.kind == TunerKind::kIterative;
    metrics = {
        {"tuner.scan.ms", median(scan_ms), "ms"},
        {"tuner.scan.mconfigs_per_s",
         scan_total > 0.0 ? scanned / (scan_total / 1000.0) / 1e6 : 0.0,
         "Mconfig/s"},
        {"ml.fit.ms", median(fit_ms), "ms"},
        {"ml.fit.epochs", median(epochs), "count"},
        {"benchmarks.measure.calls", median(calls), "count"},
        {"benchmarks.measure.valid_ratio",
         all.calls > 0 ? static_cast<double>(all.valid) /
                             static_cast<double>(all.calls)
                       : 0.0,
         "ratio"},
        {"benchmarks.measure.us_per_call",
         all.calls > 0 ? 1000.0 * all.host_ms / static_cast<double>(all.calls)
                       : 0.0,
         "us"},
        {"benchmarks.measure.build_share",
         all.cost_ms > 0.0 ? (all.cost_ms - all.kernel_ms) / all.cost_ms : 0.0,
         "ratio"},
        {"tuner.stage2.measured", iterative ? 0.0 : median(stage2_measured),
         "count"},
        {"tuner.stage2.invalid_ratio",
         s2_measured > 0.0 ? s2_invalid / s2_measured : 0.0, "ratio"},
        {"tuner.no_prediction_share",
         static_cast<double>(no_prediction) / static_cast<double>(plan.size()),
         "ratio"},
        {"tuner.iterative.rounds", iterative ? median(rounds) : 0.0, "count"},
        {"tuner.iterative.exploit_share",
         iterative ? median(exploit_share) : 0.0, "ratio"},
        {"archsim.history_drift", static_cast<double>(drift), "count"},
        {"self_share.tuner.scan", self_share("tuner.scan"), "ratio"},
        {"self_share.ml.fit", self_share("ml.fit"), "ratio"},
        {"self_share.benchmarks.measure", self_share("benchmarks.measure"),
         "ratio"},
        {"self_share.tuner.other",
         tune_self > 0.0 ? other_tuner / tune_self : 0.0, "ratio"},
        {"trace.overhead_ms", median(overhead_ms), "ms"},
        {"trace.overhead_pct", median(overhead_pct), "%"},
        {"trace.spans", static_cast<double>(recorder.spans().size()), "count"},
    };
    metrics = complete_layer_metrics(metrics);
  }
  if (options.trace) {
    const std::string path = options.out_dir + "/trace-" + options.workload +
                             "-seed" + std::to_string(options.seed) + ".json";
    if (!recorder.write(path))
      std::cerr << "perfbench: could not write " << path << "\n";
  }
  emit_result(options, record, outcome, metrics);
  return 0;
}

}  // namespace perfbench
