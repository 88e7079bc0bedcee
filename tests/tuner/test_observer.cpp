#include "tuner/observer.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/telemetry/telemetry.hpp"
#include "common/thread_pool.hpp"
#include "test_helpers.hpp"
#include "tuner/autotuner.hpp"
#include "tuner/input_aware.hpp"
#include "tuner/iterative.hpp"

namespace pt::tuner {
namespace {

using testing::BowlEvaluator;

AutoTunerOptions fast_auto(std::size_t n, std::size_t m) {
  AutoTunerOptions o;
  o.training_samples = n;
  o.second_stage_size = m;
  o.model.ensemble.k = 3;
  o.model.ensemble.hidden_layers = {
      ml::LayerSpec{12, ml::Activation::kSigmoid}};
  o.model.ensemble.trainer.common.max_epochs = 200;
  return o;
}

IterativeTunerOptions fast_iterative() {
  IterativeTunerOptions o;
  o.measurement_budget = 90;
  o.initial_samples = 40;
  o.batch_size = 25;
  o.model.ensemble.k = 2;
  o.model.ensemble.hidden_layers = {
      ml::LayerSpec{10, ml::Activation::kSigmoid}};
  o.model.ensemble.trainer.common.max_epochs = 120;
  return o;
}

/// Tallies every hook and checks begin/end form a properly nested stack.
class RecordingObserver final : public TunerObserver {
 public:
  void on_stage_begin(std::string_view tuner,
                      std::string_view stage) override {
    open_.emplace_back(std::string(tuner), std::string(stage));
    if (stages == 0) root = {std::string(tuner), std::string(stage)};
    ++stages;
    // Each model fit replays a fresh (member, epoch) sequence.
    if (stage.find("model.fit") != std::string_view::npos)
      fit_restart_ = true;
  }
  void on_stage_end(std::string_view tuner, std::string_view stage) override {
    ASSERT_FALSE(open_.empty()) << "stage end without begin: " << stage;
    EXPECT_EQ(open_.back().first, std::string(tuner));
    EXPECT_EQ(open_.back().second, std::string(stage));
    open_.pop_back();
  }
  void on_sample(std::string_view /*stage*/, const Configuration& /*config*/,
                 const Measurement& /*m*/) override {
    ++samples;
  }
  void on_epoch(std::size_t member, std::size_t epoch, double train_loss,
                double /*monitored*/) override {
    // Delivered in (member, epoch) order within each fit.
    if (fit_restart_) {
      fit_restart_ = false;
      EXPECT_EQ(member, 0u);
      EXPECT_EQ(epoch, 0u);
    } else if (member != last_member) {
      EXPECT_GE(member, last_member);
      EXPECT_EQ(epoch, 0u);
    } else {
      EXPECT_EQ(epoch, last_epoch + 1);
    }
    last_member = member;
    last_epoch = epoch;
    EXPECT_GE(train_loss, 0.0);
    ++epochs;
  }
  void on_candidate(std::uint64_t index, double predicted_ms) override {
    EXPECT_GT(predicted_ms, 0.0);
    last_candidate_index = index;
    ++candidates;
  }
  void on_measurement(std::string_view /*stage*/,
                      const Configuration& /*config*/,
                      const Measurement& /*m*/) override {
    ++measurements;
  }

  [[nodiscard]] bool balanced() const { return open_.empty(); }

  std::pair<std::string, std::string> root;
  std::size_t stages = 0;
  std::size_t samples = 0;
  std::size_t epochs = 0;
  std::size_t candidates = 0;
  std::size_t measurements = 0;
  std::size_t last_member = 0;
  std::size_t last_epoch = 0;
  std::uint64_t last_candidate_index = 0;

 private:
  std::vector<std::pair<std::string, std::string>> open_;
  bool fit_restart_ = true;
};

void expect_same_auto(const AutoTuneResult& a, const AutoTuneResult& b) {
  ASSERT_EQ(a.success, b.success);
  EXPECT_EQ(a.best_config.values, b.best_config.values);
  EXPECT_EQ(a.best_time_ms, b.best_time_ms);  // bit-identical, not approx
  EXPECT_EQ(a.stage1_measured, b.stage1_measured);
  EXPECT_EQ(a.stage1_valid, b.stage1_valid);
  EXPECT_EQ(a.stage2_measured, b.stage2_measured);
  EXPECT_EQ(a.training_data.size(), b.training_data.size());
}

void expect_same_iterative(const IterativeTuneResult& a,
                           const IterativeTuneResult& b) {
  ASSERT_EQ(a.success, b.success);
  EXPECT_EQ(a.best_config.values, b.best_config.values);
  EXPECT_EQ(a.best_time_ms, b.best_time_ms);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.measurements, b.measurements);
  EXPECT_EQ(a.incumbent_trace, b.incumbent_trace);
}

/// The value of one gauge; NaN when it was never set.
double gauge_of(const common::telemetry::Collector& collector,
                std::string_view name) {
  for (const auto& [gauge, value] : collector.gauges())
    if (gauge == name) return value;
  return std::numeric_limits<double>::quiet_NaN();
}

/// The tuner.rejections.<CL_STATUS> counters equal `rejections`, status by
/// status, and there are no others.
void expect_rejection_counters(const common::telemetry::Collector& collector,
                               const RejectionCounts& rejections) {
  const std::string prefix = "tuner.rejections.";
  double total = 0.0;
  for (const auto& [name, value] : collector.counters())
    if (name.rfind(prefix, 0) == 0) total += value;
  EXPECT_EQ(total, static_cast<double>(rejections.total()));
  for (const auto& [status, n] : rejections.sorted())
    EXPECT_EQ(collector.counter(prefix + clsim::to_string(status)),
              static_cast<double>(n));
}

TEST(TunerRunContext, SeedOverloadMatchesRngOverload) {
  const AutoTuner tuner(fast_auto(80, 15));
  BowlEvaluator eval_rng;
  common::Rng rng(5);
  const AutoTuneResult via_rng = tuner.tune(eval_rng, TuneRun::with_rng(rng));

  AutoTunerOptions opts = fast_auto(80, 15);
  opts.run.seed = 5;
  BowlEvaluator eval_ctx;
  const AutoTuneResult via_ctx = AutoTuner(opts).tune(eval_ctx);

  expect_same_auto(via_rng, via_ctx);
  EXPECT_EQ(eval_rng.calls(), eval_ctx.calls());
}

TEST(TunerRunContext, ObserverAndTelemetryDoNotPerturbAutoTuner) {
  AutoTunerOptions base = fast_auto(80, 15);
  base.run.seed = 11;
  BowlEvaluator eval_off;
  const AutoTuneResult off = AutoTuner(base).tune(eval_off);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    RecordingObserver obs;
    common::telemetry::Collector collector;
    AutoTunerOptions on_opts = base;
    on_opts.run.observer = &obs;
    on_opts.run.telemetry = &collector;
    on_opts.run.threads = threads;
    BowlEvaluator eval_on;
    const AutoTuneResult on = AutoTuner(on_opts).tune(eval_on);

    expect_same_auto(off, on);
    EXPECT_EQ(eval_off.calls(), eval_on.calls());
    EXPECT_TRUE(obs.balanced());
    EXPECT_FALSE(collector.spans().empty());
  }
  common::set_global_pool_threads(0);
  EXPECT_FALSE(common::telemetry::enabled());  // nothing leaked
}

TEST(TunerRunContext, ObserverAndTelemetryDoNotPerturbIterativeTuner) {
  IterativeTunerOptions base = fast_iterative();
  base.run.seed = 21;
  BowlEvaluator eval_off;
  const IterativeTuneResult off = IterativeTuner(base).tune(eval_off);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    RecordingObserver obs;
    common::telemetry::Collector collector;
    IterativeTunerOptions on_opts = base;
    on_opts.run.observer = &obs;
    on_opts.run.telemetry = &collector;
    on_opts.run.threads = threads;
    BowlEvaluator eval_on;
    const IterativeTuneResult on = IterativeTuner(on_opts).tune(eval_on);

    expect_same_iterative(off, on);
    EXPECT_EQ(eval_off.calls(), eval_on.calls());
    EXPECT_TRUE(obs.balanced());
    EXPECT_FALSE(collector.spans().empty());
    EXPECT_EQ(collector.counter("tuner.iterative.measurements"),
              static_cast<double>(on.measurements));
    EXPECT_EQ(collector.counter("tuner.measure.attempts"),
              static_cast<double>(on.measure_attempts));
    expect_rejection_counters(collector, on.rejections);
  }
  common::set_global_pool_threads(0);
  EXPECT_FALSE(common::telemetry::enabled());
}

TEST(TunerObserver, AutoTunerCallbacksAreConsistentWithResult) {
  RecordingObserver obs;
  common::telemetry::Collector collector;
  AutoTunerOptions opts = fast_auto(80, 15);
  opts.run.seed = 3;
  opts.run.observer = &obs;
  opts.run.telemetry = &collector;
  BowlEvaluator eval;
  const AutoTuneResult result = AutoTuner(opts).tune(eval);
  ASSERT_TRUE(result.success);

  EXPECT_TRUE(obs.balanced());
  EXPECT_EQ(obs.root.first, "autotuner");
  EXPECT_EQ(obs.root.second, "autotuner.tune");
  EXPECT_EQ(obs.samples, result.stage1_measured);
  EXPECT_EQ(obs.measurements,
            result.stage1_measured + result.stage2_measured);
  EXPECT_EQ(obs.candidates, result.stage2_measured);
  EXPECT_GT(obs.epochs, 0u);

  // Telemetry counters agree with the result bookkeeping.
  EXPECT_EQ(collector.counter("tuner.stage1.measured"),
            static_cast<double>(result.stage1_measured));
  EXPECT_EQ(collector.counter("tuner.stage2.measured"),
            static_cast<double>(result.stage2_measured));
  // Per-epoch loss reached the histogram registry.
  bool saw_loss = false;
  for (const auto& [name, h] : collector.histograms()) {
    if (name == "ml.train.epoch_loss") {
      saw_loss = true;
      EXPECT_EQ(h.count, obs.epochs);
    }
  }
  EXPECT_TRUE(saw_loss);
}

TEST(TunerObserver, CacheCountersSurfaceInResult) {
  BowlEvaluator base;
  CachingEvaluator cache(base);
  AutoTunerOptions opts = fast_auto(80, 15);
  opts.run.seed = 9;
  const AutoTuneResult result = AutoTuner(opts).tune(cache);
  ASSERT_TRUE(result.success);
  EXPECT_EQ(result.cache_hits, cache.hits());
  EXPECT_EQ(result.cache_misses, cache.misses());
  EXPECT_EQ(result.cache_hits + result.cache_misses,
            result.stage1_measured + result.stage2_measured);

  // The iterative tuner reports through the same ledger. Run it through a
  // cache warmed by a one-shot tune, with a static checker, on a space with
  // an invalid region, and check every shared metric against its result.
  BowlEvaluator invalid_base(/*with_invalid=*/true);
  CachingEvaluator warm(invalid_base);
  (void)AutoTuner(opts).tune(warm);
  const std::size_t hits_before = warm.hits();
  const std::size_t misses_before = warm.misses();
  common::telemetry::Collector collector;
  IterativeTunerOptions iterative = fast_iterative();
  iterative.run.seed = 9;
  iterative.run.telemetry = &collector;
  iterative.static_checker = testing::bowl_checker();
  const IterativeTuneResult it = IterativeTuner(iterative).tune(warm);
  ASSERT_TRUE(it.success);
  EXPECT_EQ(it.cache_hits, warm.hits() - hits_before);
  EXPECT_EQ(it.cache_misses, warm.misses() - misses_before);
  EXPECT_EQ(it.cache_hits + it.cache_misses, it.measurements);
  EXPECT_GT(it.cache_hits, 0u);
  EXPECT_EQ(gauge_of(collector, "tuner.cache.hit_rate"),
            static_cast<double>(it.cache_hits) /
                static_cast<double>(it.cache_hits + it.cache_misses));
  EXPECT_EQ(collector.counter("tuner.measure.attempts"),
            static_cast<double>(it.measure_attempts));
  EXPECT_GT(it.invalid_measurements, 0u);
  expect_rejection_counters(collector, it.rejections);
  EXPECT_GT(it.static_checked, 0u);
  EXPECT_EQ(collector.counter("tuner.scan.static_checked"),
            static_cast<double>(it.static_checked));
  EXPECT_EQ(collector.counter("tuner.scan.static_pruned"),
            static_cast<double>(it.static_pruned));
  EXPECT_EQ(collector.counter("tuner.scan.static_proved_valid"),
            static_cast<double>(it.static_proved_valid));
  EXPECT_EQ(collector.counter("tuner.scan.static_unknown"),
            static_cast<double>(it.static_unknown));
  EXPECT_EQ(gauge_of(collector, "tuner.scan.static_pruned_fraction"),
            static_cast<double>(it.static_pruned) /
                static_cast<double>(it.static_checked));
}

/// Checks the relative order of callbacks as they arrive:
///  - every on_sample directly follows an on_measurement of the same config;
///  - every on_candidate directly precedes the measurement of that index;
///  - every on_epoch falls after a model-fit stage ends (autotuner/iterative
///    "*.model.fit", "input_aware.fit") and before the next stage begins.
class OrderObserver final : public TunerObserver {
 public:
  explicit OrderObserver(ParamSpace space) : space_(std::move(space)) {}

  void on_stage_begin(std::string_view /*tuner*/,
                      std::string_view stage) override {
    expect_no_pending_candidate();
    last_ = Event::kStageBegin;
    last_stage_ = stage;
  }
  void on_stage_end(std::string_view /*tuner*/,
                    std::string_view stage) override {
    expect_no_pending_candidate();
    last_ = Event::kStageEnd;
    last_stage_ = stage;
  }
  void on_sample(std::string_view stage, const Configuration& config,
                 const Measurement& /*m*/) override {
    expect_no_pending_candidate();
    EXPECT_EQ(last_, Event::kMeasurement) << "on_sample in " << stage;
    EXPECT_EQ(config, last_config_);
    EXPECT_EQ(std::string(stage), last_stage_);
    last_ = Event::kSample;
    ++samples;
  }
  void on_epoch(std::size_t /*member*/, std::size_t /*epoch*/,
                double /*train_loss*/, double /*monitored*/) override {
    expect_no_pending_candidate();
    const bool after_fit =
        last_ == Event::kStageEnd &&
        (last_stage_.ends_with(".model.fit") ||
         last_stage_ == "input_aware.fit");
    EXPECT_TRUE(last_ == Event::kEpoch || after_fit)
        << "on_epoch after " << last_stage_;
    last_ = Event::kEpoch;
    ++epochs;
  }
  void on_candidate(std::uint64_t index, double /*predicted_ms*/) override {
    expect_no_pending_candidate();
    pending_candidate_ = true;
    candidate_index_ = index;
    last_ = Event::kCandidate;
    ++candidates;
  }
  void on_measurement(std::string_view stage, const Configuration& config,
                      const Measurement& /*m*/) override {
    if (pending_candidate_) {
      EXPECT_EQ(space_.encode(config), candidate_index_);
      pending_candidate_ = false;
    }
    last_ = Event::kMeasurement;
    last_stage_ = stage;
    last_config_ = config;
    ++measurements;
  }

  /// Call after the run: a trailing candidate was never measured.
  void finish() { expect_no_pending_candidate(); }

  std::size_t samples = 0;
  std::size_t epochs = 0;
  std::size_t candidates = 0;
  std::size_t measurements = 0;

 private:
  enum class Event {
    kNone,
    kStageBegin,
    kStageEnd,
    kSample,
    kEpoch,
    kCandidate,
    kMeasurement
  };

  void expect_no_pending_candidate() {
    EXPECT_FALSE(pending_candidate_)
        << "candidate " << candidate_index_ << " not measured next";
    pending_candidate_ = false;
  }

  ParamSpace space_;
  Event last_ = Event::kNone;
  std::string last_stage_;
  Configuration last_config_;
  bool pending_candidate_ = false;
  std::uint64_t candidate_index_ = 0;
};

TEST(TunerObserver, CallbackOrderAutoTuner) {
  BowlEvaluator eval(/*with_invalid=*/true);
  OrderObserver obs(eval.space());
  AutoTunerOptions opts = fast_auto(80, 15);
  opts.run.seed = 4;
  opts.run.observer = &obs;
  const AutoTuneResult result = AutoTuner(opts).tune(eval);
  obs.finish();
  ASSERT_TRUE(result.success);
  EXPECT_EQ(obs.samples, result.stage1_measured);
  EXPECT_EQ(obs.candidates, result.stage2_measured);
  EXPECT_GT(obs.epochs, 0u);
}

TEST(TunerObserver, CallbackOrderIterativeTuner) {
  BowlEvaluator eval(/*with_invalid=*/true);
  OrderObserver obs(eval.space());
  IterativeTunerOptions opts = fast_iterative();
  opts.run.seed = 4;
  opts.run.observer = &obs;
  const IterativeTuneResult result = IterativeTuner(opts).tune(eval);
  obs.finish();
  ASSERT_TRUE(result.success);
  EXPECT_EQ(obs.samples, result.measurements);
  EXPECT_GT(obs.candidates, 0u);
  EXPECT_GT(obs.epochs, 0u);
}

TEST(TunerObserver, CallbackOrderInputAwareFit) {
  const ParamSpace space = testing::small_space();
  OrderObserver obs(space);
  std::vector<InputAwareSample> samples;
  common::Rng gen(11);
  for (int i = 0; i < 40; ++i) {
    const Configuration config = space.decode(gen.below(space.size()));
    const double size = static_cast<double>(1 << (1 + (i % 4)));
    samples.push_back({config, ProblemInstance{{size}},
                       1.0 + 0.01 * config.values[0] + 0.5 * size});
  }
  InputAwarePerformanceModel::Options options;
  options.ensemble.k = 2;
  options.ensemble.hidden_layers = {
      ml::LayerSpec{10, ml::Activation::kSigmoid}};
  options.ensemble.trainer.common.max_epochs = 120;
  options.run.observer = &obs;
  InputAwarePerformanceModel model(options);
  model.fit(space, {"size"}, samples);
  obs.finish();
  ASSERT_TRUE(model.fitted());
  EXPECT_GT(obs.epochs, 0u);
}

}  // namespace
}  // namespace pt::tuner
