// End-to-end integration: the full pipeline of the paper — parameterized
// benchmark -> simulated OpenCL runtime -> ANN model -> two-stage tuner —
// exercised on the real device catalog.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "archsim/devices.hpp"
#include "benchmarks/registry.hpp"
#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "ml/batched.hpp"
#include "tuner/autotuner.hpp"
#include "tuner/features.hpp"
#include "tuner/iterative.hpp"
#include "tuner/search.hpp"

namespace pt {
namespace {

tuner::AutoTunerOptions fast_tuner(std::size_t n, std::size_t m) {
  tuner::AutoTunerOptions o;
  o.training_samples = n;
  o.second_stage_size = m;
  o.model.ensemble.k = 3;
  o.model.ensemble.trainer.common.max_epochs = 250;
  // On GPU-like devices the model often ranks oversized (invalid)
  // work-groups fastest — the paper's stage-2 failure mode. The validity
  // classifier screens those out during the streaming prediction scan.
  o.validity_filter = true;
  return o;
}

class DeviceEndToEndTest : public ::testing::TestWithParam<const char*> {};

TEST_P(DeviceEndToEndTest, TunerBeatsMedianRandomConfigOnConvolution) {
  const clsim::Platform platform = archsim::default_platform();
  const clsim::Device device = platform.device_by_name(GetParam());
  const auto bench = benchkit::make_benchmark("convolution");
  benchkit::BenchmarkEvaluator inner(*bench, device);
  tuner::CachingEvaluator eval(inner);

  common::Rng rng(17);
  // Reference: the median of valid random configurations.
  std::vector<double> random_times;
  while (random_times.size() < 60) {
    const auto m = eval.measure(eval.space().random(rng));
    if (m.valid) random_times.push_back(m.time_ms);
  }
  const double median = common::quantile(random_times, 0.5);

  const tuner::AutoTuner tuner_engine(fast_tuner(400, 40));
  const auto result = tuner_engine.tune(eval, tuner::TuneRun::with_rng(rng));
  ASSERT_TRUE(result.success) << GetParam();
  EXPECT_LT(result.best_time_ms, median * 0.5) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    PaperDevices, DeviceEndToEndTest,
    ::testing::Values(archsim::kIntelI7, archsim::kNvidiaK40,
                      archsim::kAmdHd7970),
    [](const auto& param_info) {
      std::string name = param_info.param;
      for (char& c : name)
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      return name;
    });

TEST(EndToEnd, StaticPreFilterPrunesOnARealBenchmark) {
  // Acceptance check for the clstat pre-filter: on a real benchmark the
  // static checker must discharge a nonzero fraction of the scanned
  // configurations before feature encoding, and the tune must still succeed.
  const clsim::Platform platform = archsim::default_platform();
  const clsim::Device device = platform.device_by_name(archsim::kNvidiaK40);
  const auto bench = benchkit::make_benchmark("convolution");
  benchkit::BenchmarkEvaluator eval(*bench, device);

  tuner::AutoTunerOptions options = fast_tuner(400, 40);
  options.static_checker =
      std::make_shared<clsim::analyze::StaticChecker>(
          benchkit::make_static_checker(*bench, device));

  common::Rng rng(29);
  const tuner::AutoTuner tuner_engine(options);
  const auto result = tuner_engine.tune(eval, tuner::TuneRun::with_rng(rng));
  ASSERT_TRUE(result.success);
  EXPECT_GT(result.static_checked, 0u);
  EXPECT_GT(result.static_pruned, 0u);
  // Convolution's constraint set is complete, so nothing is left unknown.
  EXPECT_EQ(result.static_unknown, 0u);
  EXPECT_EQ(result.static_checked,
            result.static_pruned + result.static_proved_valid);
}

TEST(EndToEnd, BestConfigsDifferAcrossDevices) {
  // The motivational premise (section 2): each device has its own optimum.
  const clsim::Platform platform = archsim::default_platform();
  const auto bench = benchkit::make_benchmark("convolution");
  std::vector<tuner::Configuration> bests;
  for (const char* name :
       {archsim::kIntelI7, archsim::kNvidiaK40, archsim::kAmdHd7970}) {
    benchkit::BenchmarkEvaluator eval(*bench,
                                      platform.device_by_name(name));
    const auto r = tuner::exhaustive_search(eval);
    ASSERT_TRUE(r.success) << name;
    bests.push_back(r.best_config);
  }
  EXPECT_NE(bests[0], bests[1]);
  EXPECT_NE(bests[0], bests[2]);
}

TEST(EndToEnd, WrongDeviceConfigCausesSlowdown) {
  const clsim::Platform platform = archsim::default_platform();
  const auto bench = benchkit::make_benchmark("convolution");

  benchkit::BenchmarkEvaluator cpu_eval(
      *bench, platform.device_by_name(archsim::kIntelI7));
  benchkit::BenchmarkEvaluator gpu_eval(
      *bench, platform.device_by_name(archsim::kNvidiaK40));
  const auto cpu_best = tuner::exhaustive_search(cpu_eval);
  const auto gpu_best = tuner::exhaustive_search(gpu_eval);
  ASSERT_TRUE(cpu_best.success && gpu_best.success);

  // The GPU's best configuration on the CPU is far from the CPU optimum.
  const auto cross = cpu_eval.measure(gpu_best.best_config);
  ASSERT_TRUE(cross.valid);
  EXPECT_GT(cross.time_ms / cpu_best.best_time_ms, 2.0);
}

TEST(EndToEnd, MeasurementsAreReproducibleUpToJitter) {
  const clsim::Platform platform = archsim::default_platform();
  const auto bench = benchkit::make_benchmark("convolution");
  benchkit::BenchmarkEvaluator eval(
      *bench, platform.device_by_name(archsim::kNvidiaK40));
  const tuner::Configuration c{{16, 8, 2, 2, 1, 1, 1, 1, 0}};
  const auto m1 = eval.measure(c);
  const auto m2 = eval.measure(c);
  ASSERT_TRUE(m1.valid && m2.valid);
  // Same configuration, same device: only measurement jitter differs.
  EXPECT_NEAR(m1.time_ms, m2.time_ms, 0.2 * m1.time_ms);
}

TEST(EndToEnd, NoiseFreePlatformIsFullyDeterministic) {
  archsim::TimingModel::Options opts;
  opts.measurement_noise = false;
  const clsim::Platform platform = archsim::default_platform(opts);
  const auto bench = benchkit::make_benchmark("convolution");
  benchkit::BenchmarkEvaluator eval(
      *bench, platform.device_by_name(archsim::kAmdHd7970));
  const tuner::Configuration c{{16, 8, 2, 2, 1, 0, 1, 1, 1}};
  EXPECT_DOUBLE_EQ(eval.measure(c).time_ms, eval.measure(c).time_ms);
}

TEST(EndToEnd, StereoOnGpusHasManyInvalidConfigs) {
  // Section 6: stereo's local tiles overflow GPU local memory often; the
  // CPU (32 KB but 8192-item groups) rejects far fewer configurations.
  const clsim::Platform platform = archsim::default_platform();
  const auto bench = benchkit::make_benchmark("stereo");
  common::Rng rng(23);
  auto invalid_rate = [&](const char* device_name) {
    benchkit::BenchmarkEvaluator eval(
        *bench, platform.device_by_name(device_name));
    int invalid = 0;
    const int n = 400;
    common::Rng local_rng(rng.fork());
    for (int i = 0; i < n; ++i) {
      if (!eval.measure(eval.space().random(local_rng)).valid) ++invalid;
    }
    return static_cast<double>(invalid) / n;
  };
  const double cpu_rate = invalid_rate(archsim::kIntelI7);
  const double amd_rate = invalid_rate(archsim::kAmdHd7970);
  EXPECT_GT(amd_rate, cpu_rate);
  EXPECT_GT(amd_rate, 0.3);
}

TEST(EndToEnd, DataGatheringCostDominatedByCompiles) {
  // Section 6: gathering 2000 samples takes ~30 min while training takes
  // ~1 min; the gap is mostly kernel compilation. Check compile time
  // dominates execution time in the measured cost.
  const clsim::Platform platform = archsim::default_platform();
  const auto bench = benchkit::make_benchmark("convolution");
  benchkit::BenchmarkEvaluator inner(
      *bench, platform.device_by_name(archsim::kNvidiaK40));
  tuner::CountingEvaluator eval(inner);
  common::Rng rng(29);
  for (int i = 0; i < 50; ++i) (void)eval.measure(eval.space().random(rng));
  EXPECT_GT(eval.total_cost_ms(),
            inner.queue().total_kernel_ms() * 5.0);
}

// --- Seed contract: a tune is a pure function of its seed -----------------

/// Everything a tune decides, compared bit for bit.
struct TuneOutcome {
  tuner::Configuration best_config;
  double best_time_ms = 0.0;
  double data_gathering_cost_ms = 0.0;
  std::vector<double> predictions;  // the returned model on fixed configs
};

template <typename Result>
TuneOutcome outcome_of(const Result& result, const tuner::ParamSpace& space) {
  TuneOutcome out{result.best_config, result.best_time_ms,
                  result.data_gathering_cost_ms, {}};
  if (!result.model) return out;
  common::Rng rng(41);
  for (int i = 0; i < 4; ++i)
    out.predictions.push_back(result.model->predict_ms(space.random(rng)));
  return out;
}

/// Traffic a user process may have put on a platform before a tune: a tune
/// of another benchmark on another device, and a functional verification
/// launch on the device about to be tuned.
void put_prior_traffic(const clsim::Platform& platform) {
  const auto other = benchkit::make_benchmark("raycasting");
  benchkit::BenchmarkEvaluator other_eval(
      *other, platform.device_by_name(archsim::kIntelI7));
  (void)tuner::AutoTuner(fast_tuner(100, 10))
      .tune(other_eval, tuner::TuneRun::with_seed(3));
  const auto small = benchkit::make_benchmark_small("convolution");
  EXPECT_LT(small->verify(platform.device_by_name(archsim::kNvidiaK40),
                          tuner::Configuration{{8, 4, 1, 1, 0, 0, 0, 0, 0}}),
            1e-5);
}

/// Runs `tune` on convolution@K40 of a fresh platform and of one with prior
/// traffic, at 1 and 4 pool threads; the outcomes must be identical.
void expect_history_independent(
    const std::function<TuneOutcome(tuner::Evaluator&)>& tune) {
  const auto bench = benchkit::make_benchmark("convolution");
  auto tune_on = [&](const clsim::Platform& platform) {
    benchkit::BenchmarkEvaluator eval(
        *bench, platform.device_by_name(archsim::kNvidiaK40));
    return tune(eval);
  };
  for (const std::size_t threads : {1u, 4u}) {
    common::set_global_pool_threads(threads);
    const TuneOutcome fresh = tune_on(archsim::default_platform());
    const clsim::Platform used = archsim::default_platform();
    put_prior_traffic(used);
    const TuneOutcome again = tune_on(used);
    EXPECT_EQ(again.best_config, fresh.best_config) << threads;
    EXPECT_EQ(again.best_time_ms, fresh.best_time_ms) << threads;
    EXPECT_EQ(again.data_gathering_cost_ms, fresh.data_gathering_cost_ms)
        << threads;
    ASSERT_EQ(fresh.predictions.size(), 4u);
    EXPECT_EQ(again.predictions, fresh.predictions) << threads;
  }
  common::set_global_pool_threads(0);
}

TEST(SeedContract, AutoTunerIgnoresEarlierPlatformTraffic) {
  expect_history_independent([](tuner::Evaluator& eval) {
    const auto result = tuner::AutoTuner(fast_tuner(150, 15))
                            .tune(eval, tuner::TuneRun::with_seed(11));
    EXPECT_TRUE(result.success);
    return outcome_of(result, eval.space());
  });
}

TEST(SeedContract, IterativeTunerIgnoresEarlierPlatformTraffic) {
  tuner::IterativeTunerOptions options;
  options.measurement_budget = 300;
  options.initial_samples = 150;
  options.batch_size = 75;
  options.model.ensemble.k = 3;
  options.model.ensemble.trainer.common.max_epochs = 250;
  expect_history_independent([&](tuner::Evaluator& eval) {
    const auto result = tuner::IterativeTuner(options).tune(
        eval, tuner::TuneRun::with_seed(11));
    EXPECT_TRUE(result.success);
    return outcome_of(result, eval.space());
  });
}

/// Everything stage 2 saw: the model-selected candidates in order (the
/// scan's top-M, index and predicted time) and every measured time.
class Stage2Recorder : public tuner::TunerObserver {
 public:
  std::vector<std::pair<std::uint64_t, double>> candidates;
  std::vector<double> measured_ms;

  void on_candidate(std::uint64_t index, double predicted_ms) override {
    candidates.emplace_back(index, predicted_ms);
  }
  void on_measurement(std::string_view /*stage*/,
                      const tuner::Configuration& /*config*/,
                      const tuner::Measurement& m) override {
    measured_ms.push_back(m.time_ms);
  }
};

TEST(SeedContract, DefaultScanTuneEqualsFp64Tune) {
  // The default scan runs on the certified fp32 engine; every fp32 survivor
  // is re-ranked in fp64, so a default tune must decide exactly what a tune
  // pinned to the fp64 reference decides — winner, measured times, top-M
  // indices and predicted values — at any thread count.
  ASSERT_EQ(tuner::AutoTunerOptions{}.model.scan.inference,
            tuner::ScanInference::kBatchedFp32);
  const auto bench = benchkit::make_benchmark("convolution");
  auto tune = [&](tuner::ScanInference inference, Stage2Recorder& recorder) {
    const clsim::Platform platform = archsim::default_platform();
    benchkit::BenchmarkEvaluator eval(
        *bench, platform.device_by_name(archsim::kNvidiaK40));
    tuner::AutoTunerOptions options = fast_tuner(150, 15);
    options.model.scan.inference = inference;
    tuner::TuneRun request = tuner::TuneRun::with_seed(11);
    request.context->observer = &recorder;
    const auto result = tuner::AutoTuner(options).tune(eval, request);
    EXPECT_TRUE(result.success);
    return outcome_of(result, eval.space());
  };
  for (const std::size_t threads : {1u, 4u}) {
    common::set_global_pool_threads(threads);
    Stage2Recorder fp64_seen;
    Stage2Recorder default_seen;
    const TuneOutcome fp64 = tune(tuner::ScanInference::kScalarFp64, fp64_seen);
    const TuneOutcome fp32 =
        tune(tuner::AutoTunerOptions{}.model.scan.inference, default_seen);
    EXPECT_EQ(fp32.best_config, fp64.best_config) << threads;
    EXPECT_EQ(fp32.best_time_ms, fp64.best_time_ms) << threads;
    EXPECT_EQ(fp32.data_gathering_cost_ms, fp64.data_gathering_cost_ms)
        << threads;
    EXPECT_EQ(fp32.predictions, fp64.predictions) << threads;
    ASSERT_FALSE(fp64_seen.candidates.empty());
    EXPECT_EQ(default_seen.candidates, fp64_seen.candidates) << threads;
    EXPECT_EQ(default_seen.measured_ms, fp64_seen.measured_ms) << threads;
  }
  common::set_global_pool_threads(0);
}

TEST(ScanCertificate, PaperDefaultEnsembleOverTheFullConvolutionSpace) {
  // A paper-default ensemble (k = 11, one hidden layer of 30 sigmoids)
  // fitted on measured convolution@K40 times: over every configuration of
  // the Table-2 space the observed |fp32 - fp64| raw output must stay
  // within the certificate, and the certificate must be small enough for
  // the default scan to use it.
  const clsim::Platform platform = archsim::default_platform();
  const auto bench = benchkit::make_benchmark("convolution");
  benchkit::BenchmarkEvaluator eval(
      *bench, platform.device_by_name(archsim::kNvidiaK40));
  const tuner::ParamSpace& space = eval.space();
  common::Rng rng(5);
  std::vector<tuner::TrainingSample> samples;
  while (samples.size() < 300) {
    const tuner::Configuration config = space.random(rng);
    const tuner::Measurement m = eval.measure(config);
    if (m.valid) samples.push_back({config, m.time_ms});
  }
  tuner::AnnPerformanceModel model;
  ASSERT_EQ(model.options().ensemble.k, 11u);
  model.fit(space, samples, rng);

  const tuner::RangeEncoder encoder(
      tuner::FeatureCodec::build(space, model.options().encoding), space);
  const ml::QuantCalibration box = encoder.calibration();
  const ml::BatchedEnsemble engine(model.ensemble(), &box);
  const double bound = engine.error_bound();
  double worst = 0.0;
  ml::Matrix x;
  std::vector<float> xf;
  std::vector<double> raw64;
  std::vector<float> raw32;
  ml::BaggingEnsemble::PredictScratch ps;
  ml::BatchedEnsemble::Scratch bs;
  for (std::uint64_t lo = 0; lo < space.size(); lo += tuner::kScanChunkRows) {
    const std::uint64_t hi =
        std::min<std::uint64_t>(space.size(), lo + tuner::kScanChunkRows);
    encoder.fill(lo, hi, x);
    encoder.fill_f32(lo, hi, xf);
    model.ensemble().predict_batch_into(x, raw64, ps);
    engine.predict_batch_into(xf.data(), hi - lo, raw32, bs);
    for (std::size_t r = 0; r < raw64.size(); ++r)
      worst = std::max(worst,
                       std::fabs(static_cast<double>(raw32[r]) - raw64[r]));
  }
  RecordProperty("certified_bound", std::to_string(bound));
  RecordProperty("observed_error", std::to_string(worst));
  EXPECT_GT(worst, 0.0);
  EXPECT_LE(worst, bound);
  EXPECT_LE(bound, tuner::kMaxFp32ErrorBound);
}

}  // namespace
}  // namespace pt
