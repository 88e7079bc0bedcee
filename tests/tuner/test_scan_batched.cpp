// Tests for the batched fp32 scan path (tuner/scan.hpp + tuner/model.hpp),
// the default scan: top-M selection must be identical to the fp64 reference
// — indices and predicted values — at every thread count, with and without
// a validity filter, including near-tie spaces where fp64 re-ranking does
// the deciding; the result must report the certificate in force and the
// observed error under it, and an uncertified engine must fall back to
// fp64.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/thread_pool.hpp"
#include "tuner/features.hpp"
#include "tuner/model.hpp"
#include "tuner/scan.hpp"

namespace pt::tuner {
namespace {

/// 8*8*4*6*6*8 = 73728 configurations: crosses the 65536-row chunk boundary
/// so the merge path and a partial tail chunk are both exercised.
ParamSpace big_space() {
  ParamSpace space;
  space.add("A", {1, 2, 4, 8, 16, 32, 64, 128});
  space.add("B", {1, 2, 4, 8, 16, 32, 64, 128});
  space.add("C", {0, 1, 2, 3});
  space.add("D", {1, 2, 3, 4, 5, 6});
  space.add("E", {1, 2, 4, 8, 16, 32});
  space.add("F", {1, 2, 3, 4, 5, 6, 7, 8});
  return space;
}

double synthetic_time_ms(const Configuration& c) {
  const double a = std::log2(static_cast<double>(c.values[0]));
  const double b = std::log2(static_cast<double>(c.values[1]));
  const double d = static_cast<double>(c.values[3]);
  const double e = std::log2(static_cast<double>(c.values[4]));
  return 1.0 + (a - 3.0) * (a - 3.0) + 0.3 * (b - 2.0) * (b - 2.0) +
         0.1 * d + 0.2 * (e - 1.0) * (e - 1.0) +
         0.05 * static_cast<double>(c.values[2]) +
         0.02 * static_cast<double>(c.values[5]);
}

AnnPerformanceModel trained_model(const ParamSpace& space) {
  AnnPerformanceModel::Options opts;
  opts.ensemble.k = 3;
  opts.ensemble.hidden_layers = {ml::LayerSpec{12, ml::Activation::kSigmoid}};
  opts.ensemble.trainer.common.max_epochs = 150;
  opts.ensemble.trainer.common.patience = 40;
  AnnPerformanceModel model(opts);
  common::Rng rng(99);
  std::vector<TrainingSample> samples;
  const auto indices = rng.sample_without_replacement(
      static_cast<std::size_t>(space.size()), 150);
  for (const auto idx : indices) {
    const Configuration c = space.decode(idx);
    samples.push_back({c, synthetic_time_ms(c)});
  }
  model.fit(space, samples, rng);
  return model;
}

ScanOptions batched_options() {
  ScanOptions scan;
  scan.inference = ScanInference::kBatchedFp32;
  return scan;
}

ScanOptions fp64_options() {
  ScanOptions scan;
  scan.inference = ScanInference::kScalarFp64;
  return scan;
}

/// The model's scan inputs rebuilt from its public state, for driving
/// scan_top_m directly with a hand-made BatchedScan.
struct DirectScan {
  RangeEncoder encoder;
  ScanRowFiller fill;
  ScanRowFillerF32 fill_f32;
  OutputTransform transform;

  explicit DirectScan(const AnnPerformanceModel& model)
      : encoder(FeatureCodec::build(model.space(), model.options().encoding),
                model.space()),
        fill([this](std::uint64_t lo, std::uint64_t hi, ml::Matrix& x) {
          encoder.fill(lo, hi, x);
        }),
        fill_f32([this](std::uint64_t lo, std::uint64_t hi,
                        std::vector<float>& rows) {
          encoder.fill_f32(lo, hi, rows);
        }),
        transform{model.target_scale(), model.target_mean(),
                  model.options().log_targets} {}
  DirectScan(const DirectScan&) = delete;
  DirectScan& operator=(const DirectScan&) = delete;
};

void expect_same_selection(const TopMScanResult& fp64,
                           const TopMScanResult& fp32) {
  ASSERT_EQ(fp64.top.size(), fp32.top.size());
  for (std::size_t i = 0; i < fp64.top.size(); ++i) {
    EXPECT_EQ(fp64.top[i].index, fp32.top[i].index) << "rank " << i;
    // The fp32 path re-ranks through the fp64 reference, so predicted values
    // of the selection are bit-identical, not merely close.
    EXPECT_EQ(fp64.top[i].predicted_ms, fp32.top[i].predicted_ms)
        << "rank " << i;
  }
}

class ScanBatchedTest : public ::testing::Test {
 protected:
  void TearDown() override { common::set_global_pool_threads(0); }
};

TEST_F(ScanBatchedTest, TopMMatchesFp64AtOneAndFourThreads) {
  const ParamSpace space = big_space();
  AnnPerformanceModel model = trained_model(space);

  for (const std::size_t threads : {1u, 4u}) {
    common::set_global_pool_threads(threads);
    model.set_scan_options(fp64_options());  // fp64 reference
    const auto fp64 = model.predict_scan_top_m(0, space.size(), 25);
    model.set_scan_options(batched_options());
    const auto fp32 = model.predict_scan_top_m(0, space.size(), 25);
    EXPECT_EQ(fp32.scanned, space.size());
    EXPECT_GE(fp32.fp64_reranked, 25u);
    expect_same_selection(fp64, fp32);
  }
}

TEST_F(ScanBatchedTest, TopMMatchesFp64WithValidityFilter) {
  const ParamSpace space = big_space();
  AnnPerformanceModel model = trained_model(space);
  // Reject every third index: exercises the filtered heap + re-rank path.
  const ScanFilter filter = [](std::uint64_t idx) { return idx % 3 != 0; };

  model.set_scan_options(fp64_options());
  const auto fp64 = model.predict_scan_top_m(0, space.size(), 20, filter);
  model.set_scan_options(batched_options());
  const auto fp32 = model.predict_scan_top_m(0, space.size(), 20, filter);
  expect_same_selection(fp64, fp32);
  for (const auto& c : fp32.top) EXPECT_NE(c.index % 3, 0u);
  // The unfiltered ranking is a second, explicit scan; it matches too.
  model.set_scan_options(fp64_options());
  const auto fp64_all = model.predict_scan_top_m(0, space.size(), 20);
  model.set_scan_options(batched_options());
  expect_same_selection(fp64_all,
                        model.predict_scan_top_m(0, space.size(), 20));
}

TEST_F(ScanBatchedTest, Fp32PathIsDeterministicAcrossThreadCounts) {
  const ParamSpace space = big_space();
  AnnPerformanceModel model = trained_model(space);
  model.set_scan_options(batched_options());

  common::set_global_pool_threads(1);
  const auto one = model.predict_scan_top_m(0, space.size(), 30);
  common::set_global_pool_threads(4);
  const auto four = model.predict_scan_top_m(0, space.size(), 30);
  ASSERT_EQ(one.top.size(), four.top.size());
  for (std::size_t i = 0; i < one.top.size(); ++i) {
    EXPECT_EQ(one.top[i].index, four.top[i].index);
    EXPECT_EQ(one.top[i].predicted_ms, four.top[i].predicted_ms);
  }
  EXPECT_EQ(one.fp64_reranked, four.fp64_reranked);
  EXPECT_EQ(one.near_ties, four.near_ties);
}

TEST_F(ScanBatchedTest, WideErrorBandStillMatchesFp64Exactly) {
  // Widening the band past the certificate (the BatchedScan test seam)
  // makes it capture neighbours of the cutoff: plenty of candidates whose
  // fate the fp64 re-rank decides. The selection must still be exactly the
  // fp64 one.
  const ParamSpace space = big_space();
  AnnPerformanceModel model = trained_model(space);

  model.set_scan_options(fp64_options());
  const auto fp64 = model.predict_scan_top_m(0, space.size(), 15);
  const DirectScan direct(model);
  const ml::QuantCalibration box = direct.encoder.calibration();
  const ml::BatchedEnsemble engine(model.ensemble(), &box);
  BatchedScan batched;
  batched.engine = &engine;
  batched.fill = direct.fill_f32;
  batched.extra_fp32_error = 1e-2;
  const auto fp32 =
      scan_top_m(model.ensemble(), direct.fill, 0, space.size(), 15,
                 direct.transform, {}, batched_options(), &batched);
  expect_same_selection(fp64, fp32);
  // The widened band has to produce near-ties; re-ranking must cover them.
  EXPECT_GT(fp32.near_ties, 0u);
  EXPECT_GE(fp32.fp64_reranked, 15u + fp32.near_ties);
  EXPECT_EQ(fp32.error_bound, engine.error_bound() + 1e-2);
}

TEST_F(ScanBatchedTest, ReportsCertificateAndObservedError) {
  const ParamSpace space = big_space();
  AnnPerformanceModel model = trained_model(space);
  model.set_scan_options(batched_options());
  const auto fp32 = model.predict_scan_top_m(0, space.size(), 20);
  EXPECT_FALSE(fp32.fp64_fallback);
  EXPECT_GT(fp32.error_bound, 0.0);
  EXPECT_LE(fp32.error_bound, kMaxFp32ErrorBound);
  EXPECT_GT(fp32.observed_error, 0.0);
  EXPECT_LE(fp32.observed_error, fp32.error_bound);

  model.set_scan_options(fp64_options());
  const auto fp64 = model.predict_scan_top_m(0, space.size(), 20);
  EXPECT_EQ(fp64.error_bound, 0.0);
  EXPECT_EQ(fp64.observed_error, 0.0);
}

TEST_F(ScanBatchedTest, UncertifiedEngineFallsBackToFp64) {
  // An engine packed without an input box carries no certificate (+inf,
  // above kMaxFp32ErrorBound): the scan must run on fp64 and say so.
  const ParamSpace space = big_space();
  AnnPerformanceModel model = trained_model(space);
  model.set_scan_options(fp64_options());
  const auto fp64 = model.predict_scan_top_m(0, space.size(), 10);
  const DirectScan direct(model);
  const ml::BatchedEnsemble uncertified(model.ensemble());
  BatchedScan batched;
  batched.engine = &uncertified;
  batched.fill = direct.fill_f32;
  const auto scan =
      scan_top_m(model.ensemble(), direct.fill, 0, space.size(), 10,
                 direct.transform, {}, batched_options(), &batched);
  EXPECT_TRUE(scan.fp64_fallback);
  EXPECT_EQ(scan.fp64_reranked, 0u);
  EXPECT_EQ(scan.error_bound, 0.0);
  expect_same_selection(fp64, scan);
  const auto range = scan_predict_range(model.ensemble(), direct.fill, 0, 100,
                                        direct.transform, batched_options(),
                                        &batched);
  model.set_scan_options(fp64_options());
  EXPECT_EQ(range, model.predict_range_ms(0, 100));
}

TEST_F(ScanBatchedTest, PredictRangeStaysWithinErrorBound) {
  const ParamSpace space = big_space();
  AnnPerformanceModel model = trained_model(space);

  model.set_scan_options(fp64_options());
  const auto fp64 = model.predict_range_ms(60000, 70000);  // spans the chunk seam
  model.set_scan_options(batched_options());
  const auto fp32 = model.predict_range_ms(60000, 70000);
  ASSERT_EQ(fp64.size(), fp32.size());
  for (std::size_t i = 0; i < fp64.size(); ++i) {
    // Times come out of exp(raw * scale + mean): an fp32 raw error within
    // the bound turns into a small *relative* error on the time.
    const double rel = std::fabs(fp32[i] - fp64[i]) / fp64[i];
    EXPECT_LT(rel, 1e-3) << "i = " << i;
  }
}

TEST_F(ScanBatchedTest, BatchedWithoutEngineThrows) {
  const ml::BaggingEnsemble unused;
  const ScanRowFiller fill = [](std::uint64_t, std::uint64_t, ml::Matrix&) {};
  const ScanOptions opts = batched_options();
  EXPECT_THROW((void)scan_top_m(unused, fill, 0, 10, 3, OutputTransform{}, {},
                                opts, nullptr),
               std::invalid_argument);
  const BatchedScan no_engine{};
  EXPECT_THROW((void)scan_top_m(unused, fill, 0, 10, 3, OutputTransform{}, {},
                                opts, &no_engine),
               std::invalid_argument);
  EXPECT_THROW((void)scan_predict_range(unused, fill, 0, 10, OutputTransform{},
                                        opts, nullptr),
               std::invalid_argument);
}

TEST_F(ScanBatchedTest, RefitRebuildsTheBatchedEngine) {
  // After a refit the packed weights must follow the new ensemble, not the
  // stale one: predictions on both paths have to agree again.
  const ParamSpace space = big_space();
  AnnPerformanceModel model = trained_model(space);
  model.set_scan_options(batched_options());
  (void)model.predict_scan_top_m(0, 1000, 5);  // builds the engine

  common::Rng rng(123);
  std::vector<TrainingSample> samples;
  const auto indices = rng.sample_without_replacement(
      static_cast<std::size_t>(space.size()), 120);
  for (const auto idx : indices) {
    const Configuration c = space.decode(idx);
    samples.push_back({c, 2.0 * synthetic_time_ms(c)});
  }
  model.fit(space, samples, rng);
  model.set_scan_options(batched_options());

  const auto fp32 = model.predict_scan_top_m(0, 2000, 10);
  model.set_scan_options(fp64_options());
  const auto fp64 = model.predict_scan_top_m(0, 2000, 10);
  expect_same_selection(fp64, fp32);
}

}  // namespace
}  // namespace pt::tuner
