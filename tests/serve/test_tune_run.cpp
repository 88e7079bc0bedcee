#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "tuner/autotuner.hpp"
#include "tuner/input_aware.hpp"
#include "tuner/iterative.hpp"
#include "tuner/options.hpp"

#include "../tuner/test_helpers.hpp"

// The TuneRun request contract of the single tune/fit entry points: a seed
// in the request equals the same seed in the options at 1 and at 4 worker
// threads, a seeded tune is identical across thread counts, and a receiver
// rejects a request field it has no use for by name.

namespace pt::tuner {
namespace {

using testing::BowlEvaluator;

AutoTunerOptions fast_auto_options() {
  AutoTunerOptions o;
  o.training_samples = 80;
  o.second_stage_size = 12;
  o.model.ensemble.k = 3;
  o.model.ensemble.hidden_layers = {
      ml::LayerSpec{12, ml::Activation::kSigmoid}};
  o.model.ensemble.trainer.common.max_epochs = 200;
  return o;
}

IterativeTunerOptions fast_iter_options() {
  IterativeTunerOptions o;
  o.measurement_budget = 60;
  o.initial_samples = 30;
  o.batch_size = 15;
  o.model.ensemble.k = 3;
  o.model.ensemble.hidden_layers = {
      ml::LayerSpec{12, ml::Activation::kSigmoid}};
  o.model.ensemble.trainer.common.max_epochs = 200;
  return o;
}

void expect_same(const AutoTuneResult& a, const AutoTuneResult& b) {
  ASSERT_EQ(a.success, b.success);
  EXPECT_EQ(a.best_config.values, b.best_config.values);
  EXPECT_DOUBLE_EQ(a.best_time_ms, b.best_time_ms);
  EXPECT_EQ(a.stage1_measured, b.stage1_measured);
  EXPECT_EQ(a.stage2_measured, b.stage2_measured);
  EXPECT_DOUBLE_EQ(a.data_gathering_cost_ms, b.data_gathering_cost_ms);
}

/// The thread counts the parity contract is tested at.
const std::size_t kThreadCounts[] = {1, 4};

class TuneRunParity : public ::testing::TestWithParam<std::size_t> {
 protected:
  void SetUp() override { common::set_global_pool_threads(GetParam()); }
  void TearDown() override { common::set_global_pool_threads(0); }
};

TEST_P(TuneRunParity, AutoTunerWithSeedMatchesOptionsSeed) {
  AutoTunerOptions seeded = fast_auto_options();
  seeded.run.seed = 42;
  BowlEvaluator eval_a;
  const AutoTuneResult via_options = AutoTuner(seeded).tune(eval_a);
  BowlEvaluator eval_b;
  const AutoTuneResult via_request =
      AutoTuner(fast_auto_options()).tune(eval_b, TuneRun::with_seed(42));
  expect_same(via_options, via_request);
}

INSTANTIATE_TEST_SUITE_P(Threads, TuneRunParity,
                         ::testing::ValuesIn(kThreadCounts));

/// The cross-thread-count invariant the serve layer's determinism contract
/// rests on: one seed, different pool sizes, identical results.
TEST(TuneRunParityCross, SeededTuneIdenticalAcrossThreadCounts) {
  std::vector<int> reference_config;
  double reference_time = 0.0;
  bool have_reference = false;
  for (const std::size_t threads : kThreadCounts) {
    common::set_global_pool_threads(threads);
    BowlEvaluator eval;
    const AutoTuneResult result =
        AutoTuner(fast_auto_options()).tune(eval, TuneRun::with_seed(21));
    ASSERT_TRUE(result.success);
    if (!have_reference) {
      have_reference = true;
      reference_config = result.best_config.values;
      reference_time = result.best_time_ms;
    } else {
      EXPECT_EQ(result.best_config.values, reference_config);
      EXPECT_DOUBLE_EQ(result.best_time_ms, reference_time);
    }
  }
  common::set_global_pool_threads(0);
}

/// A request field the receiver would silently drop is a malformed request:
/// only AutoTuner samples stage 1, so only it accepts TuneRun::sampler.
TEST(TuneRunRejects, SamplerOutsideAutoTuner) {
  const RandomSampler sampler;
  TuneRun request = TuneRun::with_seed(4);
  request.sampler = &sampler;

  BowlEvaluator eval;
  try {
    (void)IterativeTuner(fast_iter_options()).tune(eval, request);
    ADD_FAILURE() << "IterativeTuner accepted a sampler";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("TuneRun::sampler"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(eval.calls(), 0u);  // rejected before measuring anything

  const ParamSpace space = testing::small_space();
  const std::vector<InputAwareSample> samples = {
      {space.decode(0), ProblemInstance{{2.0}}, 1.0}};
  InputAwarePerformanceModel model;
  try {
    model.fit(space, {"size"}, samples, request);
    ADD_FAILURE() << "InputAwarePerformanceModel accepted a sampler";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("TuneRun::sampler"),
              std::string::npos)
        << e.what();
  }
  EXPECT_FALSE(model.fitted());

  // AutoTuner does sample stage 1 and takes it.
  BowlEvaluator auto_eval;
  EXPECT_TRUE(AutoTuner(fast_auto_options()).tune(auto_eval, request).success);
}

}  // namespace
}  // namespace pt::tuner
