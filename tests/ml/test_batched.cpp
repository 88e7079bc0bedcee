// Tests for the batched fp32 inference engine (ml/batched.hpp): parity with
// the per-row fp64 forward pass across topologies and activations, scaler
// folding, ensemble averaging, determinism, cache semantics, and soundness
// of the pack-time error certificate (certificate >= observed |fp32 - fp64|
// over random topologies, weights and input boxes).

#include "ml/batched.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "ml/dataset.hpp"
#include "ml/ensemble.hpp"
#include "ml/mlp.hpp"

namespace ml = pt::ml;

namespace {

ml::Mlp make_net(std::size_t inputs, std::vector<ml::LayerSpec> layers,
                 std::uint64_t seed) {
  ml::Mlp net(inputs, std::move(layers));
  pt::common::Rng rng(seed);
  net.init_weights(rng);
  return net;
}

std::vector<float> random_rows(std::size_t rows, std::size_t cols,
                               std::uint64_t seed) {
  pt::common::Rng rng(seed);
  std::vector<float> x(rows * cols);
  for (auto& v : x)
    v = static_cast<float>(rng.uniform() * 8.0 - 4.0);
  return x;
}

/// fp64 reference for one row of fp32 features.
double reference_forward(const ml::Mlp& net, const float* row,
                         std::size_t cols) {
  std::vector<double> x(row, row + cols);
  return net.forward(x)[0];
}

}  // namespace

TEST(BatchedMlp, MatchesFp64ForwardAcrossTopologies) {
  // Hidden sizes straddle the vector width: below, at, and above one lane
  // group, plus the paper's 30 and a 33 that exercises the 4-tile loop tail.
  const std::size_t hidden_sizes[] = {1, 3, 7, 8, 9, 16, 30, 33};
  for (const std::size_t h : hidden_sizes) {
    const ml::Mlp net = make_net(
        5,
        {{h, ml::Activation::kSigmoid}, {1, ml::Activation::kLinear}},
        1000 + h);
    const ml::BatchedMlp batched(net);
    const std::size_t rows = 64;
    const auto x = random_rows(rows, 5, 7 * h);
    std::vector<float> out(rows);
    ml::BatchedMlp::Scratch scratch;
    batched.forward_column0(x.data(), rows, out.data(), scratch);
    for (std::size_t r = 0; r < rows; ++r) {
      const double want = reference_forward(net, x.data() + r * 5, 5);
      EXPECT_NEAR(out[r], want, 1e-4) << "hidden = " << h << ", row = " << r;
    }
  }
}

TEST(BatchedMlp, MatchesFp64ForwardAcrossActivations) {
  const ml::Activation acts[] = {ml::Activation::kSigmoid,
                                 ml::Activation::kTanh, ml::Activation::kRelu,
                                 ml::Activation::kLinear};
  for (const auto act : acts) {
    const ml::Mlp net =
        make_net(4, {{12, act}, {1, ml::Activation::kLinear}}, 42);
    const ml::BatchedMlp batched(net);
    const std::size_t rows = 32;
    const auto x = random_rows(rows, 4, 99);
    std::vector<float> out(rows);
    ml::BatchedMlp::Scratch scratch;
    batched.forward_column0(x.data(), rows, out.data(), scratch);
    for (std::size_t r = 0; r < rows; ++r)
      EXPECT_NEAR(out[r], reference_forward(net, x.data() + r * 4, 4), 1e-4);
  }
}

TEST(BatchedMlp, MatchesFp64WithTwoHiddenLayers) {
  const ml::Mlp net = make_net(6,
                               {{20, ml::Activation::kSigmoid},
                                {10, ml::Activation::kTanh},
                                {1, ml::Activation::kLinear}},
                               7);
  const ml::BatchedMlp batched(net);
  const std::size_t rows = 48;
  const auto x = random_rows(rows, 6, 5);
  std::vector<float> out(rows);
  ml::BatchedMlp::Scratch scratch;
  batched.forward_column0(x.data(), rows, out.data(), scratch);
  for (std::size_t r = 0; r < rows; ++r)
    EXPECT_NEAR(out[r], reference_forward(net, x.data() + r * 6, 6), 1e-4);
}

TEST(BatchedMlp, SingleLayerNetwork) {
  // Degenerate input -> output network exercises the scalar fallback path.
  const ml::Mlp net = make_net(3, {{1, ml::Activation::kLinear}}, 21);
  const ml::BatchedMlp batched(net);
  const auto x = random_rows(16, 3, 3);
  std::vector<float> out(16);
  ml::BatchedMlp::Scratch scratch;
  batched.forward_column0(x.data(), 16, out.data(), scratch);
  for (std::size_t r = 0; r < 16; ++r)
    EXPECT_NEAR(out[r], reference_forward(net, x.data() + r * 3, 3), 1e-5);
}

TEST(BatchedMlp, ScalerFoldingMatchesExplicitStandardization) {
  const ml::Mlp net = make_net(
      4, {{9, ml::Activation::kSigmoid}, {1, ml::Activation::kLinear}}, 3);
  // A scaler with distinctly non-trivial means and stddevs.
  ml::StandardScaler scaler;
  scaler.restore({10.0, -3.0, 0.5, 100.0}, {2.0, 0.25, 1.5, 30.0});
  const ml::BatchedMlp batched(net, &scaler);

  const std::size_t rows = 32;
  const auto x = random_rows(rows, 4, 31);
  std::vector<float> out(rows);
  ml::BatchedMlp::Scratch scratch;
  batched.forward_column0(x.data(), rows, out.data(), scratch);
  for (std::size_t r = 0; r < rows; ++r) {
    // Reference: standardize in double, then fp64 forward.
    std::vector<double> row(4);
    for (std::size_t c = 0; c < 4; ++c)
      row[c] = (static_cast<double>(x[r * 4 + c]) - scaler.means()[c]) /
               scaler.stddevs()[c];
    EXPECT_NEAR(out[r], net.forward(row)[0], 1e-4) << "row = " << r;
  }
}

TEST(BatchedMlp, ScalerWidthMismatchThrows) {
  const ml::Mlp net = make_net(
      4, {{5, ml::Activation::kSigmoid}, {1, ml::Activation::kLinear}}, 3);
  ml::StandardScaler scaler;
  scaler.restore({0.0, 0.0}, {1.0, 1.0});
  EXPECT_THROW(ml::BatchedMlp(net, &scaler), std::invalid_argument);
}

namespace {

ml::BaggingEnsemble fitted_ensemble(std::uint64_t seed) {
  ml::BaggingEnsemble::Options opts;
  opts.k = 5;
  opts.hidden_layers = {{10, ml::Activation::kSigmoid}};
  opts.trainer.common.max_epochs = 40;
  ml::BaggingEnsemble ensemble(opts);
  pt::common::Rng rng(seed);
  ml::Dataset data;
  data.x = ml::Matrix(60, 3);
  data.y = ml::Matrix(60, 1);
  for (std::size_t i = 0; i < 60; ++i) {
    for (std::size_t c = 0; c < 3; ++c)
      data.x(i, c) = rng.uniform() * 10.0;
    data.y(i, 0) =
        std::sin(data.x(i, 0)) + 0.1 * data.x(i, 1) - 0.05 * data.x(i, 2);
  }
  ensemble.fit(data, rng);
  return ensemble;
}

}  // namespace

TEST(BatchedEnsemble, MatchesFp64EnsemblePrediction) {
  const ml::BaggingEnsemble ensemble = fitted_ensemble(11);
  const ml::BatchedEnsemble batched(ensemble);
  EXPECT_EQ(batched.input_width(), 3u);
  EXPECT_EQ(batched.member_count(), ensemble.member_count());

  const std::size_t rows = 200;
  const auto x = random_rows(rows, 3, 77);
  std::vector<float> out;
  ml::BatchedEnsemble::Scratch scratch;
  batched.predict_batch_into(x.data(), rows, out, scratch);
  ASSERT_EQ(out.size(), rows);
  for (std::size_t r = 0; r < rows; ++r) {
    std::vector<double> row(x.begin() + static_cast<std::ptrdiff_t>(r * 3),
                            x.begin() + static_cast<std::ptrdiff_t>(r * 3 + 3));
    EXPECT_NEAR(out[r], ensemble.predict(row), 1e-4) << "row = " << r;
  }
}

TEST(BatchedEnsemble, DeterministicAndChunkingIndependent) {
  const ml::BaggingEnsemble ensemble = fitted_ensemble(13);
  const ml::BatchedEnsemble batched(ensemble);
  const std::size_t rows = 96;
  const auto x = random_rows(rows, 3, 5);

  std::vector<float> whole;
  ml::BatchedEnsemble::Scratch s1;
  batched.predict_batch_into(x.data(), rows, whole, s1);

  // Same rows evaluated in two pieces must give bit-identical outputs.
  std::vector<float> first, second;
  ml::BatchedEnsemble::Scratch s2;
  batched.predict_batch_into(x.data(), 40, first, s2);
  batched.predict_batch_into(x.data() + 40 * 3, rows - 40, second, s2);
  for (std::size_t r = 0; r < 40; ++r) EXPECT_EQ(whole[r], first[r]);
  for (std::size_t r = 40; r < rows; ++r) EXPECT_EQ(whole[r], second[r - 40]);
}

TEST(BatchedEnsemble, UnfittedEnsembleThrows) {
  const ml::BaggingEnsemble ensemble;
  EXPECT_THROW(ml::BatchedEnsemble{ensemble}, std::invalid_argument);
}

namespace {

ml::QuantCalibration uniform_box(std::size_t width, float lo, float hi) {
  ml::QuantCalibration box;
  box.lo.assign(width, lo);
  box.hi.assign(width, hi);
  return box;
}

/// Largest |fp32 - fp64| raw output over `rows` feature rows drawn in the
/// box the way a scan produces them: the fp64 path reads a double feature
/// value, the fp32 path its float cast. The box corners are included.
double observed_error(const ml::BaggingEnsemble& ensemble,
                      const ml::BatchedEnsemble& batched,
                      const ml::QuantCalibration& box, std::size_t rows,
                      pt::common::Rng& rng) {
  const std::size_t width = box.width();
  ml::Matrix x64(rows, width);
  std::vector<float> x32(rows * width);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < width; ++c) {
      const double lo = box.lo[c];
      const double hi = box.hi[c];
      double v = rng.uniform(lo, hi);
      if (r == 0) v = lo;
      if (r == 1) v = hi;
      x64(r, c) = v;
      x32[r * width + c] = static_cast<float>(v);
    }
  }
  const std::vector<double> want = ensemble.predict_batch(x64);
  std::vector<float> got;
  ml::BatchedEnsemble::Scratch scratch;
  batched.predict_batch_into(x32.data(), rows, got, scratch);
  double worst = 0.0;
  for (std::size_t r = 0; r < rows; ++r)
    worst = std::max(worst,
                     std::fabs(static_cast<double>(got[r]) - want[r]));
  return worst;
}

ml::Activation random_activation(pt::common::Rng& rng) {
  constexpr ml::Activation kAll[] = {
      ml::Activation::kSigmoid, ml::Activation::kTanh, ml::Activation::kRelu,
      ml::Activation::kLinear};
  return kAll[rng.below(4)];
}

/// A random restored ensemble: 1-5 members of one random topology (1-3
/// hidden layers of 1-40 units, any activation), weights and biases scaled
/// by up to ~30x past their initialization, and a random feature scaler.
ml::BaggingEnsemble random_ensemble(std::size_t inputs, pt::common::Rng& rng) {
  std::vector<ml::LayerSpec> layers;
  const std::size_t hidden = 1 + rng.below(3);
  for (std::size_t l = 0; l < hidden; ++l)
    layers.push_back({1 + rng.below(40), random_activation(rng)});
  layers.push_back({1, rng.bernoulli(0.6) ? ml::Activation::kLinear
                                          : random_activation(rng)});
  const std::size_t k = 1 + rng.below(5);
  std::vector<ml::Mlp> members;
  for (std::size_t m = 0; m < k; ++m) {
    ml::Mlp net(inputs, layers);
    net.init_weights(rng);
    for (std::size_t l = 0; l < net.layer_count(); ++l) {
      const double scale = std::pow(10.0, rng.uniform(-1.0, 1.5));
      for (double& w : net.weights(l).flat()) w *= scale;
      for (double& b : net.biases(l)) b = b * scale + rng.uniform(-1.0, 1.0);
    }
    members.push_back(std::move(net));
  }
  std::vector<double> means(inputs);
  std::vector<double> stddevs(inputs);
  for (std::size_t i = 0; i < inputs; ++i) {
    means[i] = rng.uniform(-5.0, 5.0);
    stddevs[i] = std::pow(10.0, rng.uniform(-1.0, 1.0));
  }
  ml::StandardScaler scaler;
  scaler.restore(std::move(means), std::move(stddevs));
  ml::BaggingEnsemble::Options opts;
  opts.k = k;
  ml::BaggingEnsemble ensemble(opts);
  ensemble.restore(opts, std::move(scaler), std::move(members));
  return ensemble;
}

}  // namespace

TEST(BatchedCertificate, BoundsObservedErrorOnRandomTopologiesAndBoxes) {
  pt::common::Rng rng(2024);
  std::size_t finite = 0;
  for (int trial = 0; trial < 120; ++trial) {
    const std::size_t inputs = 1 + rng.below(6);
    const ml::BaggingEnsemble ensemble = random_ensemble(inputs, rng);
    ml::QuantCalibration box;
    for (std::size_t i = 0; i < inputs; ++i) {
      const double center = rng.uniform(-10.0, 10.0);
      const double width =
          rng.bernoulli(0.1) ? 0.0 : std::pow(10.0, rng.uniform(-2.0, 1.5));
      box.lo.push_back(static_cast<float>(center));
      box.hi.push_back(static_cast<float>(center + width));
    }
    const ml::BatchedEnsemble batched(ensemble, &box);
    const double bound = batched.error_bound();
    const double seen = observed_error(ensemble, batched, box, 512, rng);
    EXPECT_LE(seen, bound) << "trial " << trial;
    if (std::isfinite(bound)) ++finite;
  }
  // The analysis must not hide behind +infinity: moderate weights and boxes
  // stay far below the overflow guard.
  EXPECT_EQ(finite, 120u);
}

TEST(BatchedCertificate, TrainedEnsembleIsCertifiedTightly) {
  const ml::BaggingEnsemble ensemble = fitted_ensemble(11);
  const auto box = uniform_box(3, 0.0f, 10.0f);
  const ml::BatchedEnsemble batched(ensemble, &box);
  pt::common::Rng rng(5);
  const double seen = observed_error(ensemble, batched, box, 4096, rng);
  EXPECT_LE(seen, batched.error_bound());
  // Useful, not just sound: the band it implies stays a thin sliver.
  EXPECT_LT(batched.error_bound(), 1e-3);
  EXPECT_GT(batched.error_bound(), 0.0);
}

TEST(BatchedCertificate, WithoutABoxThereIsNoCertificate) {
  const ml::BaggingEnsemble ensemble = fitted_ensemble(11);
  const ml::BatchedEnsemble batched(ensemble);
  EXPECT_EQ(batched.error_bound(), std::numeric_limits<double>::infinity());
  EXPECT_EQ(batched.box().width(), 0u);
  const auto narrow = uniform_box(2, 0.0f, 1.0f);
  EXPECT_THROW(ml::BatchedEnsemble(ensemble, &narrow), std::invalid_argument);
}

TEST(BatchedCertificate, WiderBoxesNeverCertifyLess) {
  // Monotone in the box: the analysis over a superset covers the subset.
  const ml::BaggingEnsemble ensemble = fitted_ensemble(13);
  const auto inner = uniform_box(3, 2.0f, 4.0f);
  const auto outer = uniform_box(3, 0.0f, 10.0f);
  EXPECT_LE(ml::BatchedEnsemble(ensemble, &inner).error_bound(),
            ml::BatchedEnsemble(ensemble, &outer).error_bound());
}

TEST(BatchedEnsembleCache, BuildsOnceAndResets) {
  const ml::BaggingEnsemble ensemble = fitted_ensemble(17);
  const auto box = uniform_box(3, 0.0f, 10.0f);
  ml::BatchedEnsembleCache cache;
  const auto a = cache.get(ensemble, box);
  const auto b = cache.get(ensemble, box);
  EXPECT_EQ(a.get(), b.get());  // same packed engine
  cache.reset();
  const auto c = cache.get(ensemble, box);
  EXPECT_NE(a.get(), c.get());  // rebuilt
  EXPECT_EQ(a->member_count(), c->member_count());
  EXPECT_EQ(a->error_bound(), c->error_bound());
}

TEST(BatchedEnsembleCache, Fp32SlotIsKeyedByBox) {
  const ml::BaggingEnsemble ensemble = fitted_ensemble(17);
  const auto box_a = uniform_box(3, 0.0f, 10.0f);
  auto box_b = box_a;
  box_b.lo[2] = box_b.hi[2] = 4.0f;  // e.g. a new input-aware instance tail
  ml::BatchedEnsembleCache cache;
  const auto a = cache.get(ensemble, box_a);
  const auto b = cache.get(ensemble, box_b);
  EXPECT_NE(a.get(), b.get());  // repacked and re-certified for the new box
  EXPECT_TRUE(b->box() == box_b);
  EXPECT_EQ(b.get(), cache.get(ensemble, box_b).get());
}

TEST(BatchedEnsembleCache, CopyResetsMoveTransfers) {
  const ml::BaggingEnsemble ensemble = fitted_ensemble(19);
  const auto box = uniform_box(3, 0.0f, 10.0f);
  ml::BatchedEnsembleCache cache;
  const auto original = cache.get(ensemble, box);

  ml::BatchedEnsembleCache copy(cache);
  EXPECT_NE(copy.get(ensemble, box).get(), original.get());  // copy re-packs

  ml::BatchedEnsembleCache moved(std::move(cache));
  EXPECT_EQ(moved.get(ensemble, box).get(), original.get());  // transfers
}
