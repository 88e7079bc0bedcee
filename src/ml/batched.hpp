#pragma once

// Batched fp32 inference over the common/simd layer — the prediction-scan
// fast path (ROADMAP item 3, paper §4: the stage-1 scan evaluates every
// configuration in spaces of 131k–2.4M points).
//
// A BatchedMlp is built once from a fitted Mlp: each layer's weights are
// repacked into a SIMD-friendly row-major panel of shape (fan_in, padded)
// where `padded` rounds the unit count up to the vector width (pad weights
// and biases are zero). The ensemble's StandardScaler is folded into layer 0
// at pack time —
//   W'[i][j] = W[i][j] / stddev[i]
//   b'[j]    = b[j] - sum_i mean[i] * W[i][j] / stddev[i]
// (computed in double, then cast) — so the forward pass consumes raw,
// unscaled fp32 features and the per-row standardization disappears from the
// hot loop entirely.
//
// The forward pass walks rows of the chunk; per row, each layer broadcasts
// one input at a time and accumulates FMA products into up to four vector
// registers spanning the padded unit panel, then applies the vectorized
// activation (simd::sigmoid / simd::tanh, with the documented ULP bounds).
// The final single-output layer reduces with a dot-product + horizontal sum.
//
// Accuracy: everything is fp32 with fused multiply-adds, so raw outputs can
// differ from the fp64 reference by ~1e-6..1e-5 in standardized-output
// units. Callers that need fp64-identical *ranking* (tuner/scan.hpp) re-rank
// near-tie candidates through the fp64 path. The width of that band is a
// per-model *certificate*: given the input box the scan will feed (per-
// feature [lo, hi] of the fp32 rows, RangeEncoder::calibration()), the
// BatchedEnsemble constructor runs a forward error analysis at pack time and
// stores a sound upper bound on |fp32 raw output - fp64 raw output| over that
// box (error_bound()). The bound sums, per layer and per unit:
//  - the casts to fp32 of the inputs, the weights and the scaler-folded
//    biases (unit roundoff u = 2^-24; the fold itself is fp64 arithmetic);
//  - the FMA chain, gamma_n * sum |w| |x|, with |x| taken from outward-
//    rounded interval propagation of the box through the network;
//  - each activation's Lipschitz constant over its propagated pre-activation
//    interval (widened by the error so far) times the incoming error, plus
//    the documented SIMD evaluation bounds (sigmoid 8 ULP; tanh 2^-21);
//  - the same terms for the fp64 reference itself (u = 2^-53), which is a
//    computed result too;
//  - the member mean: K rounded adds and the rounded 1/K.
// On the paper's default ensembles this certifies ~1e-4 while the observed
// error is below 1e-6; the property tests in tests/ml/test_batched.cpp check
// certificate >= observed error over random topologies, weights and boxes.

#include <cstddef>
#include <memory>
#include <mutex>
#include <vector>

#include "common/simd.hpp"
#include "ml/activation.hpp"
#include "ml/ensemble.hpp"
#include "ml/mlp.hpp"
#include "ml/quant.hpp"
#include "ml/scaler.hpp"

namespace pt::ml {

class BatchedMlp {
 public:
  /// Pack a fitted network, optionally folding a feature scaler into layer 0
  /// (scaler width must match the network input width). The Mlp may be
  /// destroyed afterwards; the panels are self-contained.
  explicit BatchedMlp(const Mlp& mlp, const StandardScaler* scaler = nullptr);

  [[nodiscard]] std::size_t input_size() const noexcept { return inputs_; }
  [[nodiscard]] std::size_t output_size() const noexcept {
    return layers_.back().units;
  }

  /// Reusable buffers: two activation panels (ping-pong between layers) and
  /// a per-member output column for ensemble averaging.
  struct Scratch {
    common::simd::AlignedVectorF a;
    common::simd::AlignedVectorF b;
    std::vector<float> member;
  };

  /// Evaluate `rows` samples stored row-major in x (row r starts at
  /// x + r * input_size()) and write the first output column to out[0..rows).
  /// Requires a single-output network. Safe to call concurrently with
  /// distinct scratch objects.
  void forward_column0(const float* x, std::size_t rows, float* out,
                       Scratch& scratch) const;

 private:
  struct Layer {
    std::size_t in;      // fan-in
    std::size_t units;   // real unit count
    std::size_t padded;  // units rounded up to simd::kWidth
    Activation act;
    common::simd::AlignedVectorF w;     // (in, padded) row-major, pads zero
    common::simd::AlignedVectorF bias;  // (padded), pads zero
    // Single-output layers fed by a padded panel additionally keep their one
    // weight column contiguously (length = previous layer's padded width,
    // pads zero) for the dot-product fast path.
    common::simd::AlignedVectorF wcol;
  };

  std::size_t inputs_;
  std::vector<Layer> layers_;
};

/// Batched fp32 counterpart of BaggingEnsemble::predict_batch_into: packs
/// every member once (with the shared scaler folded in) and averages their
/// batched outputs in fixed member order, so results are deterministic and
/// independent of how callers chunk the rows.
class BatchedEnsemble {
 public:
  /// Packs a fitted ensemble; throws std::invalid_argument if it is not
  /// fitted (or `box` has the wrong width) and std::runtime_error if the
  /// SIMD backend fails verification (simd::ensure_verified runs before the
  /// first pack in the process). With an input `box` — every row later fed
  /// to predict_batch_into lies inside it — the error certificate is
  /// computed for it; without one error_bound() is +infinity.
  explicit BatchedEnsemble(const BaggingEnsemble& ensemble,
                           const QuantCalibration* box = nullptr);

  [[nodiscard]] std::size_t input_width() const noexcept { return inputs_; }
  [[nodiscard]] std::size_t member_count() const noexcept {
    return members_.size();
  }
  /// Sound bound on |fp32 raw output - fp64 raw output| (BaggingEnsemble::
  /// predict_batch_into on the unrounded features) for rows inside box();
  /// +infinity when no box was given or the analysis overflowed.
  [[nodiscard]] double error_bound() const noexcept { return error_bound_; }
  /// The box the certificate holds for (empty without one).
  [[nodiscard]] const QuantCalibration& box() const noexcept { return box_; }

  using Scratch = BatchedMlp::Scratch;

  /// Mean member prediction for `rows` row-major raw-feature samples; out is
  /// resized to `rows`. Safe to call concurrently with distinct scratch.
  void predict_batch_into(const float* x, std::size_t rows,
                          std::vector<float>& out, Scratch& scratch) const;

 private:
  std::size_t inputs_;
  float inv_k_;
  std::vector<BatchedMlp> members_;
  QuantCalibration box_;
  double error_bound_;
};

/// Lazily-built, shared BatchedEnsemble for model classes that expose both
/// inference paths (tuner/model.hpp). Copying a cache resets it (the copy
/// re-packs on first use); moving transfers the packed engine. Thread-safe.
class BatchedEnsembleCache {
 public:
  BatchedEnsembleCache() = default;
  BatchedEnsembleCache(const BatchedEnsembleCache&) noexcept {}
  BatchedEnsembleCache& operator=(const BatchedEnsembleCache&) noexcept {
    reset();
    return *this;
  }
  BatchedEnsembleCache(BatchedEnsembleCache&& other) noexcept;
  BatchedEnsembleCache& operator=(BatchedEnsembleCache&& other) noexcept;
  ~BatchedEnsembleCache() = default;

  /// The fp32 engine for `ensemble`, certified over `box`, building it on
  /// first call. Keyed by the box: asking with a different one (e.g. input-
  /// aware instance tails changed) repacks and replaces the cached engine.
  /// The caller must reset() whenever the ensemble is refitted or restored.
  [[nodiscard]] std::shared_ptr<const BatchedEnsemble> get(
      const BaggingEnsemble& ensemble, const QuantCalibration& box) const;

  /// The int8 engine for `ensemble`, keyed by the calibration the same way.
  [[nodiscard]] std::shared_ptr<const QuantizedEnsemble> get_quantized(
      const BaggingEnsemble& ensemble,
      const QuantCalibration& calibration) const;

  /// Drop the packed engines (outstanding shared_ptrs stay valid).
  void reset() noexcept;

 private:
  mutable std::mutex mutex_;
  mutable std::shared_ptr<const BatchedEnsemble> engine_;
  mutable std::shared_ptr<const QuantizedEnsemble> int8_engine_;
};

}  // namespace pt::ml
