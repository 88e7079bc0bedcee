#include "ml/batched.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

namespace pt::ml {

namespace simd = common::simd;

namespace {

std::size_t round_up(std::size_t n) {
  return (n + simd::kWidth - 1) / simd::kWidth * simd::kWidth;
}

float activate_f32(Activation act, float y) {
  switch (act) {
    case Activation::kLinear:
      return y;
    case Activation::kSigmoid:
      return simd::sigmoid_ref(y);
    case Activation::kTanh:
      return simd::tanh_ref(y);
    case Activation::kRelu:
      return y > 0.0f ? y : 0.0f;
  }
  return y;
}

}  // namespace

BatchedMlp::BatchedMlp(const Mlp& mlp, const StandardScaler* scaler)
    : inputs_(mlp.input_size()) {
  if (scaler && scaler->width() != inputs_)
    throw std::invalid_argument(
        "BatchedMlp: scaler width does not match network input width");
  layers_.reserve(mlp.layer_count());
  for (std::size_t l = 0; l < mlp.layer_count(); ++l) {
    const Matrix& w = mlp.weights(l);
    const std::vector<double>& b = mlp.biases(l);
    Layer layer;
    layer.in = w.rows();
    layer.units = w.cols();
    layer.padded = round_up(layer.units);
    layer.act = mlp.layers()[l].activation;
    layer.w.assign(layer.in * layer.padded, 0.0f);
    layer.bias.assign(layer.padded, 0.0f);
    // Fold the standardization (x - mean) / stddev into layer 0:
    //   W'[i][j] = W[i][j] / s[i];  b'[j] = b[j] - sum_i m[i]*W[i][j]/s[i].
    // Kept in double until the final cast, so the fold adds no fp32 rounding
    // beyond the unavoidable weight quantization.
    const bool fold = l == 0 && scaler;
    const std::vector<double>* m = fold ? &scaler->means() : nullptr;
    const std::vector<double>* s = fold ? &scaler->stddevs() : nullptr;
    for (std::size_t j = 0; j < layer.units; ++j) {
      double bias = b[j];
      if (fold) {
        double shift = 0.0;
        for (std::size_t i = 0; i < layer.in; ++i)
          shift += (*m)[i] * w(i, j) / (*s)[i];
        bias -= shift;
      }
      layer.bias[j] = static_cast<float>(bias);
    }
    for (std::size_t i = 0; i < layer.in; ++i) {
      const double scale = fold ? 1.0 / (*s)[i] : 1.0;
      for (std::size_t j = 0; j < layer.units; ++j)
        layer.w[i * layer.padded + j] = static_cast<float>(w(i, j) * scale);
    }
    // Single-output layer fed by a padded activation panel: repack the one
    // weight column contiguously (pads zero) so the forward pass can run it
    // as a vector dot + horizontal sum. The previous layer's pad lanes hold
    // act(0) — harmless, their wcol entries are zero.
    if (layer.units == 1 && l > 0) {
      const std::size_t prev_padded = layers_[l - 1].padded;
      layer.wcol.assign(prev_padded, 0.0f);
      for (std::size_t i = 0; i < layer.in; ++i)
        layer.wcol[i] = layer.w[i * layer.padded];
    }
    layers_.push_back(std::move(layer));
  }
}

namespace {

// One row through one layer: out[0..padded) = act(x · W + b). The padded
// unit panel is covered by up to kTile vector accumulators at a time, each
// seeded from the bias; every input then broadcasts into them via FMA.
void forward_row(const float* x, std::size_t in, std::size_t padded,
                 Activation act, const float* w, const float* bias,
                 float* out) {
  using simd::VecF;
  constexpr std::size_t kTile = 4;
  for (std::size_t j0 = 0; j0 < padded; j0 += kTile * simd::kWidth) {
    const std::size_t lanes_left = (padded - j0) / simd::kWidth;
    const std::size_t tiles = lanes_left < kTile ? lanes_left : kTile;
    VecF acc[kTile];
    for (std::size_t t = 0; t < tiles; ++t)
      acc[t] = VecF::load(bias + j0 + t * simd::kWidth);
    for (std::size_t i = 0; i < in; ++i) {
      const VecF xi = VecF::broadcast(x[i]);
      const float* wrow = w + i * padded + j0;
      for (std::size_t t = 0; t < tiles; ++t)
        acc[t] = simd::fmadd(xi, VecF::load(wrow + t * simd::kWidth), acc[t]);
    }
    switch (act) {
      case Activation::kLinear:
        break;
      case Activation::kSigmoid:
        for (std::size_t t = 0; t < tiles; ++t) acc[t] = simd::sigmoid(acc[t]);
        break;
      case Activation::kTanh:
        for (std::size_t t = 0; t < tiles; ++t) acc[t] = simd::tanh(acc[t]);
        break;
      case Activation::kRelu:
        for (std::size_t t = 0; t < tiles; ++t)
          acc[t] = simd::max(acc[t], VecF::zero());
        break;
    }
    for (std::size_t t = 0; t < tiles; ++t)
      acc[t].store(out + j0 + t * simd::kWidth);
  }
}

}  // namespace

void BatchedMlp::forward_column0(const float* x, std::size_t rows, float* out,
                                 Scratch& scratch) const {
  assert(output_size() == 1 &&
         "forward_column0 requires a single-output network");
  std::size_t max_panel = 0;
  for (const Layer& layer : layers_)
    if (layer.padded > max_panel) max_panel = layer.padded;
  if (scratch.a.size() < max_panel) scratch.a.assign(max_panel, 0.0f);
  if (scratch.b.size() < max_panel) scratch.b.assign(max_panel, 0.0f);

  const std::size_t nl = layers_.size();
  const Layer& last = layers_.back();
  for (std::size_t r = 0; r < rows; ++r) {
    const float* cur = x + r * inputs_;
    float* ping = scratch.a.data();
    float* pong = scratch.b.data();
    for (std::size_t l = 0; l + 1 < nl; ++l) {
      const Layer& layer = layers_[l];
      forward_row(cur, layer.in, layer.padded, layer.act, layer.w.data(),
                  layer.bias.data(), ping);
      cur = ping;
      std::swap(ping, pong);
    }
    if (!last.wcol.empty()) {
      // Hidden activations are a kWidth-multiple panel: vector dot + hsum.
      using simd::VecF;
      const std::size_t prev_padded = layers_[nl - 2].padded;
      VecF acc = VecF::zero();
      for (std::size_t i = 0; i < prev_padded; i += simd::kWidth)
        acc = simd::fmadd(VecF::load(cur + i), VecF::load(last.wcol.data() + i),
                          acc);
      out[r] = activate_f32(last.act, last.bias[0] + simd::hsum(acc));
    } else if (last.units == 1) {
      // Degenerate single-layer network: the raw input row has arbitrary
      // width and stride, so stay scalar (std::fma keeps lane semantics).
      float sum = last.bias[0];
      for (std::size_t i = 0; i < last.in; ++i)
        sum = std::fma(cur[i], last.w[i * last.padded], sum);
      out[r] = activate_f32(last.act, sum);
    } else {
      forward_row(cur, last.in, last.padded, last.act, last.w.data(),
                  last.bias.data(), ping);
      out[r] = ping[0];
    }
  }
}

// ---------------------------------------------------------------------------
// The fp32 error certificate (see the header comment). Every quantity below
// is an upper bound computed in double with outward rounding: each sum or
// product of non-negative error terms is rounded up (nextafter), interval
// ends are rounded away from the interval, and libm results (exp/tanh are
// not correctly rounded) carry a relative slack far above their few-ULP
// error — the soundness discipline of clsim/analyze/interval.hpp, applied
// to real-valued ranges.
// ---------------------------------------------------------------------------

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kU32 = 0x1p-24;  // fp32 unit roundoff
constexpr double kU64 = 0x1p-53;  // fp64 unit roundoff
constexpr double kLibmSlack = 0x1p-40;
// Absolute floors: fp32/fp64 subnormal spacing (underflow in a product or a
// cast) and the SIMD sigmoid's clamped tail (exp saturates at -87.3).
constexpr double kTiny32 = 0x1p-149;
constexpr double kTiny64 = 0x1p-1074;
constexpr double kSigmoidTail32 = 0x1p-120;
// Past this magnitude fp32 may overflow, which the relative error model does
// not cover: the certificate becomes +infinity.
constexpr double kMaxMagnitude = 0x1p100;

double up(double x) { return std::nextafter(x, kInf); }
double down(double x) { return std::nextafter(x, -kInf); }
double add_up(double a, double b) { return up(a + b); }
double mul_up(double a, double b) { return up(a * b); }  // a, b >= 0

/// gamma_n = n u / (1 - n u), rounded up.
double gamma(std::size_t n, double u) {
  const double nu = mul_up(static_cast<double>(n), u);
  return up(nu / down(1.0 - nu));
}

struct Range {
  double lo = 0.0;
  double hi = 0.0;
  [[nodiscard]] double mag() const {
    return std::max(std::fabs(lo), std::fabs(hi));
  }
};

double sigmoid_d(double x) { return 1.0 / (1.0 + std::exp(-x)); }

/// Exact activation image of a pre-activation range (all four are
/// monotone), rounded outward.
Range activate_range(Activation act, Range z) {
  switch (act) {
    case Activation::kLinear:
      return z;
    case Activation::kRelu:
      return {std::max(z.lo, 0.0), std::max(z.hi, 0.0)};
    case Activation::kSigmoid:
      return {std::max(0.0, down(sigmoid_d(z.lo) * (1.0 - kLibmSlack))),
              std::min(1.0, up(sigmoid_d(z.hi) * (1.0 + kLibmSlack)))};
    case Activation::kTanh: {
      const double lo = std::tanh(z.lo);
      const double hi = std::tanh(z.hi);
      return {std::max(-1.0, down(lo - std::fabs(lo) * kLibmSlack)),
              std::min(1.0, up(hi + std::fabs(hi) * kLibmSlack))};
    }
  }
  return z;
}

/// max |act'| over h.
double lipschitz(Activation act, Range h) {
  const double d = h.lo <= 0.0 && h.hi >= 0.0
                       ? 0.0
                       : std::min(std::fabs(h.lo), std::fabs(h.hi));
  switch (act) {
    case Activation::kLinear:
      return 1.0;
    case Activation::kRelu:
      return h.hi > 0.0 ? 1.0 : 0.0;
    case Activation::kSigmoid: {
      const double e = std::exp(-d);
      return std::min(0.25,
                      up(e / (1.0 + e) / (1.0 + e) * (1.0 + kLibmSlack)));
    }
    case Activation::kTanh: {
      const double t = std::tanh(d);
      return std::min(1.0, up((1.0 - t * t) * (1.0 + kLibmSlack)));
    }
  }
  return 1.0;
}

/// |computed act(z) - act(z)| for z in h: the documented SIMD bounds on the
/// fp32 path (common/simd.hpp), a generous few-ULP libm bound on fp64.
double eval_error(Activation act, Range h, bool fp32) {
  switch (act) {
    case Activation::kLinear:
    case Activation::kRelu:
      return 0.0;
    case Activation::kSigmoid: {
      const double top = up(sigmoid_d(h.hi) * (1.0 + kLibmSlack));
      return fp32 ? add_up(mul_up(8.0 * 0x1p-23, top), kSigmoidTail32)
                  : add_up(mul_up(16.0 * kU64, top), kTiny64);
    }
    case Activation::kTanh:
      return fp32 ? 0x1p-21
                  : add_up(mul_up(16.0 * kU64, activate_range(act, h).mag()),
                           kTiny64);
  }
  return kInf;
}

/// One layer input as both paths see it: the range of the exact value and
/// each path's bound on |computed - exact|.
struct Inputs {
  std::vector<Range> exact;
  std::vector<double> err32;
  std::vector<double> err64;
};

struct MemberBound {
  double err32 = 0.0;
  double err64 = 0.0;
  double magnitude = 0.0;  // of the exact output
};

/// Forward error analysis of one member over `box` (the fp32 feature rows;
/// the fp64 path reads the unrounded features, within u32 of them).
MemberBound certify_member(const Mlp& mlp, const StandardScaler* scaler,
                           const QuantCalibration& box) {
  const std::size_t n0 = mlp.input_size();
  // Layer 0 runs on different representations: fp32 on the cast raw
  // features with scaler-folded weights, fp64 on standardized features
  // (computed with two roundings each) with the original weights. `exact`
  // holds the standardized range; `raw` the raw one the fp32 path reads.
  std::vector<Range> raw(n0);
  Inputs in;
  in.exact.resize(n0);
  in.err32.resize(n0);
  in.err64.assign(n0, 0.0);
  for (std::size_t i = 0; i < n0; ++i) {
    const double lo = box.lo[i];
    const double hi = box.hi[i];
    const double cast = add_up(
        mul_up(kU32, std::max(std::fabs(lo), std::fabs(hi))), kTiny32);
    raw[i] = {down(lo - cast), up(hi + cast)};
    in.err32[i] = cast;
    if (scaler) {
      const double m = scaler->means()[i];
      const double s = scaler->stddevs()[i];
      in.exact[i] = {down(down(raw[i].lo - m) / s), up(up(raw[i].hi - m) / s)};
      in.err64[i] = add_up(mul_up(gamma(2, kU64), in.exact[i].mag()), kTiny64);
    } else {
      in.exact[i] = raw[i];
    }
  }

  for (std::size_t l = 0; l < mlp.layer_count(); ++l) {
    const Matrix& w = mlp.weights(l);
    const std::vector<double>& b = mlp.biases(l);
    const std::size_t fan_in = w.rows();
    const bool first = l == 0;
    const bool fold = first && scaler;
    // Rounding chains: fp32 is an FMA chain seeded with the bias, or (last
    // layer) lane-parallel FMAs, a horizontal sum and a bias add; fp64 is a
    // mul/add matmul plus the bias add; the fold is fp64 too.
    const double g32 = gamma(fan_in + common::simd::kWidth + 2, kU32);
    const double g64 = gamma(fan_in + 2, kU64);
    const double g_fold = gamma(fan_in + 3, kU64);
    const Activation act = mlp.layers()[l].activation;
    Inputs next;
    next.exact.resize(w.cols());
    next.err32.resize(w.cols());
    next.err64.resize(w.cols());
    for (std::size_t j = 0; j < w.cols(); ++j) {
      // Exact pre-activation range from the fp64 parameters (exact reals).
      Range z{b[j], b[j]};
      // fp64 path: input error through |W|, then the matmul + bias chain.
      double e64 = 0.0;
      double sum64 = std::fabs(b[j]);
      // fp32 path: the packed (cast) parameters exactly as BatchedMlp
      // computes them, and their distance from the exact ones.
      double e32 = 0.0;
      double sum32 = 0.0;
      double fold_shift = 0.0;  // sum_i |m_i W_ij / s_i|
      for (std::size_t i = 0; i < fan_in; ++i) {
        const double wij = w(i, j);
        const Range& x = in.exact[i];
        const double p1 = wij * x.lo;
        const double p2 = wij * x.hi;
        z.lo = down(z.lo + down(std::min(p1, p2)));
        z.hi = up(z.hi + up(std::max(p1, p2)));
        const double aw = std::fabs(wij);
        e64 = add_up(e64, mul_up(in.err64[i], aw));
        sum64 = add_up(sum64, mul_up(add_up(x.mag(), in.err64[i]), aw));

        const double wd = fold ? wij * (1.0 / scaler->stddevs()[i]) : wij;
        const double wf =
            std::fabs(static_cast<double>(static_cast<float>(wd)));
        const double dw =
            add_up(add_up(mul_up(kU32, wf), mul_up(3.0 * kU64, std::fabs(wd))),
                   kTiny32);
        const double xmag = first ? raw[i].mag() : x.mag();
        const double xerr = in.err32[i];
        e32 = add_up(e32, add_up(mul_up(xerr, wf), mul_up(xmag, dw)));
        sum32 = add_up(sum32, mul_up(add_up(xmag, xerr), wf));
        if (fold)
          fold_shift = add_up(
              fold_shift, up(std::fabs(scaler->means()[i] * wij /
                                       scaler->stddevs()[i]) *
                             (1.0 + 4.0 * kU64)));
      }
      // Bias: fp32 stores float(b') with b' = b - sum_i m_i W_ij / s_i
      // accumulated in double.
      double bd = b[j];
      if (fold) {
        double shift = 0.0;
        for (std::size_t i = 0; i < fan_in; ++i)
          shift += scaler->means()[i] * w(i, j) / scaler->stddevs()[i];
        bd -= shift;
      }
      const double bf =
          std::fabs(static_cast<double>(static_cast<float>(bd)));
      double db = add_up(mul_up(kU32, bf), kTiny32);
      if (fold)
        db = add_up(db,
                    mul_up(g_fold, add_up(std::fabs(b[j]), fold_shift)));
      e32 = add_up(add_up(e32, db), mul_up(g32, add_up(sum32, bf)));
      e32 = add_up(e32, mul_up(static_cast<double>(fan_in + 2), kTiny32));
      e64 = add_up(e64, mul_up(g64, sum64));
      e64 = add_up(e64, mul_up(static_cast<double>(fan_in + 2), kTiny64));

      // Activation: both computed pre-activations lie in h.
      const double ez = std::max(e32, e64);
      const Range h{down(z.lo - ez), up(z.hi + ez)};
      const double lip = lipschitz(act, h);
      next.exact[j] = activate_range(act, z);
      next.err32[j] = add_up(mul_up(lip, e32), eval_error(act, h, true));
      next.err64[j] = add_up(mul_up(lip, e64), eval_error(act, h, false));
      if (!(h.lo > -kMaxMagnitude && h.hi < kMaxMagnitude &&
            sum32 < kMaxMagnitude))
        return {kInf, kInf, kInf};
    }
    in = std::move(next);
  }
  // Only output column 0 is ever read.
  return {in.err32[0], in.err64[0], in.exact[0].mag()};
}

/// Certificate for the member mean: K rounded adds and a multiply by the
/// rounded 1/K on each path.
double certify(const BaggingEnsemble& ensemble, const QuantCalibration& box) {
  const StandardScaler* scaler =
      ensemble.scaler().fitted() ? &ensemble.scaler() : nullptr;
  const std::size_t k = ensemble.member_count();
  double err32 = 0.0;
  double err64 = 0.0;
  double mag32 = 0.0;
  double mag64 = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    const MemberBound m = certify_member(ensemble.member(i), scaler, box);
    err32 = add_up(err32, m.err32);
    err64 = add_up(err64, m.err64);
    mag32 = add_up(mag32, add_up(m.magnitude, m.err32));
    mag64 = add_up(mag64, add_up(m.magnitude, m.err64));
  }
  const double kd = static_cast<double>(k);
  const double mean32 =
      add_up(up(err32 / kd), mul_up(gamma(k + 2, kU32), up(mag32 / kd)));
  const double mean64 =
      add_up(up(err64 / kd), mul_up(gamma(k + 2, kU64), up(mag64 / kd)));
  const double bound = add_up(mean32, mean64);
  return std::isfinite(bound) ? bound : kInf;
}

}  // namespace

BatchedEnsemble::BatchedEnsemble(const BaggingEnsemble& ensemble,
                                 const QuantCalibration* box)
    : error_bound_(kInf) {
  if (!ensemble.fitted())
    throw std::invalid_argument("BatchedEnsemble: ensemble is not fitted");
  simd::ensure_verified();
  inputs_ = ensemble.member(0).input_size();
  inv_k_ = 1.0f / static_cast<float>(ensemble.member_count());
  members_.reserve(ensemble.member_count());
  const StandardScaler* scaler =
      ensemble.scaler().fitted() ? &ensemble.scaler() : nullptr;
  for (std::size_t i = 0; i < ensemble.member_count(); ++i)
    members_.emplace_back(ensemble.member(i), scaler);
  if (box) {
    if (box->width() != inputs_ || box->hi.size() != inputs_)
      throw std::invalid_argument(
          "BatchedEnsemble: input box width does not match the network");
    box_ = *box;
    error_bound_ = certify(ensemble, box_);
  }
}

void BatchedEnsemble::predict_batch_into(const float* x, std::size_t rows,
                                         std::vector<float>& out,
                                         Scratch& scratch) const {
  // Accumulate member sums directly in `out`, in fixed member order, so the
  // result is deterministic and chunking-independent.
  out.assign(rows, 0.0f);
  if (scratch.member.size() < rows) scratch.member.resize(rows);
  for (const BatchedMlp& member : members_) {
    member.forward_column0(x, rows, scratch.member.data(), scratch);
    for (std::size_t r = 0; r < rows; ++r) out[r] += scratch.member[r];
  }
  for (std::size_t r = 0; r < rows; ++r) out[r] *= inv_k_;
}

BatchedEnsembleCache::BatchedEnsembleCache(
    BatchedEnsembleCache&& other) noexcept {
  const std::scoped_lock lock(other.mutex_);
  engine_ = std::move(other.engine_);
  int8_engine_ = std::move(other.int8_engine_);
}

BatchedEnsembleCache& BatchedEnsembleCache::operator=(
    BatchedEnsembleCache&& other) noexcept {
  if (this != &other) {
    const std::scoped_lock lock(mutex_, other.mutex_);
    engine_ = std::move(other.engine_);
    int8_engine_ = std::move(other.int8_engine_);
  }
  return *this;
}

std::shared_ptr<const BatchedEnsemble> BatchedEnsembleCache::get(
    const BaggingEnsemble& ensemble, const QuantCalibration& box) const {
  const std::scoped_lock lock(mutex_);
  if (!engine_ || !(engine_->box() == box))
    engine_ = std::make_shared<const BatchedEnsemble>(ensemble, &box);
  return engine_;
}

std::shared_ptr<const QuantizedEnsemble> BatchedEnsembleCache::get_quantized(
    const BaggingEnsemble& ensemble,
    const QuantCalibration& calibration) const {
  const std::scoped_lock lock(mutex_);
  if (!int8_engine_ || !(int8_engine_->calibration() == calibration))
    int8_engine_ =
        std::make_shared<const QuantizedEnsemble>(ensemble, calibration);
  return int8_engine_;
}

void BatchedEnsembleCache::reset() noexcept {
  const std::scoped_lock lock(mutex_);
  engine_ = nullptr;
  int8_engine_ = nullptr;
}

}  // namespace pt::ml
