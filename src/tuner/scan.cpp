#include "tuner/scan.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <utility>

#include "common/telemetry/telemetry.hpp"
#include "common/thread_pool.hpp"

namespace pt::tuner {
namespace {

/// Per-chunk working set: the feature matrix, the ensemble's prediction
/// scratch, and the raw-output vector — plus the fp32 equivalents for the
/// reduced-precision tiers. Pooled so each worker reuses one across all
/// the chunks it executes.
struct ChunkScratch {
  ml::Matrix x;
  ml::BaggingEnsemble::PredictScratch ps;
  std::vector<double> preds;
  std::vector<float> xf;
  std::vector<float> predsf;
  ml::BatchedEnsemble::Scratch bs;
  ml::QuantizedEnsemble::Scratch qs;
};

class ScratchPool {
 public:
  std::unique_ptr<ChunkScratch> acquire() {
    std::lock_guard<std::mutex> lock(mutex_);
    if (free_.empty()) return std::make_unique<ChunkScratch>();
    auto s = std::move(free_.back());
    free_.pop_back();
    return s;
  }

  void release(std::unique_ptr<ChunkScratch> s) {
    std::lock_guard<std::mutex> lock(mutex_);
    free_.push_back(std::move(s));
  }

 private:
  std::mutex mutex_;
  std::vector<std::unique_ptr<ChunkScratch>> free_;
};

struct RawCandidate {
  double raw = 0.0;
  std::uint64_t index = 0;
};

/// Total order: smaller raw output (faster prediction) first, index breaks
/// ties. Totality makes the merged selection independent of chunk order.
bool better(const RawCandidate& a, const RawCandidate& b) {
  if (a.raw != b.raw) return a.raw < b.raw;
  return a.index < b.index;
}

/// One chunk's selection: the best-m heap (worst on top, so each new
/// candidate is one comparison against the current cutoff) plus an overflow
/// list of every candidate within `slack` (= 2x the coarse-pass error
/// bound) of the heap cutoff. The heap cutoff only improves as the chunk
/// streams, so pruning the overflow against the current cutoff never drops
/// a candidate that the final cutoff would have kept. At slack 0 (the fp64
/// reference) the overflow stays empty and the heap keeps exactly the
/// chunk's best m.
class RelaxedTopM {
 public:
  /// Requires m > 0. `rows` is the chunk's row count: the heap never holds
  /// more.
  RelaxedTopM(std::size_t m, double slack, std::size_t rows)
      : m_(m), slack_(slack) {
    heap_.reserve(std::min(m, rows));
  }

  /// True if offer() would retain this candidate (used for lazy filters).
  [[nodiscard]] bool would_keep(const RawCandidate& c) const {
    if (heap_.size() < m_) return true;
    return better(c, heap_.front()) || in_band(c);
  }

  /// Retains `c`; requires would_keep(c).
  void offer(const RawCandidate& c) {
    if (heap_.size() < m_) {
      heap_.push_back(c);
      std::push_heap(heap_.begin(), heap_.end(), better);
      return;
    }
    if (better(c, heap_.front())) {
      heap_.push_back(c);
      std::push_heap(heap_.begin(), heap_.end(), better);
      std::pop_heap(heap_.begin(), heap_.end(), better);
      const RawCandidate evicted = heap_.back();
      heap_.pop_back();
      if (in_band(evicted)) overflow_.push_back(evicted);
    } else {
      overflow_.push_back(c);
    }
    const std::size_t cap = std::max<std::size_t>(4 * m_, 1024);
    if (overflow_.size() > cap) {
      const double bound = heap_.front().raw + slack_;
      std::erase_if(overflow_,
                    [bound](const RawCandidate& o) { return o.raw > bound; });
    }
  }

  /// Heap plus overflow, unordered.
  [[nodiscard]] std::vector<RawCandidate> take() {
    heap_.insert(heap_.end(), overflow_.begin(), overflow_.end());
    overflow_.clear();
    return std::move(heap_);
  }

 private:
  /// Within the re-rank band of a full heap's cutoff (never at slack 0).
  [[nodiscard]] bool in_band(const RawCandidate& c) const {
    return slack_ > 0.0 && c.raw <= heap_.front().raw + slack_;
  }

  std::size_t m_;
  double slack_;
  std::vector<RawCandidate> heap_;
  std::vector<RawCandidate> overflow_;
};

/// The engine a scan runs, resolved once per call from the options: the
/// fp64 pair (always present — it is the reference and the re-rank path),
/// the reduced-precision engines, the tier the chunk pass drives and the
/// coarse-pass error bound in force (0 on fp64). An fp32 request whose
/// certificate is missing or above kMaxFp32ErrorBound runs on fp64
/// (fallback set).
struct ScanEngine {
  const ml::BaggingEnsemble& ensemble;
  const ScanRowFiller& fill;
  const BatchedScan* batched = nullptr;
  ScanInference inference = ScanInference::kScalarFp64;
  double bound = 0.0;
  bool fallback = false;

  [[nodiscard]] bool reduced() const noexcept {
    return inference != ScanInference::kScalarFp64;
  }
};

ScanEngine resolve_engine(const ml::BaggingEnsemble& ensemble,
                          const ScanRowFiller& fill,
                          const ScanOptions& options,
                          const BatchedScan* batched, const char* where) {
  ScanEngine e{ensemble, fill, batched};
  switch (options.inference) {
    case ScanInference::kScalarFp64:
      return e;
    case ScanInference::kQuantInt8:
      if (!batched || !batched->quant || !batched->fill)
        throw std::invalid_argument(std::string(where) +
                                    ": int8 inference requested without a "
                                    "quantized engine and fp32 row filler");
      e.inference = ScanInference::kQuantInt8;
      e.bound = options.quant_error_bound;
      return e;
    case ScanInference::kBatchedFp32:
      break;
  }
  if (!batched || !batched->engine || !batched->fill)
    throw std::invalid_argument(std::string(where) +
                                ": batched fp32 inference requested without "
                                "an engine and fp32 row filler");
  const double certificate = batched->engine->error_bound();
  if (!(certificate <= kMaxFp32ErrorBound)) {
    if (common::telemetry::enabled())
      common::telemetry::count("tuner.scan.fp64_fallback");
    e.fallback = true;
    return e;
  }
  e.inference = ScanInference::kBatchedFp32;
  e.bound = certificate + batched->extra_fp32_error;
  return e;
}

std::uint64_t chunk_count_for(std::uint64_t n) {
  return (n + kScanChunkRows - 1) / kScanChunkRows;
}

/// The one chunk pass every scan runs: [begin, end) in kScanChunkRows
/// chunks on the global pool, each chunk's rows predicted on the resolved
/// engine and visit(c, lo, raw) called with raw[i] the raw network output
/// of row lo + i — a span of float on the reduced tiers, of double on
/// fp64, so `visit` is generic over the element type.
template <class Visit>
void scan_chunks(const ScanEngine& e, std::uint64_t begin, std::uint64_t end,
                 const Visit& visit) {
  ScratchPool pool;
  common::global_pool().parallel_for(
      0, static_cast<std::size_t>(chunk_count_for(end - begin)),
      [&](std::size_t c) {
        const common::telemetry::Span span("scan.chunk");
        const std::uint64_t lo = begin + c * kScanChunkRows;
        const std::uint64_t hi =
            std::min<std::uint64_t>(end, lo + kScanChunkRows);
        const std::size_t rows = static_cast<std::size_t>(hi - lo);
        auto s = pool.acquire();
        if (e.reduced()) {
          e.batched->fill(lo, hi, s->xf);
          if (e.inference == ScanInference::kQuantInt8)
            e.batched->quant->predict_batch_into(s->xf.data(), rows,
                                                 s->predsf, s->qs);
          else
            e.batched->engine->predict_batch_into(s->xf.data(), rows,
                                                  s->predsf, s->bs);
          visit(c, lo, std::span<const float>(s->predsf.data(), rows));
        } else {
          e.fill(lo, hi, s->x);
          e.ensemble.predict_batch_into(s->x, s->preds, s->ps);
          visit(c, lo, std::span<const double>(s->preds.data(), rows));
        }
        pool.release(std::move(s));
      });
}

void gauge_configs_per_sec(std::uint64_t n,
                           std::chrono::steady_clock::time_point start) {
  if (!common::telemetry::enabled()) return;
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  if (seconds > 0.0)
    common::telemetry::gauge("tuner.scan.configs_per_sec",
                             static_cast<double>(n) / seconds);
}

/// Replaces each candidate's coarse raw output with its exact fp64 one and
/// returns the largest |coarse - fp64| seen. Rows are gathered one
/// unit-range fill at a time (the filler only takes contiguous ranges) into
/// per-chunk matrices and sent through batched fp64 predicts on the pool.
/// Bit-identical to what the chunked fp64 scan computes for the same
/// indices, whatever the gathered row count: every kernel under
/// predict_batch_into accumulates per output element in a row-count
/// independent order. Batching matters on the quantized tier, whose wide
/// re-rank band can hold thousands of survivors.
double rerank_fp64(const ml::BaggingEnsemble& ensemble,
                   const ScanRowFiller& fill,
                   std::vector<RawCandidate>& survivors) {
  const std::size_t chunks =
      (survivors.size() + kScanChunkRows - 1) / kScanChunkRows;
  std::vector<double> chunk_error(chunks, 0.0);
  ScratchPool pool;
  common::global_pool().parallel_for(0, chunks, [&](std::size_t c) {
    auto scratch = pool.acquire();
    const std::size_t lo = c * kScanChunkRows;
    const std::size_t hi = std::min(survivors.size(), lo + kScanChunkRows);
    fill(survivors[lo].index, survivors[lo].index + 1, scratch->x);
    ml::Matrix batch(hi - lo, scratch->x.cols());
    for (std::size_t r = lo; r < hi; ++r) {
      if (r != lo) fill(survivors[r].index, survivors[r].index + 1, scratch->x);
      const auto src = scratch->x.row(0);
      auto dst = batch.row(r - lo);
      for (std::size_t j = 0; j < src.size(); ++j) dst[j] = src[j];
    }
    ensemble.predict_batch_into(batch, scratch->preds, scratch->ps);
    for (std::size_t r = lo; r < hi; ++r) {
      const double exact = scratch->preds[r - lo];
      chunk_error[c] =
          std::max(chunk_error[c], std::fabs(survivors[r].raw - exact));
      survivors[r].raw = exact;
    }
    pool.release(std::move(scratch));
  });
  double observed = 0.0;
  for (double err : chunk_error) observed = std::max(observed, err);
  return observed;
}

/// The fillers and engines of one EncodedScan. The shared pointers keep a
/// packed engine alive for the duration of the scan even if the cache is
/// concurrently reset.
struct EncodedEngines {
  ScanRowFiller fill;
  std::shared_ptr<const ml::BatchedEnsemble> fp32;
  std::shared_ptr<const ml::QuantizedEnsemble> int8;
  BatchedScan batched;

  /// The reduced-precision engines, nullptr on the fp64 reference path.
  [[nodiscard]] const BatchedScan* reduced() const noexcept {
    return batched.fill ? &batched : nullptr;
  }
};

EncodedEngines encoded_engines(const EncodedScan& scan) {
  EncodedEngines e;
  e.fill = [&scan](std::uint64_t lo, std::uint64_t hi, ml::Matrix& x) {
    scan.encoder.fill(lo, hi, x, scan.tail);
  };
  if (scan.options.inference == ScanInference::kScalarFp64) return e;
  std::vector<float> tail_f(scan.tail.begin(), scan.tail.end());
  const ml::QuantCalibration box = scan.encoder.calibration(tail_f);
  if (scan.options.inference == ScanInference::kBatchedFp32) {
    e.fp32 = scan.engines.get(scan.ensemble, box);
    e.batched.engine = e.fp32.get();
  } else {
    e.int8 = scan.engines.get_quantized(scan.ensemble, box);
    e.batched.quant = e.int8.get();
  }
  e.batched.fill = [&encoder = scan.encoder, tail_f = std::move(tail_f)](
                       std::uint64_t lo, std::uint64_t hi,
                       std::vector<float>& rows) {
    encoder.fill_f32(lo, hi, rows, tail_f);
  };
  return e;
}

}  // namespace

std::vector<double> scan_predict_range(const ml::BaggingEnsemble& ensemble,
                                       const ScanRowFiller& fill,
                                       std::uint64_t begin, std::uint64_t end,
                                       const OutputTransform& transform,
                                       const ScanOptions& options,
                                       const BatchedScan* batched) {
  if (begin > end) throw std::invalid_argument("scan_predict_range: bad range");
  const ScanEngine engine =
      resolve_engine(ensemble, fill, options, batched, "scan_predict_range");
  const std::uint64_t n = end - begin;
  std::vector<double> out(static_cast<std::size_t>(n));
  if (n == 0) return out;
  const auto start = std::chrono::steady_clock::now();
  scan_chunks(engine, begin, end,
              [&](std::size_t, std::uint64_t lo, auto raw) {
                double* dst = out.data() + (lo - begin);
                for (std::size_t i = 0; i < raw.size(); ++i)
                  dst[i] = transform(static_cast<double>(raw[i]));
              });
  gauge_configs_per_sec(n, start);
  return out;
}

TopMScanResult scan_top_m(const ml::BaggingEnsemble& ensemble,
                          const ScanRowFiller& fill, std::uint64_t begin,
                          std::uint64_t end, std::size_t m,
                          const OutputTransform& transform,
                          const ScanFilter& filter, const ScanOptions& options,
                          const BatchedScan* batched) {
  if (begin > end) throw std::invalid_argument("scan_top_m: bad range");
  if (!(transform.scale > 0.0))
    throw std::invalid_argument("scan_top_m: non-positive transform scale");
  const ScanEngine engine =
      resolve_engine(ensemble, fill, options, batched, "scan_top_m");
  TopMScanResult result;
  const std::uint64_t n = end - begin;
  result.scanned = n;
  if (n == 0 || m == 0) return result;
  const double slack = 2.0 * engine.bound;
  result.error_bound = engine.bound;
  result.fp64_fallback = engine.fallback;
  const auto start = std::chrono::steady_clock::now();

  const std::size_t chunks = static_cast<std::size_t>(chunk_count_for(n));
  std::vector<std::vector<RawCandidate>> chunk_top(chunks);
  std::vector<std::uint64_t> chunk_rejected(chunks, 0);
  scan_chunks(engine, begin, end,
              [&](std::size_t c, std::uint64_t lo, auto raw) {
                RelaxedTopM top(m, slack, raw.size());
                std::uint64_t rejected = 0;
                for (std::size_t i = 0; i < raw.size(); ++i) {
                  const RawCandidate cand{static_cast<double>(raw[i]),
                                          lo + i};
                  if (!top.would_keep(cand)) continue;
                  // Lazy filter evaluation: only candidates good enough to
                  // be retained pay for the validity check.
                  if (filter && !filter(cand.index)) {
                    ++rejected;
                    continue;
                  }
                  top.offer(cand);
                }
                chunk_top[c] = top.take();
                chunk_rejected[c] = rejected;
              });
  for (std::uint64_t r : chunk_rejected) result.rejected += r;

  // Survivors of the global cutoff: every candidate within `slack` of the
  // m-th best coarse output — exactly the candidates whose fp64 rank can
  // still reach the top m. On a reduced tier they are re-ranked by their
  // exact fp64 outputs, so the selection matches the fp64 scan whenever the
  // coarse-pass error stays within the bound in force.
  std::vector<RawCandidate> top;
  for (auto& v : chunk_top) top.insert(top.end(), v.begin(), v.end());
  std::sort(top.begin(), top.end(), better);
  if (top.size() > m) {
    const double bound = top[m - 1].raw + slack;
    top.erase(std::find_if(top.begin() + static_cast<std::ptrdiff_t>(m),
                           top.end(),
                           [bound](const RawCandidate& c) {
                             return c.raw > bound;
                           }),
              top.end());
  }
  if (engine.reduced()) {
    result.near_ties = top.size() - std::min(m, top.size());
    result.fp64_reranked = top.size();
    result.observed_error = rerank_fp64(ensemble, fill, top);
    std::sort(top.begin(), top.end(), better);
  }
  if (top.size() > m) top.resize(m);
  result.top.reserve(top.size());
  for (const RawCandidate& c : top)
    result.top.push_back(ScanCandidate{c.index, transform(c.raw)});

  gauge_configs_per_sec(n, start);
  if (common::telemetry::enabled()) {
    common::telemetry::count("scan.candidates_scanned",
                             static_cast<double>(result.scanned));
    common::telemetry::count("scan.candidates_filtered",
                             static_cast<double>(result.rejected));
    if (engine.reduced()) {
      common::telemetry::count("tuner.scan.fp64_rerank",
                               static_cast<double>(result.fp64_reranked));
      common::telemetry::count("tuner.scan.near_ties",
                               static_cast<double>(result.near_ties));
      common::telemetry::gauge("tuner.scan.error_bound", result.error_bound);
      common::telemetry::gauge("tuner.scan.observed_error",
                               result.observed_error);
    }
  }
  return result;
}

ScanFilter make_static_scan_filter(const ParamSpace& space,
                                   const clsim::analyze::StaticChecker& checker,
                                   StaticPruneCounters& counters,
                                   ScanFilter next) {
  return [&space, &checker, &counters,
          next = std::move(next)](std::uint64_t index) {
    const Configuration config = space.decode(index);
    const clsim::analyze::ConfigVerdict verdict =
        checker.check(std::span<const int>(config.values));
    counters.checked.fetch_add(1, std::memory_order_relaxed);
    switch (verdict.verdict) {
      case clsim::analyze::Verdict::kProvedInvalid:
        counters.pruned.fetch_add(1, std::memory_order_relaxed);
        return false;
      case clsim::analyze::Verdict::kProvedValid:
        counters.proved_valid.fetch_add(1, std::memory_order_relaxed);
        break;
      case clsim::analyze::Verdict::kUnknown:
        counters.unknown.fetch_add(1, std::memory_order_relaxed);
        break;
    }
    return !next || next(index);
  };
}

std::vector<double> EncodedScan::predict_range(std::uint64_t begin,
                                               std::uint64_t end) const {
  const EncodedEngines e = encoded_engines(*this);
  return scan_predict_range(ensemble, e.fill, begin, end, transform, options,
                            e.reduced());
}

TopMScanResult EncodedScan::top_m(std::uint64_t begin, std::uint64_t end,
                                  std::size_t m,
                                  const ScanFilter& filter) const {
  const EncodedEngines e = encoded_engines(*this);
  return scan_top_m(ensemble, e.fill, begin, end, m, transform, filter,
                    options, e.reduced());
}

}  // namespace pt::tuner
