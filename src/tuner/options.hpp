#pragma once

// TunerOptions + TuneRun — the shared configuration base and the per-run
// request struct of the tuning stack.
//
// TunerOptions collects the fields every tuner used to duplicate (the
// performance-model configuration, the opt-in clstat static pre-filter and
// the per-run wiring context); AutoTunerOptions and IterativeTunerOptions
// inherit it, so a service can configure both tuners through one type.
//
// TuneRun is the request: everything that may vary per call — the run
// context (seed, observer, telemetry, threads, check mode), an optional
// external RNG and an optional stage-1 sampler. Each job has exactly one
// entry point taking it, defaulted to an empty request:
// AutoTuner::tune(Evaluator&, const TuneRun& = {}),
// IterativeTuner::tune(Evaluator&, const TuneRun& = {}) and
// InputAwarePerformanceModel::fit(..., const TuneRun& = {}). A receiver
// that has no use for a field a request sets (a sampler outside AutoTuner)
// throws std::invalid_argument naming it. Degradation knobs are options,
// not request fields. The serve layer (src/serve) only ever issues
// TuneRuns.

#include <cstdint>
#include <memory>
#include <optional>

#include "clsim/analyze/checker.hpp"
#include "common/rng.hpp"
#include "tuner/model.hpp"
#include "tuner/observer.hpp"

namespace pt::tuner {

class Sampler;

/// Configuration shared by every tuner. Derived option structs add their
/// stage budgets and tuner-specific knobs on top.
struct TunerOptions {
  /// Performance-model configuration (ensemble topology, encoding, scan
  /// engine knobs).
  AnnPerformanceModel::Options model{};
  /// Opt-in clstat static pre-filter for prediction scans. Must be built
  /// over the evaluated space (same dimension order) and the target device.
  /// See the derived options for each tuner's pruning semantics.
  std::shared_ptr<const clsim::analyze::StaticChecker> static_checker;
  /// Per-run wiring: observer, telemetry, seed, threads, check mode (see
  /// tuner/observer.hpp). The default context is inert — results are
  /// bit-identical to a context-free run. A TuneRun's context, when set,
  /// takes precedence for that run.
  TunerRunContext run{};
};

/// One tune request. Default-constructed it takes everything from the
/// receiver's options.
struct TuneRun {
  /// Per-run wiring override; when absent the tuner's options().run
  /// applies (including its seed).
  std::optional<TunerRunContext> context;
  /// External generator for callers that thread one RNG through several
  /// runs. When set, the context/options seed is ignored; the rest of the
  /// effective context still applies.
  common::Rng* rng = nullptr;
  /// Stage-1 sampler override, AutoTuner only (other receivers reject a
  /// request that sets it). nullptr = the paper's uniform RandomSampler.
  const Sampler* sampler = nullptr;

  /// The effective run context given a tuner's options.
  [[nodiscard]] const TunerRunContext& effective_context(
      const TunerRunContext& fallback) const noexcept {
    return context ? *context : fallback;
  }

  /// Convenience: a request that only overrides the seed (what a served
  /// tune uses — client-supplied seed, otherwise inert context).
  [[nodiscard]] static TuneRun with_seed(std::uint64_t seed) {
    TuneRun request;
    request.context = TunerRunContext{};
    request.context->seed = seed;
    return request;
  }

  /// Convenience: a request threading an external generator (the harness
  /// idiom: one RNG across several runs). Set `.sampler` on the result to
  /// also override AutoTuner's stage-1 sampler.
  [[nodiscard]] static TuneRun with_rng(common::Rng& rng) {
    TuneRun request;
    request.rng = &rng;
    return request;
  }
};

}  // namespace pt::tuner
