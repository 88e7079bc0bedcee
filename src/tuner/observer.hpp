#pragma once

// TunerObserver + TunerRunContext — the unified hook surface of the tuning
// stack (DESIGN.md §7).
//
// Every tuner entry point (AutoTuner::tune, IterativeTuner::tune,
// InputAwarePerformanceModel::fit) takes its per-run wiring from one shared
// TunerRunContext — the one embedded in its options struct, or the one a
// TuneRun carries (tuner/options.hpp): the observer receiving callbacks,
// the telemetry collector to install for the run, the RNG seed, the
// worker-thread count, and the clcheck mode. Callers that only want a
// result leave the context at its defaults — a default context is inert
// (null observer, no telemetry, ambient thread pool) and results are
// bit-identical to a context-free run at any thread count (verified by
// tests/tuner/test_observer.cpp).
//
// Observer callbacks are delivered on the calling thread, in a
// deterministic order for a fixed seed (concurrent work such as ensemble
// training replays its per-member epochs sequentially after the fact).
// Observers must not mutate the evaluator or re-enter the tuner.

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "clsim/check/check.hpp"
#include "common/rng.hpp"
#include "common/telemetry/telemetry.hpp"
#include "common/thread_pool.hpp"
#include "tuner/evaluator.hpp"

namespace pt::tuner {

/// Hook interface for watching a tuning run. All hooks default to no-ops so
/// observers override only what they need.
class TunerObserver {
 public:
  virtual ~TunerObserver() = default;

  /// A named tuner stage begins/ends. `tuner` identifies the caller
  /// ("autotuner", "iterative", "input_aware"); `stage` is the span name,
  /// prefixed with the tuner (taxonomy in DESIGN.md §7):
  ///   autotuner.tune > autotuner.{stage1.measure, model.fit, validity.fit,
  ///                               stage2.scan, stage2.measure,
  ///                               stage2.stream}
  ///   iterative.tune > iterative.{round0, resample, model.fit (final)},
  ///                    iterative.round > iterative.{model.fit, exploit,
  ///                                                 explore}
  ///   input_aware.fit
  /// Properly nested per run: every begin is closed by a matching end
  /// before the outer stage ends.
  virtual void on_stage_begin(std::string_view /*tuner*/,
                              std::string_view /*stage*/) {}
  virtual void on_stage_end(std::string_view /*tuner*/,
                            std::string_view /*stage*/) {}

  /// A measurement was taken to build the model's training set (stage-1
  /// samples, iterative round-0 / exploration draws). Fires after the
  /// corresponding on_measurement.
  virtual void on_sample(std::string_view /*stage*/,
                         const Configuration& /*config*/,
                         const Measurement& /*m*/) {}

  /// One training epoch of one ensemble member finished. Delivered in
  /// (member, epoch) order after fit() returns, so the sequence is
  /// deterministic even when members train concurrently. monitored_loss is
  /// NaN when the member trained without a monitored split.
  virtual void on_epoch(std::size_t /*member*/, std::size_t /*epoch*/,
                        double /*train_loss*/, double /*monitored_loss*/) {}

  /// A model-selected candidate (flat index + its predicted time) is about
  /// to be measured.
  virtual void on_candidate(std::uint64_t /*index*/,
                            double /*predicted_ms*/) {}

  /// Every measurement the tuner makes, model-selected or random.
  virtual void on_measurement(std::string_view /*stage*/,
                              const Configuration& /*config*/,
                              const Measurement& /*m*/) {}
};

/// Shared per-run wiring. Embedded as `run` in AutoTunerOptions,
/// IterativeTunerOptions and InputAwarePerformanceModel::Options; the
/// defaults reproduce the pre-context behaviour exactly.
struct TunerRunContext {
  /// Callback sink (nullptr = no callbacks).
  TunerObserver* observer = nullptr;
  /// Telemetry collector installed process-globally for the duration of the
  /// run (see common/telemetry). nullptr leaves the ambient collector —
  /// including "none" — untouched, so a context never *disables* telemetry
  /// an outer scope enabled.
  common::telemetry::Collector* telemetry = nullptr;
  /// Seed for the run's RNG. Ignored when the TuneRun carries its own
  /// generator (TuneRun::rng).
  std::uint64_t seed = 1;
  /// Worker threads for the run (0 = leave the global pool as is).
  std::size_t threads = 0;
  /// Kernel-sanitizer mode, forwarded by evaluators that own a simulated
  /// queue. Plain decorators ignore it.
  clsim::check::CheckMode check = clsim::check::CheckMode::kOff;

  /// The run RNG implied by `seed`.
  [[nodiscard]] common::Rng make_rng() const { return common::Rng(seed); }

  /// Apply the thread option (no-op when 0 or already the pool size).
  void apply_threads() const {
    if (threads != 0 && threads != common::global_pool().size())
      common::set_global_pool_threads(threads);
  }
};

/// RAII for a run: installs the context's collector (when present) and
/// applies its thread option. Member order makes the collector active
/// before any spans open and restores the previous one afterwards.
class ScopedRunContext {
 public:
  explicit ScopedRunContext(const TunerRunContext& run)
      : install_(run.telemetry != nullptr ? run.telemetry
                                          : common::telemetry::collector()) {
    run.apply_threads();
  }

 private:
  common::telemetry::ScopedCollector install_;
};

// Notify helpers: one branch when no observer is set.
inline void notify_stage_begin(const TunerRunContext& run,
                               std::string_view tuner,
                               std::string_view stage) {
  if (run.observer != nullptr) run.observer->on_stage_begin(tuner, stage);
}
inline void notify_stage_end(const TunerRunContext& run,
                             std::string_view tuner, std::string_view stage) {
  if (run.observer != nullptr) run.observer->on_stage_end(tuner, stage);
}

/// Observer stage + telemetry span in one RAII object, so the two report
/// identical nesting.
class StageScope {
 public:
  StageScope(const TunerRunContext& run, std::string_view tuner,
             std::string_view stage)
      : run_(&run), tuner_(tuner), stage_(stage), span_(stage) {
    notify_stage_begin(run, tuner, stage);
  }
  ~StageScope() { finish(); }

  StageScope(const StageScope&) = delete;
  StageScope& operator=(const StageScope&) = delete;

  /// Close the stage now (idempotent).
  void finish() {
    if (run_ == nullptr) return;
    const TunerRunContext* run = run_;
    run_ = nullptr;
    span_.finish();
    notify_stage_end(*run, tuner_, stage_);
  }

 private:
  const TunerRunContext* run_;
  std::string_view tuner_;
  std::string_view stage_;
  common::telemetry::Span span_;
};

}  // namespace pt::tuner
