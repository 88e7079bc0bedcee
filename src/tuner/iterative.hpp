#pragma once

// Iterative (active-learning) auto-tuner — an extension beyond the paper's
// one-shot two-stage design, in the spirit of the active-learning work its
// related-work section cites (Ogilvie et al.).
//
// Instead of spending the whole measurement budget on one random sample,
// the iterative tuner alternates:
//
//   round:  train the model on everything measured so far
//           -> scan predictions
//           -> measure a mixed batch: the most promising configurations
//              (exploitation) plus fresh random ones (exploration)
//
// until the measurement budget is exhausted or the incumbent stops
// improving. All measurements (including earlier rounds' winners) feed the
// next round's model, so the model sharpens exactly where the tuner is
// searching. The exploration share guards against the invalid-region trap
// that breaks the one-shot tuner on stereo/GPU.

#include <cstddef>
#include <memory>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "tuner/evaluator.hpp"
#include "tuner/ledger.hpp"
#include "tuner/model.hpp"
#include "tuner/observer.hpp"
#include "tuner/options.hpp"

namespace pt::tuner {

/// The shared fields (model, static_checker, run) live in TunerOptions;
/// their names are unchanged (`options.model`, `options.run`, ...).
struct IterativeTunerOptions : TunerOptions {
  std::size_t measurement_budget = 2000;  // total configurations measured
  std::size_t initial_samples = 400;      // round-0 random sample
  std::size_t batch_size = 200;           // measurements per later round
  /// Fraction of each later batch drawn at random (exploration).
  double exploration_fraction = 0.25;
  /// Stop early after this many rounds without improving the incumbent
  /// (0 = never stop early).
  std::size_t patience_rounds = 0;
  /// Graceful degradation: when the initial sample yields no valid
  /// measurement (so there is nothing to train on), keep drawing fresh
  /// random batches until one measures valid or the budget/space runs out,
  /// instead of giving up after round 0. Off by default so results are
  /// bit-identical to the pre-degradation tuner unless a caller opts in.
  bool explore_until_valid = false;
  /// The inherited static_checker pre-filters the exploitation scan:
  /// proven-invalid configurations never enter a round's exploit batch, so
  /// their slots go to configurations that can actually measure. Unlike the
  /// one-shot tuner this *changes the measurement trajectory* (different
  /// configurations get measured, feeding different models) — sound but not
  /// bit-identical to a filter-free run. Random exploration stays
  /// unfiltered, preserving the invalid-region labels it supplies.
};

/// The fields every tuner reports (measurement cost, attempts, transient
/// faults, cache deltas, static pre-filter tallies over all exploit scans)
/// live in RunTotals.
struct IterativeTuneResult : RunTotals {
  bool success = false;
  Configuration best_config;
  double best_time_ms = 0.0;

  std::size_t rounds = 0;
  std::size_t measurements = 0;
  std::size_t invalid_measurements = 0;
  /// Extra exploration-only rounds spent hunting for a first valid
  /// measurement (only with options.explore_until_valid).
  std::size_t resample_rounds = 0;
  /// Why invalid measurements were rejected, by status.
  RejectionCounts rejections;
  /// Incumbent best time at the end of each round (convergence trace).
  std::vector<double> incumbent_trace;
  /// Final model, trained on every valid measurement.
  std::optional<AnnPerformanceModel> model;
};

class IterativeTuner {
 public:
  IterativeTuner() : IterativeTuner(IterativeTunerOptions{}) {}
  explicit IterativeTuner(IterativeTunerOptions options);

  [[nodiscard]] const IterativeTunerOptions& options() const noexcept {
    return options_;
  }

  /// Run the rounds against the evaluator as the request describes (see
  /// tuner/options.hpp). This tuner draws its own exploration samples, so a
  /// request that sets TuneRun::sampler throws std::invalid_argument.
  [[nodiscard]] IterativeTuneResult tune(Evaluator& evaluator,
                                         const TuneRun& request = {}) const;

 private:
  IterativeTunerOptions options_;
};

}  // namespace pt::tuner
