#pragma once

// RunLedger — the bookkeeping every tuning run shares, recorded in one
// place for both tuners (AutoTuner, IterativeTuner):
//
//   - per measurement: simulated cost, evaluator attempts, transient
//     faults, the rejection note of an invalid result and the observer's
//     on_measurement / on_sample callbacks (the ledger adds no allocation
//     and no std::function per measurement);
//   - per run: CachingEvaluator hit/miss deltas, clstat pre-filter verdict
//     tallies, their log lines and the shared metrics (tuner.measure.*,
//     tuner.rejections.<CL_STATUS>, tuner.cache.hit_rate,
//     tuner.scan.static_*, tuner.data_gathering_cost_ms).
//
// Tuner-specific bookkeeping (stage counts, rounds, the incumbent) stays in
// the tuner. replay_epochs is the one on_epoch replay, also used by
// InputAwarePerformanceModel::fit.

#include <cstddef>
#include <initializer_list>
#include <string_view>

#include "clsim/analyze/checker.hpp"
#include "ml/ensemble.hpp"
#include "tuner/evaluator.hpp"
#include "tuner/observer.hpp"
#include "tuner/scan.hpp"

namespace pt::tuner {

/// Result fields every tuner reports (base of AutoTuneResult and
/// IterativeTuneResult), written by RunLedger.
struct RunTotals {
  /// Raw evaluator attempts behind all measurements — equals the
  /// measurement count unless a robustness decorator (tuner/robust.hpp)
  /// repeated or retried measurements downstream.
  std::size_t measure_attempts = 0;
  /// Transient failures absorbed by downstream retry decorators.
  std::size_t transient_faults = 0;
  /// Simulated wall cost of all measurements (compile + run + failures).
  double data_gathering_cost_ms = 0.0;
  /// Cache hit/miss deltas over this run, when a CachingEvaluator is found
  /// anywhere in the evaluator stack (see find_layer); 0/0 otherwise.
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
  /// clstat static pre-filter tallies (all zero unless the tuner's
  /// options.static_checker was set). Queries happen lazily at scan heap
  /// entry, so static_checked is a lower bound on the provable
  /// configurations in the space; the verdict mix always sums to
  /// static_checked.
  std::size_t static_checked = 0;
  std::size_t static_pruned = 0;        // kProvedInvalid, skipped
  std::size_t static_proved_valid = 0;  // kProvedValid, kept
  std::size_t static_unknown = 0;       // kUnknown, kept
};

class RunLedger {
 public:
  /// `tuner` names the caller in log lines ("autotuner", "iterative");
  /// `checker` is the run's static pre-filter (nullptr = none). The ledger
  /// snapshots the evaluator stack's cache counters now and writes into
  /// `totals` until finish().
  RunLedger(std::string_view tuner, Evaluator& evaluator,
            const TunerRunContext& run,
            const clsim::analyze::StaticChecker* checker, RunTotals& totals);

  RunLedger(const RunLedger&) = delete;
  RunLedger& operator=(const RunLedger&) = delete;

  /// A model-selected candidate is about to be measured (on_candidate).
  void candidate(const ScanCandidate& candidate) const {
    if (run_.observer != nullptr)
      run_.observer->on_candidate(candidate.index, candidate.predicted_ms);
  }

  /// Measure `config`: charge its cost, attempts and transient faults,
  /// notify on_measurement — then on_sample when the measurement feeds the
  /// model's training set — and note an invalid result in `rejections`.
  Measurement measure(std::string_view stage, const Configuration& config,
                      RejectionCounts& rejections, bool training_sample);

  /// `next` behind the clstat static pre-filter, its verdicts tallied into
  /// this ledger, when the run has a checker; `next` unchanged otherwise.
  /// The filter must not outlive the ledger.
  [[nodiscard]] ScanFilter scan_filter(const ParamSpace& space,
                                       ScanFilter next);

  /// Close the run: cache deltas and static tallies into the totals, their
  /// log lines, and the shared metrics, with rejections summed over
  /// `rejections`.
  void finish(std::initializer_list<const RejectionCounts*> rejections);

 private:
  std::string_view tuner_;
  Evaluator& evaluator_;
  const TunerRunContext& run_;
  const clsim::analyze::StaticChecker* checker_;
  RunTotals& totals_;
  CachingEvaluator* cache_;
  std::size_t cache_hits_before_ = 0;
  std::size_t cache_misses_before_ = 0;
  StaticPruneCounters static_counters_;
};

/// Deliver a fitted ensemble's per-member training curves as on_epoch in
/// (member, epoch) order — members train concurrently, the replayed
/// sequence is deterministic.
void replay_epochs(const TunerRunContext& run,
                   const ml::BaggingEnsemble& ensemble);

}  // namespace pt::tuner
