#include "tuner/ledger.hpp"

#include <string>
#include <utility>

#include "common/log.hpp"
#include "common/telemetry/telemetry.hpp"

namespace pt::tuner {

namespace tel = common::telemetry;

namespace {

double share(std::size_t part, std::size_t whole) {
  return static_cast<double>(part) / static_cast<double>(whole);
}

/// 100 * part / whole, 0 for an empty whole (the log lines' percentages).
double percent(std::size_t part, std::size_t whole) {
  return whole != 0 ? 100.0 * static_cast<double>(part) /
                          static_cast<double>(whole)
                    : 0.0;
}

}  // namespace

RunLedger::RunLedger(std::string_view tuner, Evaluator& evaluator,
                     const TunerRunContext& run,
                     const clsim::analyze::StaticChecker* checker,
                     RunTotals& totals)
    : tuner_(tuner),
      evaluator_(evaluator),
      run_(run),
      checker_(checker),
      totals_(totals),
      cache_(find_layer<CachingEvaluator>(&evaluator)) {
  if (cache_ != nullptr) {
    cache_hits_before_ = cache_->hits();
    cache_misses_before_ = cache_->misses();
  }
}

Measurement RunLedger::measure(std::string_view stage,
                               const Configuration& config,
                               RejectionCounts& rejections,
                               bool training_sample) {
  const Measurement m = evaluator_.measure(config);
  totals_.data_gathering_cost_ms += m.cost_ms;
  totals_.measure_attempts += m.attempts;
  totals_.transient_faults += m.transient_faults;
  if (run_.observer != nullptr) {
    run_.observer->on_measurement(stage, config, m);
    if (training_sample) run_.observer->on_sample(stage, config, m);
  }
  if (!m.valid) rejections.note(m.status);
  return m;
}

ScanFilter RunLedger::scan_filter(const ParamSpace& space, ScanFilter next) {
  if (checker_ == nullptr) return next;
  return make_static_scan_filter(space, *checker_, static_counters_,
                                 std::move(next));
}

void RunLedger::finish(
    std::initializer_list<const RejectionCounts*> rejections) {
  if (cache_ != nullptr) {
    totals_.cache_hits = cache_->hits() - cache_hits_before_;
    totals_.cache_misses = cache_->misses() - cache_misses_before_;
    const std::size_t lookups = totals_.cache_hits + totals_.cache_misses;
    common::log_info(tuner_, "[", evaluator_.name(), "]: cache ",
                     totals_.cache_hits, " hits / ", totals_.cache_misses,
                     " misses (hit rate ",
                     percent(totals_.cache_hits, lookups), "%)");
    if (tel::enabled() && lookups != 0)
      tel::gauge("tuner.cache.hit_rate", share(totals_.cache_hits, lookups));
  }
  if (checker_ != nullptr) {
    totals_.static_checked =
        static_cast<std::size_t>(static_counters_.checked.load());
    totals_.static_pruned =
        static_cast<std::size_t>(static_counters_.pruned.load());
    totals_.static_proved_valid =
        static_cast<std::size_t>(static_counters_.proved_valid.load());
    totals_.static_unknown =
        static_cast<std::size_t>(static_counters_.unknown.load());
    common::log_info(
        tuner_, "[", evaluator_.name(), "]: static filter pruned ",
        totals_.static_pruned, " of ", totals_.static_checked,
        " checked (pruned fraction ",
        percent(totals_.static_pruned, totals_.static_checked),
        "%; verdicts: ", totals_.static_proved_valid, " proved valid, ",
        totals_.static_pruned, " proved invalid, ", totals_.static_unknown,
        " unknown)");
    if (tel::enabled()) {
      tel::count("tuner.scan.static_checked",
                 static_cast<double>(totals_.static_checked));
      tel::count("tuner.scan.static_pruned",
                 static_cast<double>(totals_.static_pruned));
      tel::count("tuner.scan.static_proved_valid",
                 static_cast<double>(totals_.static_proved_valid));
      tel::count("tuner.scan.static_unknown",
                 static_cast<double>(totals_.static_unknown));
      if (totals_.static_checked != 0)
        tel::gauge("tuner.scan.static_pruned_fraction",
                   share(totals_.static_pruned, totals_.static_checked));
    }
  }
  if (!tel::enabled()) return;
  tel::count("tuner.measure.attempts",
             static_cast<double>(totals_.measure_attempts));
  tel::count("tuner.measure.transient_faults",
             static_cast<double>(totals_.transient_faults));
  tel::gauge("tuner.data_gathering_cost_ms", totals_.data_gathering_cost_ms);
  for (const RejectionCounts* counts : rejections)
    for (const auto& [status, n] : counts->sorted())
      tel::count(std::string("tuner.rejections.") + clsim::to_string(status),
                 static_cast<double>(n));
}

void replay_epochs(const TunerRunContext& run,
                   const ml::BaggingEnsemble& ensemble) {
  if (run.observer == nullptr) return;
  const auto& curves = ensemble.train_results();
  for (std::size_t member = 0; member < curves.size(); ++member) {
    const ml::TrainResult& tr = curves[member];
    for (std::size_t epoch = 0; epoch < tr.train_loss.size(); ++epoch)
      run.observer->on_epoch(member, epoch, tr.train_loss[epoch],
                             tr.monitored_loss[epoch]);
  }
}

}  // namespace pt::tuner
