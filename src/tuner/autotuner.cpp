#include "tuner/autotuner.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <unordered_set>

#include "common/log.hpp"
#include "common/telemetry/telemetry.hpp"

namespace pt::tuner {

namespace tel = common::telemetry;

namespace {

double host_ms_since(
    const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

AutoTuner::AutoTuner(AutoTunerOptions options) : options_(std::move(options)) {
  if (options_.training_samples == 0)
    throw std::invalid_argument("AutoTuner: zero training samples");
  if (options_.second_stage_size == 0)
    throw std::invalid_argument("AutoTuner: zero second-stage size");
}

AutoTuneResult AutoTuner::tune(Evaluator& evaluator,
                               const TuneRun& request) const {
  const TunerRunContext& run = request.effective_context(options_.run);
  common::Rng own_rng = run.make_rng();
  common::Rng& rng = request.rng != nullptr ? *request.rng : own_rng;
  const RandomSampler default_sampler;
  const Sampler& sampler =
      request.sampler != nullptr ? *request.sampler : default_sampler;

  const ScopedRunContext scoped(run);
  StageScope whole(run, "autotuner", "autotuner.tune");

  AutoTuneResult result;
  const ParamSpace& space = evaluator.space();
  RunLedger ledger("autotuner", evaluator, run, options_.static_checker.get(),
                   result);

  auto finalize = [&] {
    if (tel::enabled()) {
      tel::count("tuner.stage1.measured",
                 static_cast<double>(result.stage1_measured));
      tel::count("tuner.stage1.valid",
                 static_cast<double>(result.stage1_valid));
      tel::count("tuner.stage2.measured",
                 static_cast<double>(result.stage2_measured));
      tel::count("tuner.stage2.invalid",
                 static_cast<double>(result.stage2_invalid));
      tel::count("tuner.stage2.streamed",
                 static_cast<double>(result.stage2_streamed));
      tel::count("tuner.stage2.filtered",
                 static_cast<double>(result.stage2_filtered));
      tel::gauge("tuner.model_training_host_ms",
                 result.model_training_host_ms);
      tel::gauge("tuner.prediction_scan_host_ms",
                 result.prediction_scan_host_ms);
    }
    ledger.finish({&result.stage1_rejections, &result.stage2_rejections});
  };

  // --- Stage 1: sample, measure, train. ---
  {
    StageScope stage(run, "autotuner", "autotuner.stage1.measure");
    const auto samples =
        sampler.sample(space, options_.training_samples, rng);
    result.stage1_measured = samples.size();
    for (const auto& config : samples) {
      const Measurement m =
          ledger.measure("stage1", config, result.stage1_rejections,
                         /*training_sample=*/true);
      if (m.valid)
        result.training_data.push_back({config, m.time_ms});
      else
        result.invalid_training_configs.push_back(config);
    }
  }
  result.stage1_valid = result.training_data.size();
  common::log_info("autotuner[", evaluator.name(), "]: stage 1 measured ",
                   result.stage1_measured, " configs, ", result.stage1_valid,
                   " valid");
  if (!result.stage1_rejections.empty())
    common::log_info("autotuner[", evaluator.name(),
                     "]: stage 1 rejections: ",
                     result.stage1_rejections.to_string());
  if (result.training_data.empty()) {
    common::log_warn("autotuner[", evaluator.name(),
                     "]: no valid training data (",
                     result.stage1_rejections.to_string(),
                     "); giving no prediction");
    finalize();
    return result;  // success == false
  }

  {
    StageScope stage(run, "autotuner", "autotuner.model.fit");
    const auto start = std::chrono::steady_clock::now();
    AnnPerformanceModel model(options_.model);
    model.fit(space, result.training_data, rng);
    result.model_training_host_ms = host_ms_since(start);
    result.model = std::move(model);
  }
  replay_epochs(run, result.model->ensemble());

  // Optional validity classifier (future-work extension): learn from the
  // free valid/invalid labels of stage 1.
  if (options_.validity_filter) {
    StageScope stage(run, "autotuner", "autotuner.validity.fit");
    std::vector<Configuration> valid_configs;
    valid_configs.reserve(result.training_data.size());
    for (const auto& sample : result.training_data)
      valid_configs.push_back(sample.config);
    ValidityModel classifier(options_.validity);
    if (options_.static_checker != nullptr &&
        options_.validity_oracle_samples != 0) {
      // Free ground truth: augment the measured labels with analyzer-certain
      // samples before fitting (kUnknown draws are dropped).
      classifier.fit_with_oracle(space, std::move(valid_configs),
                                 result.invalid_training_configs,
                                 *options_.static_checker,
                                 options_.validity_oracle_samples, rng);
    } else {
      classifier.fit(space, valid_configs, result.invalid_training_configs,
                     rng);
    }
    if (classifier.fitted()) result.validity_model = std::move(classifier);
  }

  // --- Stage 2: scan predictions, measure the M most promising. ---
  // The scan streams: a bounded top-M heap per worker instead of a
  // full-space prediction vector, with the validity filter (if any) applied
  // lazily to heap-entering candidates only.
  const auto scan_start = std::chrono::steady_clock::now();
  std::uint64_t scan_end = space.size();
  if (options_.prediction_scan_limit != 0)
    scan_end = std::min<std::uint64_t>(scan_end,
                                       options_.prediction_scan_limit);
  std::vector<ScanCandidate> candidates;
  {
    StageScope stage(run, "autotuner", "autotuner.stage2.scan");
    ScanFilter filter;
    if (result.validity_model) {
      const ValidityModel& validity = *result.validity_model;
      filter = [&space, &validity](std::uint64_t index) {
        return validity.predict_valid(space.decode(index));
      };
    }
    filter = ledger.scan_filter(space, std::move(filter));
    const TopMScanResult scan = result.model->predict_scan_top_m(
        0, scan_end, options_.second_stage_size, filter);
    candidates = scan.top;
    if (result.validity_model) {
      result.stage2_filtered = static_cast<std::size_t>(scan.rejected);
      // If the filter was too aggressive, top up with the best remaining
      // configurations of an unfiltered ranking (neither the validity nor
      // the static filter), scanned only when it is needed.
      const std::size_t m = options_.second_stage_size;
      if (candidates.size() < m) {
        const TopMScanResult unfiltered =
            result.model->predict_scan_top_m(0, scan_end, m);
        for (const auto& c : unfiltered.top) {
          if (candidates.size() >= m) break;
          if (std::find_if(candidates.begin(), candidates.end(),
                           [&c](const ScanCandidate& have) {
                             return have.index == c.index;
                           }) == candidates.end())
            candidates.push_back(c);
        }
      }
    }
  }
  result.prediction_scan_host_ms = host_ms_since(scan_start);

  double best_time = 0.0;
  bool found = false;
  Configuration best_config;
  auto try_candidate = [&](const ScanCandidate& candidate) {
    ledger.candidate(candidate);
    const Configuration config = space.decode(candidate.index);
    const Measurement m =
        ledger.measure("stage2", config, result.stage2_rejections,
                       /*training_sample=*/false);
    ++result.stage2_measured;
    if (!m.valid) {
      ++result.stage2_invalid;
      return;
    }
    if (!found || m.time_ms < best_time) {
      found = true;
      best_time = m.time_ms;
      best_config = config;
    }
  };
  {
    StageScope stage(run, "autotuner", "autotuner.stage2.measure");
    for (const ScanCandidate& candidate : candidates) try_candidate(candidate);
  }

  const std::size_t stream_limit = options_.stage2_stream_limit;
  if (!found && stream_limit > result.stage2_measured) {
    // Graceful degradation: every primary candidate failed, so instead of
    // giving no prediction, walk further down the predicted ranking
    // (unfiltered — in this situation the validity filter is as suspect as
    // the candidates it passed) until something measures valid, the limit
    // is reached, or the scanned range is exhausted.
    StageScope stage(run, "autotuner", "autotuner.stage2.stream");
    common::log_warn("autotuner[", evaluator.name(), "]: all ",
                     result.stage2_measured,
                     " primary second-stage configurations invalid (",
                     result.stage2_rejections.to_string(),
                     "); streaming further candidates");
    std::unordered_set<std::uint64_t> tried;
    for (const ScanCandidate& candidate : candidates)
      tried.insert(candidate.index);
    std::uint64_t depth = candidates.size();
    while (!found && result.stage2_measured < stream_limit &&
           tried.size() < scan_end) {
      depth = std::min<std::uint64_t>(
          scan_end, std::max<std::uint64_t>(depth * 2, 16));
      const TopMScanResult more = result.model->predict_scan_top_m(
          0, scan_end, static_cast<std::size_t>(depth));
      for (const auto& c : more.top) {
        if (found || result.stage2_measured >= stream_limit)
          break;
        if (!tried.insert(c.index).second) continue;
        ++result.stage2_streamed;
        try_candidate(c);
      }
      if (depth >= scan_end) break;  // ranking fully consumed
    }
    if (found)
      common::log_info("autotuner[", evaluator.name(),
                       "]: degradation stream recovered a prediction after ",
                       result.stage2_streamed, " extra candidates");
  }

  if (!found) {
    common::log_warn("autotuner[", evaluator.name(),
                     "]: all ", result.stage2_measured,
                     " second-stage configurations invalid (",
                     result.stage2_rejections.to_string(),
                     "); no prediction");
    finalize();
    return result;  // success == false, model retained for inspection
  }
  result.success = true;
  result.best_config = std::move(best_config);
  result.best_time_ms = best_time;
  common::log_info("autotuner[", evaluator.name(), "]: best ",
                   space.to_string(result.best_config), " = ",
                   result.best_time_ms, " ms");
  finalize();
  return result;
}

}  // namespace pt::tuner
