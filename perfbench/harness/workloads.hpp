#pragma once

#include <string>
#include <vector>

#include "common.hpp"
#include "serve/service.hpp"
#include "serve/store.hpp"

namespace perfbench {

/// True for the tune workloads (cold_scan, cold_fit, iterative).
[[nodiscard]] bool is_tune_workload(const std::string& name);

/// Run one workload; returns the process exit code.
int run_tune_workload(const RunOptions& options);
int run_serve_workload(const RunOptions& options);

/// One tuned result to answer from an idle service (see IdleServiceProbe).
struct WarmEntry {
  std::size_t cell = 0;
  pt::serve::TunedConfigStore::Entry entry;
  /// Configurations to request predictions for (outlives the probe).
  const std::vector<pt::tuner::Configuration>* configs = nullptr;
};

/// Warm answers of the tune workloads: an idle TuneService holds the run's
/// tuned results. After each result is added, one client sends rounds of a
/// store-hit tune and a predict over the results so far, one at a time,
/// waiting for each answer. Answers must equal the results (and their
/// models' predictions) bit for bit; misses go to the outcome. Latencies in
/// ms, per cell.
class IdleServiceProbe {
 public:
  explicit IdleServiceProbe(std::size_t cells);

  void add(WarmEntry entry, Outcome& outcome);
  [[nodiscard]] const std::vector<std::vector<double>>& hit_ms() const {
    return hit_ms_;
  }
  [[nodiscard]] const std::vector<std::vector<double>>& predict_ms() const {
    return predict_ms_;
  }

 private:
  std::vector<WarmEntry> entries_;
  std::vector<std::vector<double>> hit_ms_;
  std::vector<std::vector<double>> predict_ms_;
  /// Last member: its workers are joined before the state above goes.
  pt::serve::TuneService service_;
};

/// Every (benchmark, device) cell any workload tunes.
[[nodiscard]] std::vector<Cell> all_cells();

}  // namespace perfbench
