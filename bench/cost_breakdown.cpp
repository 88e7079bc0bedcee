// Section 6's cost accounting: "for the convolution benchmark on the Nvidia
// GPU, training the model with 2000 samples takes about 1 minute, gathering
// the data takes about 30 minutes", dominated by kernel compilation and by
// failed attempts on invalid configurations.
//
// This bench reproduces that breakdown: simulated data-gathering wall time
// (compiles + runs + failed attempts) vs real host time spent training the
// ensemble and scanning predictions, plus the scan's exactness margin: the
// coarse-pass error bound in force against the error observed on the rows
// re-ranked in fp64.

#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>

#include "bench_util.hpp"
#include "common/telemetry/telemetry.hpp"
#include "tuner/autotuner.hpp"

int main(int argc, char** argv) {
  using namespace pt;
  const common::CliArgs args(argc, argv);
  common::apply_thread_option(args);
  bench::print_banner("Section 6: data-gathering vs model-training cost "
                      "(convolution @ Nvidia K40)",
                      false);

  const clsim::Platform platform = archsim::default_platform();
  const auto bench_obj = benchkit::make_benchmark("convolution");
  benchkit::BenchmarkEvaluator eval(
      *bench_obj, platform.device_by_name(archsim::kNvidiaK40));

  tuner::AutoTunerOptions opts;
  opts.training_samples =
      static_cast<std::size_t>(args.get("training", 2000L));
  opts.second_stage_size = static_cast<std::size_t>(args.get("m", 100L));
  common::Rng rng(static_cast<std::uint64_t>(args.get("seed", 11L)));

  const tuner::AutoTuner tuner_engine(opts);
  common::telemetry::Collector collector;
  tuner::AutoTuneResult result;
  {
    const common::telemetry::ScopedCollector scope(&collector);
    result = tuner_engine.tune(eval, tuner::TuneRun::with_rng(rng));
  }
  // A gauge from the tune's telemetry, in scientific notation.
  auto gauge = [&collector](const std::string& name) {
    double found = 0.0;
    for (const auto& [key, value] : collector.gauges())
      if (key == name) found = value;
    std::ostringstream out;
    out << std::scientific << std::setprecision(2) << found;
    return out.str();
  };

  common::Table table({"Cost component", "Time"});
  table.add_row({"data gathering (simulated device wall clock)",
                 common::fmt_time_ms(result.data_gathering_cost_ms)});
  table.add_row({"  of which kernel compilation",
                 common::fmt_time_ms(eval.queue().total_build_ms())});
  table.add_row({"  of which kernel execution",
                 common::fmt_time_ms(eval.queue().total_kernel_ms())});
  table.add_row({"model training (host wall clock)",
                 common::fmt_time_ms(result.model_training_host_ms)});
  table.add_row({"prediction scan over the full space (host)",
                 common::fmt_time_ms(result.prediction_scan_host_ms)});
  table.print(std::cout);

  std::cout << "\nprediction scan (" << tuner::scan_inference_name(
                   opts.model.scan.inference)
            << "): coarse-vs-fp64 error observed "
            << gauge("tuner.scan.observed_error") << " against a bound of "
            << gauge("tuner.scan.error_bound") << " (raw output units)\n";
  std::cout << "stage 1: " << result.stage1_measured << " measured, "
            << result.stage1_valid << " valid;  stage 2: "
            << result.stage2_measured << " measured, "
            << result.stage2_invalid << " invalid\n";
  if (result.success) {
    std::cout << "best configuration found: "
              << eval.space().to_string(result.best_config) << " = "
              << common::fmt_time_ms(result.best_time_ms) << "\n";
  }
  const double ratio =
      result.data_gathering_cost_ms /
      std::max(1.0, result.model_training_host_ms);
  std::cout << "gathering/training ratio: " << common::fmt(ratio, 1)
            << "x (paper: ~30x)\n";
  return 0;
}
