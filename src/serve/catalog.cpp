#include "serve/catalog.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "archsim/devices.hpp"
#include "benchmarks/benchmark.hpp"
#include "benchmarks/registry.hpp"

namespace pt::serve {

namespace {

/// Evaluator that owns the benchmark it measures, so factory products are
/// self-contained (BenchmarkEvaluator itself only borrows its benchmark).
class OwningBenchmarkEvaluator final : public tuner::Evaluator {
 public:
  OwningBenchmarkEvaluator(
      std::unique_ptr<benchkit::TunableBenchmark> benchmark,
      clsim::Device device)
      : benchmark_(std::move(benchmark)),
        eval_(*benchmark_, std::move(device)) {}

  [[nodiscard]] const tuner::ParamSpace& space() const override {
    return eval_.space();
  }
  [[nodiscard]] std::string name() const override { return eval_.name(); }
  [[nodiscard]] tuner::Measurement measure(
      const tuner::Configuration& config) override {
    return eval_.measure(config);
  }
  [[nodiscard]] tuner::Evaluator* inner() noexcept override { return &eval_; }

 private:
  std::unique_ptr<benchkit::TunableBenchmark> benchmark_;
  benchkit::BenchmarkEvaluator eval_;
};

}  // namespace

BenchmarkCatalog::BenchmarkCatalog()
    : BenchmarkCatalog(archsim::default_platform()) {}

BenchmarkCatalog::BenchmarkCatalog(clsim::Platform platform)
    : platform_(std::move(platform)) {}

std::string BenchmarkCatalog::version() const {
  std::string v = "catalog";
  for (const clsim::Device& device : platform_.devices()) {
    v += '|';
    v += device.info().name;
  }
  return v;
}

std::unique_ptr<tuner::Evaluator> BenchmarkCatalog::make_evaluator(
    const TuneKey& key) const {
  const auto names = benchkit::benchmark_names();
  if (std::find(names.begin(), names.end(), key.kernel) == names.end())
    return nullptr;
  const auto device = platform_.find_device(key.device);
  if (!device || device->info().name != key.device) return nullptr;
  std::unique_ptr<benchkit::TunableBenchmark> benchmark;
  if (key.input == "paper")
    benchmark = benchkit::make_benchmark(key.kernel);
  else if (key.input == "small")
    benchmark = benchkit::make_benchmark_small(key.kernel);
  else
    return nullptr;
  return std::make_unique<OwningBenchmarkEvaluator>(std::move(benchmark),
                                                    *device);
}

EvaluatorFactory BenchmarkCatalog::factory() const {
  return [this](const TuneKey& key) { return make_evaluator(key); };
}

}  // namespace pt::serve
