#pragma once

// Benchmark-owned tracing: spans recorded from outside the program, around
// the calls into each layer.
//
//   SpanRecorder   in-memory span store (name, start, end, parent, request
//                  id); written out as JSON when the run ends.
//   SpanObserver   a TunerObserver turning the tuners' stage callbacks into
//                  spans (renamed to layer names) and counting epochs.
//   TimedEvaluator an Evaluator decorator timing every measure() call and
//                  tallying the simulated cost it reports.
//
// A layer's self time is its spans' durations minus the part of each span
// its children cover.

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common.hpp"
#include "tuner/evaluator.hpp"
#include "tuner/observer.hpp"

namespace perfbench {

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = -1;
  std::int64_t parent = -1;   // index of the parent span, -1 for roots
  std::int64_t request = -1;  // tune index or request slot
};

class SpanRecorder {
 public:
  explicit SpanRecorder(Clock::time_point origin) : origin_(origin) {}

  /// Open a span now; returns its id.
  std::int64_t open(std::string name, std::int64_t parent,
                    std::int64_t request);
  void close(std::int64_t id);
  /// Record a finished span with explicit times.
  std::int64_t add(std::string name, Clock::time_point start,
                   Clock::time_point end, std::int64_t parent,
                   std::int64_t request);

  [[nodiscard]] std::vector<Span> spans() const;
  /// Self time per span name, in ms.
  [[nodiscard]] std::map<std::string, double> self_ms() const;
  /// Write all spans as JSON; false on I/O failure.
  bool write(const std::string& path) const;

 private:
  [[nodiscard]] std::int64_t ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  }
  Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Maps tuner stage names onto layer span names ("autotuner.stage2.scan"
/// and "iterative.exploit" -> "tuner.scan", "*.model.fit" -> "ml.fit", ...).
[[nodiscard]] std::string layer_of_stage(std::string_view stage);

class SpanObserver final : public pt::tuner::TunerObserver {
 public:
  SpanObserver(SpanRecorder& recorder, std::int64_t request)
      : recorder_(recorder), request_(request) {}

  void on_stage_begin(std::string_view tuner, std::string_view stage) override;
  void on_stage_end(std::string_view tuner, std::string_view stage) override;
  void on_epoch(std::size_t member, std::size_t epoch, double train_loss,
                double monitored_loss) override;

  /// Innermost open stage span (parent for measure spans), -1 if none.
  [[nodiscard]] std::int64_t current() const noexcept {
    return current_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t epochs() const noexcept { return epochs_; }
  [[nodiscard]] std::int64_t request() const noexcept { return request_; }

 private:
  SpanRecorder& recorder_;
  std::int64_t request_;
  std::vector<std::int64_t> stack_;
  std::atomic<std::int64_t> current_{-1};
  std::size_t epochs_ = 0;
};

/// Per-call accounting of the benchmark layer (host time and simulated cost).
struct MeasureTally {
  std::uint64_t calls = 0;
  std::uint64_t valid = 0;
  double host_ms = 0.0;
  double cost_ms = 0.0;        // all simulated cost
  double kernel_ms = 0.0;      // simulated time of valid kernel runs
};

class TimedEvaluator final : public pt::tuner::Evaluator {
 public:
  TimedEvaluator(pt::tuner::Evaluator& inner, SpanRecorder& recorder,
                 const SpanObserver& observer)
      : inner_(inner), recorder_(recorder), observer_(observer) {}

  [[nodiscard]] const pt::tuner::ParamSpace& space() const override {
    return inner_.space();
  }
  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] pt::tuner::Measurement measure(
      const pt::tuner::Configuration& config) override;
  [[nodiscard]] pt::tuner::Evaluator* inner() noexcept override {
    return &inner_;
  }
  [[nodiscard]] MeasureTally tally() const;

 private:
  pt::tuner::Evaluator& inner_;
  SpanRecorder& recorder_;
  const SpanObserver& observer_;
  mutable std::mutex mutex_;
  MeasureTally tally_;
};

}  // namespace perfbench
