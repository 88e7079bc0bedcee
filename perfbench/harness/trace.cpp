#include "trace.hpp"

#include <algorithm>
#include <fstream>
#include <utility>

namespace perfbench {

std::int64_t SpanRecorder::open(std::string name, std::int64_t parent,
                                std::int64_t request) {
  const std::int64_t start = ns(Clock::now());
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{std::move(name), start, -1, parent, request});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void SpanRecorder::close(std::int64_t id) {
  const std::int64_t end = ns(Clock::now());
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.at(static_cast<std::size_t>(id)).end_ns = end;
}

std::int64_t SpanRecorder::add(std::string name, Clock::time_point start,
                               Clock::time_point end, std::int64_t parent,
                               std::int64_t request) {
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{std::move(name), ns(start), ns(end), parent, request});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

std::vector<Span> SpanRecorder::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::map<std::string, double> SpanRecorder::self_ms() const {
  const std::vector<Span> all = spans();
  // Children's intervals per parent, clipped to the parent and merged, so
  // concurrent children are not subtracted twice.
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      all.size());
  for (const Span& s : all) {
    if (s.parent < 0 || s.end_ns < 0) continue;
    children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                              s.end_ns);
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    if (s.end_ns < 0) continue;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t cursor = s.start_ns;
    for (const auto& [a, b] : kids) {
      const std::int64_t lo = std::max(a, cursor);
      const std::int64_t hi = std::min(b, s.end_ns);
      if (hi > lo) {
        covered += hi - lo;
        cursor = hi;
      }
    }
    self[s.name] += static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-6;
  }
  return self;
}

bool SpanRecorder::write(const std::string& path) const {
  const std::vector<Span> all = spans();
  std::ofstream out(path);
  out << "{\"time_unit\": \"ns\", \"spans\": [\n";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    out << "  {\"id\": " << i << ", \"name\": " << json_string(s.name)
        << ", \"start\": " << s.start_ns << ", \"end\": " << s.end_ns
        << ", \"parent\": " << s.parent << ", \"request\": " << s.request
        << "}" << (i + 1 < all.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

std::string layer_of_stage(std::string_view stage) {
  const std::size_t dot = stage.find('.');
  const std::string_view rest =
      dot == std::string_view::npos ? stage : stage.substr(dot + 1);
  if (rest == "tune") return "tuner.tune";
  if (rest == "model.fit") return "ml.fit";
  if (rest == "stage2.scan" || rest == "exploit") return "tuner.scan";
  if (rest == "stage1.measure") return "tuner.stage1";
  if (rest == "stage2.measure" || rest == "stage2.stream") return "tuner.stage2";
  if (rest == "round0" || rest == "resample" || rest == "explore")
    return "tuner.explore";
  return "tuner." + std::string(rest);
}

void SpanObserver::on_stage_begin(std::string_view /*tuner*/,
                                  std::string_view stage) {
  const std::int64_t parent = stack_.empty() ? -1 : stack_.back();
  stack_.push_back(recorder_.open(layer_of_stage(stage), parent, request_));
  current_.store(stack_.back(), std::memory_order_relaxed);
}

void SpanObserver::on_stage_end(std::string_view /*tuner*/,
                                std::string_view /*stage*/) {
  if (stack_.empty()) return;
  recorder_.close(stack_.back());
  stack_.pop_back();
  current_.store(stack_.empty() ? -1 : stack_.back(),
                 std::memory_order_relaxed);
}

void SpanObserver::on_epoch(std::size_t /*member*/, std::size_t /*epoch*/,
                            double /*train_loss*/, double /*monitored_loss*/) {
  ++epochs_;
}

pt::tuner::Measurement TimedEvaluator::measure(
    const pt::tuner::Configuration& config) {
  const Clock::time_point start = Clock::now();
  pt::tuner::Measurement m = inner_.measure(config);
  const Clock::time_point end = Clock::now();
  recorder_.add("benchmarks.measure", start, end, observer_.current(),
                observer_.request());
  const std::lock_guard<std::mutex> lock(mutex_);
  ++tally_.calls;
  tally_.host_ms += ms_between(start, end);
  tally_.cost_ms += m.cost_ms;
  if (m.valid) {
    ++tally_.valid;
    tally_.kernel_ms += m.time_ms;
  }
  return m;
}

MeasureTally TimedEvaluator::tally() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return tally_;
}

}  // namespace perfbench
