#include "clsim/queue.hpp"

#include <algorithm>

#include "common/telemetry/telemetry.hpp"

namespace pt::clsim {

namespace tel = pt::common::telemetry;

CommandQueue::CommandQueue(Device device, Options options)
    : device_(std::move(device)), options_(options) {}

Event CommandQueue::push_event(const std::string& label, double duration_ms,
                               const WaitList& wait_list) {
  double ready_ms = options_.out_of_order ? 0.0 : tail_ms_;
  for (const Event& dep : wait_list)
    ready_ms = std::max(ready_ms, dep.end_ms);

  Event ev;
  ev.label = label;
  ev.id = next_event_id_++;
  ev.queued_ms = tail_ms_;
  ev.start_ms = ready_ms;
  ev.end_ms = ready_ms + duration_ms;
  ev.duration = duration_ms;
  if (!options_.out_of_order) tail_ms_ = ev.end_ms;
  now_ms_ = std::max(now_ms_, ev.end_ms);
  events_.push_back(ev);
  trim_events();
  return ev;
}

void CommandQueue::trim_events() {
  const std::size_t cap = options_.event_retention;
  if (cap == 0 || events_.size() <= cap) return;
  // Aggregate counters already absorbed every event; only the per-event
  // records age out, oldest first.
  events_.erase(events_.begin(),
                events_.begin() +
                    static_cast<std::ptrdiff_t>(events_.size() - cap));
}

Event CommandQueue::enqueue_marker() {
  // Completes when everything enqueued so far has completed.
  Event ev;
  ev.label = "marker";
  ev.id = next_event_id_++;
  ev.queued_ms = tail_ms_;
  ev.start_ms = now_ms_;
  ev.end_ms = now_ms_;
  ev.duration = 0.0;
  events_.push_back(ev);
  trim_events();
  return ev;
}

Event CommandQueue::enqueue_nd_range(const Kernel& kernel,
                                     const NDRange& global,
                                     const NDRange& local,
                                     const WaitList& wait_list) {
  const Status status = kernel.validate_launch(global, local);
  if (status != Status::kSuccess) {
    if (tel::enabled())
      tel::count(std::string("clsim.launch.rejected.") + to_string(status));
    throw ClException(status, "enqueue_nd_range of " + kernel.name() + " " +
                                  to_string(global) + "/" + to_string(local));
  }

  LaunchDescriptor launch;
  launch.profile = &kernel.profile();
  launch.global = global;
  launch.local = local;
  launch.local_mem_bytes = kernel.profile().local_mem_bytes_per_group;
  launch.queue_launch = launches_++;

  const double duration =
      device_.oracle().kernel_time_ms(device_.info(), launch);

  if (options_.mode == ExecMode::kFunctional) {
    if (!kernel.body())
      throw ClException(Status::kInvalidOperation,
                        "functional queue but kernel " + kernel.name() +
                            " has no body");
    const tel::Span exec_span(
        tel::enabled() ? "clsim.exec." + kernel.name() : std::string());
    if (options_.check == CheckMode::kOn) {
      check::LaunchCheckState launch_check(kernel.name(), &check_report_);
      NDRangeExecutor executor(nullptr);
      executor.run(global, local, kernel.profile().local_mem_bytes_per_group,
                   kernel.body(), &launch_check);
    } else {
      NDRangeExecutor executor(options_.pool, options_.executor);
      executor.run(global, local, kernel.profile().local_mem_bytes_per_group,
                   kernel.body(), nullptr, &kernel.profile());
    }
  }

  const Event ev = push_event(kernel.name(), duration, wait_list);
  total_kernel_ms_ += duration;
  if (tel::enabled()) {
    tel::count("clsim.launches");
    tel::count("clsim.sim_kernel_ms", duration);
    // Per-kernel simulated-time attribution.
    tel::count("clsim.sim_kernel_ms." + kernel.name(), duration);
  }
  return ev;
}

Event CommandQueue::enqueue_write(Buffer& dst, const void* src,
                                  std::size_t bytes, std::size_t offset,
                                  const WaitList& wait_list) {
  dst.write(src, bytes, offset);
  const double duration = device_.oracle().transfer_time_ms(
      device_.info(), bytes, TransferDirection::kHostToDevice);
  const Event ev = push_event("write", duration, wait_list);
  total_transfer_ms_ += duration;
  if (tel::enabled()) {
    tel::count("clsim.transfers");
    tel::count("clsim.transfer_ms", duration);
  }
  return ev;
}

Event CommandQueue::enqueue_read(const Buffer& src, void* dst,
                                 std::size_t bytes, std::size_t offset,
                                 const WaitList& wait_list) {
  src.read(dst, bytes, offset);
  const double duration = device_.oracle().transfer_time_ms(
      device_.info(), bytes, TransferDirection::kDeviceToHost);
  const Event ev = push_event("read", duration, wait_list);
  total_transfer_ms_ += duration;
  if (tel::enabled()) {
    tel::count("clsim.transfers");
    tel::count("clsim.transfer_ms", duration);
  }
  return ev;
}

Event CommandQueue::enqueue_copy(const Buffer& src, Buffer& dst,
                                 std::size_t bytes, std::size_t src_offset,
                                 std::size_t dst_offset,
                                 const WaitList& wait_list) {
  if (src_offset + bytes > src.size_bytes() ||
      dst_offset + bytes > dst.size_bytes())
    throw ClException(Status::kInvalidValue,
                      "enqueue_copy: range exceeds a buffer");
  std::vector<unsigned char> staging(bytes);
  src.read(staging.data(), bytes, src_offset);
  dst.write(staging.data(), bytes, dst_offset);
  // On-device copy: bounded by device memory bandwidth (read + write).
  const double duration =
      static_cast<double>(2 * bytes) /
          (device_.info().global_bw_gbps * 1e9) * 1e3 +
      device_.info().launch_overhead_ms;
  const Event ev = push_event("copy", duration, wait_list);
  total_transfer_ms_ += duration;
  if (tel::enabled()) {
    tel::count("clsim.transfers");
    tel::count("clsim.transfer_ms", duration);
  }
  return ev;
}

Event CommandQueue::enqueue_fill(Buffer& dst, const void* pattern,
                                 std::size_t pattern_bytes, std::size_t bytes,
                                 std::size_t offset,
                                 const WaitList& wait_list) {
  if (pattern_bytes == 0 || bytes % pattern_bytes != 0)
    throw ClException(Status::kInvalidValue,
                      "enqueue_fill: size is not a pattern multiple");
  if (offset + bytes > dst.size_bytes())
    throw ClException(Status::kInvalidValue,
                      "enqueue_fill: range exceeds the buffer");
  const auto* src = static_cast<const unsigned char*>(pattern);
  for (std::size_t pos = 0; pos < bytes; pos += pattern_bytes)
    dst.write(src, pattern_bytes, offset + pos);
  const double duration =
      static_cast<double>(bytes) / (device_.info().global_bw_gbps * 1e9) *
          1e3 +
      device_.info().launch_overhead_ms;
  const Event ev = push_event("fill", duration, wait_list);
  total_transfer_ms_ += duration;
  if (tel::enabled()) {
    tel::count("clsim.transfers");
    tel::count("clsim.transfer_ms", duration);
  }
  return ev;
}

Event CommandQueue::record_build(double build_time_ms,
                                 const std::string& label) {
  const Event ev = push_event("build:" + label, build_time_ms, {});
  total_build_ms_ += build_time_ms;
  if (tel::enabled()) {
    tel::count("clsim.builds");
    tel::count("clsim.sim_build_ms", build_time_ms);
  }
  return ev;
}

}  // namespace pt::clsim
