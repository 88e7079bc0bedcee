#pragma once

// In-order command queue with profiling, over a simulated timeline.
//
// enqueue_nd_range validates the launch exactly like clEnqueueNDRangeKernel
// (invalid tuning configurations throw ClException here), asks the device's
// timing oracle for the duration, advances the queue's simulated clock, and
// — when the queue is functional — also executes the kernel body on the host
// so results can be checked.

#include <cstddef>
#include <string>
#include <vector>

#include "clsim/device.hpp"
#include "clsim/executor.hpp"
#include "clsim/kernel.hpp"
#include "clsim/memory.hpp"

namespace pt::clsim {

/// Whether enqueued kernels actually run on the host (functional check) or
/// only advance the simulated clock (fast path for tuning sweeps).
enum class ExecMode { kTimingOnly, kFunctional };

/// Profiling record of one command, on the queue's simulated timeline (ms).
struct Event {
  std::string label;
  std::uint64_t id = 0;  // per-queue sequence number
  double queued_ms = 0.0;
  double start_ms = 0.0;
  double end_ms = 0.0;
  /// Stored explicitly (not end-start) so a command's duration does not
  /// depend on where on the timeline it happened to land.
  double duration = 0.0;

  [[nodiscard]] double duration_ms() const noexcept { return duration; }
};

/// Events a command must wait for before it may start (cl_event wait list).
using WaitList = std::vector<Event>;

class CommandQueue {
 public:
  struct Options {
    ExecMode mode = ExecMode::kFunctional;
    /// Thread pool for functional execution (nullptr = sequential).
    common::ThreadPool* pool = nullptr;
    /// In-order (default): each command starts when its predecessor ends.
    /// Out-of-order: a command starts as soon as its wait list is satisfied
    /// (CL_QUEUE_OUT_OF_ORDER_EXEC_MODE_ENABLE) — models parallel streams.
    bool out_of_order = false;
    /// clcheck sanitizer mode. kOn instruments functional launches (bounds,
    /// races, barrier/allocation lints) and accumulates findings in
    /// check_report(); kOff (default) is bit-identical to pre-clcheck runs.
    CheckMode check = CheckMode::kOff;
    /// Keep at most this many Event records in events(). 0 (default) keeps
    /// every event, the historic behavior. Long-lived queues — tuner
    /// evaluators enqueue tens of thousands of launches per sweep — set a
    /// bound so memory stays flat; the aggregate counters (now_ms,
    /// total_kernel_ms, total_transfer_ms, total_build_ms) are unaffected
    /// by trimming, only the oldest per-event records are dropped.
    std::size_t event_retention = 0;
    /// Executor tuning knobs for functional launches (fast-path toggle).
    NDRangeExecutor::Options executor = {};
  };

  explicit CommandQueue(Device device) : CommandQueue(std::move(device), Options{}) {}
  CommandQueue(Device device, Options options);

  [[nodiscard]] const Device& device() const noexcept { return device_; }
  [[nodiscard]] ExecMode mode() const noexcept { return options_.mode; }

  /// Launch a kernel. Throws ClException for invalid configurations (the
  /// status identifies why) and propagates kernel-body exceptions.
  Event enqueue_nd_range(const Kernel& kernel, const NDRange& global,
                         const NDRange& local,
                         const WaitList& wait_list = {});

  /// Host -> device transfer into a buffer.
  Event enqueue_write(Buffer& dst, const void* src, std::size_t bytes,
                      std::size_t offset = 0,
                      const WaitList& wait_list = {});

  /// Device -> host transfer out of a buffer.
  Event enqueue_read(const Buffer& src, void* dst, std::size_t bytes,
                     std::size_t offset = 0,
                     const WaitList& wait_list = {});

  /// Device-side buffer-to-buffer copy (clEnqueueCopyBuffer analogue).
  Event enqueue_copy(const Buffer& src, Buffer& dst, std::size_t bytes,
                     std::size_t src_offset = 0, std::size_t dst_offset = 0,
                     const WaitList& wait_list = {});

  /// Fill a buffer range with a repeating pattern (clEnqueueFillBuffer).
  Event enqueue_fill(Buffer& dst, const void* pattern,
                     std::size_t pattern_bytes, std::size_t bytes,
                     std::size_t offset = 0, const WaitList& wait_list = {});

  /// A marker event covering everything enqueued so far (clEnqueueMarker).
  Event enqueue_marker();

  /// Charge simulated build time to the timeline (helper so data-gathering
  /// cost accounting includes compilation, as in the paper's section 6).
  Event record_build(double build_time_ms, const std::string& label);

  /// Block until all enqueued work completes. The simulation is synchronous,
  /// so this only exists for API fidelity.
  void finish() noexcept {}

  /// Current simulated time: the end of the latest-finishing command.
  [[nodiscard]] double now_ms() const noexcept { return now_ms_; }

  /// Sum of kernel-execution durations so far.
  [[nodiscard]] double total_kernel_ms() const noexcept {
    return total_kernel_ms_;
  }
  /// Sum of transfer durations so far.
  [[nodiscard]] double total_transfer_ms() const noexcept {
    return total_transfer_ms_;
  }
  /// Sum of build durations recorded so far.
  [[nodiscard]] double total_build_ms() const noexcept {
    return total_build_ms_;
  }

  [[nodiscard]] const std::vector<Event>& events() const noexcept {
    return events_;
  }

  /// Findings accumulated by checked launches (empty unless Options::check
  /// is CheckMode::kOn).
  [[nodiscard]] const CheckReport& check_report() const noexcept {
    return check_report_;
  }
  void clear_check_report() noexcept { check_report_.clear(); }

 private:
  Event push_event(const std::string& label, double duration_ms,
                   const WaitList& wait_list);
  /// Drop the oldest events when Options::event_retention is exceeded.
  void trim_events();

  Device device_;
  Options options_;
  double now_ms_ = 0.0;   // latest completion time
  double tail_ms_ = 0.0;  // in-order chain position
  std::uint64_t next_event_id_ = 0;
  std::uint64_t launches_ = 0;  // accepted kernel launches (noise key)
  double total_kernel_ms_ = 0.0;
  double total_transfer_ms_ = 0.0;
  double total_build_ms_ = 0.0;
  std::vector<Event> events_;
  CheckReport check_report_;
};

}  // namespace pt::clsim
