#include "clsim/queue.hpp"

#include <gtest/gtest.h>

#include "test_helpers.hpp"

namespace pt::clsim {
namespace {

using testing::make_test_device;

Kernel counting_kernel(const Device& dev, Buffer out) {
  CompiledKernel ck;
  ck.name = "count";
  ck.body = [out](WorkItemCtx& ctx) -> WorkItemTask {
    out.as<int>()[ctx.global_id(0)] += 1;
    co_return;
  };
  return Kernel(dev, std::move(ck));
}

TEST(Queue, FunctionalModeExecutesBody) {
  const Device dev = make_test_device();
  Buffer out(8 * sizeof(int));
  CommandQueue q(dev);
  const Kernel k = counting_kernel(dev, out);
  q.enqueue_nd_range(k, NDRange(8), NDRange(4));
  for (int v : out.as<const int>()) EXPECT_EQ(v, 1);
}

TEST(Queue, TimingOnlyModeSkipsBody) {
  const Device dev = make_test_device();
  Buffer out(8 * sizeof(int));
  CommandQueue q(dev, {ExecMode::kTimingOnly, nullptr});
  const Kernel k = counting_kernel(dev, out);
  const Event ev = q.enqueue_nd_range(k, NDRange(8), NDRange(4));
  EXPECT_DOUBLE_EQ(ev.duration_ms(), 1.0);  // stub oracle
  for (int v : out.as<const int>()) EXPECT_EQ(v, 0);
}

TEST(Queue, TimelineAdvancesInOrder) {
  const Device dev = make_test_device();
  Buffer out(4 * sizeof(int));
  CommandQueue q(dev, {ExecMode::kTimingOnly, nullptr});
  const Kernel k = counting_kernel(dev, out);
  const Event e1 = q.enqueue_nd_range(k, NDRange(4), NDRange(2));
  const Event e2 = q.enqueue_nd_range(k, NDRange(4), NDRange(2));
  EXPECT_DOUBLE_EQ(e1.start_ms, 0.0);
  EXPECT_DOUBLE_EQ(e1.end_ms, 1.0);
  EXPECT_DOUBLE_EQ(e2.start_ms, 1.0);
  EXPECT_DOUBLE_EQ(e2.end_ms, 2.0);
  EXPECT_DOUBLE_EQ(q.now_ms(), 2.0);
  EXPECT_DOUBLE_EQ(q.total_kernel_ms(), 2.0);
  EXPECT_EQ(q.events().size(), 2u);
}

/// Oracle whose kernel time is the launch's noise key, so tests can read
/// which key the queue passed.
class LaunchKeyOracle final : public TimingOracle {
 public:
  double kernel_time_ms(const DeviceInfo&,
                        const LaunchDescriptor& launch) const override {
    return 1.0 + static_cast<double>(launch.queue_launch);
  }
  double transfer_time_ms(const DeviceInfo&, std::size_t,
                          TransferDirection) const override {
    return 0.0;
  }
  double compile_time_ms(const DeviceInfo&,
                         const KernelProfile&) const override {
    return 0.0;
  }
};

TEST(Queue, LaunchKeyCountsOnlyThisQueuesLaunches) {
  DeviceInfo info;
  info.name = "keyed";
  info.max_work_group_size = 16;
  const Device dev(info, std::make_shared<LaunchKeyOracle>());
  Buffer out(64 * sizeof(int));
  const Kernel k = counting_kernel(dev, out);
  CommandQueue a(dev, {ExecMode::kTimingOnly, nullptr});
  CommandQueue b(dev, {ExecMode::kTimingOnly, nullptr});
  const double a0 = a.enqueue_nd_range(k, NDRange(8), NDRange(4)).duration;
  const double a1 = a.enqueue_nd_range(k, NDRange(8), NDRange(4)).duration;
  EXPECT_NE(a0, a1);  // repeated launches on one queue get fresh keys
  // A rejected launch never reaches the oracle and takes no key.
  EXPECT_THROW(a.enqueue_nd_range(k, NDRange(64), NDRange(32)), ClException);
  EXPECT_EQ(a.enqueue_nd_range(k, NDRange(8), NDRange(4)).duration, 3.0);
  // Another queue on the same device starts from its own first launch.
  EXPECT_EQ(b.enqueue_nd_range(k, NDRange(8), NDRange(4)).duration, a0);
}

TEST(Queue, InvalidLaunchThrowsWithStatus) {
  DeviceInfo info;
  info.max_work_group_size = 16;
  const Device dev = make_test_device(info);
  Buffer out(64 * sizeof(int));
  CommandQueue q(dev, {ExecMode::kTimingOnly, nullptr});
  const Kernel k = counting_kernel(dev, out);
  try {
    q.enqueue_nd_range(k, NDRange(64), NDRange(32));
    FAIL();
  } catch (const ClException& e) {
    EXPECT_EQ(e.status(), Status::kInvalidWorkGroupSize);
    EXPECT_TRUE(e.is_invalid_configuration());
  }
  // Failed launches do not advance the timeline.
  EXPECT_DOUBLE_EQ(q.now_ms(), 0.0);
}

TEST(Queue, FunctionalQueueRejectsBodylessKernel) {
  const Device dev = make_test_device();
  CompiledKernel ck;
  ck.name = "timing-only";
  const Kernel k(dev, std::move(ck));
  CommandQueue q(dev);
  EXPECT_THROW(q.enqueue_nd_range(k, NDRange(4), NDRange(2)), ClException);
}

TEST(Queue, WriteAndReadTransferData) {
  const Device dev = make_test_device();
  CommandQueue q(dev);
  Buffer buf(4 * sizeof(float));
  const std::vector<float> src = {1.0f, 2.0f, 3.0f, 4.0f};
  const Event w = q.enqueue_write(buf, src.data(), 4 * sizeof(float));
  EXPECT_DOUBLE_EQ(w.duration_ms(), 0.25);  // stub oracle
  std::vector<float> dst(4);
  q.enqueue_read(buf, dst.data(), 4 * sizeof(float));
  EXPECT_EQ(dst, src);
  EXPECT_DOUBLE_EQ(q.total_transfer_ms(), 0.5);
}

TEST(Queue, RecordBuildAccumulates) {
  const Device dev = make_test_device();
  CommandQueue q(dev);
  q.record_build(12.5, "prog");
  q.record_build(7.5, "prog");
  EXPECT_DOUBLE_EQ(q.total_build_ms(), 20.0);
  EXPECT_DOUBLE_EQ(q.now_ms(), 20.0);
}

TEST(Queue, EventLabels) {
  const Device dev = make_test_device();
  Buffer out(4 * sizeof(int));
  CommandQueue q(dev);
  const Kernel k = counting_kernel(dev, out);
  q.enqueue_nd_range(k, NDRange(4), NDRange(2));
  q.record_build(1.0, "conv");
  ASSERT_EQ(q.events().size(), 2u);
  EXPECT_EQ(q.events()[0].label, "count");
  EXPECT_EQ(q.events()[1].label, "build:conv");
}

TEST(Queue, CopyMovesDataBetweenBuffers) {
  const Device dev = make_test_device();
  CommandQueue q(dev);
  Buffer src(8 * sizeof(float));
  Buffer dst(8 * sizeof(float));
  auto s = src.as<float>();
  for (std::size_t i = 0; i < 8; ++i) s[i] = static_cast<float>(i);
  q.enqueue_copy(src, dst, 8 * sizeof(float));
  const auto d = dst.as<const float>();
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(d[i], static_cast<float>(i));
}

TEST(Queue, CopyWithOffsets) {
  const Device dev = make_test_device();
  CommandQueue q(dev);
  Buffer src(4 * sizeof(float));
  Buffer dst(4 * sizeof(float));
  src.as<float>()[2] = 7.0f;
  q.enqueue_copy(src, dst, sizeof(float), 2 * sizeof(float), 0);
  EXPECT_EQ(dst.as<const float>()[0], 7.0f);
}

TEST(Queue, CopyRangeValidation) {
  const Device dev = make_test_device();
  CommandQueue q(dev);
  Buffer src(4);
  Buffer dst(4);
  EXPECT_THROW(q.enqueue_copy(src, dst, 8), ClException);
  EXPECT_THROW(q.enqueue_copy(src, dst, 4, 2, 0), ClException);
}

TEST(Queue, FillRepeatsPattern) {
  const Device dev = make_test_device();
  CommandQueue q(dev);
  Buffer buf(6 * sizeof(float));
  const float pattern[2] = {1.5f, -2.5f};
  q.enqueue_fill(buf, pattern, sizeof(pattern), 6 * sizeof(float));
  const auto view = buf.as<const float>();
  for (std::size_t i = 0; i < 6; ++i)
    EXPECT_EQ(view[i], i % 2 == 0 ? 1.5f : -2.5f);
}

TEST(Queue, FillValidation) {
  const Device dev = make_test_device();
  CommandQueue q(dev);
  Buffer buf(8);
  const int pattern = 0;
  EXPECT_THROW(q.enqueue_fill(buf, &pattern, 0, 4), ClException);
  EXPECT_THROW(q.enqueue_fill(buf, &pattern, sizeof(int), 6), ClException);
  EXPECT_THROW(q.enqueue_fill(buf, &pattern, sizeof(int), 8, 4), ClException);
}

TEST(Queue, CopyAndFillAdvanceTimeline) {
  const Device dev = make_test_device();
  CommandQueue q(dev);
  Buffer a(1024);
  Buffer b(1024);
  const int zero = 0;
  q.enqueue_fill(a, &zero, sizeof(int), 1024);
  q.enqueue_copy(a, b, 1024);
  EXPECT_GT(q.now_ms(), 0.0);
  EXPECT_EQ(q.events().size(), 2u);
  EXPECT_EQ(q.events()[0].label, "fill");
  EXPECT_EQ(q.events()[1].label, "copy");
}

TEST(Queue, FinishIsNoopButCallable) {
  const Device dev = make_test_device();
  CommandQueue q(dev);
  EXPECT_NO_THROW(q.finish());
}

TEST(Queue, OutOfOrderCommandsOverlap) {
  const Device dev = make_test_device();
  CommandQueue q(dev, {ExecMode::kTimingOnly, nullptr, true});
  Buffer buf(4 * sizeof(int));
  const Kernel k = counting_kernel(dev, buf);
  const Event a = q.enqueue_nd_range(k, NDRange(4), NDRange(2));
  const Event b = q.enqueue_nd_range(k, NDRange(4), NDRange(2));
  // No dependency: both start at time zero (parallel streams).
  EXPECT_DOUBLE_EQ(a.start_ms, 0.0);
  EXPECT_DOUBLE_EQ(b.start_ms, 0.0);
  EXPECT_DOUBLE_EQ(q.now_ms(), 1.0);  // 1 ms stub, fully overlapped
}

TEST(Queue, OutOfOrderWaitListSerializes) {
  const Device dev = make_test_device();
  CommandQueue q(dev, {ExecMode::kTimingOnly, nullptr, true});
  Buffer buf(4 * sizeof(int));
  const Kernel k = counting_kernel(dev, buf);
  const Event a = q.enqueue_nd_range(k, NDRange(4), NDRange(2));
  const Event b = q.enqueue_nd_range(k, NDRange(4), NDRange(2), {a});
  EXPECT_DOUBLE_EQ(b.start_ms, a.end_ms);
  const Event c = q.enqueue_nd_range(k, NDRange(4), NDRange(2), {a, b});
  EXPECT_DOUBLE_EQ(c.start_ms, b.end_ms);
  EXPECT_DOUBLE_EQ(q.now_ms(), 3.0);
}

TEST(Queue, InOrderWaitListCanDelayBeyondTail) {
  const Device dev = make_test_device();
  CommandQueue q1(dev, {ExecMode::kTimingOnly, nullptr, false});
  CommandQueue q2(dev, {ExecMode::kTimingOnly, nullptr, false});
  Buffer buf(4 * sizeof(int));
  const Kernel k = counting_kernel(dev, buf);
  // Build a late event on queue 2, then make queue 1 wait for it.
  q2.record_build(10.0, "slow");
  const Event late = q2.enqueue_nd_range(k, NDRange(4), NDRange(2));
  const Event gated = q2.enqueue_nd_range(k, NDRange(4), NDRange(2), {late});
  EXPECT_DOUBLE_EQ(gated.start_ms, late.end_ms);
  const Event early = q1.enqueue_nd_range(k, NDRange(4), NDRange(2), {late});
  EXPECT_DOUBLE_EQ(early.start_ms, 11.0);  // waits for the other queue
}

TEST(Queue, MarkerCoversAllPriorWork) {
  const Device dev = make_test_device();
  CommandQueue q(dev, {ExecMode::kTimingOnly, nullptr, true});
  Buffer buf(4 * sizeof(int));
  const Kernel k = counting_kernel(dev, buf);
  q.enqueue_nd_range(k, NDRange(4), NDRange(2));
  q.enqueue_nd_range(k, NDRange(4), NDRange(2));
  const Event marker = q.enqueue_marker();
  EXPECT_DOUBLE_EQ(marker.end_ms, 1.0);  // both overlapped, end at 1 ms
  EXPECT_DOUBLE_EQ(marker.duration_ms(), 0.0);
  // A command gated on the marker starts after everything before it.
  const Event after = q.enqueue_nd_range(k, NDRange(4), NDRange(2), {marker});
  EXPECT_DOUBLE_EQ(after.start_ms, 1.0);
}

TEST(Queue, EventIdsAreSequential) {
  const Device dev = make_test_device();
  CommandQueue q(dev, {ExecMode::kTimingOnly, nullptr, false});
  Buffer buf(4 * sizeof(int));
  const Kernel k = counting_kernel(dev, buf);
  const Event a = q.enqueue_nd_range(k, NDRange(4), NDRange(2));
  const Event b = q.enqueue_nd_range(k, NDRange(4), NDRange(2));
  EXPECT_EQ(b.id, a.id + 1);
}

TEST(Queue, EventRetentionBoundsHistory) {
  const Device dev = make_test_device();
  CommandQueue::Options opts;
  opts.mode = ExecMode::kTimingOnly;
  opts.event_retention = 3;
  CommandQueue q(dev, opts);
  Buffer buf(4 * sizeof(int));
  const Kernel k = counting_kernel(dev, buf);
  for (int i = 0; i < 10; ++i) q.enqueue_nd_range(k, NDRange(4), NDRange(2));

  // Only the newest 3 events survive, ids intact...
  ASSERT_EQ(q.events().size(), 3u);
  EXPECT_EQ(q.events().front().id, 7u);
  EXPECT_EQ(q.events().back().id, 9u);
  // ...while the aggregates still cover all 10 launches (stub oracle: 1 ms
  // per kernel) and the timeline kept advancing.
  EXPECT_DOUBLE_EQ(q.total_kernel_ms(), 10.0);
  EXPECT_DOUBLE_EQ(q.now_ms(), 10.0);

  // Markers are events too and respect the cap.
  q.enqueue_marker();
  ASSERT_EQ(q.events().size(), 3u);
  EXPECT_EQ(q.events().back().label, "marker");
}

TEST(Queue, DefaultRetentionKeepsEverything) {
  const Device dev = make_test_device();
  CommandQueue q(dev, {ExecMode::kTimingOnly, nullptr});
  Buffer buf(4 * sizeof(int));
  const Kernel k = counting_kernel(dev, buf);
  for (int i = 0; i < 50; ++i) q.enqueue_nd_range(k, NDRange(4), NDRange(2));
  EXPECT_EQ(q.events().size(), 50u);
}

}  // namespace
}  // namespace pt::clsim
