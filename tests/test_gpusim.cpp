#include <gtest/gtest.h>

#include "gpusim/device.hpp"
#include "gpusim/perf_model.hpp"

namespace bltc::gpusim {
namespace {

DeviceSpec tiny_spec() {
  DeviceSpec s;
  s.name = "test device";
  s.evals_per_sec = 1e9;
  s.pcie_bandwidth = 1e9;
  s.launch_overhead = 10e-6;
  s.queue_overhead = 2e-6;
  s.min_kernel_time = 1e-6;
  s.num_streams = 4;
  s.num_sms = 10;
  return s;
}

TEST(Device, LaunchRecordsCost) {
  Device d(tiny_spec());
  d.launch(0, {100.0, 1});
  EXPECT_EQ(d.launches(), 1u);
  EXPECT_DOUBLE_EQ(d.total_evals(), 100.0);
}

TEST(Device, TransferAccounting) {
  Device d(tiny_spec());
  d.host_to_device(1'000'000);
  d.device_to_host(500'000);
  EXPECT_EQ(d.bytes_to_device(), 1'000'000u);
  EXPECT_EQ(d.bytes_to_host(), 500'000u);
  // 1.5 MB over 1 GB/s = 1.5 ms.
  EXPECT_NEAR(d.marker().transfer_seconds, 1.5e-3, 1e-12);
}

TEST(Device, LaunchDurationHasFloor) {
  Device d(tiny_spec());
  // 1 eval at 1e9 evals/s = 1 ns, but the floor is 1 us.
  EXPECT_DOUBLE_EQ(d.launch_duration({1.0, 1000}), 1e-6);
}

TEST(Device, OccupancyPenalizesSmallLaunches) {
  Device d(tiny_spec());
  const KernelCost big{1e6, 1000};  // saturates 2*num_sms = 20 blocks
  const KernelCost small{1e6, 2};   // 10% occupancy
  EXPECT_GT(d.launch_duration(small), d.launch_duration(big) * 5.0);
}

TEST(Device, SyncModePaysLaunchOverheadSerially) {
  Device d(tiny_spec(), /*async_streams=*/false);
  // 10 launches of 5 us compute each: sync total = 10*(5us) + 10*10us
  // overhead = 150 us.
  for (int i = 0; i < 10; ++i) {
    d.launch(0, {5000.0, 1000});
  }
  d.synchronize();
  EXPECT_NEAR(d.marker().kernel_seconds, 150e-6, 1e-9);
}

TEST(Device, AsyncModeHidesLaunchOverhead) {
  Device d(tiny_spec(), /*async_streams=*/true);
  for (int i = 0; i < 10; ++i) {
    d.launch(d.next_stream(), {5000.0, 1000});
  }
  d.synchronize();
  // Compute dominates: ~ 10*5us = 50 us (+ first enqueue 2us pipeline fill).
  EXPECT_LT(d.marker().kernel_seconds, 60e-6);
  EXPECT_GE(d.marker().kernel_seconds, 50e-6);
}

TEST(Device, AsyncBeatsSyncOnManySmallKernels) {
  const auto run = [](bool async) {
    Device d(tiny_spec(), async);
    for (int i = 0; i < 100; ++i) {
      d.launch(d.next_stream(), {3000.0, 1000});
    }
    d.synchronize();
    return d.marker().kernel_seconds;
  };
  const double t_async = run(true);
  const double t_sync = run(false);
  EXPECT_LT(t_async, t_sync);
  // With 3 us kernels and 10 us sync overhead the saving is large; the
  // paper's ~25% corresponds to larger kernels (see bench_async_streams).
  EXPECT_LT(t_async, 0.5 * t_sync);
}

TEST(Device, NextStreamCyclesRoundRobin) {
  Device d(tiny_spec());
  EXPECT_EQ(d.next_stream(), 0);
  EXPECT_EQ(d.next_stream(), 1);
  EXPECT_EQ(d.next_stream(), 2);
  EXPECT_EQ(d.next_stream(), 3);
  EXPECT_EQ(d.next_stream(), 0);
}

TEST(Device, BadStreamThrows) {
  Device d(tiny_spec());
  EXPECT_THROW(d.launch(7, {1.0, 1}), std::out_of_range);
  EXPECT_THROW(d.launch(-1, {1.0, 1}), std::out_of_range);
}

TEST(Device, ZeroStreamSpecRejected) {
  DeviceSpec s = tiny_spec();
  s.num_streams = 0;
  EXPECT_THROW(Device d(s), std::invalid_argument);
}

TEST(DeviceSpecs, PresetsAreOrderedSensibly) {
  const DeviceSpec tv = DeviceSpec::titan_v();
  const DeviceSpec p100 = DeviceSpec::p100();
  const DeviceSpec cpu = DeviceSpec::xeon_x5650_6core();
  EXPECT_GT(tv.evals_per_sec, p100.evals_per_sec);
  EXPECT_GT(p100.evals_per_sec, cpu.evals_per_sec);
  // The paper's headline: BLTC on the Titan V is >= 100x the 6-core CPU.
  EXPECT_GE(tv.evals_per_sec / cpu.evals_per_sec, 100.0);
}

TEST(PerfModel, CommSecondsCombinesLatencyAndBandwidth) {
  NetworkSpec net{"test", 1e9, 1e-6};
  EXPECT_NEAR(comm_seconds(net, 1000, 1'000'000), 1000e-6 + 1e-3, 1e-12);
}

TEST(PerfModel, HostSetupScalesLinearly) {
  const HostSpec host{"test", 1e6};
  EXPECT_DOUBLE_EQ(host_setup_seconds(host, 2'000'000), 2.0);
}

}  // namespace
}  // namespace bltc::gpusim
