#include "gpusim/device.hpp"

#include <algorithm>
#include <stdexcept>

namespace bltc::gpusim {

DeviceSpec DeviceSpec::titan_v() {
  DeviceSpec s;
  s.name = "NVIDIA Titan V (modeled)";
  s.evals_per_sec = 1.0e11;
  s.pcie_bandwidth = 12e9;
  // Synchronous OpenACC launch + wait cost; calibrated so that async
  // streams save ~25% of compute on the paper's 1M/N_B=2000 workload.
  s.launch_overhead = 12e-6;
  s.queue_overhead = 2e-6;
  s.min_kernel_time = 4e-6;
  s.num_streams = 4;
  s.num_sms = 80;
  return s;
}

DeviceSpec DeviceSpec::p100() {
  DeviceSpec s;
  s.name = "NVIDIA P100 (modeled)";
  s.evals_per_sec = 6.3e10;
  s.pcie_bandwidth = 10e9;
  s.launch_overhead = 12e-6;
  s.queue_overhead = 2e-6;
  s.min_kernel_time = 5e-6;
  s.num_streams = 4;
  s.num_sms = 56;
  return s;
}

DeviceSpec DeviceSpec::xeon_x5650_6core() {
  DeviceSpec s;
  s.name = "Intel Xeon X5650, 6 cores (modeled)";
  s.evals_per_sec = 1.0e9;
  s.pcie_bandwidth = 0.0;  // no transfers on the host path
  s.launch_overhead = 0.0;
  s.queue_overhead = 0.0;
  s.min_kernel_time = 0.0;
  s.num_streams = 1;
  s.num_sms = 6;
  return s;
}

Device::Device(DeviceSpec spec, bool async_streams)
    : spec_(std::move(spec)), async_(async_streams) {
  if (spec_.num_streams < 1) {
    throw std::invalid_argument("Device: num_streams must be >= 1");
  }
  stream_ready_.assign(static_cast<std::size_t>(spec_.num_streams), 0.0);
}

void Device::host_to_device(std::size_t bytes) {
  bytes_htd_ += bytes;
  if (spec_.pcie_bandwidth > 0.0) {
    transfer_seconds_ += static_cast<double>(bytes) / spec_.pcie_bandwidth;
  }
}

void Device::device_to_host(std::size_t bytes) {
  bytes_dth_ += bytes;
  if (spec_.pcie_bandwidth > 0.0) {
    transfer_seconds_ += static_cast<double>(bytes) / spec_.pcie_bandwidth;
  }
}

double Device::launch_duration(const KernelCost& cost) const {
  if (spec_.evals_per_sec <= 0.0) return spec_.min_kernel_time;
  const double occupancy = std::min(
      1.0, static_cast<double>(cost.blocks) / spec_.saturation_blocks());
  const double effective =
      spec_.evals_per_sec * std::max(occupancy, 1e-3);
  return std::max(cost.evals / effective, spec_.min_kernel_time);
}

void Device::launch(int stream, const KernelCost& cost) {
  if (stream < 0 || stream >= spec_.num_streams) {
    throw std::out_of_range("Device::launch: bad stream id");
  }
  const double duration = launch_duration(cost);
  auto& sready = stream_ready_[static_cast<std::size_t>(stream)];
  if (async_) {
    // Asynchronous queuing: the CPU pays only the enqueue cost and the
    // device starts the kernel as soon as the (single, shared) compute
    // resource and the in-order stream are both free. Launch overhead is
    // hidden behind computation on other streams.
    cpu_clock_ += spec_.queue_overhead;
    const double start = std::max({device_ready_, sready, cpu_clock_});
    device_ready_ = start + duration;
    sready = device_ready_;
  } else {
    // Synchronous launch: the CPU waits for completion and pays the full
    // launch overhead every time, serializing launch gaps with compute.
    const double start = std::max({device_ready_, sready, cpu_clock_});
    device_ready_ = start + duration;
    sready = device_ready_;
    cpu_clock_ = device_ready_ + spec_.launch_overhead;
  }
  ++launches_;
  total_evals_ += cost.evals;
}

void Device::synchronize() { cpu_clock_ = std::max(cpu_clock_, device_ready_); }

TimeMarker Device::marker() const {
  TimeMarker m;
  m.kernel_seconds = std::max(cpu_clock_, device_ready_);
  m.transfer_seconds = transfer_seconds_;
  return m;
}

}  // namespace bltc::gpusim
