// Software GPU execution model.
//
// The paper runs its compute kernels through OpenACC on NVIDIA Titan V and
// P100 GPUs. Here the device is a cost model: a launch is a declared cost,
// not code. Callers compute their numbers on the host and record the
// launches that work would take, and an event-driven timeline models what
// they would cost on the real device — per-launch overhead, asynchronous
// stream queuing (the paper's `async(streamID)` idiom with 4 streams),
// occupancy of small launches, and PCIe transfer time. The model is
// deliberately simple but reproduces the qualitative behaviours the paper
// reports: async streams hide launch overhead (≈25% saving), small kernels
// stop saturating the device (strong-scaling precompute growth), transfers
// cost real time (setup phase).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace bltc::gpusim {

/// Static description of a (modeled) compute device. Throughput is expressed
/// in *kernel evaluations* per second rather than FLOP/s: one evaluation is
/// one G(x,y) interaction (the unit the BLTC evaluators count), and per-kernel
/// cost multipliers (e.g. Yukawa vs Coulomb) are applied by the caller.
struct DeviceSpec {
  std::string name;
  double evals_per_sec = 1e9;     ///< effective double-precision interactions/s
  double pcie_bandwidth = 12e9;   ///< host<->device bytes/s
  double launch_overhead = 8e-6;  ///< seconds per *synchronous* kernel launch
  double queue_overhead = 2e-6;   ///< CPU seconds to queue an async launch
  double min_kernel_time = 4e-6;  ///< floor: even tiny kernels cost this much
  int num_streams = 4;            ///< asynchronous streams available
  int num_sms = 80;               ///< compute units, for occupancy modeling
  /// Blocks needed to saturate the device (occupancy ramps linearly to 1).
  double saturation_blocks() const { return 2.0 * num_sms; }

  /// NVIDIA Titan V (Fig. 4's GPU). Effective eval rate calibrated so that
  /// the paper's 1M-particle BLTC runs land in the ~0.1-1 s range and the
  /// GPU/CPU ratio is >= 100x.
  static DeviceSpec titan_v();
  /// NVIDIA P100 (Comet, Figs. 5-6). Lower DP throughput than Titan V.
  static DeviceSpec p100();
  /// 6-core Xeon X5650 treated as a "device" so Fig. 4's CPU curves can be
  /// projected with the same machinery (launch costs are zero on a CPU).
  static DeviceSpec xeon_x5650_6core();
};

/// Cost declaration for one kernel launch.
struct KernelCost {
  double evals = 0.0;       ///< weighted interaction count
  std::size_t blocks = 1;   ///< thread blocks in the launch (occupancy)
};

/// Timeline marker: cumulative modeled seconds at some instant, used to
/// attribute modeled time to the setup/precompute/compute phases.
struct TimeMarker {
  double kernel_seconds = 0.0;    ///< modeled device+launch time so far
  double transfer_seconds = 0.0;  ///< modeled PCIe time so far
};

/// A simulated device instance. Not thread-safe by design: each rank (and
/// each phase of a solve) drives its own Device, mirroring one-MPI-rank-per-
/// GPU in the paper.
class Device {
 public:
  explicit Device(DeviceSpec spec, bool async_streams = true);

  const DeviceSpec& spec() const { return spec_; }
  bool async() const { return async_; }

  /// Account a host-to-device transfer of `bytes`.
  void host_to_device(std::size_t bytes);
  /// Account a device-to-host transfer of `bytes`.
  void device_to_host(std::size_t bytes);

  /// Record a kernel launch of `cost` on `stream`, advancing the modeled
  /// timeline. Nothing executes: callers compute their numbers on the host.
  void launch(int stream, const KernelCost& cost);

  /// Round-robin stream assignment helper, mirroring the paper's cycling of
  /// streamID through the available streams.
  int next_stream() {
    const int s = rr_stream_;
    rr_stream_ = (rr_stream_ + 1) % spec_.num_streams;
    return s;
  }

  /// Block until all queued work would have completed; advances the CPU
  /// clock to the device-ready time.
  void synchronize();

  /// Cumulative modeled times (call `synchronize()` first for exactness).
  TimeMarker marker() const;

  /// Counters for tests and benches.
  std::size_t launches() const { return launches_; }
  std::size_t bytes_to_device() const { return bytes_htd_; }
  std::size_t bytes_to_host() const { return bytes_dth_; }
  double total_evals() const { return total_evals_; }

  /// Modeled duration of a single launch with `cost` (occupancy + floor).
  double launch_duration(const KernelCost& cost) const;

 private:
  DeviceSpec spec_;
  bool async_;
  double cpu_clock_ = 0.0;     ///< host-side time spent driving the device
  double device_ready_ = 0.0;  ///< when the device finishes queued work
  std::vector<double> stream_ready_;
  double transfer_seconds_ = 0.0;
  std::size_t launches_ = 0;
  std::size_t bytes_htd_ = 0;
  std::size_t bytes_dth_ = 0;
  double total_evals_ = 0.0;
  int rr_stream_ = 0;
};

}  // namespace bltc::gpusim
