// bltc_study: one driver for every bench. Each study is one routine that
// runs a paper figure or a subsystem claim at a fixed configuration and
// records its numbers in a Report, which writes BENCH_<name>.json with the
// build and host environment, and prints the same numbers.
//
// Every metric has a kind. `kWall` metrics are wall-clock timings (or rates
// derived from them) recorded once per repeat, so a study that records one
// runs at least three repeats. `kCount` metrics are counts, errors and
// ratios of counts computed on the host; `kModeled` metrics come from the
// GpuSim cost model and are never measurements. The report gives a metric's
// value when every sample agrees, else the median and quartiles of its
// samples (wall timings; counts that depend on thread timing, as in
// serving).
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "core/kernels.hpp"
#include "util/workloads.hpp"

namespace bltc::study {

enum class Kind { kWall, kCount, kModeled };

class Report {
 public:
  /// `repeats` is the study's fixed repeat count; `quick` the scale.
  Report(std::string name, bool quick, int repeats);

  /// Free-form configuration entry (sizes, parameters, workload).
  void config(const std::string& key, const std::string& value);
  /// Record one sample of metric `name`.
  void add(const std::string& name, const std::string& unit, Kind kind,
           double value);
  void wall(const std::string& name, const std::string& unit, double v) {
    add(name, unit, Kind::kWall, v);
  }
  void count(const std::string& name, const std::string& unit, double v) {
    add(name, unit, Kind::kCount, v);
  }
  void modeled(const std::string& name, const std::string& unit, double v) {
    add(name, unit, Kind::kModeled, v);
  }

  /// Print every metric and write BENCH_<name>.json to the working
  /// directory; throws std::runtime_error when the file cannot be written.
  void write() const;

 private:
  struct Metric {
    std::string name, unit;
    Kind kind;
    std::vector<double> samples;
  };
  std::string name_;
  bool quick_;
  int repeats_;
  std::vector<double> load_before_;
  std::vector<std::pair<std::string, std::string>> config_;
  std::vector<Metric> metrics_;
};

/// Relative 2-norm error of `phi` against direct summation over a sample of
/// `nsamples` targets (the paper samples the reference, Eq. 16).
double sampled_error(const Cloud& cloud, const std::vector<double>& phi,
                     const KernelSpec& kernel, std::size_t nsamples = 1000);

/// "%g"-style short form for configuration values and metric names.
std::string fmt(double v);

// One routine per study; `quick` selects the CI scale.
void fig2(bool quick);
void fig4(bool quick);
void fig5(bool quick);
void fig6(bool quick);
void crossover(bool quick);
void batchmac(bool quick);
void leafsize(bool quick);
void async_streams(bool quick);
void micro(bool quick);
void replan(bool quick);
void dynamics(bool quick);
void pme(bool quick);
void precision(bool quick);
void serving(bool quick);

}  // namespace bltc::study
