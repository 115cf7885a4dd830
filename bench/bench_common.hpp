// Shared infrastructure for the figure-reproduction benches: aligned table
// printing (the "rows/series" the paper's figures plot), sampled error
// evaluation against direct summation, and env-var scaling knobs so the same
// binaries run as quick smoke tests or long paper-scale sweeps.
//
// Scaling knobs: problem sizes default to ~1/50 of the paper's (the benches
// target a small CPU-only host); modeled times project onto the paper's
// hardware from real operation/byte counts.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/kernels.hpp"
#include "util/workloads.hpp"

namespace bltc::bench {

/// Relative 2-norm error of `phi` against sampled direct summation
/// (the paper samples the reference for large systems, Eq. 16).
double sampled_error(const Cloud& cloud, const std::vector<double>& phi,
                     const KernelSpec& kernel, std::size_t nsamples = 1000);

/// Same, with distinct target/source clouds.
double sampled_error2(const Cloud& targets, const Cloud& sources,
                      const std::vector<double>& phi, const KernelSpec& kernel,
                      std::size_t nsamples = 1000);

/// Minimal aligned-column table printer.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);
  void add_row(std::vector<std::string> cells);
  void print() const;

  static std::string num(double v, int precision = 3);
  static std::string sci(double v);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Print the standard bench banner: what paper artifact this reproduces and
/// which env knobs rescale it.
void banner(const std::string& title, const std::string& knobs);

/// Machine-readable bench output so the perf trajectory can be tracked
/// across PRs: a flat list of named metrics written as one JSON object,
///   {"bench": "...", "metrics": {"name": value, ...}, "meta": {...}}.
/// Numeric metrics keep full double precision; `meta` holds free-form
/// strings (units, configuration notes).
class JsonReport {
 public:
  explicit JsonReport(std::string bench_name);

  void metric(const std::string& name, double value);
  void note(const std::string& name, const std::string& value);

  /// Write the report to `path`; returns false (with a perror-style message
  /// on stderr) when the file cannot be written.
  bool write(const std::string& path) const;

 private:
  std::string bench_name_;
  std::vector<std::pair<std::string, double>> metrics_;
  std::vector<std::pair<std::string, std::string>> notes_;
};

/// Parse `--json PATH` from argv; `fallback` when the flag is absent (the
/// benches default to their tracked BENCH_*.json name). An empty string
/// disables the report ("--json -" also disables it).
std::string json_output_path(int argc, char** argv,
                             const std::string& fallback);

}  // namespace bltc::bench
