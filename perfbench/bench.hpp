// Shared pieces of the benchmark program (bltc_perf): command-line arguments, the raw
// per-run report the workloads fill, a JSON writer, and the in-memory span
// recorder of the traced run.
//
// bltc_perf measures each library layer from outside: spans are recorded
// here, around calls into the library's public functions, together with the
// counters those calls already return. Nothing inside src/ is instrumented.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;       ///< a few ops per workload instead of a timed run
  std::string trace_out;    ///< where the traced run writes its spans
};

/// Everything one run measured: raw samples, counters and the per-layer
/// metrics. main.cpp derives the end-to-end metrics from it.
struct Report {
  bool correct = true;
  std::vector<std::string> gate;    ///< one line per correctness check
  std::size_t attempted = 0;        ///< measured ops (warm-up excluded)
  std::size_t failed = 0;
  std::vector<double> setup_s;      ///< one per fresh set-up
  std::vector<double> latency_ms;   ///< one per untraced measured op
  std::vector<double> traced_ms;    ///< one per traced op (traced run only)
  /// Nearest-rank percentile reported as the latency tail. A workload may
  /// lower it when p90 does not repeat; a 20 s run leaves at least 10
  /// samples beyond it.
  double tail_quantile = 0.90;
  double throughput_per_s = 0.0;
  double rel_error = 0.0;
  double tolerance = 0.0;
  double peak_rss_mb = 0.0;
  /// Per-layer metrics: only those the workload measured (perfbench/run.py
  /// checks them against the layers it declares for the workload).
  std::map<std::string, double> layers;
  std::map<std::string, double> extra;         ///< diagnostics (not metrics)
  std::map<std::string, std::string> config;   ///< workload configuration

  /// Record one correctness check; a failed check fails the run.
  void check(bool ok, const std::string& what);
};

/// In-memory span recorder: name, start, end, parent, request id.
/// Recording is single-threaded (the caller's thread). Disabled recorders
/// keep nothing, so untraced ops pay one branch per span.
class Trace {
 public:
  explicit Trace(bool enabled) : enabled_(enabled) {}

  void set_enabled(bool on) { enabled_ = on; }
  double now_ms() const { return ms_between(t0_, Clock::now()); }

  /// RAII span around one call; nests under the innermost open span.
  class Scope {
   public:
    Scope(Trace& trace, const char* name, std::uint64_t request);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Trace& trace_;
    int id_ = -1;
  };
  Scope span(const char* name, std::uint64_t request = 0) {
    return Scope(*this, name, request);
  }

  /// Record an already-timed span (times in ms since the recorder started);
  /// returns its id for use as a parent.
  int add(const char* name, double start_ms, double end_ms, int parent,
          std::uint64_t request);

  /// Sum of self time per span name: each span's duration minus the part
  /// its children cover.
  std::map<std::string, double> self_ms() const;
  /// Durations of every span with this name, in recording order.
  std::vector<double> durations(const std::string& name) const;

  /// Write {"spans": [...], "self_ms": {...}} to `path`.
  void write(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
    std::uint64_t request = 0;
  };
  bool enabled_;
  Clock::time_point t0_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Minimal JSON object writer (numbers keep all their digits).
class Json {
 public:
  Json& num(const std::string& key, double value);
  Json& str(const std::string& key, const std::string& value);
  Json& boolean(const std::string& key, bool value);
  Json& raw(const std::string& key, const std::string& json);
  Json& nums(const std::string& key, const std::vector<double>& values);
  Json& strs(const std::string& key, const std::vector<std::string>& values);
  Json& object(const std::string& key, const std::map<std::string, double>& m);
  Json& object(const std::string& key,
               const std::map<std::string, std::string>& m);
  std::string done() const { return "{" + body_ + "}"; }

  static std::string quote(const std::string& s);
  static std::string number(double v);

 private:
  Json& field(const std::string& key, const std::string& json);
  std::string body_;
};

std::string to_json(const Report& report);

double median(std::vector<double> v);
/// Nearest-rank percentile of `v`, q in (0, 1].
double percentile(std::vector<double> v, double q);
/// Peak resident set size of this process, MB.
double peak_rss_mb();

Report run_md(const Args& a, Trace& trace, bool pme);
Report run_dist(const Args& a, Trace& trace);
Report run_serve(const Args& a, Trace& trace);

}  // namespace perfbench
