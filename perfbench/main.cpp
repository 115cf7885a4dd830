// bltc_perf: runs one benchmark workload and prints one JSON line with its
// end-to-end metrics, the per-layer metrics it measured (traced run) and the
// raw run report.
//
//   bltc_perf --workload md_open --seed 1 --seconds 20 --trace 0
//             [--smoke] [--trace-out trace.json]
//
// perfbench/run.py builds this binary, runs it with OMP_NUM_THREADS=1 (the
// OpenMP teams of simmpi ranks and serve workers read it from the
// environment; the MD workloads set a team of two), attaches the units of
// BENCHMARK.json and adds the environment block.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <map>
#include <stdexcept>
#include <string>

#include "bench.hpp"

namespace {

using namespace perfbench;

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string v = argv[++i];
    if (key == "--workload") a.workload = v;
    else if (key == "--seed") a.seed = std::stoull(v);
    else if (key == "--seconds") a.seconds = std::stod(v);
    else if (key == "--trace") a.trace = v == "1";
    else if (key == "--trace-out") a.trace_out = v;
    else throw std::invalid_argument("unknown argument " + key);
  }
  if (a.seconds <= 0) throw std::invalid_argument("seconds must be positive");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse(argc, argv);
    Trace trace(false);
    Report rep;
    if (a.workload == "md_open") rep = run_md(a, trace, false);
    else if (a.workload == "md_pme") rep = run_md(a, trace, true);
    else if (a.workload == "dist_yukawa") rep = run_dist(a, trace);
    else if (a.workload == "serve_open") rep = run_serve(a, trace);
    else throw std::invalid_argument("unknown workload " + a.workload);
    rep.peak_rss_mb = peak_rss_mb();
    rep.config["compiler"] = __VERSION__;
#ifdef __AVX512F__
    rep.config["avx512"] = "yes";
#else
    rep.config["avx512"] = "no";
#endif

    const std::size_t n = rep.latency_ms.size();
    const auto tail_rank = static_cast<std::size_t>(
        std::ceil(rep.tail_quantile * static_cast<double>(n)));
    // Units live in BENCHMARK.json; perfbench/run.py attaches them.
    const std::map<std::string, double> end_to_end = {
        {"setup_s", median(rep.setup_s)},
        {"latency_p50_ms", percentile(rep.latency_ms, 0.5)},
        {"latency_tail_ms", percentile(rep.latency_ms, rep.tail_quantile)},
        {"throughput_per_s", rep.throughput_per_s},
        {"peak_rss_mb", rep.peak_rss_mb},
        // Correct digits of the potentials: steadier across seeds than the
        // relative error itself, whose value varies by tens of percent from
        // one random geometry to the next.
        {"accuracy_digits", -std::log10(std::max(rep.rel_error, 1e-16))},
    };
    if (a.trace) {
      // Only closed loops trace some ops and not others (serve_open records
      // its spans after the run, so no request pays for tracing).
      if (!rep.traced_ms.empty()) {
        rep.layers["trace.overhead_pct"] =
            (median(rep.traced_ms) / median(rep.latency_ms) - 1.0) * 100.0;
      }
      if (!a.trace_out.empty()) trace.write(a.trace_out);
    }
    Json tail;
    tail.num("percentile", rep.tail_quantile * 100.0)
        .num("samples", static_cast<double>(n))
        .num("samples_beyond", static_cast<double>(n - std::min(n, tail_rank)));
    std::printf("%s\n", Json()
                            .boolean("correct", rep.correct)
                            .num("attempted", static_cast<double>(rep.attempted))
                            .num("failed", static_cast<double>(rep.failed))
                            .object("end_to_end", end_to_end)
                            .object("per_layer", rep.layers)
                            .raw("tail", tail.done())
                            .object("self_ms", trace.self_ms())
                            .raw("report", to_json(rep))
                            .done()
                            .c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bltc_perf: %s\n", e.what());
    return 1;
  }
}
