// bltc_study's driver and report module. Usage:
//
//   bltc_study [--quick] STUDY...
//
// runs each named study in turn; --quick selects the reduced sizes CI runs.
// Each study writes BENCH_<study>.json (crossover also BENCH_bldtt.json and
// BENCH_periodic.json) to the working directory.
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string_view>

#include "core/direct_sum.hpp"
#include "perfbench/bench.hpp"
#include "study.hpp"
#include "util/stats.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace bltc::study {

namespace {

using perfbench::Json;

std::vector<double> load_average() {
  double load[3] = {0.0, 0.0, 0.0};
  if (getloadavg(load, 3) != 3) return {};
  return {load[0], load[1], load[2]};
}

/// Output of a shell command, trailing newline dropped ("" on failure).
std::string command_output(const std::string& command) {
  std::FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return "";
  std::string out;
  char buf[256];
  while (std::fgets(buf, sizeof(buf), pipe) != nullptr) out += buf;
  if (pclose(pipe) != 0) return "";
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
    out.pop_back();
  }
  return out;
}

/// The checkout's commit ("+dirty" when the code this binary is built from
/// has uncommitted changes) or, outside a git checkout, an FNV-1a digest of
/// the library sources and the top-level CMakeLists.txt.
std::string source_id() {
  const std::string dir = STUDY_SOURCE_DIR;
  const std::string git = "git -C '" + dir + "' ";
  const std::string head = command_output(git + "rev-parse HEAD 2>/dev/null");
  if (!head.empty()) {
    const bool dirty =
        !command_output(git +
                        "status --porcelain --untracked-files=no -- src "
                        "bench perfbench CMakeLists.txt 2>/dev/null")
             .empty();
    return head + (dirty ? "+dirty" : "");
  }
  namespace fs = std::filesystem;
  std::vector<fs::path> files{fs::path(dir) / "CMakeLists.txt"};
  std::error_code ec;
  for (const auto& e : fs::recursive_directory_iterator(dir + "/src", ec)) {
    if (e.is_regular_file()) files.push_back(e.path());
  }
  std::sort(files.begin(), files.end());
  std::uint64_t h = 14695981039346656037ULL;
  const auto mix = [&](std::string_view bytes) {
    for (const unsigned char c : bytes) h = (h ^ c) * 1099511628211ULL;
  };
  for (const fs::path& f : files) {
    std::ifstream in(f, std::ios::binary);
    const std::string body{std::istreambuf_iterator<char>(in), {}};
    mix(fs::relative(f, dir).string());
    mix(body);
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "source-fnv1a:%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

int omp_threads() {
#ifdef _OPENMP
  return omp_get_max_threads();
#else
  return 1;
#endif
}

/// Linear-interpolation quantile of sorted `v`, q in [0, 1].
double quantile(const std::vector<double>& v, double q) {
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

const char* kind_name(Kind kind) {
  switch (kind) {
    case Kind::kWall: return "wall";
    case Kind::kCount: return "count";
    case Kind::kModeled: return "modeled";
  }
  return "?";
}

}  // namespace

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

Report::Report(std::string name, bool quick, int repeats)
    : name_(std::move(name)),
      quick_(quick),
      repeats_(repeats),
      load_before_(load_average()) {
  std::printf("\n=== study %s (%s scale, %d repeat%s) ===\n", name_.c_str(),
              quick ? "quick" : "full", repeats, repeats == 1 ? "" : "s");
}

void Report::config(const std::string& key, const std::string& value) {
  config_.emplace_back(key, value);
}

void Report::add(const std::string& name, const std::string& unit,
                 Kind kind, double value) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.samples.push_back(value);
      return;
    }
  }
  metrics_.push_back({name, unit, kind, {value}});
}

void Report::write() const {
  Json env;
  env.str("commit", source_id())
      .str("compiler", STUDY_COMPILER)
      .str("flags", STUDY_FLAGS)
      .str("build", STUDY_BUILD)
#ifdef __AVX512F__
      .boolean("avx512_built", true)
#else
      .boolean("avx512_built", false)
#endif
      .boolean("avx512_cpu", __builtin_cpu_supports("avx512f"))
      .num("nproc", [] {
        cpu_set_t set;
        return sched_getaffinity(0, sizeof(set), &set) == 0
                   ? static_cast<double>(CPU_COUNT(&set))
                   : 0.0;
      }())
      .num("omp_threads", omp_threads())
      .nums("loadavg_before", load_before_)
      .nums("loadavg_after", load_average())
      .str("scale", quick_ ? "quick" : "full")
      .num("repeats", repeats_);

  Json config;
  for (const auto& [key, value] : config_) config.str(key, value);

  std::string metrics;  // one metric per line
  for (const Metric& m : metrics_) {
    if (m.kind == Kind::kWall && static_cast<int>(m.samples.size()) < 3) {
      throw std::logic_error(name_ + ": wall metric " + m.name +
                             " needs at least three repeats");
    }
    std::vector<double> s = m.samples;
    std::sort(s.begin(), s.end());
    Json entry;
    entry.str("unit", m.unit).str("kind", kind_name(m.kind));
    if (s.front() == s.back()) {
      entry.num("value", s.front());
      std::printf("  %-48s %12.4g %-8s %s\n", m.name.c_str(), s.front(),
                  m.unit.c_str(), kind_name(m.kind));
    } else {
      const double q1 = quantile(s, 0.25), med = quantile(s, 0.5),
                   q3 = quantile(s, 0.75);
      entry.num("median", med).num("q1", q1).num("q3", q3).nums("samples",
                                                                 m.samples);
      std::printf("  %-48s %12.4g %-8s %s, quartiles [%.4g, %.4g] of %zu\n",
                  m.name.c_str(), med, m.unit.c_str(), kind_name(m.kind), q1,
                  q3, s.size());
    }
    metrics += (metrics.empty() ? "\n    " : ",\n    ") + Json::quote(m.name) +
               ": " + entry.done();
  }

  const std::string path = "BENCH_" + name_ + ".json";
  std::ofstream out(path);
  out << "{\"study\": " << Json::quote(name_) << ",\n  \"environment\": "
      << env.done() << ",\n  \"config\": " << config.done()
      << ",\n  \"metrics\": {" << metrics << "\n  }\n}\n";
  if (!out) throw std::runtime_error("cannot write " + path);
  std::printf("report: %s\n", path.c_str());
}

double sampled_error(const Cloud& cloud, const std::vector<double>& phi,
                     const KernelSpec& kernel, std::size_t nsamples) {
  const auto sample = sample_indices(cloud.size(), nsamples);
  const auto ref = direct_sum_sampled(cloud, sample, cloud, kernel);
  std::vector<double> approx(sample.size());
  for (std::size_t s = 0; s < sample.size(); ++s) approx[s] = phi[sample[s]];
  return relative_l2_error(ref, approx);
}

}  // namespace bltc::study

int main(int argc, char** argv) {
  using namespace bltc::study;
  const std::map<std::string, void (*)(bool)> studies{
      {"fig2", fig2},         {"fig4", fig4},
      {"fig5", fig5},         {"fig6", fig6},
      {"crossover", crossover}, {"batchmac", batchmac},
      {"leafsize", leafsize}, {"async_streams", async_streams},
      {"micro", micro},       {"replan", replan},
      {"dynamics", dynamics}, {"pme", pme},
      {"precision", precision}, {"serving", serving}};

  bool quick = false;
  std::vector<void (*)(bool)> chosen;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (const auto it = studies.find(arg); it != studies.end()) {
      chosen.push_back(it->second);
    } else {
      std::fprintf(stderr, "bltc_study: unknown study or option '%s'\n",
                   arg.c_str());
      chosen.clear();
      break;
    }
  }
  if (chosen.empty()) {
    std::fprintf(stderr, "usage: bltc_study [--quick] STUDY...\nstudies:");
    for (const auto& [name, fn] : studies) {
      std::fprintf(stderr, " %s", name.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  try {
    for (const auto fn : chosen) fn(quick);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bltc_study: %s\n", e.what());
    return 1;
  }
  return 0;
}
