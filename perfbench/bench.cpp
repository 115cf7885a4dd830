#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace perfbench {

void Report::check(bool ok, const std::string& what) {
  gate.push_back((ok ? "pass: " : "FAIL: ") + what);
  if (!ok) correct = false;
}

Trace::Scope::Scope(Trace& trace, const char* name, std::uint64_t request)
    : trace_(trace) {
  if (!trace_.enabled_) return;
  const int parent = trace_.open_.empty() ? -1 : trace_.open_.back();
  const double t = trace_.now_ms();
  id_ = trace_.add(name, t, t, parent, request);
  trace_.open_.push_back(id_);
}

Trace::Scope::~Scope() {
  if (id_ < 0) return;
  trace_.spans_[static_cast<std::size_t>(id_)].end = trace_.now_ms();
  trace_.open_.pop_back();
}

int Trace::add(const char* name, double start_ms, double end_ms, int parent,
               std::uint64_t request) {
  spans_.push_back({name, start_ms, end_ms, parent, request});
  return static_cast<int>(spans_.size()) - 1;
}

std::map<std::string, double> Trace::self_ms() const {
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    out[spans_[i].name] += spans_[i].end - spans_[i].start - child[i];
  }
  return out;
}

std::vector<double> Trace::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(s.end - s.start);
  }
  return out;
}

void Trace::write(const std::string& path) const {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot write trace file " + path);
  f << "{\"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    f << (i ? ",\n" : "\n") << "{\"id\": " << i
      << ", \"name\": " << Json::quote(s.name)
      << ", \"start_ms\": " << Json::number(s.start)
      << ", \"end_ms\": " << Json::number(s.end)
      << ", \"parent\": " << s.parent << ", \"request\": " << s.request << "}";
  }
  Json self;
  for (const auto& [name, ms] : self_ms()) self.num(name, ms);
  f << "],\n\"self_ms\": " << self.done() << "}\n";
}

std::string Json::quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string Json::number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

Json& Json::field(const std::string& key, const std::string& json) {
  if (!body_.empty()) body_ += ", ";
  body_ += quote(key) + ": " + json;
  return *this;
}

Json& Json::num(const std::string& key, double value) {
  return field(key, number(value));
}
Json& Json::str(const std::string& key, const std::string& value) {
  return field(key, quote(value));
}
Json& Json::boolean(const std::string& key, bool value) {
  return field(key, value ? "true" : "false");
}
Json& Json::raw(const std::string& key, const std::string& json) {
  return field(key, json);
}

Json& Json::nums(const std::string& key, const std::vector<double>& values) {
  std::string s = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    s += (i ? ", " : "") + number(values[i]);
  }
  return field(key, s + "]");
}

Json& Json::strs(const std::string& key,
                 const std::vector<std::string>& values) {
  std::string s = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    s += (i ? ", " : "") + quote(values[i]);
  }
  return field(key, s + "]");
}

Json& Json::object(const std::string& key,
                   const std::map<std::string, double>& m) {
  Json o;
  for (const auto& [k, v] : m) o.num(k, v);
  return field(key, o.done());
}

Json& Json::object(const std::string& key,
                   const std::map<std::string, std::string>& m) {
  Json o;
  for (const auto& [k, v] : m) o.str(k, v);
  return field(key, o.done());
}

std::string to_json(const Report& r) {
  return Json()
      .boolean("correct", r.correct)
      .strs("gate", r.gate)
      .num("attempted", static_cast<double>(r.attempted))
      .num("failed", static_cast<double>(r.failed))
      .nums("setup_s", r.setup_s)
      .nums("latency_ms", r.latency_ms)
      .nums("traced_ms", r.traced_ms)
      .num("throughput_per_s", r.throughput_per_s)
      .num("rel_error", r.rel_error)
      .num("tolerance", r.tolerance)
      .num("peak_rss_mb", r.peak_rss_mb)
      .object("layers", r.layers)
      .object("extra", r.extra)
      .object("config", r.config)
      .done();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
