#include "util/failpoints.hpp"

#include <map>
#include <mutex>

#include "util/rng.hpp"

namespace bltc {

FailpointError::FailpointError(const std::string& site, std::uint64_t hit)
    : std::runtime_error("failpoint '" + site + "' tripped on hit " +
                         std::to_string(hit)),
      site_(site),
      hit_(hit) {}

namespace failpoints {

std::atomic<int> g_armed{0};

namespace {

struct Site {
  FailpointConfig config;
  bool armed = false;
  std::uint64_t hits = 0;
  std::uint64_t trips = 0;
  SplitMix64 rng{1};
};

std::mutex& registry_mutex() {
  static std::mutex m;
  return m;
}

std::map<std::string, Site>& registry() {
  static std::map<std::string, Site> sites;
  return sites;
}

}  // namespace

std::vector<const char*> all_sites() {
  return {sites::kPlanCacheBuild,          sites::kWorkspaceAcquire,
          sites::kSimmpiGet,               sites::kSimmpiPut,
          sites::kGpuStage,                sites::kPlanIncrementalRebucket,
          sites::kGpuPartialRestage};
}

void hit_slow(const char* site) {
  std::uint64_t hit_index = 0;
  {
    std::lock_guard<std::mutex> lock(registry_mutex());
    auto it = registry().find(site);
    if (it == registry().end() || !it->second.armed) return;
    Site& s = it->second;
    hit_index = ++s.hits;
    const bool nth = s.config.fail_on_hit != 0 &&
                     hit_index == s.config.fail_on_hit;
    // Draw the coin even on an Nth-hit trip so the probability stream stays
    // aligned with the hit count (run-to-run determinism).
    const bool coin = s.config.probability > 0.0 &&
                      s.rng.next_double() < s.config.probability;
    if (!nth && !coin) return;
    if (s.config.max_trips != 0 && s.trips >= s.config.max_trips) return;
    ++s.trips;
  }
  throw FailpointError(site, hit_index);
}

FailpointStats stats(const std::string& site) {
  std::lock_guard<std::mutex> lock(registry_mutex());
  auto it = registry().find(site);
  if (it == registry().end()) return {};
  return {it->second.hits, it->second.trips};
}

void reset_all() {
  std::lock_guard<std::mutex> lock(registry_mutex());
  int disarmed = 0;
  for (auto& [name, site] : registry()) {
    if (site.armed) ++disarmed;
  }
  registry().clear();
  if (disarmed > 0) g_armed.fetch_sub(disarmed, std::memory_order_relaxed);
}

FailpointScope::FailpointScope(std::string site, FailpointConfig config)
    : site_(std::move(site)) {
  std::lock_guard<std::mutex> lock(registry_mutex());
  Site& s = registry()[site_];
  if (!s.armed) g_armed.fetch_add(1, std::memory_order_relaxed);
  s.config = config;
  s.armed = true;
  s.hits = 0;
  s.trips = 0;
  s.rng = SplitMix64(config.seed);
}

FailpointScope::~FailpointScope() {
  std::lock_guard<std::mutex> lock(registry_mutex());
  auto it = registry().find(site_);
  if (it != registry().end() && it->second.armed) {
    it->second.armed = false;
    g_armed.fetch_sub(1, std::memory_order_relaxed);
  }
}

}  // namespace failpoints
}  // namespace bltc
