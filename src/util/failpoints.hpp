// Deterministic, seeded fault injection for testing recovery paths.
//
// A *failpoint* is a named site in production code (`failpoint("site")`)
// that normally costs one relaxed atomic load and does nothing. Tests and
// chaos harnesses arm a site with a `FailpointScope`, after which each pass
// through the site may throw a `FailpointError` — either with a seeded
// per-site probability (two runs with the same seed trip on exactly the
// same hits, regardless of wall clock) or deterministically on the Nth hit.
// `FailpointError` derives from `TransientError`, the tag retry layers key
// on: anything a failpoint injects is by construction retryable.
//
// Thread safety: the registry is mutex-protected and the disarmed fast path
// is a single atomic, so sites may be hit from any number of threads (the
// serving and simmpi suites run them under TSan). Determinism under
// concurrency is per-site *hit-count* determinism: the set of hit indices
// that trip is a pure function of (seed, probability), though which thread
// draws a given index depends on the schedule.
#pragma once

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace bltc {

/// Tag base for failures that are safe to retry (the operation did not
/// commit partial state). The frontend's retry-with-backoff only retries
/// exceptions that also derive from this.
class TransientError {
 public:
  virtual ~TransientError() = default;
};

/// Thrown by a tripped failpoint. `site()` names the site and `hit()` is
/// the 1-based hit index that tripped, so tests can assert exactly which
/// pass failed.
class FailpointError : public std::runtime_error, public TransientError {
 public:
  FailpointError(const std::string& site, std::uint64_t hit);
  const std::string& site() const { return site_; }
  std::uint64_t hit() const { return hit_; }

 private:
  std::string site_;
  std::uint64_t hit_;
};

/// Per-site trip policy. Probability and fail_on_hit compose: a hit trips
/// if it is the designated Nth hit *or* the seeded coin comes up.
struct FailpointConfig {
  double probability = 0.0;     ///< seeded per-hit trip probability
  std::uint64_t seed = 1;       ///< per-site RNG seed (SplitMix64)
  std::uint64_t fail_on_hit = 0;  ///< 1-based hit index to trip on (0 = off)
  std::uint64_t max_trips = 0;    ///< stop tripping after this many (0 = no cap)
};

/// Observed activity at one site since it was last armed.
struct FailpointStats {
  std::uint64_t hits = 0;   ///< passes through the site while armed
  std::uint64_t trips = 0;  ///< hits that threw
};

namespace failpoints {

/// Canonical site names wired into the codebase (the `--chaos` storm arms
/// all of them).
namespace sites {
inline constexpr const char* kPlanCacheBuild = "plan_cache.build";
inline constexpr const char* kWorkspaceAcquire = "workspace.acquire";
inline constexpr const char* kSimmpiGet = "simmpi.get";
inline constexpr const char* kSimmpiPut = "simmpi.put";
inline constexpr const char* kGpuStage = "gpusim.stage";
inline constexpr const char* kPlanIncrementalRebucket =
    "plan.incremental_rebucket";
inline constexpr const char* kGpuPartialRestage = "gpusim.partial_restage";
}  // namespace sites

/// Every wired site name (for chaos harnesses that arm the whole surface).
std::vector<const char*> all_sites();

/// Number of armed sites; the disarmed fast path reads only this.
extern std::atomic<int> g_armed;

/// Slow path: registry lookup + trip decision. Call through `hit`.
void hit_slow(const char* site);

/// Production call: free when nothing is armed anywhere.
inline void hit(const char* site) {
  if (g_armed.load(std::memory_order_relaxed) == 0) return;
  hit_slow(site);
}

/// Stats for `site` accumulated since it was armed (zeros when unknown).
FailpointStats stats(const std::string& site);

/// Disarm every site and drop all counters (test isolation).
void reset_all();

/// RAII activation: arms `site` with `config` on construction (resetting
/// its counters and RNG), disarms it on destruction. Scopes for one site
/// do not nest — re-arming an armed site replaces its config.
class FailpointScope {
 public:
  FailpointScope(std::string site, FailpointConfig config);
  ~FailpointScope();
  FailpointScope(const FailpointScope&) = delete;
  FailpointScope& operator=(const FailpointScope&) = delete;

  FailpointStats stats() const { return failpoints::stats(site_); }
  const std::string& site() const { return site_; }

 private:
  std::string site_;
};

}  // namespace failpoints

/// Site marker used by production code; see failpoints::hit.
inline void failpoint(const char* site) { failpoints::hit(site); }

}  // namespace bltc
