// Thread-safe, byte-budgeted plan cache — the shared compiled-artifact
// store of the serving layer.
//
// The paper's whole premise is that plan construction (tree, batches,
// interaction lists, modified charges) amortizes across evaluations; a
// multi-tenant server amortizes it across *requests*: many clients asking
// about the same source cloud under the same treecode parameters should pay
// the planning cost exactly once. `PlanCache` keys a fully built, immutable
// `CachedPlan` by a fingerprint of the (wrapped) source coordinates and
// charges plus the `TreecodeParams`, evicts least-recently-used
// plans when a configurable byte budget overflows, and counts hits, misses,
// evictions, and fingerprint collisions.
//
// Wrap-awareness: under periodic boundaries the fingerprint is taken over
// coordinates wrapped into the domain, so a cloud translated by an exact
// lattice vector hashes — and verifies — identical to the original and hits
// the cached plan, mirroring `SourcePlanState::matches`.
//
// Concurrency: `get_or_build` is safe from any number of threads and
// single-flight — concurrent misses on one key build the plan once and
// share it. Returned plans are `shared_ptr<const CachedPlan>`: eviction
// only drops the cache's reference, so in-flight evaluations keep their
// plan alive. Hits are verified against the stored coordinates/charges
// (wrap-aware); a fingerprint collision falls back to an uncached build and
// is counted, never served wrong.
#pragma once

#include <cstddef>
#include <cstdint>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/plan.hpp"
#include "core/solver.hpp"
#include "util/workloads.hpp"

namespace bltc::serve {

/// One immutable compiled artifact: the source-side plan with its moments
/// and the eagerly built self-target plan (targets == sources, the dominant
/// request shape). The source plan holds the full degree ladder
/// ({n, n-1, ..., 2}, exact restrictions of the nominal moments):
/// the dual traversal executes through it per pair, and the batched
/// traversal's level-0 pairs execute [0] nominally and a deeper level when
/// the frontend serves a *degraded tier* under overload (source_view(tier)
/// passes the ladder from that level on; the lists are degree-independent,
/// so no rebuild). Extra target plans (requests evaluating other target
/// clouds against this source) are memoized in a small bounded side cache.
struct CachedPlan {
  TreecodeParams params;
  std::uint64_t key = 0;

  SourcePlanState source;
  /// Planned at build: targets == sources (shared_ptr so requests hold the
  /// plan they executed independently of this CachedPlan's lifetime).
  std::shared_ptr<const TargetPlanState> self_targets;

  /// kPeriodicMesh only: the solved FFT far field of the cached source
  /// cloud, built and solved once at plan build. Immutable afterwards —
  /// concurrent requests gather from it re-entrantly, so a cache-hit storm
  /// shows zero extra mesh builds or solves. Null under other boundaries.
  std::unique_ptr<const mesh::MeshPlan> mesh;

  std::size_t bytes = 0;  ///< accounted against the cache budget

  /// Source view executing moment-ladder level `tier` (0 = nominal). Only
  /// meaningful for batched plans — the graceful-degradation path.
  SourcePlan source_view(std::size_t tier = 0) const;

  /// Degraded tiers this plan can serve (1 when degradation does not apply:
  /// dual traversal, or degree too small for a ladder).
  std::size_t degrade_tiers() const;

  /// Interpolation degree executed at `tier` (clamped).
  int tier_degree(std::size_t tier) const;

  /// A-priori relative far-field error estimate at `tier`: the classical
  /// treecode bound theta^(d+1) / (1 - theta) at the tier's degree.
  double tier_error_bound(std::size_t tier) const;

  /// Target plan for `targets` — the precomputed self plan when the cloud
  /// is the source cloud (wrap-aware), else built against the source tree
  /// and memoized (bounded FIFO side cache; not budget-accounted).
  std::shared_ptr<const TargetPlanState> target_plan(const Cloud& targets)
      const;

  /// The self-target plan under its shared_ptr alias (no copy).
  std::shared_ptr<const TargetPlanState> self_target_plan() const;

 private:
  friend class PlanCache;
  /// Side cache of non-self target plans keyed by target-cloud fingerprint.
  mutable std::mutex targets_mutex_;
  mutable std::list<std::pair<std::uint64_t,
                              std::shared_ptr<const TargetPlanState>>>
      extra_targets_;
};

using PlanPtr = std::shared_ptr<const CachedPlan>;

/// Cache observability counters (monotonic except entries/bytes).
struct CacheStats {
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t evictions = 0;
  std::size_t collisions = 0;  ///< fingerprint matched, verification failed
  std::size_t build_failures = 0;  ///< builds that threw (entry evicted)
  std::size_t entries = 0;     ///< plans currently resident
  std::size_t bytes = 0;       ///< bytes currently accounted
};

// ---- Fingerprints --------------------------------------------------------

/// Commutative hash over the bit patterns of the cloud's coordinates
/// (wrapped into `params.domain` under periodic boundaries) and charges:
/// the XOR of one splitmix64-mixed hash per (slot, x, y, z, q) tuple.
/// Lattice-exact translated clouds hash identical under kPeriodic, and
/// because XOR is self-inverse a fingerprint can be advanced in O(moved)
/// after an incremental position update (cloud_fingerprint_update) instead
/// of rehashing all N particles.
std::uint64_t cloud_fingerprint(const Cloud& cloud,
                                const TreecodeParams& params);

/// Advance `fingerprint` (a cloud_fingerprint of `before`) to the
/// fingerprint of `after`, touching only the particles listed in `moved`
/// (caller-order indices; duplicates are harmless only if listed an odd
/// number of times — pass each moved index once). `before` and `after` must
/// agree outside `moved`; the result then equals
/// cloud_fingerprint(after, params) exactly. O(moved.size()).
std::uint64_t cloud_fingerprint_update(std::uint64_t fingerprint,
                                       const Cloud& before,
                                       const Cloud& after,
                                       std::span<const std::size_t> moved,
                                       const TreecodeParams& params);

/// FNV-1a over every result-affecting TreecodeParams field.
std::uint64_t params_fingerprint(const TreecodeParams& params);

/// The cache key: cloud x params.
std::uint64_t plan_key(const Cloud& sources, const TreecodeParams& params);

/// Budget accounting for one built plan: particle arrays, tree nodes,
/// interaction lists, moments (every ladder level), shift table and mesh.
std::size_t cached_plan_bytes(const CachedPlan& plan);

/// Thread-safe LRU plan cache under a byte budget (see file comment).
class PlanCache {
 public:
  struct Options {
    /// Eviction threshold. At least the most recently used plan is always
    /// kept, even when it alone exceeds the budget.
    std::size_t max_bytes = std::size_t(256) << 20;
  };

  PlanCache() : PlanCache(Options{}) {}
  explicit PlanCache(Options options);

  /// Return the cached plan for (sources, params), building and inserting
  /// it on miss. Single-flight per key; `was_hit` (optional) reports
  /// whether a verified cached plan was served. Throws
  /// std::invalid_argument on invalid params or an empty cloud.
  PlanPtr get_or_build(const Cloud& sources, const TreecodeParams& params,
                       bool* was_hit = nullptr);

  CacheStats stats() const;

  /// Drop every resident plan (in-flight shared_ptrs stay valid).
  void clear();

 private:
  struct Entry {
    std::shared_future<PlanPtr> plan;
    bool ready = false;
    std::size_t bytes = 0;
    std::list<std::uint64_t>::iterator lru;
  };

  /// Build one plan outside the lock (the expensive path).
  PlanPtr build_plan(const Cloud& sources, const TreecodeParams& params,
                     std::uint64_t key) const;

  /// Whether `plan` was really built over (sources, params) — wrap-aware
  /// coordinate + charge comparison, collision defense.
  static bool verify(const CachedPlan& plan, const Cloud& sources,
                     const TreecodeParams& params);

  Options options_;
  mutable std::mutex mutex_;
  std::unordered_map<std::uint64_t, Entry> entries_;
  std::list<std::uint64_t> lru_;  ///< most recent first
  std::size_t bytes_ = 0;
  CacheStats counters_;
};

}  // namespace bltc::serve
