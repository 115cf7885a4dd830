#include "serve/plan_cache.hpp"

#include <cstring>
#include <stdexcept>
#include <utility>

#include <algorithm>
#include <cmath>

#include "core/interaction_lists.hpp"
#include "core/periodic.hpp"
#include "mesh/mesh.hpp"
#include "util/failpoints.hpp"
#include "util/validate.hpp"

namespace bltc::serve {
namespace {

/// FNV-1a accumulator over 64-bit words (doubles contribute their exact bit
/// patterns, so fingerprint equality is a statement about bitwise inputs).
struct Fnv1a {
  std::uint64_t h = 1469598103934665603ULL;

  void add_u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffULL;
      h *= 1099511628211ULL;
    }
  }
  void add_double(double d) {
    std::uint64_t bits;
    std::memcpy(&bits, &d, sizeof(bits));
    add_u64(bits);
  }
};

bool params_equal(const TreecodeParams& a, const TreecodeParams& b) {
  return a.theta == b.theta && a.degree == b.degree &&
         a.max_leaf == b.max_leaf && a.max_batch == b.max_batch &&
         a.moment_algorithm == b.moment_algorithm &&
         a.traversal == b.traversal &&
         a.boundary == b.boundary && a.image_shells == b.image_shells &&
         a.mesh_order == b.mesh_order && a.mesh_spacing == b.mesh_spacing &&
         a.ewald_alpha == b.ewald_alpha &&
         a.position_slack == b.position_slack &&
         a.precision == b.precision &&
         a.domain.lo == b.domain.lo && a.domain.hi == b.domain.hi;
}

/// splitmix64 finalizer: a full-avalanche 64-bit mixer.
std::uint64_t mix64(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t double_bits(double d) {
  std::uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

/// Hash of one particle (slot `i`), wrap-aware. The slot index seeds the
/// chain so permuted clouds hash differently; the coordinates and charge
/// contribute their exact (wrapped) bit patterns.
std::uint64_t particle_hash(std::size_t i, const Cloud& cloud,
                            const TreecodeParams& params) {
  double x = cloud.x[i];
  double y = cloud.y[i];
  double z = cloud.z[i];
  if (params.periodic()) {
    const auto len = params.domain.lengths();
    x = wrap_coordinate(x, params.domain.lo[0], len[0]);
    y = wrap_coordinate(y, params.domain.lo[1], len[1]);
    z = wrap_coordinate(z, params.domain.lo[2], len[2]);
  }
  std::uint64_t h = mix64(static_cast<std::uint64_t>(i));
  h = mix64(h ^ double_bits(x));
  h = mix64(h ^ double_bits(y));
  h = mix64(h ^ double_bits(z));
  h = mix64(h ^ double_bits(cloud.q[i]));
  return h;
}

std::size_t particles_bytes(const OrderedParticles& p) {
  return 4 * p.x.size() * sizeof(double) +
         p.original_index.size() * sizeof(std::size_t);
}

std::size_t moments_bytes(const ClusterMoments& m) {
  return (m.all_grids().size() + m.all_qhat().size()) * sizeof(double);
}

std::size_t lists_bytes(const DualInteractionLists& l) {
  return (l.grid_pairs.size() + l.leaf_pairs.size()) * sizeof(DualPair) +
         (l.grid_offsets.size() + l.leaf_offsets.size()) *
             sizeof(std::size_t) +
         (l.grid_nodes.size() + l.leaf_nodes.size() + l.ladder.size()) *
             sizeof(int);
}

std::size_t target_plan_bytes(const TargetPlanState& t) {
  std::size_t b = particles_bytes(t.particles) + t.shifts.bytes() +
                  t.tree.num_nodes() * sizeof(ClusterNode);
  for (const ClusterMoments& g : t.grids) b += moments_bytes(g);
  for (const DualInteractionLists& l : t.lists) b += lists_bytes(l);
  return b;
}

/// Build one target plan against the cached source (the Solver's
/// plan_targets, including its symmetric self mode).
std::shared_ptr<const TargetPlanState> build_target_plan(
    const Cloud& targets, const SourcePlanState& source,
    const TreecodeParams& params) {
  auto state =
      std::make_shared<TargetPlanState>(TargetPlanState::plan(targets,
                                                              params));
  state->append_lists(source.tree, params,
                      symmetric_self_mode(params, source.matches(targets)));
  return state;
}

}  // namespace

std::uint64_t cloud_fingerprint(const Cloud& cloud,
                                const TreecodeParams& params) {
  // XOR of per-particle hashes (each chained on its slot index).
  std::uint64_t fp = mix64(cloud.size() ^ 0xb1c7a9e35d02f846ULL);
  for (std::size_t i = 0; i < cloud.size(); ++i) {
    fp ^= particle_hash(i, cloud, params);
  }
  return fp;
}

std::uint64_t params_fingerprint(const TreecodeParams& params) {
  Fnv1a fnv;
  fnv.add_double(params.theta);
  fnv.add_u64(static_cast<std::uint64_t>(params.degree));
  fnv.add_u64(params.max_leaf);
  fnv.add_u64(params.max_batch);
  fnv.add_u64(static_cast<std::uint64_t>(params.moment_algorithm));
  fnv.add_u64(static_cast<std::uint64_t>(params.traversal));
  fnv.add_u64(static_cast<std::uint64_t>(params.boundary));
  fnv.add_u64(static_cast<std::uint64_t>(params.image_shells));
  fnv.add_u64(static_cast<std::uint64_t>(params.mesh_order));
  fnv.add_double(params.mesh_spacing);
  fnv.add_double(params.ewald_alpha);
  fnv.add_double(params.position_slack);
  fnv.add_u64(static_cast<std::uint64_t>(params.precision));
  for (int d = 0; d < 3; ++d) {
    fnv.add_double(params.domain.lo[static_cast<std::size_t>(d)]);
    fnv.add_double(params.domain.hi[static_cast<std::size_t>(d)]);
  }
  return fnv.h;
}

std::uint64_t plan_key(const Cloud& sources, const TreecodeParams& params) {
  Fnv1a fnv;
  fnv.add_u64(cloud_fingerprint(sources, params));
  fnv.add_u64(params_fingerprint(params));
  return fnv.h;
}

std::size_t cached_plan_bytes(const CachedPlan& plan) {
  std::size_t b = particles_bytes(plan.source.particles) +
                  plan.source.tree.num_nodes() * sizeof(ClusterNode);
  for (const ClusterMoments& m : plan.source.moment_levels) {
    b += moments_bytes(m);
  }
  if (plan.self_targets != nullptr) b += target_plan_bytes(*plan.self_targets);
  if (plan.mesh != nullptr) b += plan.mesh->bytes();
  return b;
}

SourcePlan CachedPlan::source_view(std::size_t tier) const {
  // A degraded tier executes the batched lists' level-0 pairs against a
  // deeper ladder level.
  tier = std::min(tier, source.moment_levels.size() - 1);
  // Tagged fp32 tiles execute only at the nominal tier: the tags were
  // proved against the nominal degree's truncation bound, which a deeper
  // ladder level does not meet, so a degraded tier runs all-fp64.
  return {&source, std::span(source.moment_levels).subspan(tier), tier == 0};
}

std::size_t CachedPlan::degrade_tiers() const {
  // Degradation swaps the executed moments for a deeper ladder level, which
  // only the batched traversal reads per-level; dual executes its whole
  // ladder already.
  if (params.traversal == TraversalMode::kDual) return 1;
  return source.moment_levels.size();
}

int CachedPlan::tier_degree(std::size_t tier) const {
  tier = std::min(tier, source.moment_levels.size() - 1);
  return source.moment_levels[tier].degree();
}

double CachedPlan::tier_error_bound(std::size_t tier) const {
  const double d = static_cast<double>(tier_degree(tier));
  return std::pow(params.theta, d + 1.0) / (1.0 - params.theta);
}

std::shared_ptr<const TargetPlanState> CachedPlan::self_target_plan() const {
  return self_targets;
}

std::shared_ptr<const TargetPlanState> CachedPlan::target_plan(
    const Cloud& targets) const {
  if (self_targets->matches(targets)) return self_targets;
  const std::uint64_t fp = cloud_fingerprint(targets, params);
  {
    std::lock_guard<std::mutex> lock(targets_mutex_);
    for (const auto& [key, state] : extra_targets_) {
      if (key == fp && state->matches(targets)) return state;
    }
  }
  std::shared_ptr<const TargetPlanState> state =
      build_target_plan(targets, source, params);
  std::lock_guard<std::mutex> lock(targets_mutex_);
  // A racing builder may have inserted the same plan meanwhile; prefer the
  // resident one so concurrent requests share a single instance.
  for (const auto& [key, existing] : extra_targets_) {
    if (key == fp && existing->matches(targets)) return existing;
  }
  constexpr std::size_t kMaxExtraTargets = 16;
  if (extra_targets_.size() >= kMaxExtraTargets) extra_targets_.pop_back();
  extra_targets_.emplace_front(fp, state);
  return state;
}

PlanCache::PlanCache(Options options) : options_(options) {}

PlanPtr PlanCache::build_plan(const Cloud& sources,
                              const TreecodeParams& params,
                              std::uint64_t key) const {
  failpoint(failpoints::sites::kPlanCacheBuild);
  auto plan = std::make_shared<CachedPlan>();
  plan->params = params;
  plan->key = key;
  plan->source = SourcePlanState::build(sources, params);

  if (params.mesh()) {
    // The far field is part of the compiled artifact: built AND solved at
    // plan build, so cache hits gather from the immutable k-space solution
    // without ever re-spreading or re-transforming.
    auto far = std::make_unique<mesh::MeshPlan>(plan->source.particles,
                                                params);
    far->solve();
    plan->mesh = std::move(far);
  }

  // Both traversals get the full degree ladder: the dual traversal
  // executes through it per pair, and the batched traversal's deeper levels
  // are the graceful-degradation tiers the frontend serves under overload.
  // Restrictions are exact (no fresh moment computation), so a cache-hit
  // storm still shows zero moment builds after warmup.
  plan->source.build_moments(dual_degree_ladder(params.degree).size());

  plan->self_targets = build_target_plan(sources, plan->source, params);
  plan->bytes = cached_plan_bytes(*plan);
  return plan;
}

bool PlanCache::verify(const CachedPlan& plan, const Cloud& sources,
                       const TreecodeParams& params) {
  if (!params_equal(plan.params, params)) return false;
  if (plan.source.size() != sources.size()) return false;
  if (!plan.source.matches(sources)) return false;
  const OrderedParticles& p = plan.source.particles;
  for (std::size_t i = 0; i < p.size(); ++i) {
    if (p.q[i] != sources.q[p.original_index[i]]) return false;
  }
  return true;
}

PlanPtr PlanCache::get_or_build(const Cloud& sources,
                                const TreecodeParams& params,
                                bool* was_hit) {
  if (was_hit != nullptr) *was_hit = false;
  params.validate();
  if (sources.size() == 0) {
    throw std::invalid_argument("PlanCache::get_or_build: empty source cloud");
  }
  require_finite(sources, "PlanCache::get_or_build");
  const std::uint64_t key = plan_key(sources, params);

  std::promise<PlanPtr> promise;
  std::shared_future<PlanPtr> future;
  bool builder = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      future = it->second.plan;
      lru_.splice(lru_.begin(), lru_, it->second.lru);
    } else {
      builder = true;
      counters_.misses += 1;
      Entry entry;
      entry.plan = promise.get_future().share();
      lru_.push_front(key);
      entry.lru = lru_.begin();
      future = entry.plan;
      entries_.emplace(key, std::move(entry));
    }
  }

  if (builder) {
    PlanPtr plan;
    try {
      plan = build_plan(sources, params, key);
    } catch (...) {
      // Exception safety: the pending single-flight entry must go before
      // the waiters are released, so no key is ever permanently poisoned —
      // the next miss on this key starts a fresh build. Bytes were never
      // accounted for a failed build, so entries/bytes stay consistent.
      {
        std::lock_guard<std::mutex> lock(mutex_);
        counters_.build_failures += 1;
        auto it = entries_.find(key);
        if (it != entries_.end()) {
          lru_.erase(it->second.lru);
          entries_.erase(it);
        }
      }
      promise.set_exception(std::current_exception());
      throw;
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      auto it = entries_.find(key);
      if (it != entries_.end()) {
        it->second.ready = true;
        it->second.bytes = plan->bytes;
        bytes_ += plan->bytes;
        // LRU eviction under the byte budget: walk from the cold end,
        // skipping entries still being built; always keep the most
        // recently used plan even when it alone overflows the budget.
        const auto evict_one = [&]() -> bool {
          for (auto pos = lru_.rbegin(); pos != lru_.rend(); ++pos) {
            if (*pos == key) continue;  // the plan being inserted stays
            auto victim = entries_.find(*pos);
            if (victim == entries_.end() || !victim->second.ready) continue;
            bytes_ -= victim->second.bytes;
            entries_.erase(victim);
            lru_.erase(std::next(pos).base());
            counters_.evictions += 1;
            return true;
          }
          return false;
        };
        while (bytes_ > options_.max_bytes && entries_.size() > 1 &&
               evict_one()) {
        }
      }
    }
    promise.set_value(plan);
    return plan;
  }

  PlanPtr plan = future.get();  // rethrows a failed build
  if (!verify(*plan, sources, params)) {
    // Fingerprint collision: never serve a wrong plan — build privately
    // (uncached, so the resident entry keeps serving its own key).
    {
      std::lock_guard<std::mutex> lock(mutex_);
      counters_.collisions += 1;
      counters_.misses += 1;
    }
    return build_plan(sources, params, key);
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    counters_.hits += 1;
  }
  if (was_hit != nullptr) *was_hit = true;
  return plan;
}

CacheStats PlanCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  CacheStats out = counters_;
  out.entries = entries_.size();
  out.bytes = bytes_;
  return out;
}

void PlanCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  entries_.clear();
  lru_.clear();
  bytes_ = 0;
}

}  // namespace bltc::serve
