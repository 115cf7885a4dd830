#include "serve/frontend.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <span>
#include <stdexcept>
#include <utility>

#include "core/cpu_kernels.hpp"
#include "core/periodic.hpp"
#include "mesh/mesh.hpp"
#include "util/failpoints.hpp"
#include "util/timer.hpp"
#include "util/validate.hpp"

namespace bltc::serve {
namespace {

double seconds_between(std::chrono::steady_clock::time_point from,
                       std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

std::chrono::steady_clock::duration duration_ms(double ms) {
  return std::chrono::duration_cast<std::chrono::steady_clock::duration>(
      std::chrono::duration<double, std::milli>(ms));
}

/// Payload accounted against the queue byte budget: the coordinates and
/// charges this request asks the frontend to hold a reference to.
std::size_t request_payload_bytes(const ServeRequest& request) {
  std::size_t n = request.sources != nullptr ? request.sources->size() : 0;
  if (request.targets != nullptr) n += request.targets->size();
  return 4 * n * sizeof(double);
}

std::exception_ptr shed_error(const char* why) {
  return std::make_exception_ptr(RequestShed(why));
}

std::exception_ptr deadline_error() {
  return std::make_exception_ptr(
      DeadlineExceeded("request deadline exceeded before execution"));
}

std::exception_ptr cancel_error() {
  return std::make_exception_ptr(
      RequestCancelled("request cancelled before execution"));
}

/// The kernel the treecode actually executes for `plan`: mesh-mode plans run
/// the screened erfc(alpha r)/r near field through the treecode while the
/// user-facing kernel stays KernelSpec::coulomb().
KernelSpec exec_kernel(const CachedPlan& plan, const KernelSpec& kernel) {
  return plan.mesh != nullptr ? mesh::mesh_near_kernel(plan.params) : kernel;
}

/// One fused multi-target execution: the concatenation of several target
/// plans into a single TargetPlan. The member trees become one forest (node
/// ids and particle ranges offset), and every member leaf keeps its own
/// pairs and its own contiguous output range, so each member's slice of the
/// fused result is bit-identical to executing its plan alone.
struct FusedTargets {
  OrderedParticles particles;
  ClusterTree forest;
  DualInteractionLists lists;
  std::vector<std::size_t> offsets;  ///< member start index, parallel input
};

FusedTargets fuse_targets(
    const std::vector<const TargetPlanState*>& members) {
  FusedTargets fused;
  std::size_t total = 0, nnodes = 0, nleaves = 0, npairs = 0;
  for (const TargetPlanState* t : members) {
    total += t->particles.size();
    nnodes += t->tree.num_nodes();
    nleaves += t->lists.front().leaf_nodes.size();
    npairs += t->lists.front().leaf_pairs.size();
  }
  fused.particles.x.reserve(total);
  fused.particles.y.reserve(total);
  fused.particles.z.reserve(total);
  fused.particles.q.reserve(total);
  fused.particles.original_index.reserve(total);
  std::vector<ClusterNode> nodes;
  nodes.reserve(nnodes);
  DualInteractionLists& lists = fused.lists;
  lists.grid_offsets.assign(1, 0);
  lists.leaf_offsets.assign(1, 0);
  lists.leaf_offsets.reserve(nleaves + 1);
  lists.leaf_nodes.reserve(nleaves);
  lists.leaf_pairs.reserve(npairs);
  lists.ladder = members.front()->lists.front().ladder;
  fused.offsets.reserve(members.size());

  std::size_t offset = 0;
  for (const TargetPlanState* t : members) {
    fused.offsets.push_back(offset);
    const OrderedParticles& p = t->particles;
    fused.particles.x.insert(fused.particles.x.end(), p.x.begin(), p.x.end());
    fused.particles.y.insert(fused.particles.y.end(), p.y.begin(), p.y.end());
    fused.particles.z.insert(fused.particles.z.end(), p.z.begin(), p.z.end());
    fused.particles.q.insert(fused.particles.q.end(), p.q.begin(), p.q.end());
    // Identity permutation over the fused order: each member un-permutes its
    // own slice with its own plan's original_index afterwards.
    for (std::size_t i = 0; i < p.size(); ++i) {
      fused.particles.original_index.push_back(offset + i);
    }
    const int base = static_cast<int>(nodes.size());
    const auto rebase = [base](int& id) {
      if (id >= 0) id += base;
    };
    for (ClusterNode node : t->tree.nodes()) {
      node.begin += offset;
      node.end += offset;
      rebase(node.parent);
      for (int& c : node.children) rebase(c);
      for (int& c : node.child_by_code) rebase(c);
      nodes.push_back(node);
    }
    const DualInteractionLists& member = t->lists.front();
    const std::size_t pair_base = lists.leaf_pairs.size();
    for (const int leaf : member.leaf_nodes) lists.leaf_nodes.push_back(leaf + base);
    for (std::size_t g = 1; g < member.leaf_offsets.size(); ++g) {
      lists.leaf_offsets.push_back(pair_base + member.leaf_offsets[g]);
    }
    for (DualPair pair : member.leaf_pairs) {
      pair.target += base;
      lists.leaf_pairs.push_back(pair);
    }
    lists.total_pc += member.total_pc;
    lists.total_direct += member.total_direct;
    offset += p.size();
  }
  fused.forest = ClusterTree::from_nodes(std::move(nodes));
  return fused;
}

}  // namespace

ServeFrontend::ServeFrontend(PlanCache& cache, ServeOptions options)
    : cache_(cache), options_(options) {
  options_.max_batch = std::max<std::size_t>(1, options_.max_batch);
  options_.max_delay_ms = std::max(0.0, options_.max_delay_ms);
  options_.max_degrade_tier = std::max(0, options_.max_degrade_tier);
  // workers == 0 is admission-only (deterministic shed-policy tests): no
  // threads, queued requests are shed at destruction.
  workers_.reserve(options_.workers);
  for (std::size_t i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ServeFrontend::~ServeFrontend() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  space_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  // With a worker fleet the loop drains the queue before exiting; without
  // one (workers == 0) every leftover must still resolve exactly once.
  std::vector<Pending> leftovers;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    while (!queue_.empty()) {
      ++counters_.shed;
      ++counters_.completed;
      leftovers.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
    queue_bytes_ = 0;
  }
  for (Pending& pending : leftovers) {
    pending.promise.set_exception(
        shed_error("request shed: frontend stopped while it was queued"));
  }
}

std::uint64_t ServeFrontend::group_key(const ServeRequest& request) {
  // FNV-1a over the cache key plus the kernel: requests may only share an
  // evaluation when they share the compiled plan *and* the kernel.
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffull;
      h *= 1099511628211ull;
    }
  };
  mix(plan_key(*request.sources, request.params));
  mix(static_cast<std::uint64_t>(request.kernel.type));
  std::uint64_t kappa_bits = 0;
  static_assert(sizeof(kappa_bits) == sizeof(request.kernel.kappa));
  std::memcpy(&kappa_bits, &request.kernel.kappa, sizeof(kappa_bits));
  mix(kappa_bits);
  return h;
}

std::future<ServeResponse> ServeFrontend::submit(ServeRequest request) {
  if (request.sources == nullptr) {
    throw std::invalid_argument("ServeFrontend::submit: null source cloud");
  }
  request.params.validate();
  require_boundary_kernel(request.params, request.kernel);
  require_finite(*request.sources, "ServeFrontend::submit sources");
  if (request.targets != nullptr) {
    require_finite(*request.targets, "ServeFrontend::submit targets");
  }

  Pending pending;
  pending.group = group_key(request);
  pending.bytes = request_payload_bytes(request);
  pending.enqueued = std::chrono::steady_clock::now();
  pending.deadline = request.deadline_ms > 0.0
                         ? pending.enqueued + duration_ms(request.deadline_ms)
                         : std::chrono::steady_clock::time_point::max();
  pending.request = std::move(request);
  std::future<ServeResponse> result = pending.promise.get_future();

  // Bounded admission. Promises are resolved only after the lock drops.
  std::vector<Pending> shed_victims;
  bool rejected = false;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (stopping_) {
      throw std::runtime_error("ServeFrontend::submit: frontend stopped");
    }
    const auto over_budget = [&] {
      if (options_.max_queue_requests > 0 &&
          queue_.size() >= options_.max_queue_requests) {
        return true;
      }
      // An oversized single request is still admitted to an empty queue
      // (mirrors the plan cache's keep-the-MRU rule) so it cannot starve.
      if (options_.max_queue_bytes > 0 && !queue_.empty() &&
          queue_bytes_ + pending.bytes > options_.max_queue_bytes) {
        return true;
      }
      return false;
    };
    while (over_budget()) {
      if (options_.shed_policy == ShedPolicy::kBlock) {
        space_cv_.wait(lock, [&] { return stopping_ || !over_budget(); });
        if (stopping_) {
          throw std::runtime_error("ServeFrontend::submit: frontend stopped");
        }
      } else if (options_.shed_policy == ShedPolicy::kRejectNew) {
        ++counters_.submitted;
        ++counters_.shed;
        ++counters_.completed;
        rejected = true;
        break;
      } else {  // kShedOldest: the newest work most likely still matters.
        shed_victims.push_back(std::move(queue_.front()));
        queue_.pop_front();
        queue_bytes_ -= shed_victims.back().bytes;
        ++counters_.shed;
        ++counters_.completed;
      }
    }
    if (!rejected) {
      queue_bytes_ += pending.bytes;
      queue_.push_back(std::move(pending));
      ++counters_.submitted;
    }
  }
  // notify_all: besides idle workers, a worker sitting in the group-fill
  // wait must wake to see a newly arrived member of its group.
  cv_.notify_all();
  for (Pending& victim : shed_victims) {
    victim.promise.set_exception(shed_error(
        "request shed: evicted by a newer request (ShedPolicy::kShedOldest)"));
  }
  if (rejected) {
    pending.promise.set_exception(shed_error(
        "request shed: queue budget exceeded (ShedPolicy::kRejectNew)"));
  }
  return result;
}

void ServeFrontend::purge_queue(std::unique_lock<std::mutex>& lock) {
  const auto now = std::chrono::steady_clock::now();
  std::vector<std::pair<Pending, bool>> dead;  // (request, was_cancelled)
  for (auto it = queue_.begin(); it != queue_.end();) {
    const bool cancelled =
        it->request.cancel != nullptr && it->request.cancel->cancelled();
    const bool expired = now >= it->deadline;
    if (!cancelled && !expired) {
      ++it;
      continue;
    }
    queue_bytes_ -= it->bytes;
    if (cancelled) {
      ++counters_.cancelled;
    } else {
      ++counters_.deadline_exceeded;
    }
    ++counters_.completed;
    dead.emplace_back(std::move(*it), cancelled);
    it = queue_.erase(it);
  }
  if (dead.empty()) return;
  lock.unlock();
  space_cv_.notify_all();
  for (auto& [pending, was_cancelled] : dead) {
    pending.promise.set_exception(was_cancelled ? cancel_error()
                                                : deadline_error());
  }
  lock.lock();
}

void ServeFrontend::observe_queue_wait(double wait_ms) {
  const double alpha = std::clamp(options_.ewma_alpha, 0.01, 1.0);
  counters_.queue_wait_ewma_ms =
      (1.0 - alpha) * counters_.queue_wait_ewma_ms + alpha * wait_ms;
  const double threshold =
      options_.overload_factor * std::max(options_.max_delay_ms, 0.01);
  // Hysteresis: enter above the threshold, exit below half of it, so the
  // degradation decision doesn't flap per group.
  if (!overloaded_ && counters_.queue_wait_ewma_ms > threshold) {
    overloaded_ = true;
  } else if (overloaded_ &&
             counters_.queue_wait_ewma_ms < 0.5 * threshold) {
    overloaded_ = false;
  }
  counters_.overloaded = overloaded_;
}

void ServeFrontend::worker_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
    // Expired and cancelled requests resolve without occupying a batch.
    purge_queue(lock);
    if (queue_.empty()) {
      if (stopping_) return;
      continue;
    }

    // Adopt the oldest request's group and hold admission open until the
    // group fills or its max-delay deadline passes. While stopping, drain
    // immediately.
    const std::uint64_t key = queue_.front().group;
    const auto deadline = queue_.front().enqueued +
                          duration_ms(options_.max_delay_ms);
    const auto group_count = [&] {
      std::size_t n = 0;
      for (const Pending& p : queue_) {
        if (p.group == key && ++n >= options_.max_batch) break;
      }
      return n;
    };
    while (!stopping_ && group_count() < options_.max_batch) {
      if (cv_.wait_until(lock, deadline) == std::cv_status::timeout) break;
      // Another worker may have drained this group while we slept.
      if (group_count() == 0) break;
    }

    std::vector<Pending> group;
    const auto now = std::chrono::steady_clock::now();
    for (auto it = queue_.begin();
         it != queue_.end() && group.size() < options_.max_batch;) {
      if (it->group == key) {
        queue_bytes_ -= it->bytes;
        observe_queue_wait(1e3 * seconds_between(it->enqueued, now));
        group.push_back(std::move(*it));
        it = queue_.erase(it);
      } else {
        ++it;
      }
    }
    if (group.empty()) continue;
    counters_.max_group = std::max(counters_.max_group, group.size());

    lock.unlock();
    space_cv_.notify_all();
    execute_group(group);
    lock.lock();
  }
}

template <typename Fn>
auto ServeFrontend::with_retries(Fn&& fn) -> decltype(fn()) {
  for (std::size_t attempt = 0;; ++attempt) {
    try {
      return fn();
    } catch (const std::exception& e) {
      // Only failures tagged retry-safe are retried; everything else (bad
      // input, non-neutral periodic cloud, ...) is deterministic and final.
      if (attempt >= options_.max_retries ||
          dynamic_cast<const TransientError*>(&e) == nullptr) {
        throw;
      }
      {
        std::lock_guard<std::mutex> lock(mutex_);
        ++counters_.retries;
      }
      const double backoff_ms =
          options_.retry_backoff_ms * std::ldexp(1.0, static_cast<int>(attempt));
      if (backoff_ms > 0.0) {
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(backoff_ms));
      }
    }
  }
}

std::vector<double> ServeFrontend::execute_plan(const CachedPlan& plan,
                                                const TargetPlan& view,
                                                const KernelSpec& kernel,
                                                std::size_t tier) {
  RunStats stats;
  const SourcePlan source = plan.source_view(tier);
  ExecContextPool::Lease context(contexts_);
  std::vector<double> phi =
      evaluate_plan({&source, 1}, view, exec_kernel(plan, kernel), stats,
                    &context->cpu_workspace());
  if (plan.mesh != nullptr) {
    mesh_far_field(*plan.mesh, view, phi, /*field=*/nullptr, stats);
  }
  return phi;
}

void ServeFrontend::execute_group(std::vector<Pending>& group) {
  const auto started = std::chrono::steady_clock::now();
  std::size_t evaluations = 0;
  std::size_t fused_requests = 0;
  std::size_t cache_hits = 0;
  std::size_t deadline_failures = 0;
  std::size_t cancel_failures = 0;
  std::size_t degraded_responses = 0;
  bool overloaded = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    overloaded = overloaded_;
  }

  // Fulfillment is deferred until after the counter update at the bottom:
  // a client's .get() returning must imply its request is visible in
  // stats(), so promises are the very last thing this function touches.
  std::vector<std::pair<std::promise<ServeResponse>*, ServeResponse>> fulfill;
  std::vector<std::pair<std::promise<ServeResponse>*, std::exception_ptr>>
      fail;
  fulfill.reserve(group.size());

  // Phase 1: admission re-check (deadline / cancellation) and per-request
  // plan resolution. The first miss builds; the rest are verified hits.
  // Per-request failures (bad params, a non-neutral periodic cloud) poison
  // only their own promise.
  struct Item {
    Pending* pending = nullptr;
    PlanPtr plan;
    std::shared_ptr<const TargetPlanState> targets;
    bool hit = false;
    std::size_t tier = 0;
  };
  std::vector<Item> items;
  items.reserve(group.size());
  for (Pending& pending : group) {
    if (pending.request.cancel != nullptr &&
        pending.request.cancel->cancelled()) {
      ++cancel_failures;
      fail.emplace_back(&pending.promise, cancel_error());
      continue;
    }
    if (started >= pending.deadline) {
      ++deadline_failures;
      fail.emplace_back(&pending.promise, deadline_error());
      continue;
    }
    try {
      const Cloud& sources = *pending.request.sources;
      const Cloud& targets = pending.request.targets != nullptr
                                 ? *pending.request.targets
                                 : sources;
      if (sources.size() == 0 || targets.size() == 0) {
        ServeResponse response;
        response.phi.assign(targets.size(), 0.0);
        response.group_size = group.size();
        response.queue_seconds = seconds_between(pending.enqueued, started);
        fulfill.emplace_back(&pending.promise, std::move(response));
        continue;
      }
      Item item;
      item.pending = &pending;
      item.plan = with_retries([&] {
        bool hit = false;
        PlanPtr plan =
            cache_.get_or_build(sources, pending.request.params, &hit);
        item.hit = hit;
        return plan;
      });
      item.targets = item.plan->target_plan(targets);
      // Tier decision: an explicit per-request override wins; otherwise
      // degrade only while the overload detector is tripped.
      const int forced = pending.request.degrade_tier;
      std::size_t tier = forced >= 0
                             ? static_cast<std::size_t>(forced)
                             : (overloaded && options_.max_degrade_tier > 0
                                    ? static_cast<std::size_t>(
                                          options_.max_degrade_tier)
                                    : 0);
      item.tier = std::min(tier, item.plan->degrade_tiers() - 1);
      if (item.hit) ++cache_hits;
      items.push_back(std::move(item));
    } catch (...) {
      fail.emplace_back(&pending.promise, std::current_exception());
    }
  }

  // Phase 2: execute per (plan, tier) unit (normally exactly one — the
  // group key contains the plan key; a fingerprint collision or mixed
  // forced tiers can split it).
  struct Unit {
    const CachedPlan* plan = nullptr;
    std::size_t tier = 0;
  };
  std::vector<Unit> units;
  for (const Item& item : items) {
    const bool seen =
        std::any_of(units.begin(), units.end(), [&](const Unit& u) {
          return u.plan == item.plan.get() && u.tier == item.tier;
        });
    if (!seen) units.push_back({item.plan.get(), item.tier});
  }
  for (const Unit& unit : units) {
    const CachedPlan* plan = unit.plan;
    std::vector<std::size_t> member_of;  // indices into items
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (items[i].plan.get() == plan && items[i].tier == unit.tier) {
        member_of.push_back(i);
      }
    }
    // Dedupe target plans: identical target clouds share one execution.
    std::vector<std::shared_ptr<const TargetPlanState>> unique_targets;
    std::vector<std::vector<std::size_t>> target_members;
    for (std::size_t i : member_of) {
      const auto& t = items[i].targets;
      std::size_t slot = unique_targets.size();
      for (std::size_t u = 0; u < unique_targets.size(); ++u) {
        if (unique_targets[u] == t) {
          slot = u;
          break;
        }
      }
      if (slot == unique_targets.size()) {
        unique_targets.push_back(t);
        target_members.emplace_back();
      }
      target_members[slot].push_back(i);
    }

    // Between-evaluations deadline/cancel check: drop members whose
    // deadline passed while earlier work in this group ran; they must not
    // hold results they will never read.
    const auto drop_expired = [&](std::vector<std::size_t>& members) {
      const auto now = std::chrono::steady_clock::now();
      std::vector<std::size_t> live;
      live.reserve(members.size());
      for (std::size_t i : members) {
        Pending* pending = items[i].pending;
        if (pending->request.cancel != nullptr &&
            pending->request.cancel->cancelled()) {
          ++cancel_failures;
          fail.emplace_back(&pending->promise, cancel_error());
        } else if (now >= pending->deadline) {
          ++deadline_failures;
          fail.emplace_back(&pending->promise, deadline_error());
        } else {
          live.push_back(i);
        }
      }
      members.swap(live);
    };

    const KernelSpec kernel = items[member_of.front()].pending->request.kernel;
    const bool dual = plan->params.traversal == TraversalMode::kDual;
    std::vector<std::vector<double>> results(unique_targets.size());
    std::vector<char> executed(unique_targets.size(), 0);
    try {
      if (!dual && unique_targets.size() > 1) {
        // Fuse every distinct target set into one evaluation. The dual
        // traversal accumulates through a global per-target-tree structure,
        // so it executes per target set.
        std::size_t live_members = 0;
        for (auto& members : target_members) {
          drop_expired(members);
          live_members += members.size();
        }
        if (live_members > 0) {
          std::vector<const TargetPlanState*> raw;
          raw.reserve(unique_targets.size());
          for (const auto& t : unique_targets) raw.push_back(t.get());
          const FusedTargets fused = fuse_targets(raw);

          TargetPlan view;
          view.particles = &fused.particles;
          view.tree = &fused.forest;
          view.lists = std::span<const DualInteractionLists>(&fused.lists, 1);
          // Every member plan shares one shift table (same params).
          view.shifts = plan->params.periodic()
                            ? &unique_targets.front()->shifts
                            : nullptr;

          const std::vector<double> phi = with_retries(
              [&] { return execute_plan(*plan, view, kernel, unit.tier); });
          ++evaluations;
          fused_requests += live_members;
          for (std::size_t u = 0; u < unique_targets.size(); ++u) {
            const std::size_t begin = fused.offsets[u];
            const std::size_t count = unique_targets[u]->particles.size();
            results[u].assign(phi.begin() + static_cast<long>(begin),
                              phi.begin() + static_cast<long>(begin + count));
            executed[u] = 1;
          }
        }
      } else {
        for (std::size_t u = 0; u < unique_targets.size(); ++u) {
          drop_expired(target_members[u]);
          if (target_members[u].empty()) continue;
          results[u] = with_retries([&] {
            return execute_plan(*plan, unique_targets[u]->view(), kernel,
                                unit.tier);
          });
          executed[u] = 1;
          ++evaluations;
          if (target_members[u].size() > 1) {
            fused_requests += target_members[u].size();
          }
        }
      }
    } catch (...) {
      // Only members whose target set never executed fail; members of
      // already-executed sets still get their results below.
      for (std::size_t u = 0; u < unique_targets.size(); ++u) {
        if (executed[u]) continue;
        for (std::size_t i : target_members[u]) {
          fail.emplace_back(&items[i].pending->promise,
                            std::current_exception());
        }
        target_members[u].clear();
      }
    }

    const auto finished = std::chrono::steady_clock::now();
    for (std::size_t u = 0; u < unique_targets.size(); ++u) {
      if (!executed[u]) continue;
      for (std::size_t i : target_members[u]) {
        Item& item = items[i];
        ServeResponse response;
        response.phi =
            unique_targets[u]->particles.scatter_to_original(results[u]);
        response.cache_hit = item.hit;
        response.group_size = group.size();
        response.queue_seconds =
            seconds_between(item.pending->enqueued, started);
        response.execute_seconds = seconds_between(started, finished);
        response.degrade_tier = static_cast<int>(unit.tier);
        response.degree = plan->tier_degree(unit.tier);
        response.error_bound = plan->tier_error_bound(unit.tier);
        response.precision = plan->source_view(unit.tier).fp32
                                 ? plan->params.precision
                                 : PrecisionPolicy::kFp64;
        if (unit.tier > 0) ++degraded_responses;
        fulfill.emplace_back(&item.pending->promise, std::move(response));
      }
    }
  }

  {
    std::lock_guard<std::mutex> lock(mutex_);
    counters_.completed += fulfill.size() + fail.size();
    counters_.executions += evaluations;
    counters_.fused_requests += fused_requests;
    counters_.cache_hits += cache_hits;
    counters_.deadline_exceeded += deadline_failures;
    counters_.cancelled += cancel_failures;
    counters_.degraded += degraded_responses;
  }
  for (auto& [promise, error] : fail) promise->set_exception(error);
  for (auto& [promise, response] : fulfill) {
    promise->set_value(std::move(response));
  }
}

ServeResponse ServeFrontend::evaluate_now(const ServeRequest& request) {
  if (request.sources == nullptr) {
    throw std::invalid_argument(
        "ServeFrontend::evaluate_now: null source cloud");
  }
  request.params.validate();
  require_boundary_kernel(request.params, request.kernel);
  require_finite(*request.sources, "ServeFrontend::evaluate_now sources");
  if (request.targets != nullptr) {
    require_finite(*request.targets, "ServeFrontend::evaluate_now targets");
  }
  WallTimer timer;
  const Cloud& sources = *request.sources;
  const Cloud& targets =
      request.targets != nullptr ? *request.targets : sources;
  ServeResponse response;
  bool hit = false;
  if (sources.size() == 0 || targets.size() == 0) {
    response.phi.assign(targets.size(), 0.0);
  } else {
    PlanPtr plan = cache_.get_or_build(sources, request.params, &hit);
    const auto target_plan = plan->target_plan(targets);
    const std::size_t tier =
        request.degrade_tier >= 0
            ? std::min(static_cast<std::size_t>(request.degrade_tier),
                       plan->degrade_tiers() - 1)
            : 0;
    const std::vector<double> phi =
        execute_plan(*plan, target_plan->view(), request.kernel, tier);
    response.phi = target_plan->particles.scatter_to_original(phi);
    response.cache_hit = hit;
    response.degrade_tier = static_cast<int>(tier);
    response.degree = plan->tier_degree(tier);
    response.error_bound = plan->tier_error_bound(tier);
    response.precision = plan->source_view(tier).fp32
                             ? plan->params.precision
                             : PrecisionPolicy::kFp64;
  }
  response.execute_seconds = timer.seconds();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++counters_.submitted;
    ++counters_.completed;
    if (response.phi.size() > 0 && targets.size() > 0 &&
        sources.size() > 0) {
      ++counters_.executions;
    }
    if (hit) ++counters_.cache_hits;
    if (response.degrade_tier > 0) ++counters_.degraded;
    counters_.max_group = std::max<std::size_t>(counters_.max_group, 1);
  }
  return response;
}

FrontendStats ServeFrontend::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  FrontendStats out = counters_;
  out.queue_depth = queue_.size();
  out.queue_bytes = queue_bytes_;
  return out;
}

}  // namespace bltc::serve
