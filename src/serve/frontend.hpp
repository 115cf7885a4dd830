// Request-batching serving front end over the shared PlanCache.
//
// The serving observation mirrors the paper's batching observation: many
// small independent requests against one compiled plan are the same work
// shape as many small target batches against one source tree — so coalesce
// them. `ServeFrontend::submit` enqueues a request and returns a future;
// worker threads group queued requests by (plan key, kernel) under a
// max-batch-size / max-delay admission policy and execute each group
// through one fused evaluation:
//
//   * requests sharing identical target coordinates share one execution
//     (and one result vector) outright;
//   * distinct target sets under the batched traversal are *fused*: their
//     tree-ordered particles are concatenated, their target trees joined
//     into one forest (node ids and particle ranges offset), and their
//     leaf groups concatenated into one TargetPlan, executed in a single
//     evaluation, and sliced back per request. Because every leaf keeps
//     its own pairs and its own contiguous output range, each request's
//     potentials are bit-identical to an individual evaluate() of its own
//     plan;
//   * dual-traversal groups execute per unique target set (their
//     accumulation structure is global per target tree), still sharing the
//     cached plan and deduped results.
//
// Overload behavior (serve/errors.hpp holds the failure vocabulary):
//
//   * every request may carry a deadline and a cancel token, checked at
//     queue admission, at group formation, and between evaluations — an
//     expired request resolves with DeadlineExceeded instead of occupying
//     a fused batch;
//   * the queue is bounded by request count and bytes; past the budget the
//     shed policy blocks the submitter, rejects the newcomer, or sheds the
//     oldest queued request (kShedOldest — the newest work is the most
//     likely to still matter to a live client);
//   * an EWMA of observed queue wait against the max-delay target detects
//     overload; while overloaded (and when enabled) groups execute at a
//     degraded moment-ladder tier of the same cached plan — lower
//     interpolation degree, no rebuild — and the response reports the tier
//     and its a-priori error bound;
//   * transient infrastructure failures (tagged TransientError) are
//     retried with exponential backoff before failing the request.
//
// Re-entrancy: executions run concurrently through the host evaluators
// (core/cpu_kernels.hpp), each on a per-call ExecContext leased from a pool.
// Serving has no backend: it reports measured costs only.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/kernels.hpp"
#include "core/solver.hpp"
#include "serve/errors.hpp"
#include "serve/exec_context.hpp"
#include "serve/plan_cache.hpp"
#include "util/workloads.hpp"

namespace bltc::serve {

/// One evaluation request. Cloud storage is caller-owned and must outlive
/// the response future (the storm generators keep all clouds alive for the
/// run, the natural serving shape).
struct ServeRequest {
  const Cloud* sources = nullptr;
  /// Null targets evaluate at the source points (the dominant shape).
  const Cloud* targets = nullptr;
  TreecodeParams params;
  KernelSpec kernel;

  /// Deadline relative to submit(), in milliseconds; <= 0 means none. Once
  /// expired the future resolves with DeadlineExceeded (unless execution
  /// already started — evaluations are not preemptible).
  double deadline_ms = 0.0;
  /// Optional cooperative cancel token (see serve/errors.hpp).
  CancelTokenPtr cancel;
  /// Degradation override: -1 lets the frontend choose (nominal unless
  /// overloaded), >= 0 forces that moment-ladder tier (0 = nominal).
  /// Clamped to the plan's available tiers; dual-traversal plans always
  /// execute tier 0.
  int degrade_tier = -1;
};

/// One request's result plus its serving metadata.
struct ServeResponse {
  std::vector<double> phi;  ///< caller target order
  bool cache_hit = false;   ///< plan served from the cache
  std::size_t group_size = 1;  ///< requests coalesced into its execution group
  double queue_seconds = 0.0;    ///< admission wait
  double execute_seconds = 0.0;  ///< plan fetch + evaluation for its group
  /// Moment-ladder tier this response was served at (0 = nominal degree).
  int degrade_tier = 0;
  /// Interpolation degree actually executed.
  int degree = 0;
  /// A-priori relative far-field error estimate at the served tier
  /// (theta^(degree+1) / (1 - theta)); callers know what they got.
  double error_bound = 0.0;
  /// Precision actually executed for this response. Degraded tiers always
  /// report kFp64: the fp32 tags were proved against the nominal degree's
  /// error bound, which a deeper ladder level does not meet, so tier > 0
  /// executions run all-double regardless of the request policy.
  PrecisionPolicy precision = PrecisionPolicy::kFp64;
};

/// Queue shed policy once the admission budget is exceeded.
enum class ShedPolicy {
  kBlock,       ///< block the submitter until space frees (backpressure)
  kRejectNew,   ///< resolve the newcomer with RequestShed
  kShedOldest,  ///< evict the oldest queued request to admit the newcomer
};

/// Admission policy and worker fleet size.
struct ServeOptions {
  std::size_t max_batch = 16;   ///< requests per fused execution group
  double max_delay_ms = 0.2;    ///< max admission wait for group fill
  /// Executor threads. 0 is admission-only (nothing executes; queued
  /// requests are shed at destruction) — deterministic shed-policy tests.
  std::size_t workers = 1;

  /// Queue budget: max queued requests / queued payload bytes (0 = no
  /// bound). A single request larger than the byte budget alone is still
  /// admitted when the queue is empty (mirrors the plan cache's
  /// keep-the-MRU rule).
  std::size_t max_queue_requests = 0;
  std::size_t max_queue_bytes = 0;
  ShedPolicy shed_policy = ShedPolicy::kBlock;

  /// Overload detector: the frontend tracks an EWMA of queue wait (alpha
  /// per admitted request) and declares overload when it exceeds
  /// overload_factor * max(max_delay_ms, 0.01); hysteresis clears it at
  /// half that threshold.
  double ewma_alpha = 0.25;
  double overload_factor = 8.0;

  /// Highest degraded moment-ladder tier the frontend may serve while
  /// overloaded (0 disables graceful degradation).
  int max_degrade_tier = 0;

  /// Transient-failure retries per stage (plan build / evaluation), with
  /// exponential backoff starting at retry_backoff_ms. Only exceptions
  /// tagged TransientError are retried.
  std::size_t max_retries = 0;
  double retry_backoff_ms = 0.5;
};

/// Monotonic frontend counters (except the gauges at the bottom).
struct FrontendStats {
  std::size_t submitted = 0;
  std::size_t completed = 0;       ///< futures resolved (value or error)
  std::size_t executions = 0;      ///< evaluations issued
  std::size_t fused_requests = 0;  ///< requests that shared an evaluation
  std::size_t cache_hits = 0;      ///< responses served from a cached plan
  std::size_t max_group = 0;       ///< largest coalesced group observed
  std::size_t shed = 0;            ///< resolved with RequestShed
  std::size_t deadline_exceeded = 0;  ///< resolved with DeadlineExceeded
  std::size_t cancelled = 0;          ///< resolved with RequestCancelled
  std::size_t degraded = 0;        ///< responses served at tier > 0
  std::size_t retries = 0;         ///< transient-failure retries issued
  // Gauges.
  double queue_wait_ewma_ms = 0.0;  ///< overload detector state
  bool overloaded = false;          ///< detector currently tripped
  std::size_t queue_depth = 0;      ///< requests queued right now
  std::size_t queue_bytes = 0;      ///< payload bytes queued right now
};

/// Coalescing front end (see file comment). Owns its worker threads; the
/// destructor drains the queue before joining (sheds it when workers == 0).
class ServeFrontend {
 public:
  explicit ServeFrontend(PlanCache& cache, ServeOptions options = {});
  ~ServeFrontend();
  ServeFrontend(const ServeFrontend&) = delete;
  ServeFrontend& operator=(const ServeFrontend&) = delete;

  /// Enqueue one request; the future resolves when its group executes (or
  /// with a precise ServeError — see serve/errors.hpp). Blocks only under
  /// ShedPolicy::kBlock with a full queue.
  std::future<ServeResponse> submit(ServeRequest request);

  /// Synchronous single-request path (no coalescing, no deadline): fetch
  /// the plan, plan targets, execute — honoring a forced degrade_tier. The
  /// reference the fused and degraded paths must match bit-for-bit.
  ServeResponse evaluate_now(const ServeRequest& request);

  FrontendStats stats() const;

 private:
  struct Pending {
    ServeRequest request;
    std::promise<ServeResponse> promise;
    std::uint64_t group = 0;  ///< (plan key, kernel) grouping fingerprint
    std::size_t bytes = 0;    ///< payload accounted against the queue budget
    std::chrono::steady_clock::time_point enqueued;
    /// Absolute deadline (time_point::max() when none).
    std::chrono::steady_clock::time_point deadline;
  };

  static std::uint64_t group_key(const ServeRequest& request);

  void worker_loop();
  /// Fail expired/cancelled queued requests (called with mutex_ held;
  /// resolves promises after collecting, without the lock).
  void purge_queue(std::unique_lock<std::mutex>& lock);
  /// Execute one coalesced group and fulfill its promises.
  void execute_group(std::vector<Pending>& group);
  /// Execute `plan` at a moment-ladder tier for the targets of `view`, on
  /// a leased ExecContext; tree-order potentials, mesh far field included.
  std::vector<double> execute_plan(const CachedPlan& plan,
                                   const TargetPlan& view,
                                   const KernelSpec& kernel,
                                   std::size_t tier);
  /// Run `fn` with transient-failure retry + backoff per options_.
  template <typename Fn>
  auto with_retries(Fn&& fn) -> decltype(fn());

  /// Update the queue-wait EWMA / overload state for one admitted request
  /// (mutex_ held).
  void observe_queue_wait(double wait_ms);

  PlanCache& cache_;
  ServeOptions options_;
  ExecContextPool contexts_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;        ///< queue producer -> workers
  std::condition_variable space_cv_;  ///< workers -> blocked submitters
  std::deque<Pending> queue_;
  std::size_t queue_bytes_ = 0;
  bool stopping_ = false;
  bool overloaded_ = false;
  FrontendStats counters_;

  std::vector<std::thread> workers_;
};

}  // namespace bltc::serve
