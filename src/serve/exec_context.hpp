// Per-call execution scratch — the re-entrancy half of the serving layer.
//
// A cached plan is immutable after construction (tree, batches, lists,
// moments), but executing it needs mutable scratch: the CPU paths expand
// cluster grids into per-thread streams, stage shifted source images, and
// keep dual-traversal grid accumulators (core/cpu_kernels.hpp).
// `ExecContext` holds all of it in a per-call object: the plan evaluators
// (`evaluate_plan{,_field}`) read nothing but the plans they are given and
// write only the workspace passed to them, so any number of threads may
// execute the same plan as long as each passes its own context's workspace.
//
// Contexts are reusable (scratch buffers persist across calls, so steady-
// state evaluation allocates nothing) but never concurrently shareable: one
// context serves one call at a time. `ExecContextPool` is the serving
// front end's recycler — acquire on request entry, release on exit — so a
// fleet of worker threads reuses a bounded set of warmed-up contexts.
#pragma once

#include <memory>
#include <mutex>
#include <vector>

#include "core/cpu_kernels.hpp"

namespace bltc {

/// Mutable scratch for one in-flight evaluate() call. Reuse across calls is
/// encouraged (buffers stay warm); concurrent use is undefined behavior.
class ExecContext {
 public:
  /// Host evaluation workspace (per-thread expansion caches, shifted-source
  /// staging, dual grid accumulators).
  CpuWorkspace& cpu_workspace() { return cpu_; }

 private:
  CpuWorkspace cpu_;
};

namespace serve {

/// Thread-safe recycler of ExecContexts: acquire() hands out an idle
/// context or creates one, release() returns it. The pool never shrinks;
/// its size converges to the peak number of concurrent calls.
class ExecContextPool {
 public:
  std::unique_ptr<ExecContext> acquire();
  void release(std::unique_ptr<ExecContext> context);

  /// Contexts currently sitting idle in the pool (tests).
  std::size_t idle() const;

  /// RAII lease: acquires on construction, releases on destruction.
  class Lease {
   public:
    explicit Lease(ExecContextPool& pool)
        : pool_(&pool), context_(pool.acquire()) {}
    ~Lease() {
      if (context_ != nullptr) pool_->release(std::move(context_));
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;

    ExecContext& operator*() { return *context_; }
    ExecContext* operator->() { return context_.get(); }
    ExecContext* get() { return context_.get(); }

   private:
    ExecContextPool* pool_;
    std::unique_ptr<ExecContext> context_;
  };

 private:
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<ExecContext>> idle_;
};

}  // namespace serve
}  // namespace bltc
