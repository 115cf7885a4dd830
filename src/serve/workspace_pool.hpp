// Per-call execution scratch — the re-entrancy half of the serving layer.
//
// A cached plan is immutable after construction (tree, batches, lists,
// moments), but executing it needs mutable scratch: the CPU paths expand
// cluster grids into per-thread streams, stage shifted source images, and
// keep dual-traversal grid accumulators, all in a `CpuWorkspace`
// (core/cpu_kernels.hpp). The plan evaluators (`evaluate_plan{,_field}`)
// read nothing but the plans they are given and write only the workspace
// passed to them, so any number of threads may execute the same plan as
// long as each passes its own workspace.
//
// Workspaces are reusable (scratch buffers persist across calls, so steady-
// state evaluation allocates nothing) but never concurrently shareable: one
// workspace serves one call at a time. `WorkspacePool` is the serving front
// end's recycler — acquire on request entry, release on exit — so a fleet
// of worker threads reuses a bounded set of warmed-up workspaces.
#pragma once

#include <memory>
#include <mutex>
#include <vector>

#include "core/cpu_kernels.hpp"

namespace bltc::serve {

/// Thread-safe recycler of CpuWorkspaces: acquire() hands out an idle
/// workspace or creates one, release() returns it. The pool never shrinks;
/// its size converges to the peak number of concurrent calls.
class WorkspacePool {
 public:
  std::unique_ptr<CpuWorkspace> acquire();
  void release(std::unique_ptr<CpuWorkspace> workspace);

  /// Workspaces currently sitting idle in the pool (tests).
  std::size_t idle() const;

  /// RAII lease: acquires on construction, releases on destruction.
  class Lease {
   public:
    explicit Lease(WorkspacePool& pool)
        : pool_(&pool), workspace_(pool.acquire()) {}
    ~Lease() {
      if (workspace_ != nullptr) pool_->release(std::move(workspace_));
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;

    CpuWorkspace& operator*() { return *workspace_; }
    CpuWorkspace* operator->() { return workspace_.get(); }
    CpuWorkspace* get() { return workspace_.get(); }

   private:
    WorkspacePool* pool_;
    std::unique_ptr<CpuWorkspace> workspace_;
  };

 private:
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<CpuWorkspace>> idle_;
};

}  // namespace bltc::serve
