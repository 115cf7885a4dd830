#include "serve/workspace_pool.hpp"

#include "util/failpoints.hpp"

namespace bltc::serve {

std::unique_ptr<CpuWorkspace> WorkspacePool::acquire() {
  failpoint(failpoints::sites::kWorkspaceAcquire);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!idle_.empty()) {
      std::unique_ptr<CpuWorkspace> workspace = std::move(idle_.back());
      idle_.pop_back();
      return workspace;
    }
  }
  return std::make_unique<CpuWorkspace>();
}

void WorkspacePool::release(std::unique_ptr<CpuWorkspace> workspace) {
  if (workspace == nullptr) return;
  std::lock_guard<std::mutex> lock(mutex_);
  idle_.push_back(std::move(workspace));
}

std::size_t WorkspacePool::idle() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return idle_.size();
}

}  // namespace bltc::serve
