#include "simmpi/comm.hpp"

#include <memory>
#include <thread>

namespace bltc::simmpi {

Context::Context(int size)
    : size_(size),
      bytes_gotten_(static_cast<std::size_t>(size)),
      gets_issued_(static_cast<std::size_t>(size)) {
  if (size < 1) throw std::invalid_argument("Context: size must be >= 1");
  next_window_.assign(static_cast<std::size_t>(size), 0);
  for (auto& b : bytes_gotten_) b.store(0);
  for (auto& g : gets_issued_) g.store(0);
}

void Context::barrier() {
  std::unique_lock lock(barrier_mutex_);
  if (aborted()) throw CommAborted();
  const bool sense = barrier_sense_;
  if (++barrier_count_ == size_) {
    barrier_count_ = 0;
    barrier_sense_ = !barrier_sense_;
    barrier_cv_.notify_all();
  } else {
    barrier_cv_.wait(lock,
                     [&] { return barrier_sense_ != sense || aborted(); });
    // Woken by abort, not by the last arriver: the peer this barrier waits
    // for is never coming.
    if (barrier_sense_ == sense) throw CommAborted();
  }
}

void Context::abort() noexcept {
  aborted_.store(true, std::memory_order_release);
  // Lock-then-notify so a waiter can't check its predicate, miss the store,
  // and sleep through the wakeup.
  { std::lock_guard<std::mutex> lock(barrier_mutex_); }
  barrier_cv_.notify_all();
  { std::lock_guard<std::mutex> lock(windows_mutex_); }
  windows_cv_.notify_all();
}

void Context::clear_abort_if_quiescent() noexcept {
  std::scoped_lock lock(barrier_mutex_, windows_mutex_);
  for (const std::size_t next : next_window_) {
    if (next != next_window_.front()) return;
  }
  for (const auto& w : windows_) {
    if (w->teardown != 0) return;
    if (w->registered != 0 && w->registered != size_) return;
  }
  barrier_count_ = 0;
  aborted_.store(false, std::memory_order_release);
}

std::size_t Context::register_window(int rank, void* base, std::size_t bytes,
                                     std::size_t elem_size) {
  std::unique_lock lock(windows_mutex_);
  const std::size_t id = next_window_[static_cast<std::size_t>(rank)]++;
  while (id >= windows_.size()) {
    windows_.push_back(std::make_unique<WindowState>());
  }
  WindowState& w = *windows_[id];
  if (w.exposure.empty()) {
    w.exposure.resize(static_cast<std::size_t>(size_));
    w.locks.clear();
    for (int r = 0; r < size_; ++r) {
      w.locks.push_back(std::make_unique<std::mutex>());
    }
  }
  w.exposure[static_cast<std::size_t>(rank)] = {base, bytes, elem_size};
  if (++w.registered == size_) w.live = true;
  windows_cv_.notify_all();
  return id;
}

void Context::await_window_live(std::size_t win_id) {
  std::unique_lock lock(windows_mutex_);
  WindowState& w = *windows_.at(win_id);
  windows_cv_.wait(lock, [&] { return w.live || aborted(); });
  if (!w.live) throw CommAborted();
}

void Context::deregister_window(std::size_t win_id, int rank) {
  std::unique_lock lock(windows_mutex_);
  WindowState& w = *windows_[win_id];
  if (w.exposure.size() > static_cast<std::size_t>(rank)) {
    w.exposure[static_cast<std::size_t>(rank)] = {};
  }
  if (--w.registered == 0) {
    w.live = false;
    w.exposure.clear();
    w.locks.clear();
    w.teardown = 0;
  }
}

void Context::finish_window(std::size_t win_id, int rank) noexcept {
  std::unique_lock lock(windows_mutex_);
  if (win_id >= windows_.size() || windows_[win_id] == nullptr) return;
  WindowState& w = *windows_[win_id];
  if (w.registered <= 0) return;
  // Destroy rendezvous before any exposure is removed: every registered
  // rank must stop accessing the window first. Under abort, peers are
  // unwinding — drop the exposure without waiting for them.
  ++w.teardown;
  windows_cv_.notify_all();
  windows_cv_.wait(lock, [&] { return w.teardown >= w.registered || aborted(); });
  if (w.exposure.size() > static_cast<std::size_t>(rank)) {
    w.exposure[static_cast<std::size_t>(rank)] = {};
  }
  if (--w.registered == 0) {
    w.live = false;
    w.exposure.clear();
    w.locks.clear();
    w.teardown = 0;
  }
}

const Context::Exposure& Context::exposure(std::size_t win_id,
                                           int target_rank) const {
  std::unique_lock lock(windows_mutex_);
  const WindowState& w = *windows_.at(win_id);
  if (!w.live) {
    throw std::logic_error(
        "simmpi: window accessed before all ranks registered it (missing "
        "collective create?)");
  }
  return w.exposure[static_cast<std::size_t>(target_rank)];
}

std::mutex& Context::window_lock(std::size_t win_id, int target_rank) {
  std::unique_lock lock(windows_mutex_);
  return *windows_.at(win_id)->locks[static_cast<std::size_t>(target_rank)];
}

void Context::account_get(int origin_rank, std::size_t bytes) {
  bytes_gotten_[static_cast<std::size_t>(origin_rank)].fetch_add(
      bytes, std::memory_order_relaxed);
  gets_issued_[static_cast<std::size_t>(origin_rank)].fetch_add(
      1, std::memory_order_relaxed);
}

std::size_t Context::bytes_gotten(int rank) const {
  return bytes_gotten_[static_cast<std::size_t>(rank)].load(
      std::memory_order_relaxed);
}

std::size_t Context::gets_issued(int rank) const {
  return gets_issued_[static_cast<std::size_t>(rank)].load(
      std::memory_order_relaxed);
}

RankTeam::RankTeam(int nranks) : ctx_(nranks) {
  comms_.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) comms_.emplace_back(ctx_, r);
}

void RankTeam::run(const std::function<void(Comm&)>& fn) {
  const int nranks = ctx_.size();
  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(nranks));
  threads.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    threads.emplace_back([&, r] {
      try {
        fn(comms_[static_cast<std::size_t>(r)]);
      } catch (...) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
        // Peers may be blocked in collectives waiting for this rank.
        ctx_.abort();
      }
    });
  }
  for (auto& t : threads) t.join();
  // Rethrow the root cause: CommAborted on a bystander rank is a symptom
  // of some other rank's failure, so report it only when it is all we have.
  std::exception_ptr root, any;
  for (const auto& e : errors) {
    if (!e) continue;
    if (!any) any = e;
    if (!root) {
      try {
        std::rethrow_exception(e);
      } catch (const CommAborted&) {
      } catch (...) {
        root = e;
      }
    }
  }
  if (root) {
    // Every rank has joined: a retry-safe failure that left the windows
    // and cursors consistent need not disable the team.
    try {
      std::rethrow_exception(root);
    } catch (const TransientError&) {
      ctx_.clear_abort_if_quiescent();
    } catch (...) {
    }
    std::rethrow_exception(root);
  }
  if (any) std::rethrow_exception(any);
}

void run_ranks(int nranks, const std::function<void(Comm&)>& fn) {
  RankTeam team(nranks);
  team.run(fn);
}

}  // namespace bltc::simmpi
