// In-process message-passing substrate standing in for MPI.
//
// N ranks run as N OS threads. Each rank owns private data; the *only*
// sanctioned communication channels are:
//   * Window<T> — passive-target one-sided access (lock / get / put /
//     unlock), mirroring the MPI-3 RMA model the paper uses for LET
//     construction;
//   * barrier() — bulk synchronization;
//   * allgather / allreduce helpers built on windows + barriers.
// Because ranks are real threads, ordering and publication bugs that would
// appear under MPI RMA (reading a window before its owner filled it, racing
// puts) appear here too — the barrier/lock discipline is load-bearing.
//
// Fault model: any rank failure poisons the communicator (`Context::abort`,
// the stand-in for MPI_Abort semantics). Ranks blocked in a collective wake
// and throw `CommAborted` instead of waiting forever for a peer that will
// never arrive, and window teardown rendezvous drains without hanging, so a
// single faulting rank surfaces as one clean exception from RankTeam::run —
// never a hang. A retry-safe (TransientError) failure that left every
// window and cursor consistent is cleared after the join, so one transient
// fault does not disable a persistent team. One-sided ops carry failpoints (util/failpoints.hpp) so
// this path is exercised deterministically in tests.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <vector>

#include "util/failpoints.hpp"

namespace bltc::simmpi {

class Comm;

/// Thrown by collective operations on a poisoned communicator: some rank
/// failed and every peer must unwind instead of waiting for it.
class CommAborted : public std::runtime_error {
 public:
  CommAborted() : std::runtime_error("simmpi: communicator aborted") {}
};

/// Shared state for one communicator: barrier machinery plus the window
/// registry (windows are collective objects identified by creation order,
/// like MPI window handles).
class Context {
 public:
  explicit Context(int size);

  int size() const { return size_; }

  /// Sense-reversing barrier across all ranks. Throws CommAborted (on entry
  /// or mid-wait) once the communicator is poisoned.
  void barrier();

  /// Poison the communicator: wake every blocked collective so it throws
  /// CommAborted. Idempotent, callable from any thread.
  void abort() noexcept;
  bool aborted() const noexcept {
    return aborted_.load(std::memory_order_acquire);
  }

  /// Clear the poison (and reset the barrier count), but only when the
  /// context is quiescent: every window is fully registered or fully
  /// released, no teardown is pending, and every rank's next window id is
  /// the same. Otherwise the context stays poisoned. Call only with no
  /// rank thread alive (RankTeam::run does, after a retry-safe failure).
  void clear_abort_if_quiescent() noexcept;

  /// Collective window registration: every rank calls with its local
  /// exposure; returns the window id. Ranks must call in the same order.
  std::size_t register_window(int rank, void* base, std::size_t bytes,
                              std::size_t elem_size);
  void deregister_window(std::size_t win_id, int rank);

  /// Block until every rank has registered `win_id` (the collective-create
  /// rendezvous). Throws CommAborted if the communicator is poisoned before
  /// the window is live; a live window always completes its creation, so a
  /// fully registered window is held by every rank.
  void await_window_live(std::size_t win_id);

  /// Collective-destroy rendezvous + exposure removal, in that order (no
  /// rank drops its exposure while a peer could still access it). Never
  /// throws: under an aborted communicator the rendezvous is skipped, so
  /// window destructors are safe during stack unwinding.
  void finish_window(std::size_t win_id, int rank) noexcept;

  struct Exposure {
    void* base = nullptr;
    std::size_t bytes = 0;
    std::size_t elem_size = 0;
  };

  /// Exposure of `win_id` on `target_rank` (valid between the collective
  /// create and destroy).
  const Exposure& exposure(std::size_t win_id, int target_rank) const;

  /// Per-(window, target-rank) passive-target lock.
  std::mutex& window_lock(std::size_t win_id, int target_rank);

  /// Communication accounting (bytes moved by one-sided ops), read by the
  /// scaling performance model.
  void account_get(int origin_rank, std::size_t bytes);
  std::size_t bytes_gotten(int rank) const;
  std::size_t gets_issued(int rank) const;

 private:
  struct WindowState {
    std::vector<Exposure> exposure;          // per rank
    std::vector<std::unique_ptr<std::mutex>> locks;  // per rank
    int registered = 0;
    int teardown = 0;  ///< ranks that reached the destroy rendezvous
    bool live = false;
  };

  int size_;
  std::atomic<bool> aborted_{false};
  // Barrier.
  std::mutex barrier_mutex_;
  std::condition_variable barrier_cv_;
  int barrier_count_ = 0;
  bool barrier_sense_ = false;
  // Windows. unique_ptr keeps WindowState addresses stable across registry
  // growth, so references handed to in-flight one-sided ops stay valid.
  mutable std::mutex windows_mutex_;
  std::condition_variable windows_cv_;
  std::vector<std::unique_ptr<WindowState>> windows_;
  std::vector<std::size_t> next_window_;  // per-rank creation cursor
  // Accounting.
  std::vector<std::atomic<std::size_t>> bytes_gotten_;
  std::vector<std::atomic<std::size_t>> gets_issued_;
};

/// Rank-local communicator handle passed to the rank function.
class Comm {
 public:
  Comm(Context& ctx, int rank) : ctx_(&ctx), rank_(rank) {}

  int rank() const { return rank_; }
  int size() const { return ctx_->size(); }
  void barrier() { ctx_->barrier(); }
  Context& context() { return *ctx_; }

  /// Bytes this rank has pulled through one-sided gets (for the comm model).
  std::size_t bytes_gotten() const { return ctx_->bytes_gotten(rank_); }
  std::size_t gets_issued() const { return ctx_->gets_issued(rank_); }

 private:
  Context* ctx_;
  int rank_;
};

/// Typed RMA window. Creation and destruction are collective; `get`/`put`
/// are one-sided and may target any rank while that rank computes,
/// matching MPI passive-target synchronization. Both lifecycle rendezvous
/// are window-specific (not the global barrier), so they can never pair
/// with an unrelated barrier call when a peer rank fails mid-algorithm.
template <typename T>
class Window {
 public:
  /// Collective: expose `local` (must stay alive while the window is live).
  Window(Comm& comm, std::span<T> local) : comm_(&comm) {
    id_ = comm.context().register_window(comm.rank(), local.data(),
                                         local.size_bytes(), sizeof(T));
    comm.context().await_window_live(id_);  // all exposures visible first
  }

  Window(const Window&) = delete;
  Window& operator=(const Window&) = delete;

  ~Window() {
    // A rank unwinding through a live collective object means the
    // collective algorithm is broken on this communicator: poison it so
    // peers blocked in barriers or their own teardown unwind too.
    if (std::uncaught_exceptions() > 0) comm_->context().abort();
    comm_->context().finish_window(id_, comm_->rank());
  }

  /// Number of elements exposed by `target_rank`.
  std::size_t size_at(int target_rank) const {
    const auto& e = comm_->context().exposure(id_, target_rank);
    return e.bytes / sizeof(T);
  }

  /// One-sided get: copy `out.size()` elements starting at element `offset`
  /// of `target_rank`'s exposure. Lock-protected (passive target). A
  /// failure here (bounds, injected failpoint) is a *per-call* error the
  /// caller may catch and recover from — no data moved, the window stays
  /// consistent. Only when the exception escapes the rank does the
  /// communicator abort (in ~Window during unwinding, or in
  /// RankTeam::run's rank wrapper), unblocking peers waiting in
  /// collectives.
  void get(int target_rank, std::size_t offset, std::span<T> out) {
    failpoint(failpoints::sites::kSimmpiGet);
    const auto& e = comm_->context().exposure(id_, target_rank);
    if ((offset + out.size()) * sizeof(T) > e.bytes) {
      throw std::out_of_range("Window::get: range outside target exposure");
    }
    std::scoped_lock lock(comm_->context().window_lock(id_, target_rank));
    const T* base = static_cast<const T*>(e.base);
    std::copy(base + offset, base + offset + out.size(), out.begin());
    comm_->context().account_get(comm_->rank(), out.size_bytes());
  }

  /// One-sided put: write `data` into `target_rank`'s exposure at `offset`.
  /// Same failure contract as get().
  void put(int target_rank, std::size_t offset, std::span<const T> data) {
    failpoint(failpoints::sites::kSimmpiPut);
    const auto& e = comm_->context().exposure(id_, target_rank);
    if ((offset + data.size()) * sizeof(T) > e.bytes) {
      throw std::out_of_range("Window::put: range outside target exposure");
    }
    std::scoped_lock lock(comm_->context().window_lock(id_, target_rank));
    T* base = static_cast<T*>(e.base);
    std::copy(data.begin(), data.end(), base + offset);
  }

 private:
  Comm* comm_;
  std::size_t id_ = 0;
};

/// Persistent rank team: one Context plus per-rank Comm handles that
/// outlive any single `run()` call. Collective state — registered RMA
/// windows, the communication accounting — persists between runs, so a
/// handle like `dist::DistSolver` can register its LET windows once in
/// set_sources and reuse them for the charge refresh of a later
/// update_charges. Each `run()` spawns fresh OS threads (ranks are
/// stateless between phases; all rank state lives in the caller), and
/// window teardown must itself happen inside a `run()` so the collective
/// rendezvous pair.
class RankTeam {
 public:
  explicit RankTeam(int nranks);

  RankTeam(const RankTeam&) = delete;
  RankTeam& operator=(const RankTeam&) = delete;

  int size() const { return ctx_.size(); }
  Context& context() { return ctx_; }

  /// Run `fn(comm)` on every rank concurrently and join. A rank exception
  /// aborts the communicator (so peers unwind instead of hanging) and, after
  /// all threads join, the first *root-cause* exception is rethrown —
  /// CommAborted from bystander ranks is reported only when no rank carries
  /// a real error. When that root cause is a TransientError (retry-safe: it
  /// committed no partial state) and the context is quiescent
  /// (Context::clear_abort_if_quiescent), the abort is cleared, so the team
  /// stays usable for the retry. Otherwise a team whose communicator
  /// aborted stays poisoned: subsequent collective calls throw CommAborted.
  void run(const std::function<void(Comm&)>& fn);

 private:
  Context ctx_;
  std::vector<Comm> comms_;
};

/// Run `fn(comm)` on `nranks` concurrent ranks; rethrows the first rank
/// exception after joining all threads. One-shot convenience over a
/// temporary RankTeam.
void run_ranks(int nranks, const std::function<void(Comm&)>& fn);

}  // namespace bltc::simmpi
