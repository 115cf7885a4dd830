// Serving-layer failure vocabulary. Every ServeFrontend future resolves
// exactly once, either with a value or with one of these precise errors —
// callers branch on the type, not on message strings:
//
//   * DeadlineExceeded — the request's deadline passed before its group
//     executed; it was dropped at admission or between evaluations and
//     never occupied a fused batch.
//   * RequestShed     — bounded admission rejected it (kRejectNew), evicted
//     it for a newer request (kShedOldest), or the frontend shut down with
//     it still queued.
//   * RequestCancelled — its cooperative cancel token fired before
//     execution started.
//
// Transient infrastructure failures (see util/failpoints.hpp) are retried
// by the frontend and only surface after retries are exhausted, as whatever
// exception the last attempt threw.
#pragma once

#include <atomic>
#include <memory>
#include <stdexcept>

namespace bltc::serve {

class ServeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class DeadlineExceeded : public ServeError {
 public:
  using ServeError::ServeError;
};

class RequestShed : public ServeError {
 public:
  using ServeError::ServeError;
};

class RequestCancelled : public ServeError {
 public:
  using ServeError::ServeError;
};

/// Cooperative cancellation: the caller keeps one shared token per request
/// (or per session) and may fire it from any thread. Workers observe it at
/// group admission and between evaluations; an execution already in
/// flight completes (evaluations are not preemptible).
class CancelToken {
 public:
  void cancel() noexcept { flag_.store(true, std::memory_order_release); }
  bool cancelled() const noexcept {
    return flag_.load(std::memory_order_acquire);
  }

 private:
  std::atomic<bool> flag_{false};
};

using CancelTokenPtr = std::shared_ptr<CancelToken>;

}  // namespace bltc::serve
