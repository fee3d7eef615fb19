#pragma once
// Request/response types for the fault-tolerant serving runtime.
//
// A Request is one unit of admitted traffic: a priority class, an
// absolute deadline, and the work itself — a callable that runs on a
// serving worker with that worker's ExecScheduler (deadline-armed
// cancel token installed) and returns the response payload.  The
// runtime guarantees every submitted request reaches EXACTLY ONE
// terminal status:
//
//   kOk       — the work returned a result,
//   kRejected — shed without execution: admission queue full, evicted
//               for a higher-priority arrival, or runtime shut down,
//   kTimeout  — deadline passed while queued, mid-graph (cooperative
//               cancellation at node boundaries), or between retries,
//   kFailed   — the work threw on every permitted attempt; the error
//               text of the last attempt is preserved.
//
// Completion is observed through a shared PendingRequest handle
// (wait/wait_for/response); the runtime completes each handle exactly
// once, enforced by TS_CHECK.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>

#include "tensor/matrix.hpp"
#include "util/guards.hpp"

namespace tilesparse::serve {

using Clock = std::chrono::steady_clock;

/// Priority classes, highest value most urgent.  The admission queue
/// serves strictly by class (FIFO within a class), and under overload a
/// full queue may shed its newest strictly-lower-priority entry to
/// admit a more urgent arrival.
enum class Priority : int { kBatch = 0, kNormal = 1, kInteractive = 2 };
inline constexpr std::size_t kPriorityClasses = 3;

enum class RequestStatus : int {
  kPending = 0,  ///< not yet terminal (never visible in a Response)
  kOk,
  kRejected,
  kTimeout,
  kFailed,
};

inline const char* status_name(RequestStatus status) noexcept {
  switch (status) {
    case RequestStatus::kPending: return "PENDING";
    case RequestStatus::kOk: return "OK";
    case RequestStatus::kRejected: return "REJECTED";
    case RequestStatus::kTimeout: return "TIMEOUT";
    case RequestStatus::kFailed: return "FAILED";
  }
  return "?";
}

struct WorkerContext;  // serve/attempt_executor.hpp

struct Request {
  Priority priority = Priority::kNormal;
  /// Absolute deadline; Clock::time_point::max() defers to the
  /// runtime's default_deadline option.
  Clock::time_point deadline = Clock::time_point::max();
  /// The work.  Runs on a serving worker; may be retried after a
  /// transient failure, so it must be idempotent.  Throwing reports
  /// failure; CancelledError (thrown by the scheduler's cancellation
  /// points) reports a deadline overrun.  Mutually exclusive with
  /// `entry` below: a request is either opaque work or batchable data.
  std::function<MatrixF(WorkerContext&)> work;
  /// Free-form tag carried into the response for diagnostics.
  std::string tag;
  /// Tenant this request bills to.  Feeds per-tenant Stats, the
  /// admission queue's tenant-aware eviction, and DRR fair scheduling
  /// in the batcher.  Empty = the anonymous tenant.
  std::string tenant_id;
  /// Batchable form: the name of a BatchEntry registered on the
  /// runtime (register_batch_entry).  Such a request carries its
  /// activation in `input` instead of a work callable; concurrent
  /// requests naming the same entry may be coalesced into one wide-M
  /// graph run, each getting back exactly the rows a solo run would
  /// have produced (bit-identical).
  std::string entry;
  /// Input activation for `entry` (rows must be a positive multiple of
  /// the entry's group_rows_in, cols must equal its input_cols).
  MatrixF input;
};

struct Response {
  RequestStatus status = RequestStatus::kPending;
  MatrixF result;     ///< valid iff status == kOk
  std::string error;  ///< last error text for kRejected/kTimeout/kFailed
  std::string tag;
  std::uint32_t attempts = 0;  ///< execution attempts consumed
  bool degraded = false;  ///< final attempt ran on the serial fallback path
  Clock::duration queue_wait{};    ///< admission -> first pop
  Clock::duration service_time{};  ///< first pop -> terminal status
  bool batched = false;       ///< served as a member of a coalesced batch
  std::size_t batch_rows = 0;  ///< total input rows of that batch (diagnostics)
};

/// A terminal response that carries only its status and the reason.
inline Response terminal_response(RequestStatus status, std::string error) {
  Response response;
  response.status = status;
  response.error = std::move(error);
  return response;
}

/// Shared completion state for one submitted request.  The runtime is
/// the single completer; any number of threads may wait.
class PendingRequest {
 public:
  explicit PendingRequest(std::uint64_t id) : id_(id) {}

  std::uint64_t id() const noexcept { return id_; }

  /// Blocks until the request is terminal, then returns the response.
  const Response& wait() const {
    std::unique_lock lock(mutex_);
    cv_.wait(lock, [this] { return done_; });
    return response_;
  }

  /// Bounded wait; false on timeout (request still in flight).
  bool wait_for(Clock::duration timeout) const {
    std::unique_lock lock(mutex_);
    return cv_.wait_for(lock, timeout, [this] { return done_; });
  }

  bool done() const {
    std::lock_guard lock(mutex_);
    return done_;
  }

  /// The terminal response; TS_CHECK-fails if not done yet.
  const Response& response() const {
    std::lock_guard lock(mutex_);
    TS_CHECK(done_, "PendingRequest::response: request not terminal yet");
    return response_;
  }

  /// Completes the request (runtime only).  Exactly-once is an
  /// invariant: a second completion is a library bug and TS_CHECK-throws.
  void complete(Response response) {
    {
      std::lock_guard lock(mutex_);
      TS_CHECK(!done_, "PendingRequest: completed twice");
      TS_CHECK(response.status != RequestStatus::kPending,
               "PendingRequest: completed with non-terminal status");
      response_ = std::move(response);
      done_ = true;
    }
    cv_.notify_all();
  }

 private:
  const std::uint64_t id_;
  mutable std::mutex mutex_;
  mutable std::condition_variable cv_;
  bool done_ = false;
  Response response_;
};

using RequestHandle = std::shared_ptr<PendingRequest>;

/// One submitted request in flight: its handle, its activation (entry
/// requests) and the facts the ledger and the TenantScheduler need.
/// Entry requests ride through the batcher in it.
struct BatchMember {
  RequestHandle handle;
  MatrixF input;
  std::string tenant;
  std::string tag;
  Clock::time_point enqueued{};  ///< runtime admission (queue_wait base)
  Clock::time_point arrival{};   ///< worker pop (linger and service base)
  Clock::time_point deadline = Clock::time_point::max();
  double cost = 1.0;  ///< byte·MAC service cost (BatchEntry::cost)
};

}  // namespace tilesparse::serve
