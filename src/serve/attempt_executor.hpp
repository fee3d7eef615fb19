#pragma once
// AttemptExecutor — the one place a serving worker runs work: classic
// Request::work callables, a batch's wide-M entry run, and a batch
// member's solo run (deadline bypass, or isolation after a batch
// fault).  It owns the worker's primary scheduler, its serial fallback
// (streams=1, unsharded, validation off) and the CancelToken both are
// armed with, and the attempt policy:
//
//  * the token is re-armed with the deadline before every attempt;
//  * attempt 0 runs on the primary, every retry on the fallback;
//  * before a retry it backs off (retry_backoff, growing by
//    backoff_multiplier), cut short by the deadline or a shutdown
//    cancel — except after a GraphValidationError, since the fallback
//    does not validate and serves the graph now or never;
//  * CancelledError -> TIMEOUT, never retried; any other exception ->
//    FAILED, retried while the budget lasts.
//
// The budget is max_attempts counted from attempt index 0, also for a
// call that starts later: the batcher's isolation re-run starts at 1.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>

#include "exec/scheduler.hpp"
#include "serve/request.hpp"
#include "util/cancellation.hpp"
#include "util/threadpool.hpp"

namespace tilesparse::serve {

struct ServingOptions;  // serve/serving_runtime.hpp
struct SharedModel;     // serve/serving_runtime.hpp

/// What a Request::work callable sees while running on a worker.
struct WorkerContext {
  /// The scheduler to run graphs through.  Its cancel token is armed
  /// with the request deadline, so graph runs time out cooperatively.
  ExecScheduler& scheduler;
  /// The worker's cancel token, for work that loops outside graph runs
  /// (check cancel.expired() / throw_if_expired() at safe points).
  const CancelToken& cancel;
  std::size_t worker_id = 0;
  std::uint32_t attempt = 0;  ///< 0-based attempt number
  /// True on the serial fallback path (after an overlapped-path fault
  /// or validation failure, or always once streams == 1 retries).
  bool degraded = false;
  /// The runtime's attached model (attach_model), or null when none is
  /// attached.  Valid for the duration of the work callable.
  const SharedModel* model = nullptr;
};

class AttemptExecutor {
 public:
  using Work = std::function<MatrixF(WorkerContext&)>;

  /// `options` as ServingRuntime normalised them (streams and
  /// max_attempts at least 1); they must outlive the executor.
  AttemptExecutor(const ServingOptions& options, std::size_t worker_id);

  /// Runs `work` as attempts first_attempt, first_attempt + 1, ... until
  /// one returns, one times out, or the budget is spent.  The first
  /// always runs, even past the budget.  The response carries status,
  /// result or error, attempts and degraded.
  Response run(Clock::time_point deadline, const Work& work,
               std::uint32_t first_attempt = 0);
  /// Exactly one attempt, on the primary (a batch's wide-M run).
  Response run_once(Clock::time_point deadline, const Work& work) {
    return run_attempts(deadline, work, 0, 1);
  }

  /// Cancels the work in flight at its next node boundary (shutdown).
  void cancel() noexcept { cancel_.cancel(); }

 private:
  Response run_attempts(Clock::time_point deadline, const Work& work,
                        std::uint32_t attempt, std::uint32_t end);
  /// Deadline/cancel-aware sleep; false when the wait was cut short.
  bool backoff_wait(Clock::duration wait, Clock::time_point deadline) const;

  const ServingOptions& options_;
  std::size_t worker_id_;
  CancelToken cancel_;
  std::unique_ptr<ThreadPool> pool_;  ///< null when streams == 1
  std::unique_ptr<ExecScheduler> primary_;
  std::unique_ptr<ExecScheduler> fallback_;
};

}  // namespace tilesparse::serve
