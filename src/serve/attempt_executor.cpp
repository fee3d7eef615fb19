#include "serve/attempt_executor.hpp"

#include <algorithm>
#include <exception>
#include <thread>

#include "exec/validate.hpp"
#include "serve/serving_runtime.hpp"

namespace tilesparse::serve {

AttemptExecutor::AttemptExecutor(const ServingOptions& options,
                                 std::size_t worker_id)
    : options_(options), worker_id_(worker_id) {
  SchedulerOptions primary = options.scheduler;
  primary.streams = options.streams;
  if (options.streams > 1) {
    // Private pool per worker: streams - 1 pool threads + the worker
    // itself give exactly `streams` concurrent streams, and one
    // worker's load never steals another's threads.
    pool_ = std::make_unique<ThreadPool>(options.streams - 1);
  }
  primary_ = std::make_unique<ExecScheduler>(primary, pool_.get());
  SchedulerOptions fallback;
  fallback.streams = 1;
  fallback.validate = false;
  fallback_ = std::make_unique<ExecScheduler>(fallback);
  primary_->set_cancel_token(&cancel_);
  fallback_->set_cancel_token(&cancel_);
}

Response AttemptExecutor::run(Clock::time_point deadline, const Work& work,
                              std::uint32_t first_attempt) {
  return run_attempts(deadline, work, first_attempt,
                      std::max(first_attempt + 1, options_.max_attempts));
}

Response AttemptExecutor::run_attempts(Clock::time_point deadline,
                                       const Work& work, std::uint32_t attempt,
                                       std::uint32_t end) {
  Response response;
  Clock::duration backoff = options_.retry_backoff;
  for (;; ++attempt) {
    const bool degraded = attempt > 0;
    response.attempts = attempt + 1;
    response.degraded = degraded;
    cancel_.reset(deadline);
    WorkerContext context{degraded ? *fallback_ : *primary_, cancel_,
                          worker_id_, attempt, degraded, nullptr};
    bool validation_failure = false;
    try {
      response.result = work(context);
      response.status = RequestStatus::kOk;
      return response;
    } catch (const CancelledError& e) {
      response.status = RequestStatus::kTimeout;
      response.error = e.what();
      return response;
    } catch (const GraphValidationError& e) {
      response.error = e.what();
      validation_failure = true;
    } catch (const std::exception& e) {
      response.error = e.what();
    } catch (...) {
      response.error = "unknown exception from request work";
    }
    response.status = RequestStatus::kFailed;
    if (attempt + 1 >= end) return response;  // attempts exhausted
    if (!validation_failure) {
      // A shutdown cancel cuts the wait short with budget left: the
      // last real failure is then terminal.
      if (!backoff_wait(backoff, deadline) && Clock::now() < deadline)
        return response;
      backoff = std::chrono::duration_cast<Clock::duration>(
          backoff * options_.backoff_multiplier);
    }
    if (Clock::now() >= deadline) {
      response.status = RequestStatus::kTimeout;
      response.error = "deadline expired before retry";
      return response;
    }
  }
}

bool AttemptExecutor::backoff_wait(Clock::duration wait,
                                   Clock::time_point deadline) const {
  const Clock::time_point wake = Clock::now() + wait;
  while (true) {
    const Clock::time_point now = Clock::now();
    if (now >= wake) return true;
    if (now >= deadline || cancel_.cancel_requested()) return false;
    // Short slices keep the wait responsive to deadlines and to
    // shutdown(kCancel) without a dedicated per-worker condition
    // variable.
    const Clock::duration slice = std::min<Clock::duration>(
        std::chrono::microseconds(500), wake - now);
    std::this_thread::sleep_for(slice);
  }
}

}  // namespace tilesparse::serve
