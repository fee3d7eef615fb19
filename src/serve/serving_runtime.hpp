#pragma once
// ServingRuntime — the fault-tolerant request front end above
// ExecScheduler.
//
// Nothing above the scheduler used to absorb traffic or isolate
// failures: one bad request, corrupt artifact, or hung stream took the
// process with it.  ServingRuntime is that missing layer.  It owns a
// bounded AdmissionQueue and a set of serving workers, each running its
// work through its own AttemptExecutor, and it guarantees that every
// submitted request reaches exactly one terminal status (see
// serve/request.hpp and serve/ledger.hpp) no matter what fails below:
//
//  * Admission: push never blocks.  A full queue sheds (REJECTED) —
//    optionally evicting a strictly lower-priority entry to admit a
//    more urgent one (the evicted entry is itself completed REJECTED).
//  * Deadlines: checked when a worker pops (expired in queue ->
//    TIMEOUT without execution), at every graph node boundary during
//    execution (cooperative cancellation -> TIMEOUT mid-run), and
//    across retry backoff waits.
//  * Failure isolation: an exception from the work — a node throwing
//    mid-graph, an artifact that fails to parse, an injected fault —
//    is captured per-request (FAILED); the worker and its schedulers
//    keep serving subsequent requests.
//  * Graceful degradation: failures retry up to max_attempts with
//    bounded exponential backoff, every retry on the streams=1 serial
//    fallback scheduler — slower, but with the smallest possible
//    machinery still in the loop.  The same budget covers the batcher's
//    solo runs (serve/attempt_executor.hpp).
//  * Teardown: shutdown(kDrain) serves the backlog to completion;
//    shutdown(kCancel) completes the backlog as TIMEOUT and cancels
//    in-flight work at the next node boundary.  Either way the
//    conservation identity holds once shutdown returns:
//        admitted == OK + TIMEOUT + FAILED + evicted.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "exec/batch_entry.hpp"
#include "exec/scheduler.hpp"
#include "io/serialize.hpp"
#include "serve/admission_queue.hpp"
#include "serve/attempt_executor.hpp"
#include "serve/batch/batch_policy.hpp"
#include "serve/batch/request_batcher.hpp"
#include "serve/ledger.hpp"
#include "serve/request.hpp"

namespace tilesparse::serve {

/// An immutable model — named PackedWeights loaded from one deployment
/// artifact — shared read-only by every worker of a runtime (and, via
/// load_mapped, by every *process* serving the same file: the bulk
/// payloads borrow a shared read-only mmap, so N serving processes cost
/// one physical copy of the weights between them; see
/// examples/shared_weights.cpp for the measurement).
struct SharedModel {
  std::string path;
  std::vector<NamedWeight> weights;

  /// Reads the artifact into one private aligned buffer and parses it.
  static std::shared_ptr<const SharedModel> load(const std::string& path);
  /// Zero-copy load: maps the artifact and borrows bulk payloads in
  /// place (v2 only).  The mapping lives as long as the model.
  static std::shared_ptr<const SharedModel> load_mapped(
      const std::string& path);

  /// Weight by layer name; null when absent.
  const PackedWeight* find(std::string_view name) const noexcept;
};

struct ServingOptions {
  /// Serving workers; each owns a private ThreadPool sized for
  /// `streams` and serves one request at a time.
  std::size_t workers = 2;
  /// Admission queue capacity; arrivals beyond it are shed, never
  /// queued unboundedly and never blocking the submitter.
  std::size_t queue_capacity = 64;
  /// Scheduler streams per worker on the primary path; 1 serves every
  /// graph serially.
  std::size_t streams = 2;
  /// Total execution attempts per request (first try + retries), solo
  /// runs in the batcher included; see RequestBatcher for isolation.
  std::uint32_t max_attempts = 2;
  /// Backoff before the first retry; grows by backoff_multiplier per
  /// further retry.  The wait is deadline- and shutdown-aware.
  std::chrono::microseconds retry_backoff{200};
  double backoff_multiplier = 2.0;
  /// Deadline applied to requests that carry none;
  /// Clock::duration::max() = unlimited.
  Clock::duration default_deadline = Clock::duration::max();
  /// Allow a full queue to admit a higher-priority arrival by shedding
  /// its newest strictly-lower-priority entry.
  bool evict_lower_priority = true;
  /// Base options for each worker's primary scheduler (streams is
  /// overridden by `streams` above).
  SchedulerOptions scheduler;
  /// Cross-request batching policy (serve/batch/batch_policy.hpp).
  /// Disabled by default: batchable requests then run solo on the
  /// worker that popped them, bit-for-bit.
  BatchPolicy batch;
};

class ServingRuntime {
 public:
  explicit ServingRuntime(ServingOptions options = {});
  /// Drains outstanding work (shutdown(kDrain)) before returning.
  ~ServingRuntime();

  ServingRuntime(const ServingRuntime&) = delete;
  ServingRuntime& operator=(const ServingRuntime&) = delete;

  /// Submits a request.  Never blocks: the returned handle is already
  /// terminal (REJECTED) when the queue is full and nothing lower
  /// priority could be shed, or when the runtime is shutting down.
  /// Throws std::invalid_argument on a null work callable, on a
  /// request naming both `work` and `entry`, on an unregistered entry
  /// name, or on an input whose shape does not match the entry.
  RequestHandle submit(Request request);

  /// Registers (or replaces) a batch-capable graph entry; requests
  /// naming it in Request::entry go through the batcher, which
  /// coalesces them into wide-M runs when options().batch.enabled and
  /// otherwise runs each solo.  Thread-safe.
  void register_batch_entry(std::shared_ptr<BatchEntry> entry);
  /// Registered entry by name; null when absent.
  std::shared_ptr<BatchEntry> batch_entry(std::string_view name) const;

  enum class Shutdown {
    kDrain,   ///< stop admissions, serve the backlog to completion
    kCancel,  ///< stop admissions, TIMEOUT the backlog, cancel in-flight
  };
  /// Stops the runtime and joins every worker.  Idempotent; the first
  /// call's mode wins.  On return every submitted request is terminal.
  void shutdown(Shutdown mode = Shutdown::kDrain);

  /// The books (serve/ledger.hpp): conservation identities hold
  /// exactly after shutdown() returns, globally and for every tenant.
  using Stats = ServingStats;
  using TenantStats = serve::TenantStats;
  Stats stats() const { return ledger_.stats(); }
  std::map<std::string, TenantStats> tenant_stats() const {
    return ledger_.tenant_stats();
  }

  /// Batching diagnostics (zeroed when batching is disabled).
  RequestBatcher::BatchStats batch_stats() const { return batcher_->stats(); }

  const ServingOptions& options() const noexcept { return options_; }

  /// Attaches (or, with null, detaches) the model requests see as
  /// WorkerContext::model.  Thread-safe; requests already running keep
  /// the model they started with — the runtime pins it per attempt, so
  /// hot-swapping an artifact never pulls borrowed mmap storage out
  /// from under in-flight work.
  void attach_model(std::shared_ptr<const SharedModel> model);
  std::shared_ptr<const SharedModel> model() const;

 private:
  struct Item {
    BatchMember member;
    std::function<MatrixF(WorkerContext&)> work;  ///< classic requests
    /// Entry requests: resolved at submit, so a later re-registration
    /// cannot swap graphs under an admitted request.
    std::shared_ptr<BatchEntry> entry;
  };

  void worker_loop(std::size_t worker_id);
  void serve_one(AttemptExecutor& executor, Item& item);

  ServingOptions options_;
  std::unique_ptr<AdmissionQueue<std::shared_ptr<Item>>> queue_;
  std::vector<std::unique_ptr<AttemptExecutor>> executors_;
  RequestLedger ledger_;
  std::unique_ptr<RequestBatcher> batcher_;
  mutable std::mutex entries_mutex_;
  std::map<std::string, std::shared_ptr<BatchEntry>, std::less<>> entries_;
  std::atomic<std::uint64_t> next_id_{1};
  std::mutex shutdown_mutex_;
  bool shut_down_ = false;
  mutable std::mutex model_mutex_;
  std::shared_ptr<const SharedModel> model_;
  std::vector<std::thread> threads_;  ///< last: they use every member above
};

}  // namespace tilesparse::serve
