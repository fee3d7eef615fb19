#pragma once
// RequestBatcher — coalesces concurrent admitted requests for the same
// BatchEntry into one wide-M graph execution.
//
// The serving runtime's workers discover batches cooperatively, with
// no dedicated batching thread:
//
//   worker pops item ──► serve(entry, member, executor)
//        │
//        ├─ bypass?  remaining deadline budget below the linger
//        │  window (policy.bypass_slack_factor x max_linger), or
//        │  batching disabled ──► run solo on the calling worker now,
//        │  with the full retry budget (max_attempts, retry_backoff).
//        │
//        ├─ a leader is already forming a batch for this entry ──►
//        │  deposit the member with the TenantScheduler, nudge the
//        │  leader, return (the worker goes back to popping — it is
//        │  the feeder that keeps batches filling).
//        │
//        └─ no leader ──► become the leader: linger up to
//           policy.max_linger from the oldest member's arrival (or
//           until pending rows reach policy.max_batch_m), DRR-select
//           a fair batch, gather rows (exec/row_stage.hpp), run the
//           entry ONCE (a single attempt on the primary), scatter each
//           member its own output rows.  Repeat while members remain,
//           then step down.
//
// Every run, batch or solo, goes through the calling worker's
// AttemptExecutor (serve/attempt_executor.hpp).
//
// Failure isolation: a batch run that times out times out every member
// (the deadline armed is the latest member deadline, so the whole batch
// was doomed or the runtime is shutting down).  Any other failure
// re-runs each member SOLO from attempt index 1 on the serial fallback
// (the batch run was attempt 0): always that one attempt, even with
// max_attempts = 1, and more while the total stays within max_attempts.
// One poisoned member then fails alone while its co-travellers still
// complete OK.  A member whose own deadline expired while the batch
// executed gets TIMEOUT and its output slice is dropped.  Every member
// reaches exactly one terminal status through the RequestLedger.

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "exec/batch_entry.hpp"
#include "exec/row_stage.hpp"
#include "serve/attempt_executor.hpp"
#include "serve/batch/batch_policy.hpp"
#include "serve/batch/tenant_scheduler.hpp"
#include "serve/ledger.hpp"

namespace tilesparse::serve {

class RequestBatcher {
 public:
  /// Every member's terminal response goes through `ledger`, which
  /// must outlive the batcher.
  RequestBatcher(const BatchPolicy& policy, RequestLedger& ledger);

  /// Serves one admitted member of `entry` using the calling worker's
  /// executor.  May block while the caller acts as batch leader.  On
  /// return the member either reached a terminal status or was
  /// deposited with the current leader (which will complete it).
  void serve(const std::shared_ptr<BatchEntry>& entry, BatchMember member,
             AttemptExecutor& executor);

  enum class Close {
    kDrain,   ///< leaders flush immediately, new members still served
    kCancel,  ///< queued members complete TIMEOUT, new members too
  };
  void close(Close mode);

  struct BatchStats {
    std::uint64_t batches = 0;          ///< wide-M flushes executed
    std::uint64_t batched_members = 0;  ///< members served inside them
    std::uint64_t solo_bypass = 0;      ///< deadline-bypass solo runs
    std::uint64_t solo_fallback = 0;    ///< members re-run solo after a batch fault
    std::size_t max_batch_rows = 0;     ///< widest flush (input rows)
  };
  BatchStats stats() const;

  const BatchPolicy& policy() const noexcept { return policy_; }

 private:
  /// Per-entry batch formation state.  Stable address (unique_ptr in
  /// the map): the leader blocks on its cv with the batcher mutex.
  struct Group {
    explicit Group(const BatchPolicy* policy) : scheduler(policy) {}
    TenantScheduler scheduler;
    std::condition_variable cv;
    bool leader_active = false;
    RowStage stage;  ///< leader-only (one leader per group at a time)
  };

  void lead(Group& group, const std::shared_ptr<BatchEntry>& entry,
            AttemptExecutor& executor, std::unique_lock<std::mutex>& lock);
  void run_batch(Group& group, BatchEntry& entry,
                 std::vector<BatchMember> members, AttemptExecutor& executor);
  /// Solo run of one member through the executor, from attempt index
  /// `first_attempt` (0 on bypass, 1 when isolating after a batch fault).
  void run_solo(BatchEntry& entry, BatchMember& member,
                AttemptExecutor& executor, std::uint32_t first_attempt);
  void complete_timeout(BatchMember& member, std::string reason);

  BatchPolicy policy_;
  RequestLedger& ledger_;
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Group>> groups_;
  bool draining_ = false;
  bool cancelled_ = false;
  BatchStats stats_;
};

}  // namespace tilesparse::serve
