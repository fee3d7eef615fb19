#include "serve/batch/request_batcher.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "util/guards.hpp"

namespace tilesparse::serve {

RequestBatcher::RequestBatcher(const BatchPolicy& policy, RequestLedger& ledger)
    : policy_(policy), ledger_(ledger) {
  if (policy_.max_batch_m == 0) policy_.max_batch_m = 1;
  if (policy_.max_linger.count() < 0) policy_.max_linger = {};
}

void RequestBatcher::complete_timeout(BatchMember& member, std::string reason) {
  ledger_.finish(member,
                 terminal_response(RequestStatus::kTimeout, std::move(reason)));
}

void RequestBatcher::serve(const std::shared_ptr<BatchEntry>& entry,
                           BatchMember member, AttemptExecutor& executor) {
  const Clock::time_point now = Clock::now();
  // Deadline-aware bypass: lingering costs up to max_linger; a member
  // without at least bypass_slack_factor x that much budget left would
  // spend its remaining life waiting for co-travellers.
  const auto slack = std::chrono::duration_cast<Clock::duration>(
      policy_.bypass_slack_factor * policy_.max_linger);
  const bool bypass =
      !policy_.enabled || (member.deadline != Clock::time_point::max() &&
                           member.deadline - now < slack);

  std::unique_lock lock(mutex_);
  if (cancelled_) {
    lock.unlock();
    complete_timeout(member, "cancelled: runtime shutdown");
    return;
  }
  if (bypass) {
    if (policy_.enabled) ++stats_.solo_bypass;
    lock.unlock();
    run_solo(*entry, member, executor, /*first_attempt=*/0);
    return;
  }

  auto& slot = groups_[entry->name()];
  if (!slot) slot = std::make_unique<Group>(&policy_);
  Group& group = *slot;
  group.scheduler.enqueue(std::move(member));
  if (group.leader_active) {
    // A leader is lingering: wake it so it can re-check quorum, and
    // return to the admission queue — popping workers are the feeders
    // that keep this batch filling.
    group.cv.notify_all();
    return;
  }
  group.leader_active = true;
  lead(group, entry, executor, lock);
}

void RequestBatcher::lead(Group& group, const std::shared_ptr<BatchEntry>& entry,
                          AttemptExecutor& executor,
                          std::unique_lock<std::mutex>& lock) {
  for (;;) {
    // Linger: wait for rows to reach max_batch_m, but never past
    // oldest-member arrival + max_linger.
    while (!cancelled_ && !draining_ && !group.scheduler.empty() &&
           group.scheduler.pending_rows() < policy_.max_batch_m) {
      const Clock::time_point flush_at =
          group.scheduler.oldest_arrival() + policy_.max_linger;
      if (Clock::now() >= flush_at) break;
      group.cv.wait_until(lock, flush_at);
    }
    // close(kCancel) drains every group under this lock, and serve()
    // enqueues nothing once cancelled_: a cancelled group is empty.
    if (group.scheduler.empty()) break;
    std::vector<BatchMember> expired;
    std::vector<BatchMember> members =
        group.scheduler.select(policy_.max_batch_m, Clock::now(), expired);
    lock.unlock();
    for (BatchMember& member : expired)
      complete_timeout(member, "deadline expired while waiting in batch");
    if (!members.empty())
      run_batch(group, *entry, std::move(members), executor);
    lock.lock();
    if (group.scheduler.empty()) break;
  }
  group.leader_active = false;
}

void RequestBatcher::run_batch(Group& group, BatchEntry& entry,
                               std::vector<BatchMember> members,
                               AttemptExecutor& executor) {
  std::vector<const MatrixF*> parts;
  parts.reserve(members.size());
  Clock::time_point batch_deadline = Clock::time_point::min();
  for (const BatchMember& member : members) {
    parts.push_back(&member.input);
    batch_deadline = std::max(batch_deadline, member.deadline);
  }
  const MatrixF& staged = group.stage.gather(parts);
  const std::size_t batch_rows = staged.rows();

  // The armed deadline is the LATEST member deadline: the tightest
  // member must not kill its co-travellers — if it expires mid-run it
  // alone times out at scatter.
  const Response batch =
      executor.run_once(batch_deadline, [&](WorkerContext& context) {
        return entry.run(context.scheduler, staged);
      });
  if (batch.status == RequestStatus::kTimeout) {
    // Past the latest deadline (or shutdown cancel): the whole batch
    // is out of time.
    for (BatchMember& member : members) complete_timeout(member, batch.error);
    return;
  }
  if (batch.status == RequestStatus::kFailed) {
    // Batch-level fault (a poisoned member, an injected fault, a
    // rejected graph): isolate by re-running every member SOLO from
    // attempt 1 on the serial fallback, so exactly the culpable member
    // fails.
    {
      std::lock_guard stats_lock(mutex_);
      stats_.solo_fallback += members.size();
    }
    for (BatchMember& member : members)
      run_solo(entry, member, executor, /*first_attempt=*/1);
    return;
  }

  {
    std::lock_guard stats_lock(mutex_);
    ++stats_.batches;
    stats_.batched_members += members.size();
    stats_.max_batch_rows = std::max(stats_.max_batch_rows, batch_rows);
  }
  const Clock::time_point done = Clock::now();
  const std::vector<RowStage::Slice>& slices = group.stage.slices();
  TS_ASSERT(slices.size() == members.size());
  for (std::size_t i = 0; i < members.size(); ++i) {
    BatchMember& member = members[i];
    if (done >= member.deadline) {
      // The member's own budget ran out while the (longer-deadlined)
      // batch executed: drop its output slice, terminal TIMEOUT; its
      // co-travellers are unaffected.
      complete_timeout(member, "deadline expired during batched execution");
      continue;
    }
    Response response;
    response.status = RequestStatus::kOk;
    response.attempts = batch.attempts;
    response.batched = true;
    response.batch_rows = batch_rows;
    const RowStage::Slice out_slice = RowStage::map_groups(
        slices[i], entry.group_rows_in(), entry.group_rows_out());
    response.result = RowStage::scatter(batch.result, out_slice);
    ledger_.finish(member, std::move(response));
  }
}

void RequestBatcher::run_solo(BatchEntry& entry, BatchMember& member,
                              AttemptExecutor& executor,
                              std::uint32_t first_attempt) {
  const auto work = [&](WorkerContext& context) {
    return entry.run(context.scheduler, member.input);
  };
  ledger_.finish(member, executor.run(member.deadline, work, first_attempt));
}

void RequestBatcher::close(Close mode) {
  std::vector<BatchMember> orphaned;
  {
    std::lock_guard lock(mutex_);
    if (mode == Close::kCancel) {
      cancelled_ = true;
      for (auto& [name, group] : groups_) {
        std::vector<BatchMember> drained = group->scheduler.drain();
        for (BatchMember& member : drained)
          orphaned.push_back(std::move(member));
      }
    } else {
      draining_ = true;  // leaders flush without further lingering
    }
    for (auto& [name, group] : groups_) group->cv.notify_all();
  }
  for (BatchMember& member : orphaned)
    complete_timeout(member, "cancelled: runtime shutdown");
}

RequestBatcher::BatchStats RequestBatcher::stats() const {
  std::lock_guard lock(mutex_);
  return stats_;
}

}  // namespace tilesparse::serve
