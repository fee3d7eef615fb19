#include "serve/ledger.hpp"

#include <utility>

#include "util/guards.hpp"

namespace tilesparse::serve {

namespace {

void bump(std::atomic<std::uint64_t>& global, std::uint64_t& tenant) {
  global.fetch_add(1, std::memory_order_relaxed);
  ++tenant;
}

}  // namespace

void RequestLedger::submitted(const std::string& tenant) {
  std::lock_guard lock(tenants_mutex_);
  bump(submitted_, tenants_[tenant].submitted);
}

void RequestLedger::admitted(const std::string& tenant) {
  std::lock_guard lock(tenants_mutex_);
  bump(admitted_, tenants_[tenant].admitted);
}

void RequestLedger::finish(BatchMember& member, Response response, Shed shed) {
  const Clock::time_point now = Clock::now();
  // A member a worker popped has an arrival: its queue wait ends there
  // and its service time starts.  Admission sheds never got that far.
  const bool popped = member.arrival != Clock::time_point{};
  response.tag = member.tag;
  response.queue_wait = (popped ? member.arrival : now) - member.enqueued;
  if (popped) response.service_time = now - member.arrival;
  {
    std::lock_guard lock(tenants_mutex_);
    TenantStats& tenant = tenants_[member.tenant];
    switch (response.status) {
      case RequestStatus::kOk:
        bump(ok_, tenant.ok);
        tenant.cost_ok += member.cost;
        if (response.batched) ++tenant.batched_ok;
        if (response.degraded)
          degraded_ok_.fetch_add(1, std::memory_order_relaxed);
        break;
      case RequestStatus::kTimeout:
        bump(timeout_, tenant.timeout);
        break;
      case RequestStatus::kFailed:
        bump(failed_, tenant.failed);
        break;
      case RequestStatus::kRejected:
        TS_CHECK(shed != Shed::kNone, "RequestLedger: REJECTED without a shed");
        if (shed == Shed::kQueueFull) {
          bump(rejected_full_, tenant.rejected_full);
        } else if (shed == Shed::kClosed) {
          bump(rejected_closed_, tenant.rejected_closed);
        } else {
          bump(evicted_, tenant.evicted);
        }
        break;
      case RequestStatus::kPending:
        TS_CHECK(false, "RequestLedger: non-terminal status");
        break;
    }
  }
  if (response.attempts > 1)
    retries_.fetch_add(response.attempts - 1, std::memory_order_relaxed);
  member.handle->complete(std::move(response));
}

ServingStats RequestLedger::stats() const {
  const auto load = [](const Counter& counter) {
    return counter.load(std::memory_order_relaxed);
  };
  // Declaration order of ServingStats.
  return {load(submitted_),       load(admitted_), load(ok_),
          load(rejected_full_),   load(rejected_closed_), load(evicted_),
          load(timeout_),         load(failed_),   load(retries_),
          load(degraded_ok_)};
}

std::map<std::string, TenantStats> RequestLedger::tenant_stats() const {
  std::lock_guard lock(tenants_mutex_);
  return tenants_;
}

}  // namespace tilesparse::serve
