#pragma once
// TenantScheduler — deficit-round-robin fairness across tenants
// sharing one batching runtime.
//
// Without it, batch composition is FIFO over arrival order, so a
// tenant blasting 10x the traffic owns 10x of every batch and the
// quiet tenant's latency collapses.  DRR fixes that with per-tenant
// queues and a deficit counter: each round every backlogged tenant's
// deficit grows by quantum x weight, and a tenant may place members
// into the forming batch only while its deficit covers their cost.
// Cost is the entry's byte·MAC figure (BatchEntry::cost) — a tenant
// sending few huge requests and one sending many small ones are
// charged the same currency — so at equal weights two backlogged
// tenants converge to ~1:1 *service*, not 1:1 request count.
// serve_batch_test drives a 10:1 offered-load pair through this and
// asserts the served-cost ratio stays near 1.
//
// The scheduler is externally locked: RequestBatcher calls every
// method under its own mutex (enqueue from follower workers, select
// from the batch leader).  It holds no lock of its own.

#include <cstddef>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "serve/batch/batch_policy.hpp"
#include "serve/request.hpp"

namespace tilesparse::serve {

class TenantScheduler {
 public:
  /// `policy` must outlive the scheduler (the batcher owns both).
  explicit TenantScheduler(const BatchPolicy* policy) : policy_(policy) {}

  void enqueue(BatchMember member);

  std::size_t pending_members() const noexcept { return pending_members_; }
  std::size_t pending_rows() const noexcept { return pending_rows_; }
  bool empty() const noexcept { return pending_members_ == 0; }
  /// Earliest batcher-arrival among queued members; time_point::max()
  /// when empty.  The leader's flush deadline is this + max_linger.
  Clock::time_point oldest_arrival() const;

  /// DRR round: pops members for the next batch, up to `max_rows`
  /// input rows in total.  A member past its deadline at `now` is
  /// moved to `expired` instead of selected.  When nothing has been
  /// selected yet, one oversize member (rows >= max_rows) is admitted
  /// alone rather than starved forever.  Selection order within the
  /// batch is round-robin from a cursor that persists across calls.
  std::vector<BatchMember> select(std::size_t max_rows, Clock::time_point now,
                                  std::vector<BatchMember>& expired);

  /// Removes and returns every queued member (shutdown path).
  std::vector<BatchMember> drain();

  /// Cumulative byte·MAC cost select() has handed out per tenant —
  /// the service measure the fairness tests assert on.
  double served_cost(const std::string& tenant) const;

 private:
  struct Tenant {
    std::deque<BatchMember> queue;
    double deficit = 0.0;
    double served = 0.0;
  };

  double quantum() const noexcept;
  double weight(const std::string& tenant) const noexcept;

  const BatchPolicy* policy_;
  std::map<std::string, Tenant> tenants_;
  std::vector<std::string> order_;  ///< round-robin order (first-seen)
  std::size_t cursor_ = 0;
  std::size_t pending_members_ = 0;
  std::size_t pending_rows_ = 0;
  double max_cost_seen_ = 1.0;  ///< auto-quantum when policy quantum is 0
};

}  // namespace tilesparse::serve
