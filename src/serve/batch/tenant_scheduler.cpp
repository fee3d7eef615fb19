#include "serve/batch/tenant_scheduler.hpp"

#include <algorithm>
#include <utility>

namespace tilesparse::serve {

void TenantScheduler::enqueue(BatchMember member) {
  auto [it, inserted] = tenants_.try_emplace(member.tenant);
  if (inserted) order_.push_back(member.tenant);
  max_cost_seen_ = std::max(max_cost_seen_, member.cost);
  ++pending_members_;
  pending_rows_ += member.input.rows();
  it->second.queue.push_back(std::move(member));
}

Clock::time_point TenantScheduler::oldest_arrival() const {
  Clock::time_point oldest = Clock::time_point::max();
  for (const auto& [name, tenant] : tenants_) {
    for (const BatchMember& member : tenant.queue)
      oldest = std::min(oldest, member.arrival);
  }
  return oldest;
}

double TenantScheduler::quantum() const noexcept {
  return policy_->drr_quantum > 0.0 ? policy_->drr_quantum : max_cost_seen_;
}

double TenantScheduler::weight(const std::string& tenant) const noexcept {
  auto it = policy_->tenant_weights.find(tenant);
  if (it == policy_->tenant_weights.end() || it->second <= 0.0) return 1.0;
  return it->second;
}

std::vector<BatchMember> TenantScheduler::select(
    std::size_t max_rows, Clock::time_point now,
    std::vector<BatchMember>& expired) {
  // Purge deadline-expired members first: they must not occupy batch
  // rows, and their tenants must not be charged for them.
  for (auto& [name, tenant] : tenants_) {
    auto it = tenant.queue.begin();
    while (it != tenant.queue.end()) {
      if (it->deadline <= now) {
        --pending_members_;
        pending_rows_ -= it->input.rows();
        expired.push_back(std::move(*it));
        it = tenant.queue.erase(it);
      } else {
        ++it;
      }
    }
  }

  std::vector<BatchMember> out;
  if (max_rows == 0) max_rows = 1;
  std::size_t rows = 0;
  // A round that selects nothing into an empty batch doubles the next
  // replenish: no service was handed out, so fairness is untouched,
  // and a pathologically small configured quantum converges in
  // O(log(cost / quantum)) rounds instead of cost / quantum.
  double boost = 1.0;
  while (rows < max_rows && !order_.empty()) {
    bool any_pending = false;
    bool any_selected = false;
    for (std::size_t i = 0; i < order_.size(); ++i) {
      const std::size_t idx = (cursor_ + i) % order_.size();
      Tenant& tenant = tenants_.at(order_[idx]);
      if (tenant.queue.empty()) continue;
      any_pending = true;
      // One replenish per tenant per round, the classic DRR step.
      tenant.deficit += quantum() * weight(order_[idx]) * boost;
      while (!tenant.queue.empty()) {
        BatchMember& head = tenant.queue.front();
        const std::size_t head_rows = head.input.rows();
        // Oversize members are admitted only into an empty batch: they
        // run alone rather than starve (rows == 0 lifts the row cap).
        if (rows > 0 && rows + head_rows > max_rows) break;
        if (head.cost > tenant.deficit) break;
        tenant.deficit -= head.cost;
        tenant.served += head.cost;
        rows += head_rows;
        --pending_members_;
        pending_rows_ -= head_rows;
        out.push_back(std::move(head));
        tenant.queue.pop_front();
        any_selected = true;
        if (rows >= max_rows) break;
      }
      // An emptied queue forfeits its balance: deficit only accrues
      // while backlogged, so an idle tenant cannot bank service.
      if (tenant.queue.empty()) tenant.deficit = 0.0;
      if (rows >= max_rows) {
        cursor_ = (idx + 1) % order_.size();
        return out;
      }
    }
    if (!any_pending) break;
    // A full round with queues pending but nothing selected: every
    // head either does not fit the remaining rows (batch effectively
    // full — ship it) or is still saving deficit (only possible with
    // an empty batch; loop again and let deficits accrue).
    if (!any_selected && rows > 0) break;
    if (!any_selected) boost *= 2.0;
  }
  if (!order_.empty()) cursor_ = (cursor_ + 1) % order_.size();
  return out;
}

std::vector<BatchMember> TenantScheduler::drain() {
  std::vector<BatchMember> out;
  out.reserve(pending_members_);
  for (auto& [name, tenant] : tenants_) {
    for (BatchMember& member : tenant.queue) out.push_back(std::move(member));
    tenant.queue.clear();
    tenant.deficit = 0.0;
  }
  pending_members_ = 0;
  pending_rows_ = 0;
  return out;
}

double TenantScheduler::served_cost(const std::string& tenant) const {
  auto it = tenants_.find(tenant);
  return it == tenants_.end() ? 0.0 : it->second.served;
}

}  // namespace tilesparse::serve
