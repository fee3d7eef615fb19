#pragma once
// AdmissionQueue — the bounded, priority-classed MPMC queue between
// submitters and serving workers.
//
// The structural exemplar is the lock-aware request/submission-queue
// pair of accelerator virtualisation stacks (a producer-side interface
// that never blocks the submitter, a consumer side that parks on a
// condition variable): producers either admit in O(1) or learn
// immediately that the system is saturated.  Robustness properties:
//
//  * Bounded: explicit capacity, checked under the lock.  A full queue
//    SHEDS — push() never blocks, because a blocked submitter turns
//    overload into upstream back-pressure collapse.
//  * Priority-classed: pop() serves the highest non-empty class, FIFO
//    within a class.  Optionally, a full queue admits an urgent arrival
//    by evicting its newest entry of a strictly lower class (the callee
//    learns which entry was shed and completes it as REJECTED — the
//    entry still reaches a terminal status).
//  * Closeable: close() stops admissions while pops drain the backlog
//    (graceful shutdown); close_and_drain() additionally hands every
//    queued entry back to the caller for immediate terminal completion
//    (cancelling shutdown).  Blocked pops wake on close.
//
// The queue moves values of any type T; priorities are supplied at
// push time so T needs no intrusive fields.

#include <array>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "serve/request.hpp"
#include "util/guards.hpp"

namespace tilesparse::serve {

enum class PushOutcome {
  kAdmitted,
  kAdmittedAfterEvict,  ///< admitted; *evicted holds the shed entry
  kRejectedFull,
  kRejectedClosed,
};

template <typename T>
class AdmissionQueue {
 public:
  explicit AdmissionQueue(std::size_t capacity)
      : capacity_(capacity > 0 ? capacity : 1) {}

  std::size_t size() const {
    std::lock_guard lock(mutex_);
    return size_;
  }

  /// Non-blocking admission.  When the queue is full and `evicted` is
  /// non-null, an entry of the lowest class strictly below `priority`
  /// is shed into *evicted to make room; with no such entry (or
  /// evicted == nullptr) the push is rejected.  Within the victim
  /// class, the shed entry belongs to the tenant with the HIGHEST
  /// queue-wide in-queue count — one tenant flooding the queue is shed
  /// before anyone else — and is that tenant's newest entry; with no
  /// tenants (all pushes anonymous) or tied counts this degenerates to
  /// the plain newest entry.
  PushOutcome push(T value, Priority priority, T* evicted = nullptr,
                   std::string_view tenant = {}) {
    const auto cls = static_cast<std::size_t>(priority);
    TS_CHECK(cls < kPriorityClasses, "AdmissionQueue: priority out of range");
    std::unique_lock lock(mutex_);
    if (closed_) return PushOutcome::kRejectedClosed;
    PushOutcome outcome = PushOutcome::kAdmitted;
    if (size_ >= capacity_) {
      if (!evicted) return PushOutcome::kRejectedFull;
      // Shed from the lowest class below the arrival: lowest-class-
      // first protects the most urgent backlog.
      std::size_t victim = kPriorityClasses;
      for (std::size_t c = 0; c < cls; ++c) {
        if (!classes_[c].empty()) {
          victim = c;
          break;
        }
      }
      if (victim == kPriorityClasses) return PushOutcome::kRejectedFull;
      std::deque<Entry>& dq = classes_[victim];
      // Newest-to-oldest scan with a strict `>`: the newest entry of
      // the most-queued tenant wins; full count ties fall back to the
      // plain newest (the pre-tenant behavior, which wastes the least
      // already-invested queue time).
      std::size_t best = dq.size() - 1;
      std::size_t best_count = 0;
      for (std::size_t i = dq.size(); i-- > 0;) {
        const std::size_t count = tenant_count(dq[i].tenant);
        if (count > best_count) {
          best_count = count;
          best = i;
        }
      }
      drop_tenant(dq[best].tenant);
      *evicted = std::move(dq[best].value);
      dq.erase(dq.begin() + static_cast<std::ptrdiff_t>(best));
      --size_;
      outcome = PushOutcome::kAdmittedAfterEvict;
    }
    if (!tenant.empty()) ++tenant_counts_[std::string(tenant)];
    classes_[cls].push_back(Entry{std::move(value), std::string(tenant)});
    ++size_;
    lock.unlock();
    cv_.notify_one();
    return outcome;
  }

  /// Blocks until an entry is available (highest class first, FIFO
  /// within a class) or the queue is closed AND empty; false means
  /// drained-and-closed (worker exit signal).
  bool pop(T& out) {
    std::unique_lock lock(mutex_);
    cv_.wait(lock, [this] { return size_ > 0 || closed_; });
    if (size_ == 0) return false;
    take_highest(out);
    return true;
  }

  /// Non-blocking pop; false when empty.
  bool try_pop(T& out) {
    std::lock_guard lock(mutex_);
    if (size_ == 0) return false;
    take_highest(out);
    return true;
  }

  /// Stops admissions; queued entries keep draining through pop().
  void close() {
    {
      std::lock_guard lock(mutex_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  /// Stops admissions and removes the whole backlog (highest class
  /// first), returning it so the caller can complete every entry with a
  /// terminal status.  Blocked pops wake and return false.
  std::vector<T> close_and_drain() {
    std::vector<T> drained;
    {
      std::lock_guard lock(mutex_);
      closed_ = true;
      drained.reserve(size_);
      for (std::size_t c = kPriorityClasses; c-- > 0;) {
        for (Entry& entry : classes_[c]) drained.push_back(std::move(entry.value));
        classes_[c].clear();
      }
      size_ = 0;
      tenant_counts_.clear();
    }
    cv_.notify_all();
    return drained;
  }

  /// Entries a tenant currently has queued (diagnostics/tests).
  std::size_t tenant_depth(std::string_view tenant) const {
    std::lock_guard lock(mutex_);
    return tenant_count(tenant);
  }

 private:
  struct Entry {
    T value;
    std::string tenant;  ///< empty = anonymous (untracked)
  };

  std::size_t tenant_count(std::string_view tenant) const {
    if (tenant.empty()) return 0;
    auto it = tenant_counts_.find(tenant);
    return it == tenant_counts_.end() ? 0 : it->second;
  }

  void drop_tenant(const std::string& tenant) {
    if (tenant.empty()) return;
    auto it = tenant_counts_.find(tenant);
    TS_CHECK(it != tenant_counts_.end() && it->second > 0,
             "AdmissionQueue: tenant count bookkeeping diverged");
    if (--it->second == 0) tenant_counts_.erase(it);
  }

  void take_highest(T& out) {
    for (std::size_t c = kPriorityClasses; c-- > 0;) {
      if (classes_[c].empty()) continue;
      drop_tenant(classes_[c].front().tenant);
      out = std::move(classes_[c].front().value);
      classes_[c].pop_front();
      --size_;
      return;
    }
    TS_CHECK(false, "AdmissionQueue: size/classes bookkeeping diverged");
  }

  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::array<std::deque<Entry>, kPriorityClasses> classes_;
  /// In-queue entries per (non-anonymous) tenant, across all classes.
  std::map<std::string, std::size_t, std::less<>> tenant_counts_;
  std::size_t size_ = 0;  ///< sum of class sizes (kept for O(1) checks)
  bool closed_ = false;
};

}  // namespace tilesparse::serve
