#pragma once
// RequestLedger — the serving runtime's books, and the one funnel every
// terminal status passes through: admission sheds, queue and batch
// timeouts, and every worker outcome.  finish() stamps the response
// (tag, queue wait, service time), records it in the global atomics and
// the request's tenant ledger, counts attempts beyond the first as
// retries, and completes the handle.  The two books are kept apart on
// purpose: the tests cross-check one against the other.

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "serve/request.hpp"

namespace tilesparse::serve {

/// Monotonic counters.  The conservation identities
///   submitted == admitted + rejected_full + rejected_closed
///   admitted  == ok + timeout + failed + evicted      (once quiesced)
/// hold exactly after ServingRuntime::shutdown() returns (mid-flight,
/// popped-but-unfinished requests are in neither bucket).
struct ServingStats {
  std::uint64_t submitted = 0;
  std::uint64_t admitted = 0;
  std::uint64_t ok = 0;
  std::uint64_t rejected_full = 0;    ///< shed at admission: queue full
  std::uint64_t rejected_closed = 0;  ///< shed at admission: shutting down
  std::uint64_t evicted = 0;     ///< admitted, then shed for higher priority
  std::uint64_t timeout = 0;
  std::uint64_t failed = 0;
  std::uint64_t retries = 0;      ///< extra attempts beyond each first
  std::uint64_t degraded_ok = 0;  ///< OK served by the serial fallback
  std::uint64_t terminal() const noexcept {
    return ok + rejected_full + rejected_closed + evicted + timeout + failed;
  }
  bool conserved() const noexcept {
    return submitted == terminal() &&
           admitted == ok + evicted + timeout + failed;
  }
};

/// Per-tenant slice of the same accounting, keyed by Request::tenant_id
/// (the empty key is the anonymous tenant).  The conservation identity
/// holds for EVERY tenant after shutdown, not just globally — one
/// tenant's chaos cannot leak statuses into another's books.  cost_ok
/// additionally accumulates the byte·MAC service cost of OK batchable
/// work, the measure DRR fairness is judged by.
struct TenantStats {
  std::uint64_t submitted = 0;
  std::uint64_t admitted = 0;
  std::uint64_t ok = 0;
  std::uint64_t rejected_full = 0;
  std::uint64_t rejected_closed = 0;
  std::uint64_t evicted = 0;
  std::uint64_t timeout = 0;
  std::uint64_t failed = 0;
  std::uint64_t batched_ok = 0;  ///< OK responses served inside a batch
  double cost_ok = 0.0;          ///< byte·MAC cost of OK batchable work
  std::uint64_t terminal() const noexcept {
    return ok + rejected_full + rejected_closed + evicted + timeout + failed;
  }
  bool conserved() const noexcept {
    return submitted == terminal() &&
           admitted == ok + evicted + timeout + failed;
  }
};

class RequestLedger {
 public:
  /// Which admission-side shed a REJECTED status records.
  enum class Shed { kNone, kQueueFull, kClosed, kEvicted };

  void submitted(const std::string& tenant);
  void admitted(const std::string& tenant);

  /// The funnel: records `response` as `member`'s terminal status and
  /// completes its handle.  A REJECTED response must name its `shed`.
  void finish(BatchMember& member, Response response, Shed shed = Shed::kNone);

  ServingStats stats() const;
  std::map<std::string, TenantStats> tenant_stats() const;

 private:
  using Counter = std::atomic<std::uint64_t>;
  Counter submitted_{0}, admitted_{0}, ok_{0}, rejected_full_{0},
      rejected_closed_{0}, evicted_{0}, timeout_{0}, failed_{0}, retries_{0},
      degraded_ok_{0};
  mutable std::mutex tenants_mutex_;
  std::map<std::string, TenantStats> tenants_;
};

}  // namespace tilesparse::serve
