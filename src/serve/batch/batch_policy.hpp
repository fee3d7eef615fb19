#pragma once
// BatchPolicy — the knobs governing cross-request batching.
//
// The batcher trades a little latency (linger) for a lot of throughput
// (wide-M GEMM).  This struct is the whole trade-off surface; it is
// plain data so benches and tests can sweep it.

#include <chrono>
#include <cstddef>
#include <map>
#include <string>

namespace tilesparse::serve {

struct BatchPolicy {
  /// Master switch.  Off, the batcher runs every batchable request
  /// solo on the worker that popped it, with the full retry budget.
  bool enabled = false;
  /// Flush a forming batch once its input rows reach this many.
  std::size_t max_batch_m = 256;
  /// How long the batch leader waits for co-travellers after the oldest
  /// member arrived before flushing anyway.
  std::chrono::microseconds max_linger{200};
  /// Deadline-aware bypass: a request whose remaining budget is below
  /// bypass_slack_factor * max_linger skips batching and runs solo
  /// immediately — lingering would eat the budget it has left.
  double bypass_slack_factor = 2.0;
  /// DRR quantum (byte·MAC) added to each backlogged tenant's deficit
  /// per round.  0 = auto: the largest member cost seen so far, so
  /// every round lets each tenant afford at least one member.
  double drr_quantum = 0.0;
  /// Per-tenant DRR weights (quantum multipliers).  Tenants absent
  /// from the map get weight 1.  Weights <= 0 are treated as 1.
  std::map<std::string, double> tenant_weights;
};

}  // namespace tilesparse::serve
