#pragma once
// ExecScheduler — runs an ExecGraph on the shared ThreadPool.
//
// The scheduler is the paper's Fig. 7-4 stream assignment on CPU
// workers: each "stream" is one pool worker looping over a shared
// ready queue, so independent nodes (the four attention projections,
// an NMT model's encoder/decoder input GEMMs) execute concurrently
// while dependency edges hold everything else in dataflow order.
// Every node's arithmetic is unchanged — scheduling only reorders
// *which* node runs when — so a scheduled run is bit-identical to the
// single-stream reference (streams = 1), which executes the graph
// serially on the calling thread with no queueing at all.
//
// Row shards: a row-range node (exec/graph.hpp) — every GEMM, the
// attention core and LayerNorm — is split into row shards, one per
// stream (the second axis of the paper's scheme, taken over M, the wide
// axis: a request's 256 rows against a TW weight's two tiles).  Shard s
// of S runs ExecGraph::execute_rows on the rows row_shard() gives it:
// it reads those rows of the node's inputs and writes them straight
// into the output slot, so there is no shard scratch and no join.  A
// GEMM shard runs the node's one packed weight, unchanged and with the
// node's ExecContext.threads, on all its tiles, then applies the
// node's epilogue (bias, GELU, residual) to its own rows; an
// attention-core shard is a range of whole sequences.  Every row's
// arithmetic is the one a whole run gives it, so sharded results stay
// bit-identical too.  Rows come from the input slot at run time, so one
// cached plan serves every M: the first shard of a node to leave the
// ready queue sizes the output slot (under the scheduler's lock; WAR
// edges guarantee no reader of the old buffer is still running) and
// fixes how many of the node's shards get rows this run.  That count
// comes from the PlannerCalibration cost model: a shard must carry
// enough MACs at the run's M to amortise one dispatch, measured against
// the host's dense rate; shards beyond it get empty ranges and return
// at once.
//
// Thread budget: a node's ExecContext.threads still bounds the OpenMP
// parallelism *inside* its kernel, so "S streams x T threads each"
// composes with an overall budget of S*T.  GemmScratch is
// thread_local, so every stream (pool worker) packs panels into its
// own buffers — no scratch is shared across streams.

#include <cstddef>
#include <memory>
#include <vector>

#include "exec/calibration.hpp"
#include "exec/graph.hpp"
#include "util/cancellation.hpp"
#include "util/threadpool.hpp"

namespace tilesparse {

struct SchedulerOptions {
  /// Concurrent worker streams.  1 = single-stream reference (serial,
  /// no queue, no shards); 0 = the pool's worker count.
  std::size_t streams = 0;
  /// Statically verify the graph (exec/validate.hpp) once per graph
  /// build id before the first dispatch — def-use, hazard-edge
  /// completeness, acyclicity, shapes — and audit every node's row
  /// shards on every run (in order, on the row step, tiling [0, M)).
  /// run() throws GraphValidationError listing every finding on a
  /// malformed graph or shard split.
  bool validate = true;
  /// Estimated cost of dispatching one task; the calibration's
  /// per-format rate converts it into a minimum per-shard MAC count.
  /// Negative = use the calibration's measured shard_overhead_us
  /// ("tile-shard" entry); 0 disables the floor entirely.
  double dispatch_overhead_us = -1.0;
  /// Cost-model constants; null uses the process-wide
  /// planner_calibration().
  const PlannerCalibration* calibration = nullptr;
};

class ExecScheduler {
 public:
  /// `pool` must outlive the scheduler; null uses ThreadPool::global().
  explicit ExecScheduler(SchedulerOptions options = {},
                         ThreadPool* pool = nullptr);

  /// Executes every node of `graph` in dependency order, overlapping
  /// independent nodes across streams.  Blocks until the graph is
  /// complete.  The first exception a node throws is rethrown here
  /// (remaining nodes are abandoned, already-running ones finish).
  /// Not reentrant: one run at a time per scheduler.
  void run(ExecGraph& graph);

  const SchedulerOptions& options() const noexcept { return options_; }

  /// Installs a cooperative cancellation token (non-owning; null
  /// detaches).  run() checks it at every node boundary — between
  /// kernels, where no state is half-written — and abandons the rest of
  /// the graph by throwing CancelledError once the token is cancelled
  /// or past its deadline.  A cancelled run leaves the graph reusable:
  /// the next run() re-executes every node.  The serving runtime arms
  /// one token per worker with the active request's deadline.
  void set_cancel_token(const CancelToken* token) noexcept { cancel_ = token; }
  const CancelToken* cancel_token() const noexcept { return cancel_; }

  /// Streams the next run will use (options resolved against the pool).
  std::size_t streams() const noexcept;

  /// Diagnostics of the most recent run().
  struct RunStats {
    std::size_t nodes = 0;          ///< graph nodes executed
    std::size_t tasks = 0;          ///< dispatch units (row shards included)
    std::size_t sharded_nodes = 0;  ///< nodes whose rows went to >= 2 shards
    std::size_t shards = 0;         ///< shards of those nodes given rows
  };
  const RunStats& last_stats() const noexcept { return stats_; }

 private:
  /// One dispatch unit of the expanded task DAG (static across runs;
  /// only the pending counters are per-run state).
  struct Task {
    ExecGraph::NodeId node = 0;
    std::ptrdiff_t shard = -1;  ///< >= 0: row shard index; -1: whole node
    std::size_t initial_pending = 0;
    std::vector<std::size_t> successors;
  };
  /// One cached expansion: the task DAG for a specific (graph build
  /// id, node count, stream count).  A row-range node expands into
  /// `streams` row shards, a plain host node into one whole task.
  struct Plan {
    std::uint64_t build_id = 0;
    std::size_t node_count = 0;
    std::size_t streams = 0;
    std::uint64_t last_used = 0;  ///< LRU stamp
    /// Per node: the MACs a row shard must carry to pay for its
    /// dispatch (the cost floor; 0 = none).
    std::vector<double> min_shard_macs;
    std::vector<Task> tasks;
    std::vector<std::size_t> initially_ready;
  };

  /// Per-run state of a sharded node, set by its first shard to leave
  /// the ready queue: the rows it has this run and how many of its
  /// shards get some (0 = not yet set).
  struct NodeRun {
    std::size_t rows = 0;
    std::size_t active = 0;
  };

  Plan& prepare(ExecGraph& graph);
  double min_shard_macs(const ExecGraph::Node& node) const;
  void start_sharded_node(ExecGraph& graph, const Plan& plan,
                          ExecGraph::NodeId id, NodeRun& run);
  void execute_task(ExecGraph& graph, const Task& task,
                    const std::vector<NodeRun>& node_runs);
  void run_serial(ExecGraph& graph);
  void run_concurrent(ExecGraph& graph);

  SchedulerOptions options_;
  ThreadPool* pool_;
  const CancelToken* cancel_ = nullptr;
  // Plan cache: the task DAG expansion allocates, so plans are built
  // once per (graph build id, node count, stream count) — the serving
  // hot path re-runs the same graph per request, whatever its M.  A
  // small LRU (not a single entry) because one worker's scheduler runs
  // the graphs of several batch entries; one slot would replan on every
  // alternation.  Models allocate a fresh ExecGraph (fresh build id)
  // whenever weights are re-packed; the node count catches a graph that
  // grew new nodes in place.
  static constexpr std::size_t kPlanCacheCapacity = 8;
  std::vector<std::unique_ptr<Plan>> plan_cache_;
  std::uint64_t plan_stamp_ = 0;
  /// Build ids already validated by this scheduler (bounded ring).
  std::vector<std::uint64_t> validated_build_ids_;
  RunStats stats_;
};

}  // namespace tilesparse
