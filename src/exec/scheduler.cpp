#include "exec/scheduler.hpp"

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <mutex>
#include <stdexcept>

#include "exec/validate.hpp"
#include "util/fault_injection.hpp"
#include "util/guards.hpp"

namespace tilesparse {
namespace {

/// Dense rate assumed when the host never ran calibrate_planner; only
/// sets the sharding floor, so an order of magnitude is enough.
constexpr double kFallbackDenseGflops = 8.0;

}  // namespace

ExecScheduler::ExecScheduler(SchedulerOptions options, ThreadPool* pool)
    : options_(options), pool_(pool ? pool : &ThreadPool::global()) {}

std::size_t ExecScheduler::streams() const noexcept {
  return options_.streams > 0 ? options_.streams : pool_->worker_count();
}

double ExecScheduler::min_shard_macs(const ExecGraph::Node& node) const {
  const PlannerCalibration& calibration =
      options_.calibration ? *options_.calibration : planner_calibration();
  const double dense_gflops =
      calibration.measured() ? calibration.dense_gflops : kFallbackDenseGflops;
  // Per-format effective rate: a slow format (csr penalty > 1) covers
  // the dispatch overhead with fewer of its own MACs, so it shards
  // earlier than dense for the same nominal MAC count.  A host range
  // prices as dense.
  const double penalty =
      node.weight ? calibration.mac_penalty(node.weight->format()) : 1.0;
  const double gflops = dense_gflops / std::max(0.05, penalty);
  const double overhead_us = options_.dispatch_overhead_us >= 0.0
                                 ? options_.dispatch_overhead_us
                                 : calibration.shard_overhead_us;
  // gflops * 1e9 flop/s * overhead_us * 1e-6 s, at 2 flops per MAC.
  return gflops * overhead_us * 1e3 / 2.0;
}

ExecScheduler::Plan& ExecScheduler::prepare(ExecGraph& graph) {
  const auto& nodes = graph.nodes();
  for (auto& cached : plan_cache_) {
    if (cached->build_id == graph.build_id() &&
        cached->node_count == nodes.size() && cached->streams == streams()) {
      cached->last_used = ++plan_stamp_;
      return *cached;
    }
  }

  // Miss: build a fresh plan, evicting the least-recently-used entry
  // once the cache is full.
  auto fresh = std::make_unique<Plan>();
  Plan& plan = *fresh;
  plan.min_shard_macs.resize(nodes.size());

  // Expand nodes into dispatch tasks: one per plain host node, one per
  // stream for a row-range node.  The expansion is static across runs;
  // which shards get rows is decided per run (start_sharded_node).
  std::vector<std::vector<std::size_t>> entry(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const bool sharded = nodes[i].row_ranged();
    if (sharded) plan.min_shard_macs[i] = min_shard_macs(nodes[i]);
    for (std::size_t s = 0; s < (sharded ? streams() : 1); ++s) {
      Task task;
      task.node = i;
      task.shard = sharded ? static_cast<std::ptrdiff_t>(s) : -1;
      task.initial_pending = nodes[i].deps.size();
      plan.tasks.push_back(std::move(task));
      entry[i].push_back(plan.tasks.size() - 1);
    }
  }
  // Every task of a node signals every task of each dependent: a
  // dependent's shards read rows of this node's output that any of its
  // shards may have written.
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    for (std::size_t t : entry[i]) {
      std::vector<std::size_t>& successors = plan.tasks[t].successors;
      for (ExecGraph::NodeId dependent : nodes[i].dependents)
        successors.insert(successors.end(), entry[dependent].begin(),
                          entry[dependent].end());
    }
    for (ExecGraph::NodeId dependent : nodes[i].dependents)
      for (std::size_t t : entry[dependent])
        plan.tasks[t].initial_pending += entry[i].size() - 1;
  }
  for (std::size_t t = 0; t < plan.tasks.size(); ++t) {
    if (plan.tasks[t].initial_pending == 0) plan.initially_ready.push_back(t);
  }

  plan.build_id = graph.build_id();
  plan.node_count = nodes.size();
  plan.streams = streams();
  plan.last_used = ++plan_stamp_;

  if (plan_cache_.size() >= kPlanCacheCapacity) {
    auto lru = std::min_element(plan_cache_.begin(), plan_cache_.end(),
                                [](const auto& a, const auto& b) {
                                  return a->last_used < b->last_used;
                                });
    *lru = std::move(fresh);
    return **lru;
  }
  plan_cache_.push_back(std::move(fresh));
  return *plan_cache_.back();
}

void ExecScheduler::start_sharded_node(ExecGraph& graph, const Plan& plan,
                                       ExecGraph::NodeId id, NodeRun& run) {
  const ExecGraph::Node& node = graph.nodes()[id];
  run.rows = graph.node_rows(id);
  // The cost floor, priced at this run's rows: split only as far as
  // every shard still carries min_shard_macs.
  const double floor = plan.min_shard_macs[id];
  const double macs = node.macs(run.rows);
  run.active = plan.streams;
  if (floor > 0.0 && macs < floor * static_cast<double>(plan.streams))
    run.active =
        std::max<std::size_t>(1, static_cast<std::size_t>(macs / floor));
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  std::size_t given = 0;
  for (std::size_t s = 0; s < run.active; ++s) {
    ranges.push_back(row_shard(run.rows, node.row_step, run.active, s));
    given += ranges.back().first < ranges.back().second ? 1 : 0;
  }
  if (options_.validate) {
    // Audit the ranges the shards will really run: in order, on the
    // row step, tiling [0, rows) — before a single MAC is computed.
    auto findings = audit_row_shards(node, run.rows, ranges);
    if (!findings.empty()) throw GraphValidationError(std::move(findings));
  }
  graph.size_output(id);
  if (given >= 2) {
    ++stats_.sharded_nodes;
    stats_.shards += given;
  }
}

void ExecScheduler::run_serial(ExecGraph& graph) {
  for (ExecGraph::NodeId id : graph.topo_order()) {
    if (cancel_) cancel_->throw_if_expired();
    fault_point(FaultSite::kSchedulerDispatch);
    graph.execute_node(id);
  }
  stats_ = RunStats{};
  stats_.nodes = graph.node_count();
  stats_.tasks = graph.node_count();
}

void ExecScheduler::run(ExecGraph& graph) {
  if (graph.node_count() == 0) {
    stats_ = RunStats{};
    return;
  }
  if (options_.validate &&
      std::find(validated_build_ids_.begin(), validated_build_ids_.end(),
                graph.build_id()) == validated_build_ids_.end()) {
    // One static pass per graph: def-use, hazard coverage, acyclicity,
    // shapes.  Throws GraphValidationError (all findings
    // listed) instead of dispatching a malformed plan.  The validated
    // set is a bounded ring for the same reason the plan cache is an
    // LRU: one worker's scheduler runs graphs of several entries.
    validate_graph_or_throw(graph);
    if (validated_build_ids_.size() >= 2 * kPlanCacheCapacity)
      validated_build_ids_.erase(validated_build_ids_.begin());
    validated_build_ids_.push_back(graph.build_id());
  }
  graph.poison_slots();  // guards builds: NaN out every non-input slot
  if (streams() <= 1) {
    run_serial(graph);
    return;
  }
  run_concurrent(graph);
}

void ExecScheduler::execute_task(ExecGraph& graph, const Task& task,
                                 const std::vector<NodeRun>& node_runs) {
  // Node-boundary cancellation point + injected stream faults: both
  // throw here, inside the stream loop's try, so an expired deadline or
  // an injected fault aborts the run through the same first-exception
  // path a real node failure takes.
  if (cancel_) cancel_->throw_if_expired();
  fault_point(FaultSite::kSchedulerDispatch);
  if (task.shard < 0) {
    graph.execute_node(task.node);
    return;
  }
  const NodeRun& run = node_runs[task.node];
  const auto shard = static_cast<std::size_t>(task.shard);
  if (shard >= run.active) return;  // below the cost floor this run
  const auto [r0, r1] = row_shard(run.rows, graph.nodes()[task.node].row_step,
                                  run.active, shard);
  graph.execute_rows(task.node, r0, r1);
}

void ExecScheduler::run_concurrent(ExecGraph& graph) {
  Plan& plan = prepare(graph);
  const std::vector<Task>& tasks = plan.tasks;
  stats_ = RunStats{};
  stats_.nodes = graph.node_count();
  stats_.tasks = tasks.size();

  // Per-run state: pending counters, the sharded nodes' rows and the
  // ready queue, seeded from the cached expansion.  Everything below
  // the mutex; the kernels themselves run unlocked.
  std::vector<std::size_t> pending(tasks.size());
  for (std::size_t t = 0; t < tasks.size(); ++t)
    pending[t] = tasks[t].initial_pending;
  std::vector<NodeRun> node_runs(graph.node_count());
  std::mutex mutex;
  std::condition_variable cv;
  std::vector<std::size_t> ready = plan.initially_ready;
  std::size_t next_ready = 0;
  std::size_t executed = 0;
  bool aborted = false;
  std::exception_ptr error;

  auto stream_loop = [&](std::size_t) {
    std::unique_lock lock(mutex);
    for (;;) {
      cv.wait(lock, [&] {
        return aborted || executed == tasks.size() || next_ready < ready.size();
      });
      if (aborted || executed == tasks.size()) return;
      const std::size_t id = ready[next_ready++];
      try {
        // A node's first shard out of the queue sizes its output and
        // fixes its row split, under the lock, before any shard runs.
        const Task& task = tasks[id];
        if (task.shard >= 0 && node_runs[task.node].active == 0)
          start_sharded_node(graph, plan, task.node, node_runs[task.node]);
        lock.unlock();
        execute_task(graph, task, node_runs);
      } catch (...) {
        if (!lock.owns_lock()) lock.lock();
        if (!error) error = std::current_exception();
        aborted = true;
        cv.notify_all();
        return;
      }
      lock.lock();
      ++executed;
      bool woke_any = false;
      for (std::size_t successor : tasks[id].successors) {
        if (--pending[successor] == 0) {
          ready.push_back(successor);
          woke_any = true;
        }
      }
      if (executed == tasks.size() || woke_any) cv.notify_all();
    }
  };

  pool_->parallel_for(0, streams(), stream_loop);
  if (error) std::rethrow_exception(error);
  TS_CHECK(executed == tasks.size(),
           "ExecScheduler: graph did not complete (dispatch invariant)");
}

}  // namespace tilesparse
