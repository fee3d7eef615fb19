#include "exec/graph.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>

#include "util/guards.hpp"

namespace tilesparse {

ExecGraph::ExecGraph() {
  static std::atomic<std::uint64_t> next_id{1};
  build_id_ = next_id.fetch_add(1, std::memory_order_relaxed);
}

ExecGraph::SlotId ExecGraph::add_slot(std::string name) {
  Slot slot;
  slot.name = std::move(name);
  slots_.push_back(std::move(slot));
  return slots_.size() - 1;
}

void ExecGraph::check_slot(SlotId id, const char* what) const {
  if (id >= slots_.size()) {
    throw std::invalid_argument(std::string("ExecGraph: ") + what +
                                " slot out of range");
  }
}

void ExecGraph::mark_input(SlotId id) {
  check_slot(id, "mark_input");
  slots_[id].is_input = true;
}

void ExecGraph::mark_output(SlotId id) {
  check_slot(id, "mark_output");
  slots_[id].is_output = true;
}

void ExecGraph::link(NodeId node) {
  TS_CHECK(node < nodes_.size(), "link of unknown node");
  auto depend_on = [&](NodeId before) {
    if (before == node) return;
    auto& deps = nodes_[node].deps;
    if (std::find(deps.begin(), deps.end(), before) == deps.end()) {
      deps.push_back(before);
      nodes_[before].dependents.push_back(node);
    }
  };
  for (SlotId id : nodes_[node].reads) {
    Slot& slot = slots_[id];
    if (auto_deps_ && slot.written) depend_on(slot.last_writer);  // RAW
    slot.readers_since_write.push_back(node);
  }
  for (SlotId id : nodes_[node].writes) {
    Slot& slot = slots_[id];
    if (auto_deps_) {
      if (slot.written) depend_on(slot.last_writer);  // WAW
      for (NodeId reader : slot.readers_since_write) depend_on(reader);  // WAR
    }
    slot.written = true;
    slot.last_writer = node;
    slot.readers_since_write.clear();
  }
}

ExecGraph::NodeId ExecGraph::add_gemm(std::string name,
                                      const PackedWeight* weight, SlotId in,
                                      SlotId out, const ExecContext& ctx,
                                      GemmEpilogue epilogue) {
  if (!weight) throw std::invalid_argument("ExecGraph::add_gemm: null weight");
  check_slot(in, "gemm input");
  check_slot(out, "gemm output");
  if (epilogue.residual) check_slot(*epilogue.residual, "gemm residual");
  if (in == out) {
    throw std::invalid_argument(
        "ExecGraph::add_gemm: in-place GEMM is not supported");
  }
  Node node;
  node.name = std::move(name);
  node.kind = NodeKind::kGemm;
  node.weight = weight;
  node.in = in;
  node.out = out;
  node.ctx = ctx;
  node.ctx.alpha = 1.0f;
  node.ctx.beta = 0.0f;
  node.reads = {in};
  if (epilogue.residual) node.reads.push_back(*epilogue.residual);
  node.epilogue = epilogue;
  node.writes = {out};
  node.width = weight->n();
  nodes_.push_back(std::move(node));
  const NodeId id = nodes_.size() - 1;
  link(id);
  return id;
}

ExecGraph::NodeId ExecGraph::add_host(std::string name,
                                      std::vector<SlotId> reads,
                                      std::vector<SlotId> writes,
                                      std::function<void(ExecGraph&)> fn) {
  if (!fn) throw std::invalid_argument("ExecGraph::add_host: null body");
  for (SlotId id : reads) check_slot(id, "host read");
  for (SlotId id : writes) check_slot(id, "host write");
  Node node;
  node.name = std::move(name);
  node.kind = NodeKind::kHost;
  node.fn = std::move(fn);
  node.reads = std::move(reads);
  node.writes = std::move(writes);
  nodes_.push_back(std::move(node));
  const NodeId id = nodes_.size() - 1;
  link(id);
  return id;
}

ExecGraph::NodeId ExecGraph::add_host_range(std::string name,
                                            std::vector<SlotId> reads,
                                            SlotId out, std::size_t width,
                                            std::size_t step,
                                            double macs_per_row, RangeFn fn) {
  if (!fn) throw std::invalid_argument("ExecGraph::add_host_range: null body");
  if (reads.empty()) {
    throw std::invalid_argument(
        "ExecGraph::add_host_range: needs a read to size its output rows");
  }
  for (SlotId id : reads) check_slot(id, "host range read");
  check_slot(out, "host range output");
  if (std::find(reads.begin(), reads.end(), out) != reads.end()) {
    throw std::invalid_argument(
        "ExecGraph::add_host_range: in-place host range is not supported");
  }
  if (width == 0 || step == 0 || width % step != 0) {
    throw std::invalid_argument(
        "ExecGraph::add_host_range: width must be a positive multiple of "
        "the range step");
  }
  Node node;
  node.name = std::move(name);
  node.kind = NodeKind::kHost;
  node.range_fn = std::move(fn);
  node.reads = std::move(reads);
  node.writes = {out};
  node.width = width;
  node.range_step = step;
  node.macs_per_row = macs_per_row;
  nodes_.push_back(std::move(node));
  const NodeId id = nodes_.size() - 1;
  link(id);
  return id;
}

double ExecGraph::Node::macs(std::size_t m) const {
  if (weight) return weight->macs(m);
  return macs_per_row * static_cast<double>(m);
}

void ExecGraph::add_dep(NodeId node, NodeId before) {
  if (node >= nodes_.size() || before >= nodes_.size()) {
    throw std::invalid_argument("ExecGraph::add_dep: node out of range");
  }
  if (before == node) {
    throw std::invalid_argument("ExecGraph::add_dep: self-dependency");
  }
  auto& deps = nodes_[node].deps;
  if (std::find(deps.begin(), deps.end(), before) == deps.end()) {
    deps.push_back(before);
    nodes_[before].dependents.push_back(node);
  }
}

std::size_t ExecGraph::max_gemm_width() const {
  // Width = the largest set of GEMM nodes pairwise unreachable from one
  // another.  Exact antichain width is overkill for a diagnostic; we
  // count GEMMs per dependency depth level and take the maximum, which
  // is exact for the layered graphs the models build.
  const std::vector<NodeId> order = topo_order();
  std::vector<std::size_t> depth(nodes_.size(), 0);
  std::size_t max_depth = 0;
  for (NodeId id : order) {
    for (NodeId dep : nodes_[id].deps)
      depth[id] = std::max(depth[id], depth[dep] + 1);
    max_depth = std::max(max_depth, depth[id]);
  }
  std::vector<std::size_t> gemms_at(max_depth + 1, 0);
  std::size_t width = 0;
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    if (nodes_[id].kind == NodeKind::kGemm)
      width = std::max(width, ++gemms_at[depth[id]]);
  }
  return width;
}

std::vector<ExecGraph::NodeId> ExecGraph::topo_order() const {
  // Kahn's algorithm with a lowest-id-first ready heap: auto-built
  // graphs (whose derived edges all point backwards) come out in
  // insertion order, and explicit forward edges from add_dep are
  // honored too.
  std::vector<std::size_t> pending(nodes_.size());
  std::vector<NodeId> ready;
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    pending[id] = nodes_[id].deps.size();
    if (pending[id] == 0) ready.push_back(id);
  }
  std::make_heap(ready.begin(), ready.end(), std::greater<>{});
  std::vector<NodeId> order;
  order.reserve(nodes_.size());
  while (!ready.empty()) {
    std::pop_heap(ready.begin(), ready.end(), std::greater<>{});
    const NodeId id = ready.back();
    ready.pop_back();
    order.push_back(id);
    for (NodeId dependent : nodes_[id].dependents) {
      if (--pending[dependent] == 0) {
        ready.push_back(dependent);
        std::push_heap(ready.begin(), ready.end(), std::greater<>{});
      }
    }
  }
  if (order.size() != nodes_.size()) {
    throw std::logic_error(
        "ExecGraph::topo_order: dependency edges contain a cycle (run "
        "validate_graph() for the offending path)");
  }
  return order;
}

void ExecGraph::execute_node(NodeId id) {
  Node& node = nodes_.at(id);
  if (!node.column_ranged()) {
    node.fn(*this);
    return;
  }
  execute_range(id, slot(node.writes.front()), 0, node.width);
}

void ExecGraph::execute_range(NodeId id, MatrixF& block, std::size_t n0,
                              std::size_t n1) const {
  const Node& node = nodes_.at(id);
  TS_CHECK(node.column_ranged() && n0 < n1 && n1 <= node.width &&
               n0 % node.range_step == 0 && n1 % node.range_step == 0,
           "ExecGraph::execute_range: not a column range of the node");
  const MatrixF& a = slot(node.reads.front());
  if (block.rows() != a.rows() || block.cols() != n1 - n0)
    block = MatrixF(a.rows(), n1 - n0);
  if (node.kind == NodeKind::kHost) {
    node.range_fn(*this, block, n0, n1);
    return;
  }
  node.weight->matmul(node.ctx, a, block, n0, n1);
  apply_epilogue(node.epilogue, block, n0);
}

void ExecGraph::apply_epilogue(const GemmEpilogue& epilogue, MatrixF& c,
                               std::size_t n0) const {
  apply_gemm_epilogue(epilogue.bias, epilogue.activation,
                      epilogue.residual ? &slot(*epilogue.residual) : nullptr,
                      c, n0);
}

void ExecGraph::poison_slots() {
#if defined(TILESPARSE_ENABLE_GUARDS)
  // Only graphs that declare their inputs can be poisoned safely: on a
  // legacy graph (nothing marked) every slot would be a candidate,
  // including the ones the caller just fed.
  bool any_input = false;
  for (const Slot& slot : slots_) any_input = any_input || slot.is_input;
  if (!any_input) return;
  for (Slot& slot : slots_) {
    if (slot.is_input) continue;
    poison_nan(slot.buffer.data(), slot.buffer.size());
  }
#endif
}

}  // namespace tilesparse
