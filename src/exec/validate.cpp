#include "exec/validate.hpp"

#include <algorithm>
#include <cstdint>

#include "util/guards.hpp"

namespace tilesparse {
namespace {

using NodeId = ExecGraph::NodeId;
using SlotId = ExecGraph::SlotId;

constexpr std::size_t kUnknownWidth = static_cast<std::size_t>(-1);

std::string node_label(const ExecGraph& graph, NodeId id) {
  return "node #" + std::to_string(id) + " '" + graph.nodes()[id].name + "'";
}

std::string slot_label(const ExecGraph& graph, SlotId id) {
  return "slot '" + graph.slot_name(id) + "'";
}

/// Per-node ancestor sets as packed bitsets (graphs are tens of nodes;
/// N^2 bits is nothing, and it makes every hazard query O(1)).
class AncestorSets {
 public:
  AncestorSets(const ExecGraph& graph, const std::vector<NodeId>& topo)
      : words_((graph.node_count() + 63) / 64),
        bits_(graph.node_count() * words_, 0) {
    for (NodeId id : topo) {
      std::uint64_t* mine = row(id);
      for (NodeId dep : graph.nodes()[id].deps) {
        const std::uint64_t* theirs = row(dep);
        for (std::size_t w = 0; w < words_; ++w) mine[w] |= theirs[w];
        mine[dep / 64] |= std::uint64_t{1} << (dep % 64);
      }
    }
  }

  bool reaches(NodeId ancestor, NodeId descendant) const {
    return (row(descendant)[ancestor / 64] >>
            (ancestor % 64)) & 1u;
  }

 private:
  std::uint64_t* row(NodeId id) { return bits_.data() + id * words_; }
  const std::uint64_t* row(NodeId id) const {
    return bits_.data() + id * words_;
  }

  std::size_t words_;
  std::vector<std::uint64_t> bits_;
};

/// DFS cycle search over dependency edges; returns the cycle as a
/// node path (first == last) or empty when acyclic.
std::vector<NodeId> find_cycle(const ExecGraph& graph) {
  enum : unsigned char { kWhite, kGray, kBlack };
  const auto& nodes = graph.nodes();
  std::vector<unsigned char> color(nodes.size(), kWhite);
  // Explicit stack of (node, next dep index); gray_path mirrors the
  // stack so a back edge can be reported as a name path.
  std::vector<std::pair<NodeId, std::size_t>> stack;
  std::vector<NodeId> gray_path;
  for (NodeId root = 0; root < nodes.size(); ++root) {
    if (color[root] != kWhite) continue;
    stack.emplace_back(root, 0);
    color[root] = kGray;
    gray_path.push_back(root);
    while (!stack.empty()) {
      auto& [id, next] = stack.back();
      if (next < nodes[id].deps.size()) {
        const NodeId dep = nodes[id].deps[next++];
        if (color[dep] == kGray) {
          // Back edge: the cycle is dep ... id -> dep.
          std::vector<NodeId> cycle;
          const auto start =
              std::find(gray_path.begin(), gray_path.end(), dep);
          cycle.assign(start, gray_path.end());
          cycle.push_back(dep);
          return cycle;
        }
        if (color[dep] == kWhite) {
          color[dep] = kGray;
          stack.emplace_back(dep, 0);
          gray_path.push_back(dep);
        }
        continue;
      }
      color[id] = kBlack;
      gray_path.pop_back();
      stack.pop_back();
    }
  }
  return {};
}

/// Fallback execution order when the graph is cyclic (the cycle
/// finding dominates, but the def-use walk still wants *some* order).
std::vector<NodeId> insertion_order(const ExecGraph& graph) {
  std::vector<NodeId> order(graph.node_count());
  for (NodeId id = 0; id < order.size(); ++id) order[id] = id;
  return order;
}

void add_finding(std::vector<GraphFinding>& findings, FindingSeverity severity,
                 std::string code, std::string message) {
  findings.push_back(
      GraphFinding{severity, std::move(code), std::move(message)});
}

}  // namespace

std::string to_string(const GraphFinding& finding) {
  return std::string(finding.severity == FindingSeverity::kError ? "error["
                                                                 : "warning[") +
         finding.code + "]: " + finding.message;
}

GraphValidationError::GraphValidationError(std::vector<GraphFinding> findings)
    : std::runtime_error([&findings] {
        std::size_t errors = 0;
        for (const GraphFinding& f : findings)
          if (f.severity == FindingSeverity::kError) ++errors;
        std::string what = "ExecGraph validation failed with " +
                           std::to_string(errors) + " error(s):";
        for (const GraphFinding& f : findings)
          what += "\n  " + to_string(f);
        return what;
      }()),
      findings_(std::move(findings)) {}

std::vector<GraphFinding> audit_shard_slices(
    const ExecGraph::Node& node,
    const std::vector<std::pair<std::size_t, std::size_t>>& slices) {
  std::vector<GraphFinding> findings;
  std::string who = "'" + node.name + "' (";
  if (node.weight) {
    who += "format '" + std::string(node.weight->format()) + "', " +
           std::to_string(node.weight->k()) + " x ";
  } else {
    who += "width ";
  }
  who += std::to_string(node.width) + ")";
  if (slices.empty()) {
    add_finding(findings, FindingSeverity::kError, "shard-plan",
                "empty shard plan for " + who);
    return findings;
  }
  // Structural tiling of [0, N): ascending, gap-free, overlap-free.
  std::size_t expected = 0;
  for (std::size_t i = 0; i < slices.size(); ++i) {
    const auto [n0, n1] = slices[i];
    std::string range = "[";
    range += std::to_string(n0);
    range += ", ";
    range += std::to_string(n1);
    range += ")";
    if (n1 <= n0) {
      add_finding(findings, FindingSeverity::kError, "shard-plan",
                  "empty shard slice " + range + " of " + who);
      continue;
    }
    if (n0 % node.range_step != 0 || n1 % node.range_step != 0) {
      add_finding(findings, FindingSeverity::kError, "shard-plan",
                  "shard slice " + range + " of " + who +
                      " does not fall on its range step of " +
                      std::to_string(node.range_step) + " columns");
    }
    if (n0 < expected) {
      add_finding(findings, FindingSeverity::kError, "shard-plan",
                  "shard slice " + range + " overlaps the previous slice " +
                      "(columns [" + std::to_string(n0) + ", " +
                      std::to_string(expected) + ") are computed twice) in " +
                      who);
    } else if (n0 > expected) {
      add_finding(findings, FindingSeverity::kError, "shard-plan",
                  "shard plan of " + who + " skips columns [" +
                      std::to_string(expected) + ", " + std::to_string(n0) +
                      ") before slice " + range);
    }
    expected = std::max(expected, n1);
  }
  if (expected != node.width) {
    add_finding(findings, FindingSeverity::kError, "shard-plan",
                "shard plan of " + who + " covers columns [0, " +
                    std::to_string(expected) + ") but the node has N = " +
                    std::to_string(node.width));
  }
  return findings;
}

std::vector<GraphFinding> validate_graph(const ExecGraph& graph) {
  std::vector<GraphFinding> findings;
  const auto& nodes = graph.nodes();
  if (nodes.empty()) return findings;

  // ----------------------------------------------------------- cycles
  const std::vector<NodeId> cycle = find_cycle(graph);
  const bool cyclic = !cycle.empty();
  if (cyclic) {
    std::string path;
    for (NodeId id : cycle) {
      if (!path.empty()) path += " -> ";
      path += "#";
      path += std::to_string(id);
      path += " '";
      path += nodes[id].name;
      path += "'";
    }
    add_finding(findings, FindingSeverity::kError, "cycle",
                "dependency cycle: " + path);
  }

  // Execution order + ancestor sets (hazard queries) need acyclicity;
  // on a cyclic graph fall back to insertion order and skip the
  // dependency-completeness audit (the cycle error dominates).
  const std::vector<NodeId> order =
      cyclic ? insertion_order(graph) : graph.topo_order();
  const AncestorSets ancestors(graph, order);

  // Whether the builder declared external I/O at all; legacy graphs
  // (none declared) get implicit-input/-output leniency so validation
  // can be switched on over existing builders without churn.
  bool declared_io = false;
  for (SlotId s = 0; s < graph.slot_count(); ++s)
    declared_io = declared_io || graph.slot_is_input(s) ||
                  graph.slot_is_output(s);

  // Per-slot dataflow state for the walk.
  struct SlotState {
    bool written = false;
    NodeId last_writer = 0;
    std::vector<NodeId> readers_since_write;
    bool has_any_writer = false;
    std::size_t width = kUnknownWidth;  ///< propagated column count
    NodeId width_setter = 0;
    bool width_known_from_node = false;
  };
  std::vector<SlotState> slots(graph.slot_count());
  for (SlotId s = 0; s < slots.size(); ++s) {
    // Input slots the caller already filled carry a usable width.
    const MatrixF& buffer = graph.slot(s);
    if (graph.slot_is_input(s) && buffer.cols() > 0)
      slots[s].width = buffer.cols();
  }
  for (const auto& node : nodes)
    for (SlotId s : node.writes) slots[s].has_any_writer = true;

  // GEMM nodes whose output some later node (or the caller) consumes.
  std::vector<bool> gemm_consumed(nodes.size(), false);

  // ----------------------------------------- def-use + hazard coverage
  for (NodeId id : order) {
    const ExecGraph::Node& node = nodes[id];
    for (SlotId s : node.reads) {
      SlotState& slot = slots[s];
      if (!slot.written) {
        if (!graph.slot_is_input(s)) {
          if (slot.has_any_writer) {
            add_finding(findings, FindingSeverity::kError,
                        "read-before-write",
                        node_label(graph, id) + " reads " +
                            slot_label(graph, s) +
                            " before any writer of that slot has run");
          } else {
            add_finding(
                findings,
                declared_io ? FindingSeverity::kError
                            : FindingSeverity::kWarning,
                "read-before-write",
                node_label(graph, id) + " reads " + slot_label(graph, s) +
                    ", which no node writes and which is not marked as a "
                    "graph input (mark_input)");
          }
        }
      } else {
        if (slot.last_writer != id &&
            !ancestors.reaches(slot.last_writer, id) && !cyclic) {
          add_finding(findings, FindingSeverity::kError, "missing-dep",
                      "RAW hazard on " + slot_label(graph, s) + ": " +
                          node_label(graph, id) + " reads it but has no "
                          "dependency path to its writer " +
                          node_label(graph, slot.last_writer) +
                          " (add_dep or declare the dataflow)");
        }
        gemm_consumed[slot.last_writer] = true;
      }
      slot.readers_since_write.push_back(id);
    }
    for (SlotId s : node.writes) {
      SlotState& slot = slots[s];
      if (slot.written && !cyclic) {
        if (slot.last_writer != id &&
            !ancestors.reaches(slot.last_writer, id)) {
          add_finding(findings, FindingSeverity::kError, "missing-dep",
                      "WAW hazard on " + slot_label(graph, s) + ": " +
                          node_label(graph, id) +
                          " overwrites it with no dependency path to the "
                          "previous writer " +
                          node_label(graph, slot.last_writer));
        }
        for (NodeId reader : slot.readers_since_write) {
          if (reader != id && !ancestors.reaches(reader, id)) {
            add_finding(findings, FindingSeverity::kError, "missing-dep",
                        "WAR hazard on " + slot_label(graph, s) + ": " +
                            node_label(graph, id) +
                            " overwrites it with no dependency path to its "
                            "reader " +
                            node_label(graph, reader));
          }
        }
      }
      if (slot.written && slot.readers_since_write.empty() &&
          nodes[slot.last_writer].kind != ExecGraph::NodeKind::kGemm) {
        add_finding(findings, FindingSeverity::kWarning, "dead-write",
                    node_label(graph, slot.last_writer) + " wrote " +
                        slot_label(graph, s) + " but " +
                        node_label(graph, id) +
                        " overwrites it before any reader");
      }
      slot.written = true;
      slot.last_writer = id;
      slot.readers_since_write.clear();
    }

    // ------------------------------------------------------------ shapes
    if (node.kind == ExecGraph::NodeKind::kGemm) {
      SlotState& in = slots[node.in];
      if (in.width != kUnknownWidth && in.width != node.weight->k()) {
        std::string msg = "gemm " + node_label(graph, id) + " expects K = " +
                          std::to_string(node.weight->k()) + " but " +
                          slot_label(graph, node.in) + " carries " +
                          std::to_string(in.width) + " columns";
        if (in.width_known_from_node)
          msg += " (written by " + node_label(graph, in.width_setter) + ")";
        add_finding(findings, FindingSeverity::kError, "shape-mismatch", msg);
      }
      SlotState& out = slots[node.out];
      out.width = node.weight->n();
      out.width_setter = id;
      out.width_known_from_node = true;
      const GemmEpilogue& epilogue = node.epilogue;
      if (epilogue.bias && (epilogue.bias->rows() != 1 ||
                            epilogue.bias->cols() != node.weight->n())) {
        add_finding(findings, FindingSeverity::kError, "shape-mismatch",
                    "gemm " + node_label(graph, id) + " bias is " +
                        std::to_string(epilogue.bias->rows()) + " x " +
                        std::to_string(epilogue.bias->cols()) + ", want 1 x " +
                        std::to_string(node.weight->n()));
      }
      if (epilogue.residual) {
        const SlotId res = *epilogue.residual;
        if (res == node.out) {
          add_finding(findings, FindingSeverity::kError, "aliased-residual",
                      "gemm " + node_label(graph, id) + " adds its output " +
                          slot_label(graph, res) +
                          " as its own residual; the matmul overwrites it "
                          "before the epilogue reads it");
        } else if (slots[res].width != kUnknownWidth &&
                   slots[res].width != node.weight->n()) {
          std::string msg = "gemm " + node_label(graph, id) + " residual " +
                            slot_label(graph, res) + " carries " +
                            std::to_string(slots[res].width) +
                            " columns, want N = " +
                            std::to_string(node.weight->n());
          if (slots[res].width_known_from_node)
            msg += " (written by " +
                   node_label(graph, slots[res].width_setter) + ")";
          add_finding(findings, FindingSeverity::kError, "shape-mismatch",
                      msg);
        }
      }
    } else if (node.column_ranged()) {
      SlotState& out = slots[node.writes.front()];
      out.width = node.width;
      out.width_setter = id;
      out.width_known_from_node = true;
    } else {
      // A host body sizes its outputs itself; downstream width checks
      // restart from unknown.
      for (SlotId s : node.writes) {
        slots[s].width = kUnknownWidth;
        slots[s].width_known_from_node = false;
      }
    }
  }

  // --------------------------------------- dead stores and dead nodes
  for (SlotId s = 0; s < slots.size(); ++s) {
    const SlotState& slot = slots[s];
    if (!slot.written || graph.slot_is_output(s) || !declared_io) continue;
    if (!slot.readers_since_write.empty()) continue;
    if (nodes[slot.last_writer].kind == ExecGraph::NodeKind::kGemm)
      continue;  // reported as dead-node below
    add_finding(findings, FindingSeverity::kWarning, "dead-write",
                node_label(graph, slot.last_writer) + " wrote " +
                    slot_label(graph, s) +
                    ", which nothing reads and which is not marked as a "
                    "graph output (mark_output)");
  }
  if (declared_io) {
    for (NodeId id = 0; id < nodes.size(); ++id) {
      if (nodes[id].kind != ExecGraph::NodeKind::kGemm) continue;
      if (gemm_consumed[id] || graph.slot_is_output(nodes[id].out)) continue;
      if (slots[nodes[id].out].last_writer != id) continue;  // overwritten
      add_finding(findings, FindingSeverity::kWarning, "dead-node",
                  "gemm " + node_label(graph, id) + " computes " +
                      slot_label(graph, nodes[id].out) +
                      " but nothing consumes it");
    }
  }

  return findings;
}

void validate_graph_or_throw(const ExecGraph& graph) {
  std::vector<GraphFinding> findings = validate_graph(graph);
  const bool any_error =
      std::any_of(findings.begin(), findings.end(), [](const GraphFinding& f) {
        return f.severity == FindingSeverity::kError;
      });
  if (any_error) throw GraphValidationError(std::move(findings));
}

}  // namespace tilesparse
