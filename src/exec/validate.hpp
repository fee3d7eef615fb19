#pragma once
// validate_graph — static analysis over an ExecGraph before anything
// dispatches it.
//
// The two worst bugs this repo has shipped (a ThreadPool
// use-after-return, unhardened wire parsing) were both failures no
// test could see until runtime.  Graphs and shard plans have the same
// character: a missing dependency edge or a shard slicing that drops a
// column produces *plausible numbers*, silently.  This verifier proves
// the structural properties once, before the first dispatch:
//
//  * Slot def-use: a read must be preceded (in execution order) by a
//    write or by an external feed declared with mark_input(); a final
//    write must be consumed by a reader or declared with
//    mark_output() (else it is a dead store); a pure GEMM node whose
//    output nobody consumes is a dead node.
//  * Dependency completeness: every RAW/WAW/WAR hazard implied by slot
//    dataflow must be covered by a dependency *path* (derived or
//    explicit).  A missing edge is reported by name — the verifier
//    never silently serializes the pair.
//  * Acyclicity: explicit add_dep edges may point either way, so the
//    verifier runs real cycle detection and prints the cycle as a
//    node-name path.
//  * Shape consistency: slot widths are propagated through GEMM nodes
//    (out = weight->n()) and column-range host nodes (out = width); a
//    consumer whose weight K disagrees with the
//    producer's N is reported, as are epilogue bias and residual
//    widths other than N and a residual slot aliasing the node's own
//    output.  An epilogue's residual is a read of its node, so the
//    def-use and hazard audits above cover it like any other input.
//  * Shard-plan audit: audit_shard_slices() proves the column ranges
//    the scheduler actually plans for a column-range node tile [0, N)
//    exactly, with no gap and no overlap, and that every range ends on
//    the node's range step (a whole head for the attention core).
//    Shards are ranges of the node's own weight or body
//    (ExecGraph::execute_range), so the ranges are the whole plan.
//
// Findings carry a severity: errors make validate_graph_or_throw (and
// the scheduler, which validates once per graph build id) throw
// GraphValidationError listing everything found; warnings ride along
// in the list but never throw.

#include <cstddef>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "exec/graph.hpp"

namespace tilesparse {

enum class FindingSeverity { kWarning, kError };

struct GraphFinding {
  FindingSeverity severity = FindingSeverity::kError;
  /// Stable machine-readable class: "cycle", "read-before-write",
  /// "missing-dep", "dead-write", "dead-node", "shape-mismatch",
  /// "aliased-residual", "shard-plan".
  std::string code;
  /// Human-readable diagnostic naming the nodes/slots involved.
  std::string message;
};

/// Thrown when validation finds errors.  what() summarises; findings()
/// carries every finding (warnings included) for programmatic use.
class GraphValidationError : public std::runtime_error {
 public:
  explicit GraphValidationError(std::vector<GraphFinding> findings);
  const std::vector<GraphFinding>& findings() const noexcept {
    return findings_;
  }

 private:
  std::vector<GraphFinding> findings_;
};

/// Runs every graph check; returns all findings (empty = clean).
std::vector<GraphFinding> validate_graph(const ExecGraph& graph);

/// validate_graph, throwing GraphValidationError if any finding is an
/// error.
void validate_graph_or_throw(const ExecGraph& graph);

/// Audits a shard plan for column-range node `node`: `slices` must be
/// ascending, non-empty, non-overlapping [n0, n1) column ranges tiling
/// [0, node.width) exactly, each end a multiple of node.range_step.
/// The ExecScheduler runs it on every plan it builds.
std::vector<GraphFinding> audit_shard_slices(
    const ExecGraph::Node& node,
    const std::vector<std::pair<std::size_t, std::size_t>>& slices);

/// One-line rendering ("error[missing-dep]: ...") used by what() and
/// the CLI surfaces.
std::string to_string(const GraphFinding& finding);

}  // namespace tilesparse
