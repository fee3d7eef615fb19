#pragma once
// ExecGraph — a model-level execution plan.
//
// The exec API used to stop at the single-matmul level: every layer
// call site invoked PackedWeight::matmul synchronously, so a model's
// independent GEMMs (the four attention projections, an NMT model's
// encoder/decoder input projections) could never overlap.  ExecGraph
// lifts the plan one level up, following the paper's Fig. 7-4
// stream-assignment idea: a model builds a DAG of nodes once — each
// node either a weight GEMM (a PackedWeight ref plus input/output
// buffer slots and an epilogue) or a host op (the non-GEMM glue:
// layernorm, attention core, pooling) — and an ExecScheduler
// dispatches ready nodes onto worker streams (see exec/scheduler.hpp).
//
// GEMM nodes and host ops added with add_host_range() are row-range
// nodes: any range [r0, r1) of their output rows (on multiples of the
// node's row step) can be computed alone by execute_rows(), which reads
// those rows of the inputs and writes those rows of the output slot in
// place, and a whole run is the [0, M) case.  The scheduler splits such
// a node into row shards across its streams (row_shard() deals out the
// rows).  A GEMM's step is one row; the attention core's is one
// sequence, since a sequence's rows attend to one another; LayerNorm's
// is one row.
//
// A GEMM node's epilogue carries the elementwise ops that follow it in
// a model (the paper's Sec. VI kernel fusion): bias, then an
// activation, then a residual add, applied by apply_epilogue() to the
// output while it is still hot — per row shard when the scheduler
// splits the node — instead of by separate host nodes that re-read it.
//
// Dataflow dependencies are derived from slot access: a node that
// reads a slot depends on the slot's last writer (RAW), a writer
// depends on the previous writer (WAW) and on every reader since
// (WAR).  add_dep() adds explicit control edges for ordering the slots
// cannot express (e.g. a host op that mutates captured layer state).
// Builders that want full manual control call set_auto_deps(false) and
// wire every edge themselves; either way, validate_graph()
// (exec/validate.hpp) audits the result — every slot-implied hazard
// must be covered by some dependency path, the graph must be acyclic,
// and shapes must be consistent — and the scheduler runs that audit
// once per graph before the first dispatch.
//
// Slots are plain MatrixF buffers owned by the graph.  Their shapes
// are set by whoever writes them (a row-range node sizes its output
// from its input's rows and its width, reallocating only when the rows
// change), so one graph serves any batch size.  Slots fed by the
// caller before run() are declared with mark_input(); slots the caller
// reads afterwards with mark_output() — the verifier uses both to tell
// external I/O from dangling reads and dead stores.  A graph may be run
// repeatedly; it is cheap to build and holds non-owning weight refs, so
// rebuilding after re-packing is the expected pattern.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "exec/exec_context.hpp"
#include "exec/packed_weight.hpp"
#include "gemm/fused_ops.hpp"
#include "tensor/matrix.hpp"

namespace tilesparse {

/// What a GEMM node does to its output after the matmul, in this order
/// (forward()'s op order, so graph ≡ forward() bit for bit):
///   c += bias (per column);  c = act(c);  c += slot(residual).
struct GemmEpilogue {
  const MatrixF* bias = nullptr;  ///< optional 1 x N row bias
  GemmActivation activation = GemmActivation::kNone;
  /// Optional rows x N slot (an ExecGraph::SlotId) added last: a
  /// residual connection.  It is a read of the node, so it orders
  /// after its producer.
  std::optional<std::size_t> residual;
};

class ExecGraph {
 public:
  using SlotId = std::size_t;
  using NodeId = std::size_t;

  ExecGraph();

  /// Process-unique id of this graph instance.  Models rebuild their
  /// graph whenever weights are re-packed; schedulers key cached shard
  /// plans on this id so a rebuilt graph (even at a recycled address)
  /// never reuses slices of freed weights.
  std::uint64_t build_id() const noexcept { return build_id_; }

  enum class NodeKind { kGemm, kHost };

  /// A row-range host body: computes rows [r0, r1) of the node's output
  /// into `rows`, the (r1 - r0) x width row view of its output slot,
  /// reading only rows [r0, r1) of its inputs.
  using RangeFn = std::function<void(const ExecGraph& graph, std::size_t r0,
                                     std::size_t r1, MatrixF& rows)>;

  struct Node {
    std::string name;
    NodeKind kind = NodeKind::kHost;
    // Gemm payload: out = epilogue(in * weight), under `ctx`
    // numerics/threads (alpha/beta forced to 1/0 — graph slots are
    // single-assignment between writers).  A row-range host node sets
    // `in` (reads.front()) and `out` too.
    const PackedWeight* weight = nullptr;
    SlotId in = 0;
    SlotId out = 0;
    ExecContext ctx;
    GemmEpilogue epilogue;
    // Host payload: `fn`, or `range_fn` for a row-range host node.
    std::function<void(ExecGraph&)> fn;
    RangeFn range_fn;
    // Row-range payload (GEMM nodes and add_host_range nodes): the
    // output's column count, and the row step every range bound falls
    // on.  `macs_per_row` prices a host range for the scheduler (a GEMM
    // asks its weight).  Plain host nodes leave all three unset.
    std::size_t width = 0;
    std::size_t row_step = 1;
    double macs_per_row = 0.0;
    // Declared slot accesses (gemm: reads = {in} plus the epilogue's
    // residual slot, writes = {out}; reads.front() is always the
    // activation).  This is the dataflow record validate_graph()
    // audits against.
    std::vector<SlotId> reads;
    std::vector<SlotId> writes;
    // Dependency edges (indices into nodes()).
    std::vector<NodeId> deps;
    std::vector<NodeId> dependents;

    bool row_ranged() const noexcept {
      return kind == NodeKind::kGemm || static_cast<bool>(range_fn);
    }
    /// Multiply-adds of a whole run at `m` output rows (0 for a plain
    /// host node).
    double macs(std::size_t m) const;
  };

  /// Adds a named buffer slot.  Shape is set by the first writer.
  SlotId add_slot(std::string name);

  MatrixF& slot(SlotId id) { return slots_.at(id).buffer; }
  const MatrixF& slot(SlotId id) const { return slots_.at(id).buffer; }
  const std::string& slot_name(SlotId id) const { return slots_.at(id).name; }
  std::size_t slot_count() const noexcept { return slots_.size(); }

  /// Declares that the caller fills `id` before every run.  Reads of an
  /// input slot with no in-graph writer are external feeds, not
  /// read-before-write findings.
  void mark_input(SlotId id);
  /// Declares that the caller consumes `id` after every run, so its
  /// final write is live even though no node reads it.
  void mark_output(SlotId id);
  bool slot_is_input(SlotId id) const { return slots_.at(id).is_input; }
  bool slot_is_output(SlotId id) const { return slots_.at(id).is_output; }

  /// Whether add_gemm/add_host derive RAW/WAW/WAR edges from slot
  /// access (the default).  Off, nodes record their reads/writes but
  /// the builder wires every edge via add_dep(); validate_graph()
  /// reports any slot-implied hazard left uncovered.
  void set_auto_deps(bool enabled) noexcept { auto_deps_ = enabled; }
  bool auto_deps() const noexcept { return auto_deps_; }

  /// Adds a GEMM node: slot(out) = epilogue(slot(in) * weight), with
  /// the epilogue's bias → activation → += residual order (see
  /// GemmEpilogue).  `weight` and `epilogue.bias` must outlive the graph.
  /// Throws std::invalid_argument on a null weight or out-of-range
  /// slots; validate_graph() reports a residual of the wrong width or
  /// one aliasing `out`.
  NodeId add_gemm(std::string name, const PackedWeight* weight, SlotId in,
                  SlotId out, const ExecContext& ctx = {},
                  GemmEpilogue epilogue = {});

  /// Adds a host node running `fn(graph)`.  `reads`/`writes` declare
  /// the slots the body touches, from which dependencies are derived;
  /// state the body mutates outside the graph (captured layer caches)
  /// must be ordered with add_dep().
  NodeId add_host(std::string name, std::vector<SlotId> reads,
                  std::vector<SlotId> writes, std::function<void(ExecGraph&)> fn);

  /// Adds a row-range host node: `fn(graph, r0, r1, rows)` computes rows
  /// [r0, r1) of slot(out), which is slot(reads.front()).rows() x
  /// `width`, from rows [r0, r1) of the reads, for any range whose ends
  /// are multiples of `step`.  The body must not read slot(out).
  /// `macs_per_row` is the node's multiply-add count (or its
  /// equivalent) per output row, which the scheduler weighs when
  /// splitting it.  Throws std::invalid_argument on a null body, no
  /// reads, out among the reads, or a zero width or step.
  NodeId add_host_range(std::string name, std::vector<SlotId> reads,
                        SlotId out, std::size_t width, std::size_t step,
                        double macs_per_row, RangeFn fn);

  /// Explicit control edge: `node` runs only after `before`.  Edges in
  /// either direction are accepted (a later-added node may order an
  /// earlier one after it); validate_graph() proves the result is
  /// still acyclic.  Throws std::invalid_argument on out-of-range ids
  /// or a self-edge.
  void add_dep(NodeId node, NodeId before);

  const std::vector<Node>& nodes() const noexcept { return nodes_; }
  std::size_t node_count() const noexcept { return nodes_.size(); }

  /// Count of GEMM nodes with no dependency on one another — an upper
  /// bound on useful stream overlap (diagnostic for benches/tests).
  std::size_t max_gemm_width() const;

  /// A valid topological order of all nodes (Kahn's algorithm, lowest
  /// node id first among ready nodes, so auto-built graphs keep their
  /// insertion order).  Throws std::logic_error if the explicit edges
  /// formed a cycle — run validate_graph() for the offending path.
  std::vector<NodeId> topo_order() const;

  /// Executes one node on the calling thread (the scheduler's unit of
  /// work; also usable directly for serial reference runs).  A
  /// row-range node sizes its output slot and runs rows [0, M).
  void execute_node(NodeId id);

  /// Rows the output of row-range node `id` has this run: the rows of
  /// its input slot (reads.front()).
  std::size_t node_rows(NodeId id) const;

  /// Sizes the output slot of row-range node `id` to node_rows(id) x
  /// width, reallocating only when its shape differs.  Row shards write
  /// into that slot, so it runs once before a node's first shard.
  void size_output(NodeId id);

  /// Computes rows [r0, r1) of row-range node `id` straight into those
  /// rows of its output slot, which size_output() has sized: a GEMM
  /// runs its weight on those rows of the input and then its epilogue,
  /// a host range its body.  The scheduler's shard unit; every path
  /// produces the bits a whole run puts in those rows.  Concurrent
  /// calls on disjoint ranges of one node are safe.  An empty range is
  /// a no-op.  Throws CheckError on a range outside [0, node_rows(id))
  /// or off the node's row step, or on an unsized output.
  void execute_rows(NodeId id, std::size_t r0, std::size_t r1);

  /// Applies `epilogue` to `c`, rows [r0, r0 + c.rows()) of a GEMM
  /// output: resolves those rows of the residual slot and calls
  /// apply_gemm_epilogue (gemm/fused_ops.hpp).  Whole GEMM nodes,
  /// scheduler row shards and host-run Linear layers all go through
  /// it, so every path produces the same bits.
  void apply_epilogue(const GemmEpilogue& epilogue, MatrixF& c,
                      std::size_t r0 = 0) const;

  /// Guards builds only: fills every non-input slot buffer with quiet
  /// NaNs so a node that runs before its producer (a missed dependency
  /// slipping past the static audit) poisons its output instead of
  /// consuming stale-but-plausible values.  No-op without
  /// TILESPARSE_ENABLE_GUARDS.
  void poison_slots();

 private:
  struct Slot {
    std::string name;
    MatrixF buffer;
    bool is_input = false;
    bool is_output = false;
    // Dataflow bookkeeping at build time.
    bool written = false;
    NodeId last_writer = 0;
    std::vector<NodeId> readers_since_write;
  };

  void link(NodeId node);
  void check_slot(SlotId id, const char* what) const;

  std::uint64_t build_id_ = 0;
  bool auto_deps_ = true;
  std::vector<Slot> slots_;
  std::vector<Node> nodes_;
};

/// Rows [r0, r1) of shard `s` (< `shards`) of a row-range node over `m`
/// rows with row step `step`: the m / step whole steps are dealt out in
/// order, as evenly as they go (the first shards take one more), and
/// the last shard also ends at `m`, taking any rows past the last whole
/// step (which execute_rows then rejects as off the step).  A shard
/// left without a step gets an empty range.  The one row rule: the
/// scheduler's shards and its tiling audit both call it.
std::pair<std::size_t, std::size_t> row_shard(std::size_t m, std::size_t step,
                                              std::size_t shards,
                                              std::size_t s) noexcept;

}  // namespace tilesparse
