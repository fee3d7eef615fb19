#pragma once
// Multi-head self-attention (the MHA block of paper Fig. 1) with full
// backward.  Input/output are (batch * seq) x dim row blocks.

#include <cstddef>
#include <optional>
#include <vector>

#include "nn/layers.hpp"

namespace tilesparse {

class MultiHeadAttention : public Layer {
 public:
  MultiHeadAttention(std::string name, std::size_t dim, std::size_t heads,
                     std::size_t seq, Rng& rng);

  MatrixF forward(const MatrixF& x) override;
  MatrixF backward(const MatrixF& dy) override;
  std::vector<Param*> params() override;

  /// The four prunable projection weights (Q, K, V, output).
  std::vector<Param*> projection_weights();

  /// The owning Linear layers, aligned 1:1 with projection_weights();
  /// exposed so the packed-weight inference path can rebind them.
  std::vector<Linear*> projection_layers();

  /// Adds this block to an execution graph: the Q/K/V projections as
  /// three *independent* GEMM nodes (the scheduler overlaps them on
  /// separate streams — the paper's Fig. 7-4 assignment), a host node
  /// for the softmax(QK^T)V core, and the output projection, whose
  /// epilogue adds slot(residual) when given.  Produces exactly what
  /// forward() (plus that residual add) produces and fills no cache;
  /// the block must outlive the graph.
  ExecGraph::NodeId add_to_graph(
      ExecGraph& graph, ExecGraph::SlotId in, ExecGraph::SlotId out,
      std::optional<ExecGraph::SlotId> residual = std::nullopt) const;

 private:
  /// softmax(scale * Q K^T) V per (batch, head), accumulating into
  /// `context` (pre-sized to q.rows() x dim, zero-filled).  `probs`,
  /// when non-null, receives the probabilities per (batch, head) —
  /// forward() passes its backward cache, the graph host node passes
  /// null.  Both paths are the same arithmetic.
  void attention_core(const MatrixF& q, const MatrixF& k, const MatrixF& v,
                      MatrixF& context, std::vector<MatrixF>* probs) const;

  std::size_t dim_, heads_, seq_, head_dim_;
  Linear q_, k_, v_, out_;
  // Cached activations for backward.
  MatrixF q_act_, k_act_, v_act_;
  std::vector<MatrixF> attn_;  ///< softmax probabilities per (batch, head)
};

}  // namespace tilesparse
