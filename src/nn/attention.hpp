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
  /// separate streams — the paper's Fig. 7-4 assignment), a row-range
  /// host node for the softmax(QK^T)V core with one sequence as its row
  /// step, which the scheduler may split into ranges of whole
  /// sequences across its streams, and the output projection, whose
  /// epilogue adds slot(residual) when given.
  /// The core runs its pairs on teams of the output projection's
  /// ExecContext threads, read when the graph is built.  Produces exactly what
  /// forward() (plus that residual add) produces and fills no cache;
  /// the block must outlive the graph.
  ExecGraph::NodeId add_to_graph(
      ExecGraph& graph, ExecGraph::SlotId in, ExecGraph::SlotId out,
      std::optional<ExecGraph::SlotId> residual = std::nullopt) const;

 private:
  /// softmax(scale * Q K^T) V over whole sequences: q, k, v and
  /// `context` (overwritten) are batch * seq x dim, e.g. row views of a
  /// larger batch.  Each (sequence, head) pair runs Q·Kᵀ and P·V on
  /// micro_kernel_f32; the pairs are shared by an OpenMP team of
  /// `threads` (0 = the OpenMP default).  `probs`, when non-null, holds
  /// batch * heads seq x seq matrices and receives the probabilities —
  /// forward() passes its backward cache, the graph node null.  A
  /// sequence's bits depend only on its own q/k/v rows, never on the
  /// other sequences, the team size or `probs`.
  void attention_core(const MatrixF& q, const MatrixF& k, const MatrixF& v,
                      MatrixF& context, int threads,
                      std::vector<MatrixF>* probs) const;

  std::size_t dim_, heads_, seq_, head_dim_;
  Linear q_, k_, v_, out_;
  // Cached activations for backward.
  MatrixF q_act_, k_act_, v_act_;
  std::vector<MatrixF> attn_;  ///< softmax probabilities per (batch, head)
};

}  // namespace tilesparse
