#pragma once
// BertMini — the scaled-down BERT proxy (see DESIGN.md substitutions).
// Pre-LN transformer encoder: per layer MHA + FFN with residuals, then
// mean-pool and a classifier head.  The prunable matrices mirror BERT's
// structure: 6 weight GEMMs per layer (Q, K, V, attention-out, FFN-in,
// FFN-out), which is what paper Fig. 5 counts.

#include <cstddef>
#include <memory>
#include <vector>

#include "nn/attention.hpp"
#include "nn/layers.hpp"
#include "workload/datasets.hpp"

namespace tilesparse {

class ExecScheduler;

struct BertMiniConfig {
  std::size_t dim = 64;
  std::size_t heads = 4;
  std::size_t layers = 2;
  std::size_t ffn_dim = 256;
  std::size_t seq = 16;
  std::size_t classes = 4;
  std::uint64_t seed = 1;
};

class BertMini {
 public:
  BertMini(const BertMiniConfig& config, const MatrixF& embedding_table);

  /// Tokens: batch * seq ids.  Returns batch x classes logits.
  MatrixF forward(const TokenBatch& batch);
  /// Token + positional embedding only: (batch * seq) x dim activation
  /// rows — the batchable form a serving request carries (see
  /// nn/batch_entry.hpp); forward() is embed() + the encoder stack.
  MatrixF embed(const TokenBatch& batch);
  /// dlogits from the loss; propagates through the whole stack.
  void backward(const MatrixF& dlogits);

  std::vector<Param*> params();
  /// The prunable weight matrices (6 per layer + classifier weight).
  std::vector<Param*> prunable_weights();

  /// The Linear layers owning prunable_weights(), aligned 1:1 with it.
  std::vector<Linear*> prunable_layers();

  /// Packs every prunable Linear for inference under a registered
  /// PackedWeight format.  `patterns` (required by the TW-family
  /// formats) must align 1:1 with prunable_weights() — e.g. the
  /// patterns a TW/TEW prune run produced.  Forward passes then execute
  /// those GEMMs through the packed backends; backward still
  /// differentiates against the dense master weights.
  void pack_weights(const std::string& format,
                    const std::vector<TilePattern>* patterns = nullptr,
                    const ExecContext& ctx = {});
  /// Back to dense master-weight execution.
  void clear_packed_weights();

  /// Builds (or rebuilds) the model-level execution plan: one graph
  /// covering every encoder block — Q/K/V as independent GEMM nodes,
  /// host nodes for layernorm and the softmax(QK^T)V core, FFN and
  /// classifier GEMMs, with ffn_in's GELU and both residual adds in
  /// GEMM epilogues — over the *current* execution backends (packed where
  /// pack_weights installed one, plain forward otherwise).
  /// pack_weights/clear_packed_weights invalidate the graph; call this
  /// again after loading a new artifact into the layers directly.
  ExecGraph& build_exec_graph();
  ExecGraph* exec_graph() noexcept { return graph_.get(); }

  /// Appends the whole encoder stack (blocks, pool, classifier) to an
  /// externally owned graph, reading embedded rows from `input` and
  /// returning the logits slot.  This is build_exec_graph()'s body,
  /// reusable by batch entries that keep one graph per concurrent run.
  /// Host nodes call the layers' const infer() paths, so any number of
  /// such graphs may run at once.  The appended nodes hold refs to the
  /// current packed backends, so the external graph must be discarded
  /// after pack_weights / clear_packed_weights / artifact loads,
  /// exactly like graph_.
  ExecGraph::SlotId append_exec_graph(ExecGraph& graph,
                                      ExecGraph::SlotId input) const;

  /// Routes forward() through the execution graph dispatched by
  /// `scheduler` (non-owning; null returns to the layer-by-layer
  /// path).  The graph is built lazily on the next forward().
  void set_exec_scheduler(ExecScheduler* scheduler) noexcept {
    scheduler_ = scheduler;
  }

  const BertMiniConfig& config() const noexcept { return config_; }

 private:
  struct Block {
    std::unique_ptr<LayerNorm> ln1;
    std::unique_ptr<MultiHeadAttention> attn;
    std::unique_ptr<LayerNorm> ln2;
    std::unique_ptr<Linear> ffn_in;
    std::unique_ptr<Gelu> gelu;
    std::unique_ptr<Linear> ffn_out;
    MatrixF x_attn_in, x_ffn_in;  // residual caches
  };

  BertMiniConfig config_;
  Embedding embedding_;
  Param pos_embedding_;  ///< seq x dim, learned
  std::vector<Block> blocks_;
  MeanPoolRows pool_;
  std::unique_ptr<Linear> classifier_;
  std::size_t last_batch_ = 0;
  // Model-level execution plan (inference only).
  std::unique_ptr<ExecGraph> graph_;
  ExecGraph::SlotId graph_in_ = 0, graph_out_ = 0;
  ExecScheduler* scheduler_ = nullptr;
  bool graph_forward_ = false;  ///< last forward ran through the graph
  /// packed_version() of every layer in the graph at build time; any
  /// mismatch on forward (including artifact loads that bypass
  /// pack_weights) means the graph holds dangling backend refs and
  /// must be rebuilt.
  std::vector<std::uint64_t> graph_versions_;
  std::vector<std::uint64_t> current_graph_versions();
};

}  // namespace tilesparse
