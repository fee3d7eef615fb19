#include "nn/bert_mini.hpp"

#include <cassert>

#include "exec/scheduler.hpp"
#include "tensor/ops.hpp"

namespace tilesparse {

BertMini::BertMini(const BertMiniConfig& config, const MatrixF& embedding_table)
    : config_(config),
      embedding_("embed", embedding_table, /*trainable=*/false),
      pos_embedding_("pos", config.seq, embedding_table.cols()),
      pool_(config.seq) {
  Rng rng(config.seed);
  assert(embedding_table.cols() == config.dim);
  fill_normal(pos_embedding_.value, rng, 0.0f, 0.02f);
  blocks_.resize(config.layers);
  for (std::size_t l = 0; l < config.layers; ++l) {
    const std::string p = "block" + std::to_string(l);
    Block& blk = blocks_[l];
    blk.ln1 = std::make_unique<LayerNorm>(p + ".ln1", config.dim);
    blk.attn = std::make_unique<MultiHeadAttention>(p + ".attn", config.dim,
                                                    config.heads, config.seq, rng);
    blk.ln2 = std::make_unique<LayerNorm>(p + ".ln2", config.dim);
    blk.ffn_in = std::make_unique<Linear>(p + ".ffn_in", config.dim,
                                          config.ffn_dim, rng);
    blk.gelu = std::make_unique<Gelu>();
    blk.ffn_out = std::make_unique<Linear>(p + ".ffn_out", config.ffn_dim,
                                           config.dim, rng);
  }
  classifier_ = std::make_unique<Linear>("cls", config.dim, config.classes, rng);
}

MatrixF BertMini::embed(const TokenBatch& batch) {
  assert(batch.seq == config_.seq);
  MatrixF x = embedding_.forward(batch.tokens);
  // Add learned positional embeddings.
  for (std::size_t i = 0; i < batch.batch; ++i) {
    for (std::size_t t = 0; t < config_.seq; ++t) {
      float* row = x.data() + (i * config_.seq + t) * config_.dim;
      const float* pos = pos_embedding_.value.data() + t * config_.dim;
      for (std::size_t d = 0; d < config_.dim; ++d) row[d] += pos[d];
    }
  }
  return x;
}

MatrixF BertMini::forward(const TokenBatch& batch) {
  last_batch_ = batch.batch;
  MatrixF x = embed(batch);

  graph_forward_ = scheduler_ != nullptr;
  if (scheduler_) {
    // Rebuild whenever any layer's backend was replaced since the graph
    // was built (pack, clear, or an artifact load straight into the
    // layers) — the nodes hold non-owning refs to those backends.
    if (!graph_ || graph_versions_ != current_graph_versions())
      build_exec_graph();
    graph_->slot(graph_in_) = std::move(x);
    scheduler_->run(*graph_);
    return graph_->slot(graph_out_);
  }

  for (Block& blk : blocks_) {
    blk.x_attn_in = x;
    MatrixF h = blk.ln1->forward(x);
    h = blk.attn->forward(h);
    for (std::size_t i = 0; i < x.size(); ++i) h.data()[i] += x.data()[i];

    blk.x_ffn_in = h;
    MatrixF f = blk.ln2->forward(h);
    f = blk.ffn_in->forward(f);
    f = blk.gelu->forward(f);
    f = blk.ffn_out->forward(f);
    for (std::size_t i = 0; i < h.size(); ++i) f.data()[i] += h.data()[i];
    x = std::move(f);
  }

  const MatrixF pooled = pool_.forward(x);
  return classifier_->forward(pooled);
}

void BertMini::backward(const MatrixF& dlogits) {
  if (graph_forward_) {
    // The graph path keeps activations in graph slots, not the layer
    // caches backward needs; differentiating now would silently no-op.
    throw std::logic_error(
        "BertMini::backward: last forward ran through the exec graph "
        "(inference-only); detach the scheduler before training");
  }
  MatrixF dpooled = classifier_->backward(dlogits);
  MatrixF dx = pool_.backward(dpooled);

  for (std::size_t l = blocks_.size(); l-- > 0;) {
    Block& blk = blocks_[l];
    // FFN residual branch.
    MatrixF df = blk.ffn_out->backward(dx);
    df = blk.gelu->backward(df);
    df = blk.ffn_in->backward(df);
    df = blk.ln2->backward(df);
    for (std::size_t i = 0; i < dx.size(); ++i) df.data()[i] += dx.data()[i];
    // Attention residual branch.
    MatrixF da = blk.attn->backward(df);
    da = blk.ln1->backward(da);
    for (std::size_t i = 0; i < da.size(); ++i) da.data()[i] += df.data()[i];
    dx = std::move(da);
  }

  // Positional embedding gradient (summed over the batch).
  for (std::size_t i = 0; i < last_batch_; ++i) {
    for (std::size_t t = 0; t < config_.seq; ++t) {
      const float* row = dx.data() + (i * config_.seq + t) * config_.dim;
      float* pg = pos_embedding_.grad.data() + t * config_.dim;
      for (std::size_t d = 0; d < config_.dim; ++d) pg[d] += row[d];
    }
  }
  embedding_.backward(dx);
}

std::vector<Param*> BertMini::params() {
  std::vector<Param*> all{&pos_embedding_};
  for (Block& blk : blocks_) {
    for (Param* p : blk.ln1->params()) all.push_back(p);
    for (Param* p : blk.attn->params()) all.push_back(p);
    for (Param* p : blk.ln2->params()) all.push_back(p);
    for (Param* p : blk.ffn_in->params()) all.push_back(p);
    for (Param* p : blk.ffn_out->params()) all.push_back(p);
  }
  for (Param* p : classifier_->params()) all.push_back(p);
  return all;
}

std::vector<Param*> BertMini::prunable_weights() {
  // The encoder's 6 GEMMs per layer, mirroring the 72 matrices the paper
  // prunes in BERT-base.  The classifier head is excluded: it is a tiny
  // task-specific matrix (<1% of parameters) and structured column
  // pruning there removes whole output classes.
  std::vector<Param*> weights;
  for (Block& blk : blocks_) {
    for (Param* p : blk.attn->projection_weights()) weights.push_back(p);
    weights.push_back(&blk.ffn_in->weight());
    weights.push_back(&blk.ffn_out->weight());
  }
  return weights;
}

std::vector<Linear*> BertMini::prunable_layers() {
  std::vector<Linear*> layers;
  for (Block& blk : blocks_) {
    for (Linear* l : blk.attn->projection_layers()) layers.push_back(l);
    layers.push_back(blk.ffn_in.get());
    layers.push_back(blk.ffn_out.get());
  }
  return layers;
}

void BertMini::pack_weights(const std::string& format,
                            const std::vector<TilePattern>* patterns,
                            const ExecContext& ctx) {
  pack_linear_layers(prunable_layers(), format, patterns, ctx);
  graph_.reset();  // nodes hold refs to the replaced backends
}

void BertMini::clear_packed_weights() {
  clear_packed_linear_layers(prunable_layers());
  graph_.reset();
}

std::vector<std::uint64_t> BertMini::current_graph_versions() {
  std::vector<std::uint64_t> versions;
  for (Linear* layer : prunable_layers())
    versions.push_back(layer->packed_version());
  versions.push_back(classifier_->packed_version());
  return versions;
}

ExecGraph& BertMini::build_exec_graph() {
  graph_versions_ = current_graph_versions();
  graph_ = std::make_unique<ExecGraph>();
  ExecGraph& g = *graph_;
  graph_in_ = g.add_slot("x");
  g.mark_input(graph_in_);
  graph_out_ = append_exec_graph(g, graph_in_);
  g.mark_output(graph_out_);
  return g;
}

ExecGraph::SlotId BertMini::append_exec_graph(
    ExecGraph& g, ExecGraph::SlotId input) const {
  // Host nodes capture const layer pointers and call infer(): a running
  // graph mutates only its own slots, so concurrent graphs over one
  // model never race.
  ExecGraph::SlotId x = input;
  for (std::size_t l = 0; l < blocks_.size(); ++l) {
    const Block& blk = blocks_[l];
    const std::string p = "block" + std::to_string(l);
    // Attention branch; the output projection's epilogue adds the
    // residual (pre-LN, matching forward()).
    const ExecGraph::SlotId h = g.add_slot(p + ".ln1.out");
    const LayerNorm* ln1 = blk.ln1.get();
    g.add_host(p + ".ln1", {x}, {h}, [ln1, x, h](ExecGraph& gg) {
      gg.slot(h) = ln1->infer(gg.slot(x));
    });
    const ExecGraph::SlotId x1 = g.add_slot(p + ".attn.out");
    blk.attn->add_to_graph(g, h, x1, /*residual=*/x);
    // FFN branch: GELU in ffn_in's epilogue, the residual in ffn_out's.
    const ExecGraph::SlotId f = g.add_slot(p + ".ln2.out");
    const LayerNorm* ln2 = blk.ln2.get();
    g.add_host(p + ".ln2", {x1}, {f}, [ln2, x1, f](ExecGraph& gg) {
      gg.slot(f) = ln2->infer(gg.slot(x1));
    });
    const ExecGraph::SlotId f1 = g.add_slot(p + ".ffn_in.out");
    blk.ffn_in->add_to_graph(g, f, f1, GemmActivation::kGelu);
    const ExecGraph::SlotId x2 = g.add_slot(p + ".ffn_out.out");
    blk.ffn_out->add_to_graph(g, f1, x2, GemmActivation::kNone,
                              /*residual=*/x1);
    x = x2;
  }
  const ExecGraph::SlotId pooled = g.add_slot("pooled");
  const MeanPoolRows* pool = &pool_;
  g.add_host("pool", {x}, {pooled}, [pool, x, pooled](ExecGraph& gg) {
    gg.slot(pooled) = pool->infer(gg.slot(x));
  });
  const ExecGraph::SlotId logits = g.add_slot("logits");
  classifier_->add_to_graph(g, pooled, logits);
  return logits;
}

}  // namespace tilesparse
