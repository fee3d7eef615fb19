#include "nn/layers.hpp"

#include <cassert>
#include <cmath>
#include <stdexcept>
#include <unordered_map>

#include "gemm/dense_gemm.hpp"
#include "gemm/fused_ops.hpp"
#include "io/serialize.hpp"
#include "tensor/ops.hpp"

namespace tilesparse {

std::vector<MatrixF> snapshot_params(const std::vector<Param*>& params) {
  std::vector<MatrixF> out;
  out.reserve(params.size());
  for (const Param* p : params) out.push_back(p->value);
  return out;
}

void restore_params(const std::vector<Param*>& params,
                    const std::vector<MatrixF>& snapshot) {
  assert(params.size() == snapshot.size());
  for (std::size_t i = 0; i < params.size(); ++i)
    params[i]->value = snapshot[i];
}

// ---------------------------------------------------------------- Linear

Linear::Linear(std::string name, std::size_t in, std::size_t out, Rng& rng)
    : weight_(name + ".w", in, out), bias_(name + ".b", 1, out) {
  fill_kaiming(weight_.value, rng);
}

void Linear::pack_weight(const std::string& format,
                         const PackOptions& options) {
  set_packed_weight(make_packed(format, weight_.value, options));
}

void Linear::set_packed_weight(std::unique_ptr<PackedWeight> packed) {
  if (packed &&
      (packed->k() != weight_.value.rows() ||
       packed->n() != weight_.value.cols())) {
    throw std::invalid_argument("Linear::set_packed_weight: packed " +
                                std::string(packed->format()) +
                                " weight shape mismatch for " + weight_.name);
  }
  packed_ = std::move(packed);
  ++packed_version_;
}

MatrixF Linear::forward(const MatrixF& x) {
  x_ = x;
  return infer(x);
}

MatrixF Linear::infer(const MatrixF& x) const {
  MatrixF y;
  if (packed_) {
    ExecContext ctx = ctx_;
    ctx.alpha = 1.0f;
    ctx.beta = 0.0f;
    y = packed_->matmul(ctx, x);
  } else {
    y = matmul(x, weight_.value);
  }
  apply_gemm_epilogue(&bias_.value, GemmActivation::kNone, nullptr, y);
  return y;
}

ExecGraph::NodeId Linear::add_to_graph(
    ExecGraph& graph, ExecGraph::SlotId in, ExecGraph::SlotId out,
    GemmActivation activation,
    std::optional<ExecGraph::SlotId> residual) const {
  if (packed_) {
    return graph.add_gemm(weight_.name, packed_.get(), in, out, ctx_,
                          GemmEpilogue{&bias_.value, activation, residual});
  }
  // infer() applies the bias; the rest of the epilogue follows it.
  std::vector<ExecGraph::SlotId> reads{in};
  if (residual) reads.push_back(*residual);
  const GemmEpilogue rest{nullptr, activation, residual};
  return graph.add_host(weight_.name, std::move(reads), {out},
                        [this, in, out, rest](ExecGraph& g) {
                          MatrixF y = infer(g.slot(in));
                          g.apply_epilogue(rest, y);
                          g.slot(out) = std::move(y);
                        });
}

MatrixF Linear::backward(const MatrixF& dy) {
  // dW += x^T dy;  db += colsum(dy);  dx = dy W^T.
  const MatrixF xt = transposed(x_);
  MatrixF dw = matmul(xt, dy);
  for (std::size_t i = 0; i < dw.size(); ++i)
    weight_.grad.data()[i] += dw.data()[i];
  for (std::size_t r = 0; r < dy.rows(); ++r) {
    const float* row = dy.data() + r * dy.cols();
    float* db = bias_.grad.data();
    for (std::size_t c = 0; c < dy.cols(); ++c) db[c] += row[c];
  }
  const MatrixF wt = transposed(weight_.value);
  return matmul(dy, wt);
}

void pack_linear_layers(const std::vector<Linear*>& layers,
                        const std::string& format,
                        const std::vector<TilePattern>* patterns,
                        const ExecContext& ctx) {
  if (patterns && patterns->size() != layers.size()) {
    throw std::invalid_argument(
        "pack_linear_layers: patterns must align 1:1 with layers");
  }
  for (std::size_t i = 0; i < layers.size(); ++i) {
    PackOptions options;
    if (patterns) options.pattern = &(*patterns)[i];
    layers[i]->pack_weight(format, options);
    layers[i]->set_exec_context(ctx);
  }
}

void clear_packed_linear_layers(const std::vector<Linear*>& layers) {
  for (Linear* layer : layers) layer->clear_packed_weight();
}

void save_packed_linear_layers(const std::string& path,
                               const std::vector<Linear*>& layers) {
  std::vector<std::pair<std::string, const PackedWeight*>> entries;
  entries.reserve(layers.size());
  for (Linear* layer : layers) {
    if (!layer->packed_weight()) {
      throw std::logic_error("save_packed_linear_layers: layer '" +
                             layer->weight().name +
                             "' has no packed weight — pack before saving");
    }
    entries.emplace_back(layer->weight().name, layer->packed_weight());
  }
  save_model_weights(path, entries);
}

void load_packed_linear_layers(const std::string& path,
                               const std::vector<Linear*>& layers,
                               const ExecContext& ctx, ArtifactLoad mode) {
  std::vector<NamedWeight> loaded = mode == ArtifactLoad::kMapped
                                        ? load_model_weights_mapped(path)
                                        : load_model_weights(path);
  std::unordered_map<std::string, NamedWeight*> by_name;
  for (NamedWeight& entry : loaded) by_name[entry.name] = &entry;
  // Resolve and shape-check every layer before installing anything, so
  // a bad artifact throws with the model still in its previous state
  // rather than half-loaded.
  std::vector<NamedWeight*> resolved;
  resolved.reserve(layers.size());
  for (Linear* layer : layers) {
    const auto it = by_name.find(layer->weight().name);
    if (it == by_name.end() || !it->second || !it->second->weight) {
      throw std::runtime_error("load_packed_linear_layers: artifact '" + path +
                               "' has no entry for layer '" +
                               layer->weight().name + "'");
    }
    const PackedWeight& weight = *it->second->weight;
    if (weight.k() != layer->weight().value.rows() ||
        weight.n() != layer->weight().value.cols()) {
      throw std::runtime_error("load_packed_linear_layers: artifact '" + path +
                               "' entry for layer '" + layer->weight().name +
                               "' has mismatched shape");
    }
    resolved.push_back(it->second);
    it->second = nullptr;  // a duplicate weight name must not resolve twice
  }
  for (std::size_t i = 0; i < layers.size(); ++i) {
    layers[i]->set_packed_weight(std::move(resolved[i]->weight));
    layers[i]->set_exec_context(ctx);
  }
}

// ---------------------------------------------------------------- ReLU

MatrixF ReLU::forward(const MatrixF& x) {
  y_ = x;
  for (float& v : y_.flat()) v = v > 0.0f ? v : 0.0f;
  return y_;
}

MatrixF ReLU::backward(const MatrixF& dy) {
  MatrixF dx = dy;
  for (std::size_t i = 0; i < dx.size(); ++i)
    if (y_.data()[i] <= 0.0f) dx.data()[i] = 0.0f;
  return dx;
}

// ---------------------------------------------------------------- Gelu

namespace {
constexpr float kSqrt2OverPi = 0.7978845608028654f;

inline float gelu_backward_scalar(float x) {
  const float x3 = x * x * x;
  const float inner = kSqrt2OverPi * (x + 0.044715f * x3);
  const float t = std::tanh(inner);
  const float sech2 = 1.0f - t * t;
  return 0.5f * (1.0f + t) +
         0.5f * x * sech2 * kSqrt2OverPi * (1.0f + 3.0f * 0.044715f * x * x);
}
}  // namespace

MatrixF Gelu::forward(const MatrixF& x) {
  x_ = x;
  return infer(x);
}

MatrixF Gelu::infer(const MatrixF& x) const {
  MatrixF y(x.rows(), x.cols());
  for (std::size_t r = 0; r < x.rows(); ++r)
    gelu_row(x.data() + r * x.cols(), y.data() + r * y.cols(), x.cols());
  return y;
}

MatrixF Gelu::backward(const MatrixF& dy) {
  MatrixF dx = dy;
  for (std::size_t i = 0; i < dx.size(); ++i)
    dx.data()[i] *= gelu_backward_scalar(x_.data()[i]);
  return dx;
}

// ---------------------------------------------------------------- LayerNorm

LayerNorm::LayerNorm(std::string name, std::size_t dim)
    : gamma_(name + ".gamma", 1, dim), beta_(name + ".beta", 1, dim) {
  gamma_.value.fill(1.0f);
}

MatrixF LayerNorm::forward(const MatrixF& x) {
  const std::size_t n = x.cols();
  normalized_ = MatrixF(x.rows(), n);
  inv_std_.assign(x.rows(), 0.0f);
  MatrixF y(x.rows(), n);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    inv_std_[r] = layer_norm_row(x.data() + r * n, y.data() + r * n, n,
                                 gamma_.value.data(), beta_.value.data(), kEps,
                                 normalized_.data() + r * n);
  }
  return y;
}

MatrixF LayerNorm::infer(const MatrixF& x) const {
  const std::size_t n = x.cols();
  MatrixF y(x.rows(), n);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    layer_norm_row(x.data() + r * n, y.data() + r * n, n, gamma_.value.data(),
                   beta_.value.data(), kEps);
  }
  return y;
}

MatrixF LayerNorm::backward(const MatrixF& dy) {
  const std::size_t n = dy.cols();
  MatrixF dx(dy.rows(), n);
  const float* gamma = gamma_.value.data();
  float* dgamma = gamma_.grad.data();
  float* dbeta = beta_.grad.data();
  for (std::size_t r = 0; r < dy.rows(); ++r) {
    const float* dyrow = dy.data() + r * n;
    const float* nrow = normalized_.data() + r * n;
    float* dxrow = dx.data() + r * n;
    float sum_dn = 0.0f, sum_dn_n = 0.0f;
    for (std::size_t c = 0; c < n; ++c) {
      const float dn = dyrow[c] * gamma[c];
      sum_dn += dn;
      sum_dn_n += dn * nrow[c];
      dgamma[c] += dyrow[c] * nrow[c];
      dbeta[c] += dyrow[c];
    }
    const float inv_n = 1.0f / static_cast<float>(n);
    for (std::size_t c = 0; c < n; ++c) {
      const float dn = dyrow[c] * gamma[c];
      dxrow[c] = inv_std_[r] * (dn - inv_n * sum_dn - nrow[c] * inv_n * sum_dn_n);
    }
  }
  return dx;
}

// ---------------------------------------------------------------- Embedding

Embedding::Embedding(std::string name, std::size_t vocab, std::size_t dim,
                     Rng& rng, bool trainable)
    : table_(std::move(name), vocab, dim), trainable_(trainable) {
  fill_normal(table_.value, rng, 0.0f, 1.0f / std::sqrt(static_cast<float>(dim)));
}

Embedding::Embedding(std::string name, const MatrixF& table, bool trainable)
    : table_(std::move(name), table.rows(), table.cols()),
      trainable_(trainable) {
  table_.value = table;
}

MatrixF Embedding::forward(const std::vector<int>& tokens) {
  tokens_ = tokens;
  const std::size_t d = dim();
  MatrixF y(tokens.size(), d);
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const float* row =
        table_.value.data() + static_cast<std::size_t>(tokens[i]) * d;
    float* out = y.data() + i * d;
    for (std::size_t c = 0; c < d; ++c) out[c] = row[c];
  }
  return y;
}

void Embedding::backward(const MatrixF& dy) {
  if (!trainable_) return;
  const std::size_t d = dim();
  assert(dy.rows() == tokens_.size() && dy.cols() == d);
  for (std::size_t i = 0; i < tokens_.size(); ++i) {
    float* grad =
        table_.grad.data() + static_cast<std::size_t>(tokens_[i]) * d;
    const float* row = dy.data() + i * d;
    for (std::size_t c = 0; c < d; ++c) grad[c] += row[c];
  }
}

// ---------------------------------------------------------------- MeanPool

MatrixF MeanPoolRows::forward(const MatrixF& x) {
  in_rows_ = x.rows();
  return infer(x);
}

MatrixF MeanPoolRows::infer(const MatrixF& x) const {
  assert(group_ > 0 && x.rows() % group_ == 0);
  const std::size_t out_rows = x.rows() / group_;
  MatrixF y(out_rows, x.cols());
  const float scale = 1.0f / static_cast<float>(group_);
  for (std::size_t r = 0; r < out_rows; ++r) {
    float* yrow = y.data() + r * y.cols();
    for (std::size_t g = 0; g < group_; ++g) {
      const float* xrow = x.data() + (r * group_ + g) * x.cols();
      for (std::size_t c = 0; c < x.cols(); ++c) yrow[c] += xrow[c] * scale;
    }
  }
  return y;
}

MatrixF MeanPoolRows::backward(const MatrixF& dy) {
  MatrixF dx(in_rows_, dy.cols());
  const float scale = 1.0f / static_cast<float>(group_);
  for (std::size_t r = 0; r < dy.rows(); ++r) {
    const float* dyrow = dy.data() + r * dy.cols();
    for (std::size_t g = 0; g < group_; ++g) {
      float* dxrow = dx.data() + (r * group_ + g) * dx.cols();
      for (std::size_t c = 0; c < dy.cols(); ++c) dxrow[c] = dyrow[c] * scale;
    }
  }
  return dx;
}

}  // namespace tilesparse
