#pragma once
// Basic NN layers with explicit forward/backward.
//
// Conventions:
//  * activations are MatrixF with batch (or batch*seq) rows;
//  * weight matrices are stored K x N (input-dim x output-dim), the same
//    orientation the TW pruner and the GEMM substrate use;
//  * forward() caches whatever backward() needs; backward(dy) returns dx
//    and accumulates parameter gradients (call zero_grad between steps);
//  * layers an inference graph runs also have a const infer(x) that
//    computes exactly forward()'s output and fills no cache, so one
//    layer can serve any number of concurrent graph runs.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "exec/backend_registry.hpp"
#include "exec/exec_context.hpp"
#include "exec/graph.hpp"
#include "exec/packed_weight.hpp"
#include "nn/param.hpp"
#include "tensor/matrix.hpp"
#include "util/rng.hpp"

namespace tilesparse {

class Layer {
 public:
  virtual ~Layer() = default;
  virtual MatrixF forward(const MatrixF& x) = 0;
  virtual MatrixF backward(const MatrixF& dy) = 0;
  virtual std::vector<Param*> params() { return {}; }
};

/// y = x W + b.
///
/// Inference path: the layer can hold a PackedWeight — any registered
/// execution format (dense, tw, tew, csr, tw-int8) packed from the
/// dense master weight — in which case forward() executes through
/// PackedWeight::matmul under the layer's ExecContext.  The dense Param
/// remains the master copy: backward() always differentiates against
/// it, so packing is purely an inference-serving decision and training
/// code is unaffected.
class Linear : public Layer {
 public:
  Linear(std::string name, std::size_t in, std::size_t out, Rng& rng);

  MatrixF forward(const MatrixF& x) override;
  MatrixF infer(const MatrixF& x) const;
  MatrixF backward(const MatrixF& dy) override;
  std::vector<Param*> params() override { return {&weight_, &bias_}; }

  Param& weight() noexcept { return weight_; }
  const Param& weight() const noexcept { return weight_; }
  Param& bias() noexcept { return bias_; }

  /// Packs the current master weight under a registered format.
  void pack_weight(const std::string& format, const PackOptions& options = {});
  /// Adopts an externally built packed weight (shape must match).
  void set_packed_weight(std::unique_ptr<PackedWeight> packed);
  /// Returns to dense master-weight execution.
  void clear_packed_weight() noexcept {
    packed_.reset();
    ++packed_version_;
  }
  const PackedWeight* packed_weight() const noexcept { return packed_.get(); }

  /// Bumped whenever the execution backend is replaced (pack, clear,
  /// artifact load).  Models key their cached ExecGraph on the versions
  /// of every layer in it: a graph built against replaced backends
  /// would hold dangling weight refs, so it must be rebuilt — no
  /// matter which call path swapped the backend.
  std::uint64_t packed_version() const noexcept { return packed_version_; }

  /// Numerics/threads for packed execution (alpha/beta are fixed by the
  /// layer semantics y = x W + b).
  void set_exec_context(const ExecContext& ctx) noexcept { ctx_ = ctx; }
  const ExecContext& exec_context() const noexcept { return ctx_; }

  /// Adds this layer's y = x W + b to an execution graph, followed by
  /// `activation` and then `+= slot(residual)` when given — one GEMM
  /// node whose epilogue holds the bias, activation and residual (see
  /// GemmEpilogue).  Without a packed weight the node is a host
  /// node running infer() and the rest of the epilogue.  Either way
  /// it produces exactly what forward() followed by the activation
  /// layer and the residual add produces.  The layer must outlive the
  /// graph.
  ExecGraph::NodeId add_to_graph(
      ExecGraph& graph, ExecGraph::SlotId in, ExecGraph::SlotId out,
      GemmActivation activation = GemmActivation::kNone,
      std::optional<ExecGraph::SlotId> residual = std::nullopt) const;

 private:
  Param weight_;  ///< in x out
  Param bias_;    ///< 1 x out
  MatrixF x_;     ///< cached input
  std::unique_ptr<PackedWeight> packed_;  ///< optional inference backend
  std::uint64_t packed_version_ = 0;
  ExecContext ctx_;
};

/// Packs each layer's master weight under `format`.  `patterns`, when
/// given, must align 1:1 with `layers` (TW-family formats need one);
/// `ctx` is installed as every layer's execution context.
void pack_linear_layers(const std::vector<Linear*>& layers,
                        const std::string& format,
                        const std::vector<TilePattern>* patterns = nullptr,
                        const ExecContext& ctx = {});

/// Clears packed weights on every layer (back to dense execution).
void clear_packed_linear_layers(const std::vector<Linear*>& layers);

/// Writes every layer's *packed* weight into one model artifact
/// (io/serialize save_model_weights), keyed by the weight Param's name.
/// Throws std::logic_error when a layer has not been packed — the
/// artifact is the packed representation, there is nothing dense to
/// ship.
void save_packed_linear_layers(const std::string& path,
                               const std::vector<Linear*>& layers);

/// How a model artifact's bytes reach the execution backends.
enum class ArtifactLoad {
  kStream,  ///< read the file into one private aligned buffer; backends
            ///< borrow bulk payloads from it
  kMapped,  ///< mmap the file; backends borrow bulk payloads in place
            ///< (the mapping lives as long as the weights)
};

/// Loads a model artifact into `layers`: each layer adopts the entry
/// matching its weight name (throws std::runtime_error when one is
/// missing) and installs `ctx`.  Serving starts straight from the
/// artifact — no re-packing or re-quantising.  With
/// ArtifactLoad::kMapped the weights share the page cache with every
/// other process mapping the same file.
void load_packed_linear_layers(const std::string& path,
                               const std::vector<Linear*>& layers,
                               const ExecContext& ctx = {},
                               ArtifactLoad mode = ArtifactLoad::kStream);

class ReLU : public Layer {
 public:
  MatrixF forward(const MatrixF& x) override;
  MatrixF backward(const MatrixF& dy) override;

 private:
  MatrixF y_;
};

class Gelu : public Layer {
 public:
  MatrixF forward(const MatrixF& x) override;
  MatrixF infer(const MatrixF& x) const;
  MatrixF backward(const MatrixF& dy) override;

 private:
  MatrixF x_;
};

/// Row-wise LayerNorm with trainable gamma/beta.
class LayerNorm : public Layer {
 public:
  LayerNorm(std::string name, std::size_t dim);

  MatrixF forward(const MatrixF& x) override;
  MatrixF infer(const MatrixF& x) const;
  /// infer(x) into `y`, already x.rows() x dim: the one inference body,
  /// which the graph node runs on row views.
  void infer(const MatrixF& x, MatrixF& y) const;
  MatrixF backward(const MatrixF& dy) override;
  std::vector<Param*> params() override { return {&gamma_, &beta_}; }

  /// Adds this layer to an execution graph as the row-range host node
  /// `name`: slot(out) = infer(slot(in)), one row as its row step, so
  /// the scheduler may split it into row shards.  The layer must
  /// outlive the graph.
  ExecGraph::NodeId add_to_graph(ExecGraph& graph, std::string name,
                                 ExecGraph::SlotId in,
                                 ExecGraph::SlotId out) const;

 private:
  Param gamma_, beta_;
  MatrixF normalized_;
  std::vector<float> inv_std_;
  static constexpr float kEps = 1e-5f;
};

/// Token embedding lookup.  Rows of the output are embeddings of the
/// flattened token stream.  Optionally trainable.
class Embedding {
 public:
  Embedding(std::string name, std::size_t vocab, std::size_t dim, Rng& rng,
            bool trainable = true);
  /// Initialise from an external table (e.g. the dataset's fixed table).
  Embedding(std::string name, const MatrixF& table, bool trainable);

  MatrixF forward(const std::vector<int>& tokens);
  void backward(const MatrixF& dy);
  std::vector<Param*> params() {
    return trainable_ ? std::vector<Param*>{&table_} : std::vector<Param*>{};
  }
  std::size_t dim() const noexcept { return table_.value.cols(); }

 private:
  Param table_;
  std::vector<int> tokens_;
  bool trainable_;
};

/// Mean over groups of `group` consecutive rows (sequence mean-pooling:
/// batch*seq rows -> batch rows).
class MeanPoolRows : public Layer {
 public:
  explicit MeanPoolRows(std::size_t group) : group_(group) {}
  MatrixF forward(const MatrixF& x) override;
  MatrixF infer(const MatrixF& x) const;
  MatrixF backward(const MatrixF& dy) override;

 private:
  std::size_t group_;
  std::size_t in_rows_ = 0;
};

}  // namespace tilesparse
