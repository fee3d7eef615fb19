#include "nn/batch_entry.hpp"

#include <utility>
#include <vector>

namespace tilesparse {

std::unique_ptr<GraphBatchEntry> make_bert_entry(std::string name,
                                                 BertMini& model) {
  const BertMiniConfig& config = model.config();
  GraphBatchEntry::Config entry;
  entry.name = std::move(name);
  entry.input_cols = config.dim;
  entry.output_cols = config.classes;
  entry.group_rows_in = config.seq;
  entry.group_rows_out = 1;
  // Cost accounting from the layers the stack actually multiplies
  // through: packed backends where installed, dense masters otherwise.
  double macs_per_row = 0.0;
  std::size_t weight_bytes = 0;
  std::vector<Linear*> layers = model.prunable_layers();
  for (Linear* layer : layers) {
    if (const PackedWeight* packed = layer->packed_weight()) {
      macs_per_row += packed->macs(2) - packed->macs(1);
      weight_bytes += packed->bytes();
    } else {
      const MatrixF& dense = layer->weight().value;
      macs_per_row += static_cast<double>(dense.size());
      weight_bytes += dense.size() * sizeof(float);
    }
  }
  // The classifier GEMM runs on pooled rows (1 per seq input rows):
  // amortize its per-row cost over the sequence.
  const double cls_macs =
      static_cast<double>(config.dim) * static_cast<double>(config.classes);
  macs_per_row += cls_macs / static_cast<double>(config.seq);
  weight_bytes += config.dim * config.classes * sizeof(float);
  entry.macs_per_row = macs_per_row;
  entry.weight_bytes = weight_bytes;
  const BertMini* bert = &model;
  entry.builder = [bert](ExecGraph& graph, ExecGraph::SlotId input) {
    return bert->append_exec_graph(graph, input);
  };
  return std::make_unique<GraphBatchEntry>(std::move(entry));
}

}  // namespace tilesparse
