#include "exec/batch_entry.hpp"

#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>

namespace tilesparse {

double BatchEntry::cost(std::size_t rows) const noexcept {
  const double m = macs(rows);
  const double b = static_cast<double>(weight_bytes());
  // Geometric blend of compute and weight traffic, floored at 1 so a
  // degenerate entry still charges something per member.
  return std::max(1.0, std::sqrt(std::max(1.0, m) * std::max(1.0, b)));
}

GraphBatchEntry::GraphBatchEntry(Config config) : config_(std::move(config)) {
  if (!config_.builder) {
    throw std::invalid_argument("GraphBatchEntry: null builder");
  }
  if (config_.input_cols == 0 || config_.group_rows_in == 0 ||
      config_.group_rows_out == 0) {
    throw std::invalid_argument("GraphBatchEntry: bad config shape");
  }
}

std::unique_ptr<GraphBatchEntry::Graph> GraphBatchEntry::acquire() {
  {
    std::lock_guard lock(idle_mutex_);
    if (!idle_.empty()) {
      std::unique_ptr<Graph> graph = std::move(idle_.back());
      idle_.pop_back();
      return graph;
    }
    // Room for every graph that will exist, so release() never allocates.
    idle_.reserve(++built_);
  }
  auto graph = std::make_unique<Graph>();
  graph->input = graph->graph.add_slot(config_.name + ".in");
  graph->graph.mark_input(graph->input);
  graph->output = config_.builder(graph->graph, graph->input);
  graph->graph.mark_output(graph->output);
  return graph;
}

void GraphBatchEntry::release(std::unique_ptr<Graph> graph) noexcept {
  std::lock_guard lock(idle_mutex_);
  idle_.push_back(std::move(graph));
}

MatrixF GraphBatchEntry::run(ExecScheduler& scheduler, const MatrixF& input) {
  if (input.rows() == 0 || input.rows() % config_.group_rows_in != 0 ||
      input.cols() != config_.input_cols) {
    throw std::invalid_argument("BatchEntry '" + config_.name +
                                "': input must be a non-empty multiple of " +
                                std::to_string(config_.group_rows_in) +
                                " rows x " +
                                std::to_string(config_.input_cols) + " cols");
  }
  // This run owns `held` until the guard hands it back — also when the
  // scheduler throws; a graph abandoned mid-run re-executes every node
  // on its next run.
  struct Held {
    GraphBatchEntry& entry;
    std::unique_ptr<Graph> graph;
    ~Held() { entry.release(std::move(graph)); }
  } held{*this, acquire()};
  ExecGraph& graph = held.graph->graph;
  MatrixF& in_slot = graph.slot(held.graph->input);
  if (in_slot.rows() != input.rows() || in_slot.cols() != input.cols()) {
    in_slot = MatrixF(input.rows(), input.cols());
  }
  std::memcpy(in_slot.data(), input.data(),
              input.rows() * input.cols() * sizeof(float));
  scheduler.run(graph);
  return graph.slot(held.graph->output);  // deep copy (owning matrix)
}

std::unique_ptr<GraphBatchEntry> make_gemm_entry(std::string name,
                                                 const PackedWeight* weight,
                                                 const MatrixF* bias) {
  if (weight == nullptr) {
    throw std::invalid_argument("make_gemm_entry: null weight");
  }
  GraphBatchEntry::Config config;
  config.name = std::move(name);
  config.input_cols = weight->k();
  config.output_cols = weight->n();
  config.macs_per_row =
      weight->macs(2) - weight->macs(1);  // per-row marginal MACs
  config.weight_bytes = weight->bytes();
  config.builder = [weight, bias](ExecGraph& graph, ExecGraph::SlotId input) {
    ExecGraph::SlotId out = graph.add_slot("out");
    GemmEpilogue epilogue;
    epilogue.bias = bias;
    graph.add_gemm("gemm", weight, input, out, ExecContext{}, epilogue);
    return out;
  };
  return std::make_unique<GraphBatchEntry>(std::move(config));
}

}  // namespace tilesparse
