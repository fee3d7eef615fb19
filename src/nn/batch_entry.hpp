#pragma once
// Model-level batch entries: the bridge from nn/ models to the serving
// batcher (serve/batch/).
//
// A serving client does NOT hand the runtime a model call — it hands
// an activation (embedded token rows for BERT) plus an entry name, and
// the runtime coalesces activations from many clients into one wide-M
// graph run.  make_bert_entry packages a BertMini as such an entry:
// group_rows_in = seq (one request unit = one embedded sequence),
// group_rows_out = 1 (pooled logits row).  Its graphs come from
// BertMini::append_exec_graph, one per concurrent run, each serving
// every batch size.
//
// Lifetime: the model must outlive the entry, and the entry must be
// re-created (re-registered) after pack_weights / clear_packed_weights
// or artifact loads into the layers — its graphs hold refs to
// the packed backends current at creation, exactly like the model's
// own exec graph.

#include <memory>
#include <string>

#include "exec/batch_entry.hpp"
#include "nn/bert_mini.hpp"

namespace tilesparse {

/// Batch entry over a BertMini encoder stack.  Inputs are embed()
/// activations: (k * seq) x dim rows per request; outputs are k x
/// classes logits.  Runs never lock the model: its graphs' host nodes
/// call the layers' const infer() paths, so concurrent runs share it
/// read-only.
std::unique_ptr<GraphBatchEntry> make_bert_entry(std::string name,
                                                 BertMini& model);

}  // namespace tilesparse
