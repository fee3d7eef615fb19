// Static ExecGraph verifier (exec/validate.hpp): every class of
// malformed graph — cycles, reads before any writer, slot-implied
// hazards with no covering dependency path, bad shard plans, shape
// mismatches — is rejected with a diagnostic naming the offending
// nodes/slots, while the real model graphs (Bert/NMT/VGG) validate
// clean.  The scheduler runs this audit once per graph build, so a
// malformed plan throws GraphValidationError before any dispatch.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "exec/backend_registry.hpp"
#include "exec/graph.hpp"
#include "exec/scheduler.hpp"
#include "exec/validate.hpp"
#include "nn/attention.hpp"
#include "nn/bert_mini.hpp"
#include "nn/nmt_mini.hpp"
#include "nn/vgg_mini.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"
#include "workload/datasets.hpp"

namespace tilesparse {
namespace {

MatrixF random_matrix(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  Rng rng(seed);
  MatrixF m(rows, cols);
  fill_normal(m, rng);
  return m;
}

bool has_finding(const std::vector<GraphFinding>& findings,
                 const std::string& code, const std::string& substring,
                 FindingSeverity severity = FindingSeverity::kError) {
  return std::any_of(findings.begin(), findings.end(),
                     [&](const GraphFinding& f) {
                       return f.severity == severity && f.code == code &&
                              f.message.find(substring) != std::string::npos;
                     });
}

std::string render(const std::vector<GraphFinding>& findings) {
  std::string all;
  for (const GraphFinding& f : findings) all += to_string(f) + "\n";
  return all;
}

// ------------------------------------------------------ fixture: cycle

TEST(ValidateTest, CycleIsReportedWithPath) {
  ExecGraph g;
  const auto s = g.add_slot("s");
  const auto t = g.add_slot("t");
  const auto n0 = g.add_host("alpha", {}, {s}, [](ExecGraph&) {});
  const auto n1 = g.add_host("beta", {s}, {t}, [](ExecGraph&) {});
  g.add_dep(n0, n1);  // closes alpha -> beta -> alpha
  const auto findings = validate_graph(g);
  EXPECT_TRUE(has_finding(findings, "cycle", "'alpha'")) << render(findings);
  EXPECT_TRUE(has_finding(findings, "cycle", "->")) << render(findings);
  EXPECT_THROW(g.topo_order(), std::logic_error);
  EXPECT_THROW(validate_graph_or_throw(g), GraphValidationError);
}

// -------------------------------------------- fixture: read-before-write

TEST(ValidateTest, ReadBeforeWriteNamesReaderAndSlot) {
  // `consumer` reads `data` before `producer` (which has no ordering
  // edge forcing it first): the walk sees the read while the slot is
  // unwritten AND the hazard audit sees a writer with no path.
  ExecGraph g;
  g.set_auto_deps(false);
  const auto data = g.add_slot("data");
  const auto out = g.add_slot("out");
  g.mark_output(out);
  g.add_host("consumer", {data}, {out}, [](ExecGraph&) {});
  g.add_host("producer", {}, {data}, [](ExecGraph&) {});
  const auto findings = validate_graph(g);
  EXPECT_TRUE(has_finding(findings, "read-before-write", "'consumer'"))
      << render(findings);
  EXPECT_TRUE(has_finding(findings, "read-before-write", "slot 'data'"))
      << render(findings);
  EXPECT_THROW(validate_graph_or_throw(g), GraphValidationError);
}

TEST(ValidateTest, UnwrittenUnmarkedReadIsErrorOnlyWithDeclaredIo) {
  // Legacy graphs (no mark_input/mark_output anywhere) get leniency: an
  // externally fed slot reads as a warning, not an error.
  ExecGraph legacy;
  const auto in = legacy.add_slot("in");
  legacy.add_host("use", {in}, {}, [](ExecGraph&) {});
  const auto lenient = validate_graph(legacy);
  EXPECT_TRUE(has_finding(lenient, "read-before-write", "mark_input",
                          FindingSeverity::kWarning))
      << render(lenient);
  EXPECT_NO_THROW(validate_graph_or_throw(legacy));

  // Once the builder declares I/O, the same shape is an error...
  ExecGraph strict;
  const auto sin = strict.add_slot("in");
  const auto sout = strict.add_slot("out");
  strict.mark_output(sout);
  strict.add_host("use", {sin}, {sout}, [](ExecGraph&) {});
  EXPECT_THROW(validate_graph_or_throw(strict), GraphValidationError);

  // ...unless the slot is a declared input.
  ExecGraph ok;
  const auto oin = ok.add_slot("in");
  const auto oout = ok.add_slot("out");
  ok.mark_input(oin);
  ok.mark_output(oout);
  ok.add_host("use", {oin}, {oout}, [](ExecGraph&) {});
  EXPECT_NO_THROW(validate_graph_or_throw(ok));
}

// -------------------------------------------- fixture: missing hazard edge

TEST(ValidateTest, MissingRawEdgeIsReported) {
  // Manual wiring that forgot the RAW edge writer -> reader.
  ExecGraph g;
  g.set_auto_deps(false);
  const auto s = g.add_slot("s");
  const auto out = g.add_slot("out");
  g.mark_output(out);
  const auto w = g.add_host("writer", {}, {s}, [](ExecGraph&) {});
  const auto r = g.add_host("reader", {s}, {out}, [](ExecGraph&) {});
  (void)w;
  (void)r;
  const auto findings = validate_graph(g);
  EXPECT_TRUE(has_finding(findings, "missing-dep", "RAW hazard"))
      << render(findings);
  EXPECT_TRUE(has_finding(findings, "missing-dep", "'writer'"))
      << render(findings);
  EXPECT_THROW(validate_graph_or_throw(g), GraphValidationError);

  // Adding the forgotten edge fixes it.
  g.add_dep(r, w);
  EXPECT_NO_THROW(validate_graph_or_throw(g));
}

TEST(ValidateTest, MissingWawAndWarEdgesAreReported) {
  ExecGraph g;
  g.set_auto_deps(false);
  const auto s = g.add_slot("s");
  const auto out = g.add_slot("out");
  g.mark_output(out);
  const auto w0 = g.add_host("first_write", {}, {s}, [](ExecGraph&) {});
  const auto rd = g.add_host("reader", {s}, {out}, [](ExecGraph&) {});
  g.add_dep(rd, w0);  // RAW covered
  // Second writer with no path from the first writer nor the reader.
  g.add_host("second_write", {}, {s}, [](ExecGraph&) {});
  const auto findings = validate_graph(g);
  EXPECT_TRUE(has_finding(findings, "missing-dep", "WAW hazard"))
      << render(findings);
  EXPECT_TRUE(has_finding(findings, "missing-dep", "WAR hazard"))
      << render(findings);
}

TEST(ValidateTest, TransitivePathCoversHazard) {
  // Hazard coverage accepts any dependency *path*, not just a direct
  // edge: writer -> middle -> reader is fine.
  ExecGraph g;
  g.set_auto_deps(false);
  const auto s = g.add_slot("s");
  const auto out = g.add_slot("out");
  g.mark_output(out);
  const auto w = g.add_host("writer", {}, {s}, [](ExecGraph&) {});
  const auto m = g.add_host("middle", {}, {}, [](ExecGraph&) {});
  const auto r = g.add_host("reader", {s}, {out}, [](ExecGraph&) {});
  g.add_dep(m, w);
  g.add_dep(r, m);
  EXPECT_NO_THROW(validate_graph_or_throw(g));
}

// ------------------------------------------- fixture: bad shard slices

/// The GEMM node of a one-node graph over `weight`: the node a shard
/// plan for that weight is audited against.
const ExecGraph::Node& gemm_node(ExecGraph& g, const PackedWeight& weight) {
  const auto in = g.add_slot("in");
  const auto out = g.add_slot("out");
  return g.nodes()[g.add_gemm("w", &weight, in, out)];
}

TEST(ValidateTest, OverlappingShardSlicesAreReported) {
  const MatrixF w = random_matrix(16, 64, 3);
  const auto packed = make_packed("dense", w);
  ExecGraph g;
  const auto findings = audit_shard_slices(
      gemm_node(g, *packed), {{0, 24}, {16, 40}, {40, 64}});
  EXPECT_TRUE(has_finding(findings, "shard-plan", "computed twice"))
      << render(findings);
}

TEST(ValidateTest, ShardGapAndCoverageAreReported) {
  const MatrixF w = random_matrix(16, 64, 3);
  const auto packed = make_packed("dense", w);
  ExecGraph g;
  const ExecGraph::Node& node = gemm_node(g, *packed);
  const auto gap = audit_shard_slices(node, {{0, 16}, {24, 64}});
  EXPECT_TRUE(has_finding(gap, "shard-plan", "skips columns")) << render(gap);
  const auto partial = audit_shard_slices(node, {{0, 16}, {16, 48}});
  EXPECT_TRUE(has_finding(partial, "shard-plan", "N = 64")) << render(partial);
  const auto good = audit_shard_slices(node, {{0, 16}, {16, 48}, {48, 64}});
  EXPECT_TRUE(good.empty()) << render(good);
}

TEST(ValidateTest, AttentionCoreRangesMustFollowHeadBoundaries) {
  // The core is a column-range node with one head (16 columns) as its
  // range step: a range that splits a head, or a plan that leaves a
  // gap, is an error; whole-head ranges tiling [0, 64) are clean.
  Rng rng(5);
  MultiHeadAttention attn("attn", 64, 4, 8, rng);
  ExecGraph g;
  const auto in = g.add_slot("x");
  const auto out = g.add_slot("y");
  g.mark_input(in);
  attn.add_to_graph(g, in, out);
  g.mark_output(out);
  EXPECT_TRUE(validate_graph(g).empty()) << render(validate_graph(g));
  const auto core = std::find_if(
      g.nodes().begin(), g.nodes().end(),
      [](const ExecGraph::Node& n) { return n.name == "attn.out.w.core"; });
  ASSERT_NE(core, g.nodes().end());
  ASSERT_TRUE(core->column_ranged());
  EXPECT_EQ(core->width, 64u);
  EXPECT_EQ(core->range_step, 16u);

  const auto split = audit_shard_slices(*core, {{0, 24}, {24, 64}});
  EXPECT_TRUE(has_finding(split, "shard-plan", "range step of 16"))
      << render(split);
  const auto gap = audit_shard_slices(*core, {{0, 16}, {32, 64}});
  EXPECT_TRUE(has_finding(gap, "shard-plan", "skips columns")) << render(gap);
  const auto heads = audit_shard_slices(*core, {{0, 16}, {16, 48}, {48, 64}});
  EXPECT_TRUE(heads.empty()) << render(heads);
}

// --------------------------------------------- fixture: shape mismatch

TEST(ValidateTest, GemmInputWidthMismatchIsReported) {
  // fc2 expects K = 32 but is fed fc1's N = 48 output.
  const MatrixF w1 = random_matrix(24, 48, 4);
  const MatrixF w2 = random_matrix(32, 8, 5);
  const auto p1 = make_packed("dense", w1);
  const auto p2 = make_packed("dense", w2);
  ExecGraph g;
  const auto in = g.add_slot("in");
  const auto mid = g.add_slot("mid");
  const auto out = g.add_slot("out");
  g.mark_input(in);
  g.mark_output(out);
  g.add_gemm("fc1", p1.get(), in, mid);
  g.add_gemm("fc2", p2.get(), mid, out);
  const auto findings = validate_graph(g);
  EXPECT_TRUE(has_finding(findings, "shape-mismatch", "'fc2'"))
      << render(findings);
  EXPECT_TRUE(has_finding(findings, "shape-mismatch", "48"))
      << render(findings);
  EXPECT_THROW(validate_graph_or_throw(g), GraphValidationError);
}

TEST(ValidateTest, BadBiasShapeIsReported) {
  const MatrixF w = random_matrix(16, 32, 6);
  const MatrixF bias = random_matrix(1, 24, 7);  // want 1 x 32
  const auto packed = make_packed("dense", w);
  ExecGraph g;
  const auto in = g.add_slot("in");
  const auto out = g.add_slot("out");
  g.mark_input(in);
  g.mark_output(out);
  GemmEpilogue epilogue;
  epilogue.bias = &bias;
  g.add_gemm("fc", packed.get(), in, out, ExecContext{}, epilogue);
  const auto findings = validate_graph(g);
  EXPECT_TRUE(has_finding(findings, "shape-mismatch", "bias"))
      << render(findings);
}

// --------------------------------------------- fixture: GEMM epilogues

TEST(ValidateTest, ResidualWidthOtherThanNIsShapeMismatch) {
  // "down" adds a 24-column residual to its 32-column output.
  const auto up = make_packed("dense", random_matrix(16, 24, 9));
  const auto down = make_packed("dense", random_matrix(16, 32, 10));
  ExecGraph g;
  const auto in = g.add_slot("in");
  const auto side = g.add_slot("side");
  const auto out = g.add_slot("out");
  g.mark_input(in);
  g.mark_output(out);
  g.add_gemm("up", up.get(), in, side);
  GemmEpilogue epilogue;
  epilogue.residual = side;
  g.add_gemm("down", down.get(), in, out, ExecContext{}, epilogue);
  const auto findings = validate_graph(g);
  EXPECT_TRUE(has_finding(findings, "shape-mismatch", "residual slot 'side'"))
      << render(findings);
  EXPECT_TRUE(has_finding(findings, "shape-mismatch", "24 columns"))
      << render(findings);
  EXPECT_THROW(validate_graph_or_throw(g), GraphValidationError);
}

TEST(ValidateTest, ResidualAliasingTheOutputIsAnError) {
  const auto packed = make_packed("dense", random_matrix(16, 32, 11));
  ExecGraph g;
  const auto in = g.add_slot("in");
  const auto out = g.add_slot("out");
  g.mark_input(in);
  g.mark_output(out);
  GemmEpilogue epilogue;
  epilogue.residual = out;
  g.add_gemm("fc", packed.get(), in, out, ExecContext{}, epilogue);
  const auto findings = validate_graph(g);
  EXPECT_TRUE(has_finding(findings, "aliased-residual", "'fc'"))
      << render(findings);
  EXPECT_THROW(validate_graph_or_throw(g), GraphValidationError);
}

TEST(ValidateTest, ResidualWithoutEdgeToItsProducerIsMissingDep) {
  const auto packed = make_packed("dense", random_matrix(16, 32, 12));
  ExecGraph g;
  g.set_auto_deps(false);
  const auto in = g.add_slot("in");
  const auto skip = g.add_slot("skip");
  const auto out = g.add_slot("out");
  g.mark_input(in);
  g.mark_output(out);
  const auto producer = g.add_host("producer", {in}, {skip}, [](ExecGraph&) {});
  GemmEpilogue epilogue;
  epilogue.residual = skip;
  const auto fc = g.add_gemm("fc", packed.get(), in, out, ExecContext{},
                             epilogue);
  const auto findings = validate_graph(g);
  EXPECT_TRUE(has_finding(findings, "missing-dep", "'producer'"))
      << render(findings);
  EXPECT_TRUE(has_finding(findings, "missing-dep", "RAW hazard on slot"))
      << render(findings);
  EXPECT_THROW(validate_graph_or_throw(g), GraphValidationError);

  g.add_dep(fc, producer);
  EXPECT_NO_THROW(validate_graph_or_throw(g));
}

// ------------------------------------------------- warnings, dead code

TEST(ValidateTest, DeadWritesAndDeadNodesWarn) {
  const MatrixF w = random_matrix(16, 32, 8);
  const auto packed = make_packed("dense", w);
  ExecGraph g;
  const auto in = g.add_slot("in");
  const auto unused = g.add_slot("unused");
  const auto out = g.add_slot("out");
  g.mark_input(in);
  g.mark_output(out);
  g.add_gemm("dead_gemm", packed.get(), in, unused);  // nothing reads it
  g.add_host("to_out", {in}, {out}, [](ExecGraph&) {});
  const auto findings = validate_graph(g);
  EXPECT_TRUE(has_finding(findings, "dead-node", "'dead_gemm'",
                          FindingSeverity::kWarning))
      << render(findings);
  // Warnings alone do not throw.
  EXPECT_NO_THROW(validate_graph_or_throw(g));
}

// --------------------------------------------- scheduler integration

TEST(ValidateTest, SchedulerRejectsMalformedGraphBeforeDispatch) {
  ExecGraph g;
  g.set_auto_deps(false);
  const auto s = g.add_slot("s");
  const auto out = g.add_slot("out");
  g.mark_output(out);
  bool consumer_ran = false;
  g.add_host("consumer", {s}, {out},
             [&consumer_ran](ExecGraph&) { consumer_ran = true; });
  g.add_host("producer", {}, {s}, [](ExecGraph&) {});
  ExecScheduler scheduler;
  EXPECT_THROW(scheduler.run(g), GraphValidationError);
  EXPECT_FALSE(consumer_ran);  // rejected before any node executed
}

TEST(ValidateTest, SchedulerValidatesOncePerBuildId) {
  ExecGraph g;
  const auto in = g.add_slot("in");
  const auto out = g.add_slot("out");
  g.mark_input(in);
  g.mark_output(out);
  int runs = 0;
  g.add_host("copy", {in}, {out}, [&runs, in, out](ExecGraph& gg) {
    gg.slot(out) = gg.slot(in);
    ++runs;
  });
  SchedulerOptions options;
  options.streams = 1;
  ExecScheduler scheduler(options);
  g.slot(in) = random_matrix(2, 3, 9);
  scheduler.run(g);
  scheduler.run(g);
  EXPECT_EQ(runs, 2);
}

TEST(ValidateTest, SchedulerValidationCanBeDisabled) {
  ExecGraph g;
  g.set_auto_deps(false);
  const auto s = g.add_slot("s");
  const auto out = g.add_slot("out");
  g.mark_output(out);
  g.add_host("consumer", {s}, {out}, [](ExecGraph&) {});
  g.add_host("producer", {}, {s}, [](ExecGraph&) {});
  SchedulerOptions options;
  options.streams = 1;
  options.validate = false;
  ExecScheduler scheduler(options);
  EXPECT_NO_THROW(scheduler.run(g));
}

// ------------------------------------------- real model graphs are clean

TEST(ValidateTest, BertGraphValidatesClean) {
  const BertMiniConfig config;
  TokenTeacherDataset dataset(64, config.seq, config.classes, config.dim, 91);
  BertMini model(config, dataset.embedding());
  model.pack_weights("dense");
  ExecGraph& graph = model.build_exec_graph();
  const auto findings = validate_graph(graph);
  EXPECT_TRUE(findings.empty()) << render(findings);
}

TEST(ValidateTest, NmtGraphValidatesClean) {
  NmtMini model(NmtMiniConfig{});
  model.pack_weights("dense");
  ExecGraph& graph = model.build_exec_graph();
  const auto findings = validate_graph(graph);
  EXPECT_TRUE(findings.empty()) << render(findings);
}

TEST(ValidateTest, VggGraphValidatesClean) {
  VggMini model(VggMiniConfig{});
  model.pack_weights("dense");
  ExecGraph& graph = model.build_exec_graph();
  const auto findings = validate_graph(graph);
  EXPECT_TRUE(findings.empty()) << render(findings);
}

TEST(ValidateTest, VggGraphForwardMatchesSync) {
  const VggMiniConfig config;
  VggMini model(config);
  const MatrixF images = random_matrix(
      6, config.channels * config.height * config.width, 11);
  const MatrixF sync = model.forward(images);
  SchedulerOptions options;
  options.streams = 1;
  ExecScheduler scheduler(options);
  model.set_exec_scheduler(&scheduler);
  const MatrixF scheduled = model.forward(images);
  EXPECT_THROW(model.backward(scheduled), std::logic_error);
  model.set_exec_scheduler(nullptr);
  ASSERT_EQ(scheduled.rows(), sync.rows());
  ASSERT_EQ(scheduled.cols(), sync.cols());
  for (std::size_t i = 0; i < sync.size(); ++i)
    EXPECT_FLOAT_EQ(scheduled.data()[i], sync.data()[i]);
}

}  // namespace
}  // namespace tilesparse
