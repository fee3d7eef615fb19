// ExecGraph + ExecScheduler: model-level execution plans must be pure
// reorderings — a scheduled run (any stream count, with or without row
// shards, at any kernel thread count) is bit-identical to the
// single-stream reference and to the old synchronous layer-by-layer
// path, for every weight format.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "exec/backend_registry.hpp"
#include "exec/graph.hpp"
#include "exec/scheduler.hpp"
#include "gemm/fused_ops.hpp"
#include "nn/attention.hpp"
#include "nn/bert_mini.hpp"
#include "nn/layers.hpp"
#include "nn/nmt_mini.hpp"
#include "nn/prune_experiment.hpp"
#include "prune/importance.hpp"
#include "prune/tw_pruner.hpp"
#include "tensor/ops.hpp"
#include "util/guards.hpp"
#include "util/rng.hpp"
#include "util/threadpool.hpp"
#include "workload/datasets.hpp"

namespace tilesparse {
namespace {

MatrixF random_matrix(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  Rng rng(seed);
  MatrixF m(rows, cols);
  fill_normal(m, rng);
  return m;
}

bool bit_identical(const MatrixF& a, const MatrixF& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  return a.size() == 0 ||
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

std::unique_ptr<PackedWeight> pack_for_test(const std::string& format,
                                            const MatrixF& w, std::size_t g) {
  const MatrixF scores = magnitude_scores(w);
  const TilePattern pattern = tw_pattern_from_scores(scores, 0.6, g);
  PackOptions options;
  options.pattern = &pattern;
  options.scores = &scores;
  return make_packed(format, w, options);
}

// ----------------------------------------------------------- graph basics

TEST(ExecGraphTest, DataflowDepsFollowSlots) {
  ExecGraph g;
  const auto a = g.add_slot("a");
  const auto b = g.add_slot("b");
  const auto c = g.add_slot("c");
  const auto n0 = g.add_host("write_a", {}, {a}, [](ExecGraph&) {});
  const auto n1 = g.add_host("write_b", {}, {b}, [](ExecGraph&) {});
  const auto n2 = g.add_host("sum", {a, b}, {c}, [](ExecGraph&) {});
  EXPECT_TRUE(g.nodes()[n0].deps.empty());
  EXPECT_TRUE(g.nodes()[n1].deps.empty());
  ASSERT_EQ(g.nodes()[n2].deps.size(), 2u);  // RAW on both writers
  EXPECT_EQ(g.nodes()[n2].deps[0], n0);
  EXPECT_EQ(g.nodes()[n2].deps[1], n1);

  // WAR: overwriting `a` must wait for the reader.
  const auto n3 = g.add_host("rewrite_a", {}, {a}, [](ExecGraph&) {});
  const auto& deps = g.nodes()[n3].deps;
  EXPECT_NE(std::find(deps.begin(), deps.end(), n2), deps.end());
}

TEST(ExecGraphTest, AddDepAcceptsEitherDirectionRejectsMalformed) {
  ExecGraph g;
  const auto s = g.add_slot("s");
  const auto n0 = g.add_host("first", {}, {s}, [](ExecGraph&) {});
  const auto n1 = g.add_host("second", {s}, {}, [](ExecGraph&) {});
  EXPECT_NO_THROW(g.add_dep(n1, n0));
  // A forward edge is representable (it closes a cycle here); the
  // static verifier and topo_order are what reject it, not add_dep.
  EXPECT_NO_THROW(g.add_dep(n0, n1));
  EXPECT_THROW(g.topo_order(), std::logic_error);
  EXPECT_THROW(g.add_dep(n0, n0), std::invalid_argument);
  EXPECT_THROW(g.add_dep(7, n0), std::invalid_argument);
}

TEST(ExecGraphTest, GemmNodeMatchesPackedMatmul) {
  const MatrixF w = random_matrix(48, 96, 3);
  const MatrixF a = random_matrix(20, 48, 4);
  const MatrixF bias = random_matrix(1, 96, 5);
  const auto packed = make_packed("dense", w);

  ExecGraph g;
  const auto in = g.add_slot("in");
  const auto out = g.add_slot("out");
  GemmEpilogue epilogue;
  epilogue.bias = &bias;
  g.add_gemm("gemm", packed.get(), in, out, ExecContext{}, epilogue);
  g.slot(in) = a;
  g.execute_node(g.topo_order().back());

  MatrixF expected = packed->matmul(ExecContext{}, a);
  for (std::size_t r = 0; r < expected.rows(); ++r)
    for (std::size_t c = 0; c < expected.cols(); ++c)
      expected(r, c) += bias(0, c);
  EXPECT_TRUE(bit_identical(g.slot(out), expected));
}

TEST(ExecGraphTest, RejectsBadNodes) {
  ExecGraph g;
  const auto s = g.add_slot("s");
  const auto t = g.add_slot("t");
  const MatrixF w = random_matrix(8, 8, 1);
  const auto packed = make_packed("dense", w);
  EXPECT_THROW(g.add_gemm("null", nullptr, s, t), std::invalid_argument);
  EXPECT_THROW(g.add_gemm("inplace", packed.get(), s, s),
               std::invalid_argument);
  EXPECT_THROW(g.add_gemm("range", packed.get(), s, 99),
               std::invalid_argument);
  EXPECT_THROW(g.add_host("nullfn", {s}, {t}, nullptr), std::invalid_argument);
}

// ------------------------------------------------- scheduler determinism

/// Builds a diamond of GEMMs: four independent projections of one
/// input feeding a host join, then a final wide GEMM — the same shape
/// of parallelism the attention block exposes.
struct DiamondGraph {
  ExecGraph graph;
  ExecGraph::SlotId in = 0, out = 0;
  std::vector<std::unique_ptr<PackedWeight>> weights;
};

DiamondGraph make_diamond(const std::string& format, std::size_t k,
                          std::size_t n, std::size_t wide_n) {
  DiamondGraph d;
  d.in = d.graph.add_slot("in");
  std::vector<ExecGraph::SlotId> mids;
  for (int i = 0; i < 4; ++i) {
    d.weights.push_back(
        pack_for_test(format, random_matrix(k, n, 100 + i), 8));
    const auto mid = d.graph.add_slot("mid" + std::to_string(i));
    d.graph.add_gemm("proj" + std::to_string(i), d.weights.back().get(), d.in,
                     mid);
    mids.push_back(mid);
  }
  const auto joined = d.graph.add_slot("joined");
  d.graph.add_host("join", mids, {joined}, [mids, joined](ExecGraph& g) {
    MatrixF sum = g.slot(mids[0]);
    for (std::size_t i = 1; i < mids.size(); ++i) {
      const MatrixF& m = g.slot(mids[i]);
      for (std::size_t j = 0; j < sum.size(); ++j)
        sum.data()[j] += m.data()[j];
    }
    g.slot(joined) = std::move(sum);
  });
  d.weights.push_back(
      pack_for_test(format, random_matrix(n, wide_n, 200), 8));
  d.out = d.graph.add_slot("out");
  d.graph.add_gemm("wide", d.weights.back().get(), joined, d.out);
  return d;
}

class SchedulerDeterminism : public ::testing::TestWithParam<std::string> {};

TEST_P(SchedulerDeterminism, BitIdenticalToSingleStreamAcrossStreams) {
  const std::string format = GetParam();
  const MatrixF a = random_matrix(33, 40, 9);

  DiamondGraph reference = make_diamond(format, 40, 56, 192);
  SchedulerOptions serial;
  serial.streams = 1;
  ExecScheduler single(serial);
  reference.graph.slot(reference.in) = a;
  single.run(reference.graph);
  const MatrixF expected = reference.graph.slot(reference.out);
  ASSERT_EQ(expected.rows(), a.rows());

  // A private pool with real workers: the determinism claim must hold
  // under true cross-thread execution even when the host (or a CI
  // sandbox) reports a single core and the global pool has no workers.
  ThreadPool pool(3);
  for (const std::size_t streams : {2u, 4u, 8u}) {
    DiamondGraph d = make_diamond(format, 40, 56, 192);
    SchedulerOptions options;
    options.streams = streams;
    options.dispatch_overhead_us = 0.0;  // no cost floor: always shard
    ExecScheduler scheduler(options, &pool);
    // Repeated runs through the same scheduler reuse the plan.
    for (int rep = 0; rep < 3; ++rep) {
      d.graph.slot(d.in) = a;
      scheduler.run(d.graph);
      EXPECT_TRUE(bit_identical(d.graph.slot(d.out), expected))
          << format << " diverged at streams=" << streams << " rep=" << rep;
    }
    // Every built-in format runs row ranges exactly: each computes a
    // row of C from the same row of A alone (int8 scales are per row).
    EXPECT_EQ(scheduler.last_stats().sharded_nodes, 5u)
        << format << " should shard every GEMM";
  }
}

INSTANTIATE_TEST_SUITE_P(AllFormats, SchedulerDeterminism,
                         ::testing::Values("dense", "tw", "tew", "csr",
                                           "tw-int8"));

// ------------------------------------------------------ fused epilogues

/// in -> [gemm + bias + GELU] -> mid -> [gemm + bias + residual] -> out,
/// the two epilogue shapes the BERT graph uses.
struct EpilogueGraph {
  ExecGraph graph;
  ExecGraph::SlotId in = 0, residual = 0, out = 0;
};

/// The unfused reference bias add: m[r][j] += bias[j].
void add_bias_rows(MatrixF& m, const MatrixF& bias) {
  for (std::size_t r = 0; r < m.rows(); ++r)
    for (std::size_t j = 0; j < m.cols(); ++j) m(r, j) += bias(0, j);
}

void build_epilogue_graph(EpilogueGraph& e, const PackedWeight* w1,
                          const MatrixF& b1, const PackedWeight* w2,
                          const MatrixF& b2) {
  e.in = e.graph.add_slot("in");
  e.residual = e.graph.add_slot("residual");
  e.graph.mark_input(e.in);
  e.graph.mark_input(e.residual);
  const auto mid = e.graph.add_slot("mid");
  e.out = e.graph.add_slot("out");
  e.graph.mark_output(e.out);
  GemmEpilogue gelu;
  gelu.bias = &b1;
  gelu.activation = GemmActivation::kGelu;
  e.graph.add_gemm("up", w1, e.in, mid, ExecContext{}, gelu);
  GemmEpilogue residual;
  residual.bias = &b2;
  residual.residual = e.residual;
  e.graph.add_gemm("down", w2, mid, e.out, ExecContext{}, residual);
}

TEST(FusedEpilogueTest, BitIdenticalToUnfusedOpsAcrossFormats) {
  // M = 21 in 4 row shards puts shard edges at rows 6, 11 and 16, two of
  // them inside a 6-row micro-kernel tile; N = 150 and 100 are not
  // multiples of the 8-lane GELU body.
  const std::size_t m = 21, k = 40, n1 = 150, n2 = 100;
  const MatrixF a = random_matrix(m, k, 31);
  const MatrixF res = random_matrix(m, n2, 32);
  const MatrixF b1 = random_matrix(1, n1, 33);
  const MatrixF b2 = random_matrix(1, n2, 34);
  ThreadPool pool(3);
  for (const std::string format : {"dense", "tw", "tew", "csr", "tw-int8"}) {
    const auto w1 = pack_for_test(format, random_matrix(k, n1, 35), 8);
    const auto w2 = pack_for_test(format, random_matrix(n1, n2, 36), 8);

    // Unfused reference: matmul, bias, per-row GELU, residual add.
    MatrixF mid = w1->matmul(ExecContext{}, a);
    add_bias_rows(mid, b1);
    for (std::size_t r = 0; r < m; ++r)
      gelu_row(mid.data() + r * n1, mid.data() + r * n1, n1);
    MatrixF expected = w2->matmul(ExecContext{}, mid);
    add_bias_rows(expected, b2);
    for (std::size_t i = 0; i < expected.size(); ++i)
      expected.data()[i] += res.data()[i];

    for (const bool sharded : {false, true}) {
      SchedulerOptions options;
      options.streams = sharded ? 4 : 1;
      options.dispatch_overhead_us = 0.0;
      ExecScheduler scheduler(options, &pool);
      EpilogueGraph e;
      build_epilogue_graph(e, w1.get(), b1, w2.get(), b2);
      for (int rep = 0; rep < 2; ++rep) {
        e.graph.slot(e.in) = a;
        e.graph.slot(e.residual) = res;
        scheduler.run(e.graph);
        EXPECT_TRUE(bit_identical(e.graph.slot(e.out), expected))
            << format << (sharded ? " sharded" : " serial") << " rep=" << rep;
      }
      if (sharded) {
        EXPECT_EQ(scheduler.last_stats().sharded_nodes, 2u) << format;
        EXPECT_EQ(scheduler.last_stats().shards, 8u) << format;
      }
    }
  }
}

TEST(FusedEpilogueTest, LinearMatchesForwardPackedOrNot) {
  // Linear::add_to_graph with GELU and a residual, as a GEMM node over
  // a packed weight and as a host node over the dense master weight,
  // against forward() followed by the GELU row kernel and the add.
  Rng rng(37);
  Linear layer("fc", 24, 40, rng);
  fill_normal(layer.bias().value, rng);
  const MatrixF x = random_matrix(9, 24, 38);
  const MatrixF res = random_matrix(9, 40, 39);
  for (const bool packed : {false, true}) {
    if (packed) layer.pack_weight("dense");
    MatrixF expected = layer.forward(x);
    for (std::size_t r = 0; r < expected.rows(); ++r)
      gelu_row(expected.data() + r * 40, expected.data() + r * 40, 40);
    for (std::size_t i = 0; i < expected.size(); ++i)
      expected.data()[i] += res.data()[i];

    ExecGraph g;
    const auto in = g.add_slot("in");
    const auto skip = g.add_slot("skip");
    const auto out = g.add_slot("out");
    g.mark_input(in);
    g.mark_input(skip);
    g.mark_output(out);
    layer.add_to_graph(g, in, out, GemmActivation::kGelu, skip);
    EXPECT_EQ(g.nodes().back().kind, packed ? ExecGraph::NodeKind::kGemm
                                            : ExecGraph::NodeKind::kHost);
    EXPECT_EQ(g.nodes().back().reads,
              (std::vector<ExecGraph::SlotId>{in, skip}));
    g.slot(in) = x;
    g.slot(skip) = res;
    g.execute_node(g.topo_order().back());
    EXPECT_TRUE(bit_identical(g.slot(out), expected))
        << (packed ? "packed" : "host");
  }
}

// ------------------------------------------------------------ row shards

/// Copies `part` into rows [r0, r0 + part.rows()) of `whole`.
void put_rows(MatrixF& whole, std::size_t r0, const MatrixF& part) {
  std::memcpy(whole.data() + r0 * whole.cols(), part.data(),
              part.size() * sizeof(float));
}

TEST(RowShardTest, AllFormatsRowRangesExactOnRaggedShapes) {
  // Row views of A run through the whole weight into row views of C:
  // shard counts that do not divide M = 37, ranges splitting the 6-row
  // micro-kernel tile and the TW kernels' 96-row chunks' remainder,
  // one-row shards, under fp32 and fp16 activations alike.
  for (const Numerics numerics : {Numerics::kFp32, Numerics::kFp16}) {
    ExecContext ctx;
    ctx.numerics = numerics;
    for (const std::string format : {"dense", "csr", "tw", "tew", "tw-int8"}) {
      const MatrixF w = random_matrix(37, 117, 21);
      const MatrixF a = random_matrix(37, 37, 22);
      const auto packed = pack_for_test(format, w, 8);
      const MatrixF whole = packed->matmul(ctx, a);

      for (const std::size_t shards : {2u, 3u, 5u, 37u}) {
        MatrixF joined(a.rows(), w.cols());
        for (std::size_t s = 0; s < shards; ++s) {
          const auto [r0, r1] = row_shard(a.rows(), 1, shards, s);
          MatrixF rows = joined.row_view(r0, r1);
          packed->matmul(ctx, a.row_view(r0, r1), rows);
        }
        EXPECT_TRUE(bit_identical(joined, whole))
            << format << (numerics == Numerics::kFp16 ? " fp16" : " fp32")
            << " row shards diverged at shards=" << shards;
      }
    }
  }
}

TEST(RowShardTest, RowRangesAccumulateOntoC) {
  // With alpha = 1 the backends accumulate straight onto the (scaled) C
  // they are given: rows [r0, r1) of A * W + beta * C, computed through
  // row views, must match the same rows of the whole-matrix call.
  const MatrixF w = random_matrix(37, 117, 23);
  const MatrixF a = random_matrix(13, 37, 24);
  const MatrixF c0 = random_matrix(13, 117, 25);
  ExecContext ctx;
  ctx.beta = 0.5f;
  for (const std::string format : {"dense", "csr", "tw", "tew", "tw-int8"}) {
    const auto packed = pack_for_test(format, w, 8);
    MatrixF whole = c0;
    packed->matmul(ctx, a, whole);
    for (const auto& [r0, r1] : {std::pair<std::size_t, std::size_t>{0, 13},
                                 {2, 7},
                                 {6, 7},
                                 {9, 13}}) {
      MatrixF c = c0;
      MatrixF rows = c.row_view(r0, r1);
      packed->matmul(ctx, a.row_view(r0, r1), rows);
      EXPECT_TRUE(bit_identical(rows, whole.row_view(r0, r1)))
          << format << " rows [" << r0 << ", " << r1 << ")";
      // Rows outside the range are untouched.
      EXPECT_TRUE(bit_identical(c.row_view(0, r0), c0.row_view(0, r0)))
          << format;
      EXPECT_TRUE(bit_identical(c.row_view(r1, 13), c0.row_view(r1, 13)))
          << format;
    }
  }
}

/// in -> [up + bias + GELU] -> mid -> [LayerNorm] -> normed ->
/// [down + bias + residual(in)] -> out: every row-range node kind a
/// BERT block uses, with the GEMMs at `threads` kernel threads.
struct RowGraph {
  ExecGraph graph;
  ExecGraph::SlotId in = 0, out = 0;
};

void build_row_graph(RowGraph& g, const PackedWeight* up, const MatrixF& b1,
                     const LayerNorm& ln, const PackedWeight* down,
                     const MatrixF& b2, ExecContext ctx) {
  g.in = g.graph.add_slot("in");
  g.graph.mark_input(g.in);
  const auto mid = g.graph.add_slot("mid");
  const auto normed = g.graph.add_slot("normed");
  g.out = g.graph.add_slot("out");
  g.graph.mark_output(g.out);
  GemmEpilogue gelu;
  gelu.bias = &b1;
  gelu.activation = GemmActivation::kGelu;
  g.graph.add_gemm("up", up, g.in, mid, ctx, gelu);
  ln.add_to_graph(g.graph, "ln", mid, normed);
  GemmEpilogue residual;
  residual.bias = &b2;
  residual.residual = g.in;
  g.graph.add_gemm("down", down, normed, g.out, ctx, residual);
}

TEST(RowShardTest, ShardsAndThreadsMatchSerialAcrossFormats) {
  // Row shards ≡ serial and threads ≡ serial: every format, at every
  // stream count and kernel thread count, on ragged M (1 row, fewer
  // rows than streams, M not a multiple of the micro-kernel's 6-row
  // tile, a full prefill batch), is bit-identical to a single-stream,
  // single-thread run of the same graph.
  const std::size_t k = 40, hidden = 56;
  const MatrixF b1 = random_matrix(1, hidden, 41);
  const MatrixF b2 = random_matrix(1, k, 42);
  LayerNorm ln("ln", hidden);
  {
    Rng rng(43);
    for (Param* p : ln.params()) fill_normal(p->value, rng);
  }
  const std::vector<std::size_t> ms = {1, 5, 13, 37, 256};
  ThreadPool pool(3);
  for (const Numerics numerics : {Numerics::kFp32, Numerics::kFp16}) {
    for (const std::string format : {"dense", "tw", "tew", "csr", "tw-int8"}) {
      const auto up = pack_for_test(format, random_matrix(k, hidden, 44), 8);
      const auto down = pack_for_test(format, random_matrix(hidden, k, 45), 8);
      const std::string label =
          format + (numerics == Numerics::kFp16 ? " fp16" : " fp32");

      // References: one stream, one kernel thread.
      std::vector<MatrixF> expected;
      {
        ExecContext ctx;
        ctx.numerics = numerics;
        ctx.threads = 1;
        RowGraph g;
        build_row_graph(g, up.get(), b1, ln, down.get(), b2, ctx);
        SchedulerOptions serial;
        serial.streams = 1;
        ExecScheduler scheduler(serial);
        for (const std::size_t m : ms) {
          g.graph.slot(g.in) = random_matrix(m, k, 46 + m);
          scheduler.run(g.graph);
          expected.push_back(g.graph.slot(g.out));
        }
      }

      for (const int threads : {1, 2, 3, 4}) {
        ExecContext ctx;
        ctx.numerics = numerics;
        ctx.threads = threads;
        RowGraph g;
        build_row_graph(g, up.get(), b1, ln, down.get(), b2, ctx);
        for (const std::size_t streams : {1u, 2u, 3u, 4u}) {
          SchedulerOptions options;
          options.streams = streams;
          options.dispatch_overhead_us = 0.0;
          ExecScheduler scheduler(options, &pool);
          // One graph and one cached plan serve every M, in either
          // order (shrinking M reallocates the output slots).
          for (std::size_t i = 0; i < ms.size(); ++i) {
            g.graph.slot(g.in) = random_matrix(ms[i], k, 46 + ms[i]);
            scheduler.run(g.graph);
            EXPECT_TRUE(bit_identical(g.graph.slot(g.out), expected[i]))
                << label << " M=" << ms[i] << " streams=" << streams
                << " threads=" << threads;
            const std::size_t given = std::min<std::size_t>(streams, ms[i]);
            const ExecScheduler::RunStats& stats = scheduler.last_stats();
            EXPECT_EQ(stats.sharded_nodes, given > 1 ? 3u : 0u)
                << label << " M=" << ms[i] << " streams=" << streams;
            EXPECT_EQ(stats.shards, given > 1 ? 3 * given : 0u)
                << label << " M=" << ms[i] << " streams=" << streams;
          }
        }
      }
    }
  }
}

TEST(RowShardTest, CostFloorKeepsSmallNodesWhole) {
  // The calibration's dispatch cost is priced at the run's rows: with a
  // floor no node reaches, every row-range node runs as one shard, and
  // the result is still the serial one.
  const MatrixF w = random_matrix(32, 48, 47);
  const auto packed = make_packed("dense", w);
  const MatrixF a = random_matrix(64, 32, 48);
  const MatrixF expected = packed->matmul(ExecContext{}, a);
  ExecGraph g;
  const auto in = g.add_slot("in");
  const auto out = g.add_slot("out");
  g.add_gemm("gemm", packed.get(), in, out);
  ThreadPool pool(3);
  SchedulerOptions options;
  options.streams = 4;
  options.dispatch_overhead_us = 1e9;
  ExecScheduler scheduler(options, &pool);
  g.slot(in) = a;
  scheduler.run(g);
  EXPECT_TRUE(bit_identical(g.slot(out), expected));
  EXPECT_EQ(scheduler.last_stats().sharded_nodes, 0u);
  EXPECT_EQ(scheduler.last_stats().tasks, 4u);  // one per stream, 3 empty
}

TEST(RowShardTest, LayerNormRowRangesMatchInfer) {
  // LayerNorm is a row-range host node over layer_norm_row: row ranges
  // through execute_rows and scheduled runs at 1 to 4 streams are
  // bit-identical to LayerNorm::infer.
  const std::size_t dim = 56;
  LayerNorm ln("ln", dim);
  Rng rng(49);
  for (Param* p : ln.params()) fill_normal(p->value, rng);
  ExecGraph graph;
  const auto in = graph.add_slot("x");
  const auto out = graph.add_slot("y");
  graph.mark_input(in);
  graph.mark_output(out);
  const ExecGraph::NodeId node = ln.add_to_graph(graph, "ln", in, out);
  ASSERT_TRUE(graph.nodes()[node].row_ranged());
  EXPECT_EQ(graph.nodes()[node].row_step, 1u);
  EXPECT_EQ(graph.nodes()[node].width, dim);

  ThreadPool pool(3);
  for (const std::size_t m : {1u, 5u, 37u}) {
    const MatrixF x = random_matrix(m, dim, 50 + m);
    const MatrixF expected = ln.infer(x);
    for (const std::size_t streams : {1u, 2u, 3u, 4u}) {
      SchedulerOptions options;
      options.streams = streams;
      options.dispatch_overhead_us = 0.0;
      ExecScheduler scheduler(options, &pool);
      graph.slot(in) = x;
      scheduler.run(graph);
      EXPECT_TRUE(bit_identical(graph.slot(out), expected))
          << "M=" << m << " streams=" << streams;
    }
    graph.slot(out) = MatrixF();
    graph.size_output(node);
    for (std::size_t r0 = 0; r0 < m; r0 += 2)
      graph.execute_rows(node, r0, std::min(m, r0 + 2));
    EXPECT_TRUE(bit_identical(graph.slot(out), expected)) << "M=" << m;
  }
}

/// The attention block of `attn` as a graph over `in` -> `out`; returns
/// the core node.
ExecGraph::NodeId build_attention_graph(const MultiHeadAttention& attn,
                                        ExecGraph& graph,
                                        ExecGraph::SlotId& in,
                                        ExecGraph::SlotId& out) {
  in = graph.add_slot("x");
  out = graph.add_slot("y");
  graph.mark_input(in);
  attn.add_to_graph(graph, in, out);
  graph.mark_output(out);
  for (ExecGraph::NodeId id = 0; id < graph.node_count(); ++id) {
    const ExecGraph::Node& node = graph.nodes()[id];
    if (node.kind == ExecGraph::NodeKind::kHost && node.row_ranged()) return id;
  }
  return graph.node_count();
}

TEST(RowShardTest, AttentionSequenceRangesMatchWholeCore) {
  // The attention core is a row-range node with one sequence as its row
  // step.  Scheduled runs at 1 to 4 streams over 1 to 9 sequences
  // (fewer sequences than streams included) are bit-identical to
  // forward(), which runs the core whole and fills its probability
  // cache, and sequence ranges through execute_rows match the whole
  // core.  seq 20 is a multiple of neither kernel tile edge (kMr 6,
  // kNr 16); head_dim 16 and 64 span one and four kNr strips.
  ThreadPool pool(3);
  for (const std::size_t seq : {16u, 20u}) {
    for (const std::size_t head_dim : {16u, 64u}) {
      const std::size_t heads = 4, dim = heads * head_dim;
      Rng rng(31 + seq + head_dim);
      MultiHeadAttention attn("attn", dim, heads, seq, rng);
      ExecGraph graph;
      ExecGraph::SlotId in = 0, out = 0;
      const ExecGraph::NodeId core =
          build_attention_graph(attn, graph, in, out);
      ASSERT_LT(core, graph.node_count());
      ASSERT_EQ(graph.nodes()[core].row_step, seq);
      const std::string shape =
          " seq " + std::to_string(seq) + " head_dim " + std::to_string(head_dim);

      for (std::size_t batch = 1; batch <= 9; ++batch) {
        const MatrixF x = random_matrix(batch * seq, dim, 32 + seq + batch);
        const MatrixF y_forward = attn.forward(x);
        for (const std::size_t streams : {1u, 2u, 3u, 4u}) {
          SchedulerOptions options;
          options.streams = streams;
          options.dispatch_overhead_us = 0.0;
          ExecScheduler scheduler(options, &pool);
          graph.slot(in) = x;
          scheduler.run(graph);
          EXPECT_TRUE(bit_identical(graph.slot(out), y_forward))
              << "batch " << batch << " streams " << streams << shape;
          // The projections are unpacked (host nodes); the core splits
          // into one range of whole sequences per stream, as far as the
          // sequences go.
          const std::size_t given = std::min(streams, batch);
          const ExecScheduler::RunStats& stats = scheduler.last_stats();
          EXPECT_EQ(stats.sharded_nodes, given > 1 ? 1u : 0u)
              << "batch " << batch << " streams " << streams << shape;
          EXPECT_EQ(stats.shards, given > 1 ? given : 0u)
              << "batch " << batch << " streams " << streams << shape;
        }
      }

      // Uneven sequence ranges of a 4-sequence batch against the whole.
      const MatrixF x = random_matrix(4 * seq, dim, 33 + seq);
      graph.slot(in) = x;
      SchedulerOptions serial;
      serial.streams = 1;
      ExecScheduler(serial).run(graph);
      const MatrixF whole = graph.slot(graph.nodes()[core].out);
      for (const std::vector<std::size_t>& split :
           {std::vector<std::size_t>{1, 1, 1, 1}, {1, 3}, {2, 2}, {3, 1}}) {
        graph.slot(graph.nodes()[core].out) = MatrixF();
        graph.size_output(core);
        std::size_t r0 = 0;
        for (const std::size_t sequences : split) {
          graph.execute_rows(core, r0, r0 + sequences * seq);
          r0 += sequences * seq;
        }
        EXPECT_TRUE(bit_identical(graph.slot(graph.nodes()[core].out), whole))
            << "split of " << split.size() << " ranges" << shape;
      }
    }
  }
}

TEST(RowShardTest, RejectsOffStepRanges) {
  Rng rng(51);
  MultiHeadAttention attn("attn", 32, 4, 8, rng);
  ExecGraph graph;
  ExecGraph::SlotId in = 0, out = 0;
  const ExecGraph::NodeId core = build_attention_graph(attn, graph, in, out);
  ASSERT_LT(core, graph.node_count());
  graph.slot(in) = random_matrix(24, 32, 52);
  for (const ExecGraph::NodeId id : graph.topo_order()) {
    if (id == core) break;
    graph.execute_node(id);
  }
  // The output slot is unsized until size_output().
  EXPECT_THROW(graph.execute_rows(core, 0, 8), CheckError);
  graph.size_output(core);
  EXPECT_NO_THROW(graph.execute_rows(core, 8, 16));
  EXPECT_NO_THROW(graph.execute_rows(core, 16, 16));  // empty: a no-op
  EXPECT_THROW(graph.execute_rows(core, 0, 12), CheckError);   // half a sequence
  EXPECT_THROW(graph.execute_rows(core, 4, 16), CheckError);   // off step
  EXPECT_THROW(graph.execute_rows(core, 16, 32), CheckError);  // past M
  EXPECT_THROW(graph.execute_rows(core, 16, 8), CheckError);   // reversed

  // A batch that is not whole sequences is rejected serially (the whole
  // range is off the step) and sharded (the row audit's step finding).
  ThreadPool pool(3);
  for (const std::size_t streams : {1u, 2u}) {
    SchedulerOptions options;
    options.streams = streams;
    options.dispatch_overhead_us = 0.0;
    ExecScheduler scheduler(options, &pool);
    graph.slot(in) = random_matrix(20, 32, 53);
    EXPECT_ANY_THROW(scheduler.run(graph)) << "streams " << streams;
  }
}

// ----------------------------------------------------- model graph paths

TEST(ModelGraphTest, BertGraphForwardBitIdenticalToSyncAcrossFormats) {
  const BertMiniConfig config;
  TokenTeacherDataset dataset(64, config.seq, config.classes, config.dim, 77);
  BertMini model(config, dataset.embedding());
  Rng rng(123);
  const TokenBatch batch = dataset.sample(24, rng);

  ThreadPool pool(3);
  for (const std::string format : {"dense", "csr"}) {
    model.pack_weights(format);
    const MatrixF sync = model.forward(batch);

    for (const std::size_t streams : {1u, 4u}) {
      SchedulerOptions options;
      options.streams = streams;
      options.dispatch_overhead_us = 0.0;
      ExecScheduler scheduler(options, &pool);
      model.set_exec_scheduler(&scheduler);
      const MatrixF scheduled = model.forward(batch);
      model.set_exec_scheduler(nullptr);
      EXPECT_TRUE(bit_identical(scheduled, sync))
          << format << " graph forward diverged at streams=" << streams;
    }
    model.clear_packed_weights();
  }
}

TEST(ModelGraphTest, BertGraphExposesAttentionParallelism) {
  const BertMiniConfig config;
  TokenTeacherDataset dataset(64, config.seq, config.classes, config.dim, 78);
  BertMini model(config, dataset.embedding());
  model.pack_weights("dense");
  ExecGraph& graph = model.build_exec_graph();
  // Q, K, V of one block are mutually independent GEMM nodes.
  EXPECT_GE(graph.max_gemm_width(), 3u);
  EXPECT_GT(graph.node_count(), 6u * config.layers);
}

TEST(ModelGraphTest, NmtGraphForwardBitIdenticalToSync) {
  ReverseDataset dataset(NmtMiniConfig{}.vocab, NmtMiniConfig{}.seq, 80);
  NmtMini model(NmtMiniConfig{});
  Rng rng(7);
  const Seq2SeqBatch batch = dataset.sample(16, rng);

  model.pack_weights("dense");
  const MatrixF sync = model.forward(batch);
  ThreadPool pool(3);
  SchedulerOptions options;
  options.streams = 4;
  ExecScheduler scheduler(options, &pool);
  model.set_exec_scheduler(&scheduler);
  const MatrixF scheduled = model.forward(batch);
  model.set_exec_scheduler(nullptr);
  model.clear_packed_weights();
  EXPECT_TRUE(bit_identical(scheduled, sync));
  // Encoder and decoder input projections are independent.
  model.pack_weights("dense");
  EXPECT_GE(model.build_exec_graph().max_gemm_width(), 2u);
  model.clear_packed_weights();
}

TEST(ModelGraphTest, GraphRebuildsWhenBackendsAreReplacedBehindIt) {
  // A graph built against one set of backends must NOT serve through
  // them after they are replaced by a path that bypasses pack_weights
  // (regression: an artifact load straight into the layers left the
  // cached graph holding dangling PackedWeight refs).
  const BertMiniConfig config;
  TokenTeacherDataset dataset(64, config.seq, config.classes, config.dim, 79);
  BertMini model(config, dataset.embedding());
  Rng rng(5);
  const TokenBatch batch = dataset.sample(8, rng);

  SchedulerOptions options;
  options.streams = 2;
  ThreadPool pool(2);
  ExecScheduler scheduler(options, &pool);
  model.pack_weights("dense");
  model.set_exec_scheduler(&scheduler);
  (void)model.forward(batch);  // builds the graph over the current backends

  // Replace every backend behind the model's back, as an artifact load
  // does, then forward again: must re-bind, not use the freed weights.
  for (Linear* layer : model.prunable_layers()) {
    layer->set_packed_weight(make_packed("csr", layer->weight().value));
  }
  const MatrixF scheduled = model.forward(batch);
  model.set_exec_scheduler(nullptr);
  const MatrixF sync = model.forward(batch);
  model.clear_packed_weights();
  EXPECT_TRUE(bit_identical(scheduled, sync));
}

TEST(ModelGraphTest, EvaluateWithFormatThroughSchedulerMatchesSync) {
  auto task = make_bert_cls_task(/*pretrain_steps=*/8);
  const double sync = evaluate_with_format(*task, "dense");
  SchedulerOptions options;
  options.streams = 4;
  const double scheduled =
      evaluate_with_format(*task, "dense", nullptr, ExecContext{}, options);
  EXPECT_DOUBLE_EQ(scheduled, sync);
}

TEST(ModelGraphTest, VggEvaluateWithFormatServesPacked) {
  // The CNN task now routes its im2col GEMMs through PackedWeight.
  auto task = make_vgg_task(/*pretrain_steps=*/8);
  const double dense_eval = task->evaluate();
  const double packed_eval = evaluate_with_format(*task, "dense");
  EXPECT_NEAR(packed_eval, dense_eval, 1e-6);
  const double csr_eval = evaluate_with_format(*task, "csr");
  EXPECT_NEAR(csr_eval, dense_eval, 1e-6);
}

// ------------------------------------------------------- error handling

TEST(SchedulerTest, HostNodeExceptionPropagates) {
  ExecGraph g;
  const auto s = g.add_slot("s");
  g.add_host("boom", {}, {s}, [](ExecGraph&) {
    throw std::runtime_error("node failure");
  });
  // A few dependents that must be abandoned cleanly.
  for (int i = 0; i < 4; ++i) {
    g.add_host("after" + std::to_string(i), {s}, {},
               [](ExecGraph&) {});
  }
  ThreadPool pool(3);
  SchedulerOptions options;
  options.streams = 4;
  ExecScheduler scheduler(options, &pool);
  EXPECT_THROW(scheduler.run(g), std::runtime_error);
  // The scheduler must stay usable after a failed run.
  ExecGraph ok;
  const auto t = ok.add_slot("t");
  std::atomic<int> runs{0};
  ok.add_host("fine", {}, {t}, [&runs](ExecGraph&) { ++runs; });
  scheduler.run(ok);
  EXPECT_EQ(runs.load(), 1);
}

TEST(SchedulerTest, RecoversBitIdenticalAfterMidGraphThrow) {
  // Serving-runtime regression: a worker's scheduler absorbs a node
  // exception mid-graph and must then serve healthy GEMM graphs with
  // bit-identical results — no stale plan, stream, or pool state may
  // leak out of the failed run.  Several failure/recovery cycles, since
  // the first recovery can pass while a later one trips on residue.
  const MatrixF w = random_matrix(32, 64, 21);
  const MatrixF a = random_matrix(9, 32, 22);
  const auto packed = make_packed("dense", w);
  const MatrixF expected = packed->matmul(ExecContext{}, a);

  ThreadPool pool(3);
  SchedulerOptions options;
  options.streams = 4;
  ExecScheduler scheduler(options, &pool);

  for (int cycle = 0; cycle < 5; ++cycle) {
    ExecGraph bad;
    const auto in = bad.add_slot("in");
    const auto mid = bad.add_slot("mid");
    bad.add_gemm("gemm", packed.get(), in, mid);
    bad.add_host("boom", {mid}, {}, [](ExecGraph&) {
      throw std::runtime_error("mid-graph node failure");
    });
    bad.slot(in) = a;
    EXPECT_THROW(scheduler.run(bad), std::runtime_error);

    ExecGraph good;
    const auto gin = good.add_slot("in");
    const auto gout = good.add_slot("out");
    good.add_gemm("gemm", packed.get(), gin, gout);
    good.slot(gin) = a;
    scheduler.run(good);
    ASSERT_TRUE(bit_identical(good.slot(gout), expected)) << "cycle " << cycle;
  }
}

TEST(SchedulerTest, ReplansWhenTheGraphGrowsNewNodes) {
  // The plan cache is keyed on (build id, node count, streams); a graph
  // that gained nodes between runs of the SAME scheduler must be
  // re-expanded, not indexed with the stale plan (regression: this was
  // an out-of-bounds read).
  const MatrixF w = random_matrix(24, 48, 5);
  const auto packed = make_packed("dense", w);
  ExecGraph g;
  const auto in = g.add_slot("in");
  const auto mid = g.add_slot("mid");
  g.add_gemm("first", packed.get(), in, mid);

  ThreadPool pool(3);
  SchedulerOptions options;
  options.streams = 4;
  ExecScheduler scheduler(options, &pool);
  g.slot(in) = random_matrix(7, 24, 6);
  scheduler.run(g);
  const std::size_t tasks_before = scheduler.last_stats().tasks;

  const auto w2 = make_packed("dense", random_matrix(48, 16, 8));
  const auto out = g.add_slot("out");
  g.add_gemm("second", w2.get(), mid, out);
  scheduler.run(g);
  EXPECT_GT(scheduler.last_stats().tasks, tasks_before);
  EXPECT_EQ(g.slot(out).cols(), 16u);
  const MatrixF expected = w2->matmul(ExecContext{}, g.slot(mid));
  EXPECT_TRUE(bit_identical(g.slot(out), expected));
}

TEST(SchedulerTest, EmptyGraphIsANoop) {
  ExecGraph g;
  ExecScheduler scheduler;
  EXPECT_NO_THROW(scheduler.run(g));
  EXPECT_EQ(scheduler.last_stats().tasks, 0u);
}

}  // namespace
}  // namespace tilesparse
