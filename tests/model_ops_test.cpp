#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "exec/scheduler.hpp"
#include "gemm/fused_ops.hpp"
#include "nn/attention.hpp"
#include "nn/layers.hpp"
#include "nn/loss.hpp"
#include "prune/tw_pruner.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"
#include "workload/model_ops.hpp"
#include "workload/shapes.hpp"

#include "simd_levels.hpp"

namespace tilesparse {
namespace {

std::size_t count_kind(const std::vector<E2eOp>& ops, E2eOp::Kind kind) {
  std::size_t n = 0;
  for (const auto& op : ops) n += op.kind == kind;
  return n;
}

TEST(BertOps, Has72PrunableGemms) {
  const auto ops = build_bert_ops(128, 1);
  EXPECT_EQ(count_kind(ops, E2eOp::Kind::kGemm), 72u);
}

TEST(BertOps, GemmShapesMatchShapeList) {
  const auto ops = build_bert_ops(128, 1);
  const auto gemms = bert_base_gemms(128, 1);
  std::size_t gemm_index = 0;
  for (const auto& op : ops) {
    if (op.kind != E2eOp::Kind::kGemm) continue;
    ASSERT_LT(gemm_index, gemms.size());
    EXPECT_EQ(op.shape.m, gemms[gemm_index].shape.m);
    EXPECT_EQ(op.shape.n, gemms[gemm_index].shape.n);
    EXPECT_EQ(op.shape.k, gemms[gemm_index].shape.k);
    ++gemm_index;
  }
  EXPECT_EQ(gemm_index, gemms.size());
}

TEST(BertOps, PatternsAttachInOrder) {
  const auto gemms = bert_base_gemms(128, 1);
  std::vector<TilePattern> patterns;
  Rng rng(1);
  for (const auto& gemm : gemms) {
    MatrixF scores(gemm.shape.k, gemm.shape.n);
    fill_uniform(scores, rng, 0.1f, 1.0f);
    patterns.push_back(tw_pattern_from_scores(scores, 0.5, 128));
  }
  std::vector<const TilePattern*> ptrs;
  for (const auto& p : patterns) ptrs.push_back(&p);
  const auto ops = build_bert_ops(128, 1, &ptrs);
  std::size_t index = 0;
  for (const auto& op : ops) {
    if (op.kind != E2eOp::Kind::kGemm) continue;
    EXPECT_EQ(op.pattern, ptrs[index]);
    // Pattern dims must match the GEMM's weight dims.
    EXPECT_EQ(op.pattern->k, op.shape.k);
    EXPECT_EQ(op.pattern->n, op.shape.n);
    ++index;
  }
}

TEST(BertOps, HasFixedGemmsAndTransposes) {
  const auto ops = build_bert_ops(128, 1);
  EXPECT_EQ(count_kind(ops, E2eOp::Kind::kGemmFixed), 24u);  // 2 per layer
  EXPECT_EQ(count_kind(ops, E2eOp::Kind::kTranspose), 12u);  // 1 per layer
}

TEST(NmtOps, Has10PrunableGemms) {
  const auto ops = build_nmt_ops(32, 32);
  EXPECT_EQ(count_kind(ops, E2eOp::Kind::kGemm), 10u);
}

TEST(NmtOps, ElementwiseBytesArePositive) {
  for (const auto& op : build_nmt_ops(32, 32)) {
    if (op.kind == E2eOp::Kind::kElementwise) EXPECT_GT(op.bytes, 0.0);
  }
}

// ---- fused_ops vs nn layer consistency.  The layers call the row
// kernels, so the bits must match exactly, and each layer's const
// infer() path (what graph host nodes run) must match its forward().

bool bit_identical(const MatrixF& a, const MatrixF& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

TEST(Consistency, LayerNormLayerMatchesFusedKernel) {
  Rng rng(2);
  MatrixF x(6, 32);
  fill_normal(x, rng, 2.0f, 3.0f);

  LayerNorm layer("ln", 32);
  const MatrixF y_layer = layer.forward(x);

  std::vector<float> gamma(32, 1.0f), beta(32, 0.0f);
  MatrixF y_kernel(6, 32);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    layer_norm_row(x.data() + r * 32, y_kernel.data() + r * 32, 32,
                   gamma.data(), beta.data(), 1e-5f);
  }
  EXPECT_TRUE(bit_identical(y_layer, y_kernel));
  EXPECT_TRUE(bit_identical(layer.infer(x), y_layer));
}

TEST(Consistency, GeluLayerMatchesFusedKernel) {
  Rng rng(3);
  MatrixF x(4, 16);
  fill_normal(x, rng);
  MatrixF x2 = x;
  Gelu layer;
  const MatrixF y_layer = layer.forward(x);
  for (std::size_t r = 0; r < x2.rows(); ++r)
    gelu_row(x2.data() + r * 16, x2.data() + r * 16, 16);
  EXPECT_TRUE(bit_identical(y_layer, x2));
  EXPECT_TRUE(bit_identical(layer.infer(x), y_layer));
}

TEST(Consistency, InferPathsMatchForwardBits) {
  Rng rng(5);
  MatrixF x(8, 32);
  fill_normal(x, rng);

  Linear linear("fc", 32, 24, rng);
  fill_normal(linear.bias().value, rng);
  EXPECT_TRUE(bit_identical(linear.infer(x), linear.forward(x)));
  linear.pack_weight("dense");
  EXPECT_TRUE(bit_identical(linear.infer(x), linear.forward(x)));

  MeanPoolRows pool(4);
  EXPECT_TRUE(bit_identical(pool.infer(x), pool.forward(x)));

  // Attention: the graph's host node (attention_core without the
  // probability cache) against the layer-by-layer forward().
  MultiHeadAttention attn("attn", 32, 4, 4, rng);
  const MatrixF y_forward = attn.forward(x);
  ExecGraph graph;
  const ExecGraph::SlotId in = graph.add_slot("x");
  const ExecGraph::SlotId out = graph.add_slot("y");
  graph.mark_input(in);
  attn.add_to_graph(graph, in, out);
  graph.mark_output(out);
  graph.slot(in) = x;
  SchedulerOptions serial;
  serial.streams = 1;
  ExecScheduler scheduler(serial);
  scheduler.run(graph);
  EXPECT_TRUE(bit_identical(graph.slot(out), y_forward));
}

TEST(Consistency, AttentionCoreMatchesNaiveDotProducts) {
  // Pins attention_core's bits to plain per-(s, t) loops at every SIMD
  // level.  Both products run on the micro-kernel, which sums each
  // output over k ascending from 0 and adds the sum onto a zeroed
  // output: a score sums (scale * q_sd) * k_td over d, a context
  // element p_st * v_td over t.  At AVX2 each step is one std::fma; the
  // scalar kernel multiplies, rounds, then adds.  seq 20 is a multiple
  // of neither kernel tile edge (kMr 6, kNr 16); head_dim 64 spans four
  // kNr strips.
  struct Shape {
    std::size_t dim, heads, seq;
  };
  for (const Shape shape : {Shape{64, 4, 16}, Shape{128, 2, 20}}) {
    const std::size_t dim = shape.dim, heads = shape.heads, seq = shape.seq;
    const std::size_t batch = 3, head_dim = dim / heads;
    Rng rng(17);
    MultiHeadAttention attn("attn", dim, heads, seq, rng);
    for (Linear* layer : attn.projection_layers())
      fill_normal(layer->bias().value, rng, 0.0f, 0.1f);
    MatrixF x(batch * seq, dim);
    fill_normal(x, rng);
    const std::vector<Linear*> proj = attn.projection_layers();
    const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim));

    for (const SimdLevel level : testable_simd_levels()) {
      // The projections run at the level under test too.
      ScopedSimdLevel scoped(level);
      const MatrixF q = proj[0]->infer(x);
      const MatrixF k = proj[1]->infer(x);
      const MatrixF v = proj[2]->infer(x);
      const bool fused = level == SimdLevel::kAvx2;
      const auto step = [fused](float a, float b, float acc) {
        return fused ? std::fma(a, b, acc) : acc + a * b;
      };
      MatrixF context(x.rows(), dim);
      std::vector<float> scores(seq);
      for (std::size_t b = 0; b < batch; ++b) {
        for (std::size_t h = 0; h < heads; ++h) {
          const std::size_t col0 = h * head_dim;
          for (std::size_t s = 0; s < seq; ++s) {
            for (std::size_t t = 0; t < seq; ++t) {
              float dot = 0.0f;
              for (std::size_t d = 0; d < head_dim; ++d)
                dot = step(scale * q(b * seq + s, col0 + d),
                           k(b * seq + t, col0 + d), dot);
              scores[t] = 0.0f + dot;
            }
            softmax_row(scores.data(), seq);
            for (std::size_t d = 0; d < head_dim; ++d) {
              float acc = 0.0f;
              for (std::size_t t = 0; t < seq; ++t)
                acc = step(scores[t], v(b * seq + t, col0 + d), acc);
              context(b * seq + s, col0 + d) = 0.0f + acc;
            }
          }
        }
      }
      const MatrixF expected = proj[3]->infer(context);
      EXPECT_TRUE(bit_identical(attn.forward(x), expected))
          << simd_level_name(level) << " seq " << seq << " head_dim "
          << head_dim;
    }
  }
}

TEST(Consistency, SoftmaxRowsMatchesLossSoftmax) {
  // softmax_rows vs the softmax inside cross-entropy: probabilities must
  // agree.  Reconstruct p from the CE gradient: grad = (p - 1[label])/B.
  Rng rng(4);
  MatrixF logits(5, 7);
  fill_normal(logits, rng);
  MatrixF probs = logits;
  for (std::size_t r = 0; r < probs.rows(); ++r)
    softmax_row(probs.data() + r * probs.cols(), probs.cols());

  MatrixF dlogits;
  const std::vector<int> labels{0, 1, 2, 3, 4};
  softmax_cross_entropy(logits, labels, dlogits);
  const float batch = 5.0f;
  for (std::size_t r = 0; r < 5; ++r) {
    for (std::size_t c = 0; c < 7; ++c) {
      const float indicator = (static_cast<int>(c) == labels[r]) ? 1.0f : 0.0f;
      const float p_from_grad = dlogits(r, c) * batch + indicator;
      EXPECT_NEAR(p_from_grad, probs(r, c), 1e-5f);
    }
  }
}

}  // namespace
}  // namespace tilesparse
