#include "nn/attention.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "gemm/fused_ops.hpp"
#include "gemm/micro_kernel.hpp"
#include "util/guards.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace tilesparse {

MultiHeadAttention::MultiHeadAttention(std::string name, std::size_t dim,
                                       std::size_t heads, std::size_t seq,
                                       Rng& rng)
    : dim_(dim),
      heads_(heads),
      seq_(seq),
      head_dim_(dim / heads),
      q_(name + ".q", dim, dim, rng),
      k_(name + ".k", dim, dim, rng),
      v_(name + ".v", dim, dim, rng),
      out_(name + ".out", dim, dim, rng) {
  assert(dim % heads == 0);
}

std::vector<Param*> MultiHeadAttention::params() {
  std::vector<Param*> all;
  for (Layer* l : {static_cast<Layer*>(&q_), static_cast<Layer*>(&k_),
                   static_cast<Layer*>(&v_), static_cast<Layer*>(&out_)}) {
    for (Param* p : l->params()) all.push_back(p);
  }
  return all;
}

std::vector<Param*> MultiHeadAttention::projection_weights() {
  return {&q_.weight(), &k_.weight(), &v_.weight(), &out_.weight()};
}

std::vector<Linear*> MultiHeadAttention::projection_layers() {
  return {&q_, &k_, &v_, &out_};
}

namespace {

/// One (sequence, head) pair: S = softmax(scale * Q Kᵀ) into `scores`
/// (seq x seq, row-major; null = thread scratch), then context += S V.  `q`, `k` and `v` point
/// at the pair's first row and head column (leading dimension `ld`),
/// `context` at its first output element (leading dimension `ldc`,
/// zero on entry).  Both products run on micro_kernel_f32, so every
/// score and context element is one kernel accumulation over d (or t)
/// ascending from 0.
void attend_pair(const float* q, const float* k, const float* v,
                 std::size_t ld, std::size_t seq, std::size_t head_dim,
                 float scale, float* scores, float* context,
                 std::size_t ldc) {
  const std::size_t t_strips = (seq + kNr - 1) / kNr;
  const std::size_t d_strips = (head_dim + kNr - 1) / kNr;
  GemmScratch& scratch = thread_gemm_scratch();
  scratch.a_f32.resize(std::max(head_dim, seq) * kMr);
  scratch.b_f32.resize(std::max(t_strips * head_dim, d_strips * seq) * kNr);
  float* a_panel = scratch.a_f32.data();
  float* b_panels = scratch.b_f32.data();
  if (!scores) {
    scratch.acc_f32.resize(seq * seq);
    scores = scratch.acc_f32.data();
  }

  // Q·Kᵀ: the transposed K block packs straight into head_dim x kNr B
  // panels, one per kNr keys; the scale rides on the packed Q panel.
  for (std::size_t st = 0; st < t_strips; ++st) {
    const std::size_t t0 = st * kNr;
    pack_at_panel_f32(k + t0 * ld, ld, std::min(kNr, seq - t0), head_dim,
                      b_panels + st * head_dim * kNr);
  }
  std::fill(scores, scores + seq * seq, 0.0f);
  for (std::size_t s0 = 0; s0 < seq; s0 += kMr) {
    const std::size_t rows = std::min(kMr, seq - s0);
    pack_a_panel_f32(q + s0 * ld, ld, rows, head_dim, scale, false, a_panel);
    for (std::size_t st = 0; st < t_strips; ++st) {
      const std::size_t t0 = st * kNr;
      micro_kernel_f32(head_dim, a_panel, b_panels + st * head_dim * kNr,
                       scores + s0 * seq + t0, seq, rows,
                       std::min(kNr, seq - t0));
    }
  }
  for (std::size_t s = 0; s < seq; ++s) softmax_row(scores + s * seq, seq);

  // P·V: V's head columns pack as seq x kNr B panels (ldb = ld), and
  // the kernel writes straight into the context rows.
  for (std::size_t st = 0; st < d_strips; ++st) {
    const std::size_t d0 = st * kNr;
    pack_b_panel_f32(v + d0, ld, seq, std::min(kNr, head_dim - d0),
                     b_panels + st * seq * kNr);
  }
  for (std::size_t s0 = 0; s0 < seq; s0 += kMr) {
    const std::size_t rows = std::min(kMr, seq - s0);
    pack_a_panel_f32(scores + s0 * seq, seq, rows, seq, 1.0f, false, a_panel);
    for (std::size_t st = 0; st < d_strips; ++st) {
      const std::size_t d0 = st * kNr;
      micro_kernel_f32(seq, a_panel, b_panels + st * seq * kNr,
                       context + s0 * ldc + d0, ldc, rows,
                       std::min(kNr, head_dim - d0));
    }
  }
}

}  // namespace

void MultiHeadAttention::attention_core(const MatrixF& q, const MatrixF& k,
                                        const MatrixF& v, MatrixF& context,
                                        int threads,
                                        std::vector<MatrixF>* probs) const {
  TS_CHECK(q.rows() % seq_ == 0 && q.cols() == dim_,
           "MultiHeadAttention: core input must be whole sequences x dim");
  TS_CHECK(context.rows() == q.rows() && context.cols() == dim_,
           "MultiHeadAttention: context must be rows x dim");
  const std::size_t batch = q.rows() / seq_;
  TS_CHECK(!probs || probs->size() == batch * heads_,
           "MultiHeadAttention: probs must hold batch * heads matrices");
  const std::size_t pairs = batch * heads_;
  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim_));
  context.fill(0.0f);

#ifdef _OPENMP
  const int team = threads > 0 ? threads : omp_get_max_threads();
#else
  (void)threads;
#endif
#pragma omp parallel for schedule(static) num_threads(team)
  for (std::size_t p = 0; p < pairs; ++p) {
    const std::size_t b = p / heads_;
    const std::size_t h = p % heads_;
    const std::size_t offset = b * seq_ * dim_ + h * head_dim_;
    float* scores = probs ? (*probs)[p].data() : nullptr;
    attend_pair(q.data() + offset, k.data() + offset, v.data() + offset,
                dim_, seq_, head_dim_, scale, scores, context.data() + offset,
                dim_);
  }
}

MatrixF MultiHeadAttention::forward(const MatrixF& x) {
  assert(x.cols() == dim_ && x.rows() % seq_ == 0);
  q_act_ = q_.forward(x);
  k_act_ = k_.forward(x);
  v_act_ = v_.forward(x);
  MatrixF context(x.rows(), dim_);
  attn_.assign(x.rows() / seq_ * heads_, MatrixF(seq_, seq_));
  attention_core(q_act_, k_act_, v_act_, context, out_.exec_context().threads,
                 &attn_);
  return out_.forward(context);
}

ExecGraph::NodeId MultiHeadAttention::add_to_graph(
    ExecGraph& graph, ExecGraph::SlotId in, ExecGraph::SlotId out,
    std::optional<ExecGraph::SlotId> residual) const {
  const ExecGraph::SlotId q = graph.add_slot(q_.weight().name + ".act");
  const ExecGraph::SlotId k = graph.add_slot(k_.weight().name + ".act");
  const ExecGraph::SlotId v = graph.add_slot(v_.weight().name + ".act");
  const ExecGraph::SlotId context =
      graph.add_slot(out_.weight().name + ".context");
  q_.add_to_graph(graph, in, q);
  k_.add_to_graph(graph, in, k);
  v_.add_to_graph(graph, in, v);
  // Per output row: seq x head_dim MACs per head for each of Q·Kᵀ and P·V.
  const double macs_per_row = 2.0 * static_cast<double>(seq_ * dim_);
  const int threads = out_.exec_context().threads;
  graph.add_host_range(
      out_.weight().name + ".core", {q, k, v}, context, dim_, seq_,
      macs_per_row,
      [this, q, k, v, threads](const ExecGraph& g, std::size_t r0,
                               std::size_t r1, MatrixF& rows) {
        attention_core(g.slot(q).row_view(r0, r1), g.slot(k).row_view(r0, r1),
                       g.slot(v).row_view(r0, r1), rows, threads, nullptr);
      });
  return out_.add_to_graph(graph, context, out,
                           GemmActivation::kNone, residual);
}

MatrixF MultiHeadAttention::backward(const MatrixF& dy) {
  const std::size_t batch = dy.rows() / seq_;
  const MatrixF dcontext = out_.backward(dy);

  MatrixF dq(dy.rows(), dim_), dk(dy.rows(), dim_), dv(dy.rows(), dim_);
  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim_));

  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t h = 0; h < heads_; ++h) {
      const std::size_t col0 = h * head_dim_;
      const MatrixF& probs = attn_[b * heads_ + h];

      // dprobs(s, t) = <dcontext_s, v_t>;  dv_t += sum_s probs(s,t) dcontext_s.
      MatrixF dprobs(seq_, seq_);
      for (std::size_t s = 0; s < seq_; ++s) {
        const float* dcrow = dcontext.data() + (b * seq_ + s) * dim_ + col0;
        for (std::size_t t = 0; t < seq_; ++t) {
          const float* vrow = v_act_.data() + (b * seq_ + t) * dim_ + col0;
          float dot = 0.0f;
          for (std::size_t d = 0; d < head_dim_; ++d) dot += dcrow[d] * vrow[d];
          dprobs(s, t) = dot;
          float* dvrow = dv.data() + (b * seq_ + t) * dim_ + col0;
          const float p = probs(s, t);
          for (std::size_t d = 0; d < head_dim_; ++d) dvrow[d] += p * dcrow[d];
        }
      }
      // Softmax backward: dscore = p .* (dprob - sum_t p*dprob).
      MatrixF dscores(seq_, seq_);
      for (std::size_t s = 0; s < seq_; ++s) {
        float dot = 0.0f;
        for (std::size_t t = 0; t < seq_; ++t)
          dot += probs(s, t) * dprobs(s, t);
        for (std::size_t t = 0; t < seq_; ++t)
          dscores(s, t) = probs(s, t) * (dprobs(s, t) - dot);
      }
      // dq_s += scale * sum_t dscore(s,t) k_t;  dk_t += scale * sum_s dscore(s,t) q_s.
      for (std::size_t s = 0; s < seq_; ++s) {
        float* dqrow = dq.data() + (b * seq_ + s) * dim_ + col0;
        const float* qrow = q_act_.data() + (b * seq_ + s) * dim_ + col0;
        for (std::size_t t = 0; t < seq_; ++t) {
          const float ds = dscores(s, t) * scale;
          const float* krow = k_act_.data() + (b * seq_ + t) * dim_ + col0;
          float* dkrow = dk.data() + (b * seq_ + t) * dim_ + col0;
          for (std::size_t d = 0; d < head_dim_; ++d) {
            dqrow[d] += ds * krow[d];
            dkrow[d] += ds * qrow[d];
          }
        }
      }
    }
  }

  MatrixF dx = q_.backward(dq);
  const MatrixF dxk = k_.backward(dk);
  const MatrixF dxv = v_.backward(dv);
  for (std::size_t i = 0; i < dx.size(); ++i)
    dx.data()[i] += dxk.data()[i] + dxv.data()[i];
  return dx;
}

}  // namespace tilesparse
