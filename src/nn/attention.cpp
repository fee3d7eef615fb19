#include "nn/attention.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "gemm/fused_ops.hpp"

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

void MultiHeadAttention::attention_core(const MatrixF& q, const MatrixF& k,
                                        const MatrixF& v, MatrixF& context,
                                        std::vector<MatrixF>* probs) const {
  const std::size_t batch = q.rows() / seq_;
  if (probs) probs->assign(batch * heads_, MatrixF(seq_, seq_));
  MatrixF scratch(seq_, seq_);
  std::vector<float> kt(head_dim_ * seq_);  // this head's K^T, d-major
  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim_));

  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t h = 0; h < heads_; ++h) {
      const std::size_t col0 = h * head_dim_;
      for (std::size_t t = 0; t < seq_; ++t) {
        const float* krow = k.data() + (b * seq_ + t) * dim_ + col0;
        for (std::size_t d = 0; d < head_dim_; ++d) kt[d * seq_ + t] = krow[d];
      }
      // scores(s, t) = scale * <q_s, k_t> over this head's columns.  The
      // sum runs over d ascending from 0, exactly as a per-(s, t) dot
      // product would, but with t innermost so the loop vectorises.
      MatrixF& scores = probs ? (*probs)[b * heads_ + h] : scratch;
      for (std::size_t s = 0; s < seq_; ++s) {
        const float* qrow = q.data() + (b * seq_ + s) * dim_ + col0;
        float* srow = scores.data() + s * seq_;
        std::fill(srow, srow + seq_, 0.0f);
        for (std::size_t d = 0; d < head_dim_; ++d) {
          const float qd = qrow[d];
          const float* ktrow = kt.data() + d * seq_;
          for (std::size_t t = 0; t < seq_; ++t) srow[t] += qd * ktrow[t];
        }
        for (std::size_t t = 0; t < seq_; ++t) srow[t] *= scale;
      }
      for (std::size_t s = 0; s < seq_; ++s)
        softmax_row(scores.data() + s * seq_, seq_);
      // context rows = probs * V.
      for (std::size_t s = 0; s < seq_; ++s) {
        float* crow = context.data() + (b * seq_ + s) * dim_ + col0;
        for (std::size_t t = 0; t < seq_; ++t) {
          const float p = scores(s, t);
          const float* vrow = v.data() + (b * seq_ + t) * dim_ + col0;
          for (std::size_t d = 0; d < head_dim_; ++d) crow[d] += p * vrow[d];
        }
      }
    }
  }
}

MatrixF MultiHeadAttention::forward(const MatrixF& x) {
  assert(x.cols() == dim_ && x.rows() % seq_ == 0);
  q_act_ = q_.forward(x);
  k_act_ = k_.forward(x);
  v_act_ = v_.forward(x);
  MatrixF context(x.rows(), dim_);
  attention_core(q_act_, k_act_, v_act_, context, &attn_);
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
  graph.add_host(out_.weight().name + ".core", {q, k, v}, {context},
                 [this, q, k, v, context](ExecGraph& g) {
                   const MatrixF& qa = g.slot(q);
                   MatrixF& ctx = g.slot(context);
                   if (ctx.rows() != qa.rows() || ctx.cols() != dim_)
                     ctx = MatrixF(qa.rows(), dim_);
                   else
                     ctx.fill(0.0f);
                   attention_core(qa, g.slot(k), g.slot(v), ctx, nullptr);
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
