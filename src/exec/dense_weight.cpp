#include "exec/dense_weight.hpp"

#include <stdexcept>

#include "io/mmap_file.hpp"
#include "io/wire.hpp"

namespace tilesparse {

DenseWeight::DenseWeight(MatrixF weights, GemmConfig config)
    : PackedWeight(weights.rows(), weights.cols()),
      weights_(std::move(weights)),
      config_(config) {}

void DenseWeight::save(std::ostream& out) const {
  wire::write_matrix_payload(out, weights_);
}

std::unique_ptr<DenseWeight> DenseWeight::load(MappedArtifact& in,
                                               std::size_t k, std::size_t n) {
  const auto rows = in.pod<std::uint64_t>();
  const auto cols = in.pod<std::uint64_t>();
  if (rows != k || cols != n)
    throw std::runtime_error(
        "DenseWeight::load: payload shape disagrees with artifact header");
  // k/n are pre-validated against int32 by the container parser, so
  // rows * cols cannot overflow u64 here.
  const ConstSpan<float> panel = in.span<float>(rows * cols);
  auto weight = std::make_unique<DenseWeight>(
      MatrixF::borrowed(panel.data(), static_cast<std::size_t>(rows),
                        static_cast<std::size_t>(cols)));
  weight->set_storage_keepalive(in.keepalive());
  return weight;
}

std::size_t DenseWeight::bytes() const noexcept {
  return weights_.size() * sizeof(float);
}

double DenseWeight::macs(std::size_t m) const noexcept {
  return static_cast<double>(m) * static_cast<double>(k()) *
         static_cast<double>(n());
}

void DenseWeight::accumulate(const ExecContext& ctx, const MatrixF& a,
                             MatrixF& c, std::size_t n0,
                             std::size_t) const {
  std::call_once(packed_b_once_,
                 [this] { packed_b_ = pack_dense_b(weights_, config_); });
  GemmConfig config = config_;
  config.fp16_inputs = ctx.fp16();
  dense_gemm(a, packed_b_, c, /*alpha=*/1.0f, /*beta=*/1.0f, config, n0);
}

}  // namespace tilesparse
