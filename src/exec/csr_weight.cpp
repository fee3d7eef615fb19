#include "exec/csr_weight.hpp"

#include <stdexcept>

#include "io/mmap_file.hpp"
#include "io/serialize.hpp"
#include "sparse/spmm.hpp"

namespace tilesparse {

CsrWeight::CsrWeight(const MatrixF& weights, float tol)
    : CsrWeight(csr_from_dense(weights, tol)) {}

CsrWeight::CsrWeight(Csr csr) : CsrWeight(CsrStore(std::move(csr))) {}

CsrWeight::CsrWeight(CsrStore csr)
    : PackedWeight(csr.rows, csr.cols),
      csr_(std::move(csr)),
      panels_(build_csr_panels(csr_.ref())) {}

void CsrWeight::save(std::ostream& out) const { write_csr(out, csr_.ref()); }

std::unique_ptr<CsrWeight> CsrWeight::load(MappedArtifact& in, std::size_t k,
                                           std::size_t n) {
  CsrStore csr = read_csr(in);
  if (csr.rows != k || csr.cols != n)
    throw std::runtime_error(
        "CsrWeight::load: payload shape disagrees with artifact header");
  auto weight = std::unique_ptr<CsrWeight>(new CsrWeight(std::move(csr)));
  weight->set_storage_keepalive(in.keepalive());
  return weight;
}

MatrixF CsrWeight::to_dense() const { return csr_to_dense(csr_.ref()); }

std::size_t CsrWeight::bytes() const noexcept { return csr_bytes(csr_.ref()); }

double CsrWeight::macs(std::size_t m) const noexcept {
  return static_cast<double>(m) * static_cast<double>(csr_.nnz());
}

std::unique_ptr<PackedWeight> CsrWeight::shard_cols(std::size_t n0,
                                                    std::size_t n1) const {
  if (n0 >= n1 || n1 > n())
    throw std::invalid_argument("CsrWeight::shard_cols: bad column range");
  const CsrRef src = csr_.ref();
  Csr slice;
  slice.rows = src.rows;
  slice.cols = n1 - n0;
  slice.row_ptr.reserve(src.rows + 1);
  slice.row_ptr.push_back(0);
  for (std::size_t r = 0; r < src.rows; ++r) {
    for (auto p = src.row_ptr[r]; p < src.row_ptr[r + 1]; ++p) {
      const auto idx = static_cast<std::size_t>(p);
      const auto col = static_cast<std::size_t>(src.col_idx[idx]);
      if (col < n0 || col >= n1) continue;
      slice.col_idx.push_back(static_cast<std::int32_t>(col - n0));
      slice.values.push_back(src.values[idx]);
    }
    slice.row_ptr.push_back(static_cast<std::int64_t>(slice.values.size()));
  }
  return std::make_unique<CsrWeight>(std::move(slice));
}

void CsrWeight::accumulate(const ExecContext&, const MatrixF& a,
                           MatrixF& c) const {
  // fp16 activation rounding is applied by the base wrapper (this
  // kernel has no native half path).
  csr_panels_spmm_accumulate(a, panels_, c);
}

}  // namespace tilesparse
