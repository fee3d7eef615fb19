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

void CsrWeight::accumulate(const ExecContext&, const MatrixF& a,
                           MatrixF& c) const {
  // fp16 activation rounding is applied by the base wrapper (this
  // kernel has no native half path).
  csr_panels_spmm_accumulate(a, panels_, c);
}

}  // namespace tilesparse
