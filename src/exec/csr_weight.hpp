#pragma once
// CsrWeight — element-wise sparse execution, the cuSparse-style EW/VW
// baseline: the weight matrix stored as CSR of itself, executed with
// the gather/scatter dense x CSR kernel.  This is the format the paper
// argues against at moderate sparsity (poor locality), kept as a
// backend both as the comparison baseline and because it wins at
// extreme unstructured sparsity.

#include <iosfwd>
#include <memory>

#include "exec/packed_weight.hpp"
#include "exec/weight_storage.hpp"
#include "sparse/csr.hpp"
#include "sparse/spmm.hpp"

namespace tilesparse {

class MappedArtifact;

class CsrWeight final : public PackedWeight {
 public:
  /// Packs `weights` (K x N), dropping |x| <= tol.
  explicit CsrWeight(const MatrixF& weights, float tol = 0.0f);

  /// Wraps an existing CSR (of the weight matrix itself).
  explicit CsrWeight(Csr csr);

  /// Parses a payload written by save() from an artifact image: the
  /// CSR arrays, validated against the artifact's `k`/`n`.  They borrow
  /// the image in place, but execution runs on strip panels built at
  /// load, which copy col/val per strip (sparse/spmm.hpp).
  static std::unique_ptr<CsrWeight> load(MappedArtifact& in, std::size_t k,
                                         std::size_t n);

  void save(std::ostream& out) const override;
  MatrixF to_dense() const override;
  std::size_t bytes() const noexcept override;
  double macs(std::size_t m) const noexcept override;
  std::string_view format() const noexcept override { return "csr"; }

  const CsrStore& csr() const noexcept { return csr_; }
  const CsrPanels& panels() const noexcept { return panels_; }

 protected:
  void accumulate(const ExecContext& ctx, const MatrixF& a,
                  MatrixF& c) const override;

 private:
  explicit CsrWeight(CsrStore csr);

  CsrStore csr_;
  /// Strip-partitioned execution layout, built once at pack time (the
  /// CSR itself stays authoritative for serialization / to_dense).
  CsrPanels panels_;
};

}  // namespace tilesparse
