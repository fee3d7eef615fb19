#pragma once
// DenseWeight — the unpruned baseline backend: a plain K x N matrix
// executed with the blocked dense GEMM (the CPU stand-in for
// cuBLAS/CUTLASS on tensor cores).  fp16 activations are rounded
// through binary16 inside the kernel's A packing.

#include <iosfwd>
#include <memory>
#include <mutex>

#include "exec/packed_weight.hpp"
#include "gemm/dense_gemm.hpp"

namespace tilesparse {

class MappedArtifact;

class DenseWeight final : public PackedWeight {
 public:
  explicit DenseWeight(MatrixF weights, GemmConfig config = {});

  /// Parses a payload written by save() from an artifact image; `k`/`n`
  /// come from the container header and must match the stored panel.
  /// The K x N panel borrows the image in place (the micro-kernel packs
  /// its own B panels lazily, as for a packed weight).
  static std::unique_ptr<DenseWeight> load(MappedArtifact& in, std::size_t k,
                                           std::size_t n);

  void save(std::ostream& out) const override;
  MatrixF to_dense() const override { return weights_; }
  std::size_t bytes() const noexcept override;
  double macs(std::size_t m) const noexcept override;
  std::string_view format() const noexcept override { return "dense"; }

 protected:
  void accumulate(const ExecContext& ctx, const MatrixF& a,
                  MatrixF& c) const override;
  bool native_fp16() const noexcept override { return true; }

 private:
  MatrixF weights_;  ///< K x N
  GemmConfig config_;
  // Micro-kernel B panels, built once on first execution
  // (weights are immutable after packing; cached so serving does not
  // repack K x N every call — at small batch the repack pass costs as
  // much as the compute).
  mutable PackedDenseB packed_b_;
  mutable std::once_flag packed_b_once_;
};

}  // namespace tilesparse
