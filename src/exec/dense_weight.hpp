#pragma once
// DenseWeight — the unpruned baseline backend: a plain K x N matrix
// executed with the blocked dense GEMM (the CPU stand-in for
// cuBLAS/CUTLASS on tensor cores).  Supports every numerics mode: fp16
// rounds A inside the kernel; int8 quantises both operands dynamically
// (per-tensor scales) and accumulates in int32.

#include <iosfwd>
#include <memory>
#include <mutex>

#include "exec/packed_weight.hpp"
#include "gemm/dense_gemm.hpp"
#include "quant/quantize.hpp"

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
  bool supports(Numerics numerics) const noexcept override;

  /// Dense columns are independent (the micro-kernel accumulates each
  /// output column over K in a fixed order regardless of which columns
  /// share the panel), so a column slice executes bit-identically.
  bool col_shardable() const noexcept override { return true; }
  std::unique_ptr<PackedWeight> shard_cols(std::size_t n0,
                                           std::size_t n1) const override;

 protected:
  void accumulate(const ExecContext& ctx, const MatrixF& a,
                  MatrixF& c) const override;
  bool native_fp16() const noexcept override { return true; }

 private:
  MatrixF weights_;  ///< K x N
  GemmConfig config_;
  // Micro-kernel B panels, built once on first fp32/fp16 execution
  // (weights are immutable after packing; cached so serving does not
  // repack K x N every call — at small batch the repack pass costs as
  // much as the compute).
  mutable PackedDenseB packed_b_;
  mutable std::once_flag packed_b_once_;
  // int8 weight copy, built once on first int8 execution (weights are
  // immutable after packing; cached so serving does not re-quantise
  // K x N every call).
  mutable QuantMatrix quantized_;
  mutable std::once_flag quantized_once_;
};

}  // namespace tilesparse
