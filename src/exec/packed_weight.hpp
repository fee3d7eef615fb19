#pragma once
// PackedWeight — the unified weight-execution interface.
//
// The paper's single logical op is C = A * W over interchangeable weight
// representations: dense, tile-wise (TW), tile-element-wise hybrid
// (TEW), element-wise sparse (CSR) and int8 TW.  Historically each
// representation had its own free-function family with its own
// signature; PackedWeight puts them behind one virtual interface so a
// layer holds "an executable weight" without caring how it is stored,
// and new formats plug in through the BackendRegistry.
//
// Semantics of matmul: C = alpha * A * W_packed + beta * C, with
// alpha/beta and activation numerics taken from the ExecContext.  The
// packed representation is the ground truth: to_dense() reconstructs
// exactly the matrix the backend multiplies by (pruned entries zero,
// int8 weights dequantised), so for every format
//   matmul(ctx, A, C)  ==  dense_gemm(A, to_dense(), C)
// up to the format's arithmetic (exact for fp32 formats).

#include <cstddef>
#include <iosfwd>
#include <memory>
#include <string_view>
#include <utility>

#include "exec/exec_context.hpp"
#include "exec/weight_storage.hpp"
#include "tensor/matrix.hpp"

namespace tilesparse {

class PackedWeight {
 public:
  virtual ~PackedWeight() = default;

  /// C = alpha * A(M x K) * W(K x N) + beta * C.  C must be M x N.
  /// Throws std::invalid_argument on shape mismatch or when the context
  /// requests numerics the format cannot execute (see supports()).
  void matmul(const ExecContext& ctx, const MatrixF& a, MatrixF& c) const;

  /// Allocating convenience: returns alpha * A * W (beta ignored).
  MatrixF matmul(const ExecContext& ctx, const MatrixF& a) const;

  /// Dense K x N reconstruction of exactly what this backend executes.
  virtual MatrixF to_dense() const = 0;

  /// Storage footprint of the packed representation (weights + indices).
  virtual std::size_t bytes() const noexcept = 0;

  /// Multiply-accumulate count for an M-row activation batch.
  virtual double macs(std::size_t m) const noexcept = 0;

  /// Registry name of the format ("dense", "tw", "tew", "csr", "tw-int8").
  virtual std::string_view format() const noexcept = 0;

  /// Writes the backend-owned payload — everything needed to
  /// reconstruct this object without the original dense weights (e.g.
  /// the int8 format writes quantised tiles *with their scales*).  The
  /// enclosing container framing (magic, version, format name, k/n) is
  /// written by write_packed_weight (io/serialize); bulk payloads are
  /// padded to 64-byte file offsets so an artifact image parses in
  /// place.  Only the built-in formats have load factories (dispatched
  /// by load_packed_weight_mapped in exec/backend_registry), so the
  /// default throws std::logic_error: custom backends are
  /// execution-only.
  virtual void save(std::ostream& out) const;

  /// True when this weight's payload aliases an artifact image — a file
  /// mapping or the owned buffer a file or stream was read into — which
  /// it keeps alive, instead of owning private storage.
  bool borrows_storage() const noexcept { return keepalive_ != nullptr; }

  /// Whether matmul can honor the requested activation numerics.
  /// Every format handles fp32 and fp16 (non-native formats round a
  /// copy of A through binary16); int8 requires an int8-native format
  /// or a format that quantises dynamically.
  virtual bool supports(Numerics numerics) const noexcept;

  /// True when shard_cols() can slice this format exactly.  A format
  /// may claim shardability only when, for every output element, the
  /// slice accumulates the same terms in the same order as the whole
  /// weight — so a shard-and-join matmul is bit-identical to the
  /// unsharded one.  All five built-in formats qualify: dense and csr
  /// are column-independent, the tile formats slice tiles at column
  /// boundaries with kept_rows (and per-tile int8 scales) carried
  /// unchanged.  Custom backends stay unshardable until they opt in.
  virtual bool col_shardable() const noexcept { return false; }

  /// Returns a packed weight executing only columns [n0, n1) of this
  /// one (K x (n1 - n0)); used by the ExecScheduler to split very
  /// wide-N GEMM nodes across streams.  Throws std::logic_error when
  /// the format is not col_shardable(), std::invalid_argument on an
  /// empty or out-of-range column range.
  virtual std::unique_ptr<PackedWeight> shard_cols(std::size_t n0,
                                                   std::size_t n1) const;

  std::size_t k() const noexcept { return k_; }
  std::size_t n() const noexcept { return n_; }

 protected:
  PackedWeight(std::size_t k, std::size_t n) : k_(k), n_(n) {}

  /// C += A * W under `ctx` numerics (alpha/beta already handled by the
  /// public wrapper; implementations must only accumulate).
  virtual void accumulate(const ExecContext& ctx, const MatrixF& a,
                          MatrixF& c) const = 0;

  /// True when the backend's kernels apply fp16 rounding themselves, so
  /// the wrapper must not pre-round A.
  virtual bool native_fp16() const noexcept { return false; }

  /// Installed by the load factories: keeps the artifact image alive
  /// for as long as this weight borrows storage from it.  Owning
  /// weights (packed or sharded) leave it null.
  void set_storage_keepalive(StorageKeepalive keepalive) noexcept {
    keepalive_ = std::move(keepalive);
  }

 private:
  std::size_t k_ = 0;
  std::size_t n_ = 0;
  StorageKeepalive keepalive_;
};

}  // namespace tilesparse
