#pragma once
// ExecContext — the one knob bundle every weight-execution backend
// understands: kernel threads, activation numerics and alpha/beta, so
// `C = alpha * A * W + beta * C` means the same thing under every
// PackedWeight format.

#include <cstddef>

namespace tilesparse {

/// Requested activation numerics.  Weight numerics are a property of the
/// *format* (e.g. "tw-int8" stores int8 weights and quantises
/// activations per row itself), chosen at pack time; the context only
/// controls how activations are treated on the way in.
enum class Numerics {
  kFp32,  ///< full-precision activations
  kFp16,  ///< activations rounded through binary16 (tensor-core numerics)
};

struct ExecContext {
  /// Worker threads for the kernel launch; 0 = library default.  Only
  /// meaningful when the build enables OpenMP (serial otherwise).
  int threads = 0;
  Numerics numerics = Numerics::kFp32;
  float alpha = 1.0f;  ///< scale on A*W
  float beta = 0.0f;   ///< scale on the existing C (0 overwrites)

  bool fp16() const noexcept { return numerics == Numerics::kFp16; }
};

}  // namespace tilesparse
