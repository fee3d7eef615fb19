#pragma once
// BackendRegistry — name -> factory for PackedWeight formats, following
// the one-interface-many-backends idiom: a weight matrix plus (where the
// format needs one) a TilePattern produces an executable object by
// format string.  The five built-in formats self-register; downstream
// code (new kernels, device-specific packings) extends the registry at
// runtime with register_backend().

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/tile_pattern.hpp"
#include "exec/packed_weight.hpp"
#include "tensor/matrix.hpp"

namespace tilesparse {

class MappedArtifact;

/// Everything a factory may need beyond the raw weights.  Formats
/// ignore fields they do not use; formats missing a required field
/// (e.g. "tw" without a pattern) throw std::invalid_argument.
struct PackOptions {
  /// TW pattern of the weights; required by "tw", "tew", "tw-int8".
  const TilePattern* pattern = nullptr;
  /// Importance of pruned elements for the TEW remainder; defaults to
  /// the magnitude of the *packed* weights when null.  Note the "tew"
  /// factory restores remainder values from the weights it is given:
  /// pack from the unpruned weights (with a pattern pruned to
  /// alpha + delta), or supply pre-pruning scores — packing weights
  /// already zeroed by apply_pattern leaves nothing to restore and
  /// degenerates to plain "tw".
  const MatrixF* scores = nullptr;
  /// Fraction of the matrix restored element-wise by "tew".
  double tew_delta = 0.05;
  /// Magnitude threshold below which "csr" drops elements.
  float csr_tol = 0.0f;
};

using BackendFactory = std::function<std::unique_ptr<PackedWeight>(
    const MatrixF& weights, const PackOptions& options)>;

/// Registers (or replaces) a backend.  Thread-compatible: registration
/// is expected at startup, before concurrent packing begins.
void register_backend(const std::string& format, BackendFactory factory);

/// Names of all registered formats, sorted.  Built-ins are always
/// present: "dense", "tw", "tew", "csr", "tw-int8".
std::vector<std::string> registered_formats();

/// True when `format` resolves to a registered backend.
bool backend_registered(const std::string& format);

/// Packs `weights` under the named format.  Throws std::out_of_range
/// for unknown formats and std::invalid_argument when the format needs
/// options that were not supplied.
std::unique_ptr<PackedWeight> make_packed(const std::string& format,
                                          const MatrixF& weights,
                                          const PackOptions& options = {});

// ------------------------------------------------------- artifact loading
//
// The deserialization side of the registry: a format-tagged artifact
// (written by write_packed_weight in io/serialize) names the built-in
// backend whose load factory reconstructs it.  Custom backends
// registered above are execution-only: they cannot be saved or loaded.

/// Parses one whole-PackedWeight container (magic, version, format
/// name, k/n, payload) from an artifact image — a file mapping or an
/// owned buffer (io/mmap_file.hpp) — and dispatches on the stored
/// format name, producing a weight whose bulk payload borrows the image
/// (PackedWeight::borrows_storage()).  Throws std::runtime_error for a
/// bad magic, an unsupported version, an unknown format name, or a
/// payload that fails validation; corrupt or truncated artifacts throw
/// with an offset diagnostic, they never fault or allocate from a
/// corrupt size.
std::unique_ptr<PackedWeight> load_packed_weight_mapped(MappedArtifact& in);

}  // namespace tilesparse
