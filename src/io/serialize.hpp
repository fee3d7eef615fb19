#pragma once
// Binary serialization for deployment artifacts: a pruned model ships
// its TilePatterns, compacted tiles and — via the whole-PackedWeight
// container — complete execution backends to the inference side, which
// must not redo the (training-time) pruning or quantisation.  Format:
// little-endian (enforced at compile time in io/wire.hpp), magic +
// version header per object, size-prefixed arrays, and every bulk
// array/matrix payload padded to a 64-byte-aligned absolute file
// offset (wire v2), so an image of the file at an aligned base can
// hand out typed spans directly into it.
//
// There is one parser: the read_*(MappedArtifact&) functions below,
// over an image that is either a file mapping (zero-copy) or an owned
// buffer the file or stream was read into (io/mmap_file.hpp).  Errors
// (truncation, bad magic, version mismatch, corrupt sizes) throw
// std::runtime_error with the failing offset.

#include <iosfwd>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/tile_pattern.hpp"
#include "exec/calibration.hpp"
#include "exec/packed_weight.hpp"
#include "exec/weight_storage.hpp"
#include "gemm/masked_gemm.hpp"
#include "sparse/csc.hpp"
#include "sparse/csr.hpp"
#include "tensor/matrix.hpp"

namespace tilesparse {

class MappedArtifact;

// Object writers.
void write_matrix(std::ostream& out, const MatrixF& m);
void write_pattern(std::ostream& out, const TilePattern& pattern);
void write_tiles(std::ostream& out, const std::vector<MaskedTile>& tiles);
void write_csr(std::ostream& out, const CsrRef& m);
inline void write_csr(std::ostream& out, const Csr& m) {
  write_csr(out, m.ref());
}
void write_csc(std::ostream& out, const CscRef& m);
inline void write_csc(std::ostream& out, const Csc& m) {
  write_csc(out, m.ref());
}

// Object readers: bulk sections (matrix panels, index/value arrays) are
// borrowed from the image in place of being copied.  Small metadata
// (tile index vectors, the pattern) is copied — it is a few percent of
// the payload and downstream code keeps plain vectors.  Whoever holds
// the returned views must keep the image alive (MappedArtifact::
// keepalive); the PackedWeight load factories do this automatically.
MatrixF read_matrix(MappedArtifact& in);
TilePattern read_pattern(MappedArtifact& in);
std::vector<MaskedTile> read_tiles(MappedArtifact& in);
CsrStore read_csr(MappedArtifact& in);
CscStore read_csc(MappedArtifact& in);

// ---------------------------------------------- whole-PackedWeight container
//
// Layout: magic "TSPW", version, format name (from PackedWeight::
// format()), k, n, then a backend-owned payload written by
// PackedWeight::save() — dense panels, TW/TEW tiles + pattern, CSR
// arrays, or int8 tiles *with their scales*, so loading never re-packs
// or re-quantises.  Reading dispatches on the stored format name to the
// built-in backend's load factory (load_packed_weight_mapped in
// exec/backend_registry.hpp); unknown formats throw std::runtime_error.

void write_packed_weight(std::ostream& out, const PackedWeight& weight);

/// Stream front end: reads the rest of `in` into an owned aligned image
/// (read_artifact_image) and parses it.  The weight borrows that image.
std::unique_ptr<PackedWeight> read_packed_weight(std::istream& in);

/// One entry of a model-level artifact.
struct NamedWeight {
  std::string name;
  std::unique_ptr<PackedWeight> weight;
};

// Model-level artifact: magic "TSMW", version, then a count-prefixed
// sequence of (layer name, packed-weight container) — one file serves a
// whole model.
void write_model_weights(
    std::ostream& out,
    const std::vector<std::pair<std::string, const PackedWeight*>>& layers);

/// Stream front end, like read_packed_weight.
std::vector<NamedWeight> read_model_weights(std::istream& in);

/// Parses a model artifact image.  Every weight's bulk payload borrows
/// the image (and holds its keepalive); over a mapping, N processes
/// loading the same file share one physical copy of the weights
/// through the page cache.
std::vector<NamedWeight> read_model_weights(MappedArtifact& in);

// Planner calibration — JSON, not the binary container: the artifact
// is meant to be human-inspected and diffed across hosts.  Unknown keys
// are ignored on read; missing keys keep their defaults.
void write_calibration_json(std::ostream& out,
                            const PlannerCalibration& calibration);
PlannerCalibration read_calibration_json(std::istream& in);

// File convenience wrappers.  The artifact savers write atomically:
// the bytes go to a temp file in the same directory which is rename(2)d
// over `path` only after a clean flush, so a crash mid-save never
// leaves a torn artifact where a serving process could map it.
void save_packed_weight(const std::string& path, const PackedWeight& weight);
void save_model_weights(
    const std::string& path,
    const std::vector<std::pair<std::string, const PackedWeight*>>& layers);

/// Reads `path` once into an owned aligned image and parses it; the
/// weights borrow that private image.
std::unique_ptr<PackedWeight> load_packed_weight(const std::string& path);
std::vector<NamedWeight> load_model_weights(const std::string& path);

/// Maps `path` (MAP_SHARED, read-only) and parses the mapping in
/// place; the mapping lives as long as any returned weight.
std::vector<NamedWeight> load_model_weights_mapped(const std::string& path);
std::unique_ptr<PackedWeight> load_packed_weight_mapped(
    const std::string& path);

void save_calibration(const std::string& path,
                      const PlannerCalibration& calibration);
PlannerCalibration load_calibration(const std::string& path);

/// Loads `path` and installs it as the process-wide planner
/// calibration (set_planner_calibration).  Returns the loaded values.
PlannerCalibration load_planner_calibration(const std::string& path);

}  // namespace tilesparse
