#include "io/serialize.hpp"

#include <unistd.h>

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <istream>
#include <ostream>
#include <span>
#include <sstream>
#include <stdexcept>

#include "exec/backend_registry.hpp"
#include "io/mmap_file.hpp"
#include "io/wire.hpp"
#include "util/fault_injection.hpp"

namespace tilesparse {
namespace {

constexpr std::uint32_t kMagicMatrix = 0x54534d46;   // "TSMF"
constexpr std::uint32_t kMagicPattern = 0x54535450;  // "TSTP"
constexpr std::uint32_t kMagicTiles = 0x5453544c;    // "TSTL"
constexpr std::uint32_t kMagicCsr = 0x54534352;      // "TSCR"
constexpr std::uint32_t kMagicCsc = 0x54534343;      // "TSCC"

using wire::write_pod;
using wire::write_vector;

void write_header(std::ostream& out, std::uint32_t magic) {
  write_pod(out, magic);
  write_pod(out, wire::kContainerVersion);
}

/// Nested object headers carry the wire-layout version, so every blob
/// is self-describing.
void check_header(MappedArtifact& in, std::uint32_t magic) {
  if (in.pod<std::uint32_t>() != magic) in.fail("bad magic");
  if (in.pod<std::uint32_t>() != wire::kContainerVersion)
    in.fail("unsupported version");
}

// Shared CSR/CSC sanity: pointer array monotonic from 0 to nnz, every
// index within the minor dimension.  The sparse kernels index straight
// through these arrays, so a corrupt file must be rejected here.
void check_compressed_axes(std::span<const std::int64_t> ptr,
                           std::span<const std::int32_t> idx,
                           std::size_t minor_dim, const char* what) {
  if (ptr.empty() || ptr.front() != 0 ||
      ptr.back() != static_cast<std::int64_t>(idx.size()))
    throw std::runtime_error(std::string("tilesparse::io: corrupt ") + what +
                             " pointer array");
  for (std::size_t i = 1; i < ptr.size(); ++i)
    if (ptr[i] < ptr[i - 1])
      throw std::runtime_error(std::string("tilesparse::io: corrupt ") + what +
                               " pointer array");
  for (const std::int32_t j : idx)
    if (j < 0 || static_cast<std::size_t>(j) >= minor_dim)
      throw std::runtime_error(std::string("tilesparse::io: corrupt ") + what +
                               " index array");
}

}  // namespace

void write_matrix(std::ostream& out, const MatrixF& m) {
  write_header(out, kMagicMatrix);
  wire::write_matrix_payload(out, m);
}

MatrixF read_matrix(MappedArtifact& in) {
  check_header(in, kMagicMatrix);
  const auto rows = in.pod<std::uint64_t>();
  const auto cols = in.pod<std::uint64_t>();
  if (cols != 0 && rows > in.remaining() / cols)
    in.fail("corrupt matrix shape");
  const ConstSpan<float> panel = in.span<float>(rows * cols);
  return MatrixF::borrowed(panel.data(), static_cast<std::size_t>(rows),
                           static_cast<std::size_t>(cols));
}

void write_pattern(std::ostream& out, const TilePattern& pattern) {
  write_header(out, kMagicPattern);
  write_pod<std::uint64_t>(out, pattern.k);
  write_pod<std::uint64_t>(out, pattern.n);
  write_pod<std::uint64_t>(out, pattern.g);
  write_vector(out, pattern.col_keep);
  write_pod<std::uint64_t>(out, pattern.tiles.size());
  for (const auto& tile : pattern.tiles) {
    write_vector(out, tile.out_cols);
    write_vector(out, tile.row_keep);
  }
}

TilePattern read_pattern(MappedArtifact& in) {
  check_header(in, kMagicPattern);
  TilePattern pattern;
  pattern.k = in.pod<std::uint64_t>();
  pattern.n = in.pod<std::uint64_t>();
  pattern.g = in.pod<std::uint64_t>();
  // The pattern is pure metadata (bitmasks + column lists), a few
  // percent of a real artifact — copied so TilePattern keeps vectors.
  const ConstSpan<std::uint8_t> col_keep = in.array<std::uint8_t>();
  pattern.col_keep.assign(col_keep.begin(), col_keep.end());
  // Each tile occupies at least two size prefixes on the wire.
  const auto tile_count = in.count(2 * sizeof(std::uint64_t));
  pattern.tiles.resize(static_cast<std::size_t>(tile_count));
  for (auto& tile : pattern.tiles) {
    const ConstSpan<std::int32_t> out_cols = in.array<std::int32_t>();
    const ConstSpan<std::uint8_t> row_keep = in.array<std::uint8_t>();
    tile.out_cols.assign(out_cols.begin(), out_cols.end());
    tile.row_keep.assign(row_keep.begin(), row_keep.end());
  }
  // Never trust a file.  validate_pattern reports a broken invariant as
  // std::logic_error; read from an artifact it is corrupt input.
  try {
    validate_pattern(pattern);
  } catch (const std::logic_error& e) {
    throw std::runtime_error(std::string("tilesparse::io: corrupt pattern: ") +
                             e.what());
  }
  return pattern;
}

void write_tiles(std::ostream& out, const std::vector<MaskedTile>& tiles) {
  write_header(out, kMagicTiles);
  write_pod<std::uint64_t>(out, tiles.size());
  for (const auto& tile : tiles) {
    write_vector(out, tile.kept_rows);
    write_vector(out, tile.out_cols);
    write_matrix(out, tile.weights);
  }
}

std::vector<MaskedTile> read_tiles(MappedArtifact& in) {
  check_header(in, kMagicTiles);
  const auto count = in.count(2 * sizeof(std::uint64_t));
  std::vector<MaskedTile> tiles(static_cast<std::size_t>(count));
  for (auto& tile : tiles) {
    // Index vectors copied (small); tile weight panels borrowed.
    const ConstSpan<std::int32_t> kept_rows = in.array<std::int32_t>();
    const ConstSpan<std::int32_t> out_cols = in.array<std::int32_t>();
    tile.kept_rows.assign(kept_rows.begin(), kept_rows.end());
    tile.out_cols.assign(out_cols.begin(), out_cols.end());
    tile.weights = read_matrix(in);
    if (tile.weights.rows() != tile.kept_rows.size() ||
        tile.weights.cols() != tile.out_cols.size())
      throw std::runtime_error("tilesparse::io: inconsistent tile");
  }
  return tiles;
}

void write_csr(std::ostream& out, const CsrRef& m) {
  write_header(out, kMagicCsr);
  write_pod<std::uint64_t>(out, m.rows);
  write_pod<std::uint64_t>(out, m.cols);
  wire::write_span(out, m.row_ptr);
  wire::write_span(out, m.col_idx);
  wire::write_span(out, m.values);
}

CsrStore read_csr(MappedArtifact& in) {
  check_header(in, kMagicCsr);
  CsrStore m;
  m.rows = static_cast<std::size_t>(in.pod<std::uint64_t>());
  m.cols = static_cast<std::size_t>(in.pod<std::uint64_t>());
  m.row_ptr = ArrayStore<std::int64_t>::borrowed(in.array<std::int64_t>());
  m.col_idx = ArrayStore<std::int32_t>::borrowed(in.array<std::int32_t>());
  m.values = ArrayStore<float>::borrowed(in.array<float>());
  if (m.row_ptr.size() != m.rows + 1 || m.col_idx.size() != m.values.size())
    throw std::runtime_error("tilesparse::io: inconsistent CSR");
  check_compressed_axes(m.row_ptr.span(), m.col_idx.span(), m.cols, "CSR");
  return m;
}

void write_csc(std::ostream& out, const CscRef& m) {
  write_header(out, kMagicCsc);
  write_pod<std::uint64_t>(out, m.rows);
  write_pod<std::uint64_t>(out, m.cols);
  wire::write_span(out, m.col_ptr);
  wire::write_span(out, m.row_idx);
  wire::write_span(out, m.values);
}

CscStore read_csc(MappedArtifact& in) {
  check_header(in, kMagicCsc);
  CscStore m;
  m.rows = static_cast<std::size_t>(in.pod<std::uint64_t>());
  m.cols = static_cast<std::size_t>(in.pod<std::uint64_t>());
  m.col_ptr = ArrayStore<std::int64_t>::borrowed(in.array<std::int64_t>());
  m.row_idx = ArrayStore<std::int32_t>::borrowed(in.array<std::int32_t>());
  m.values = ArrayStore<float>::borrowed(in.array<float>());
  if (m.col_ptr.size() != m.cols + 1 || m.row_idx.size() != m.values.size())
    throw std::runtime_error("tilesparse::io: inconsistent CSC");
  check_compressed_axes(m.col_ptr.span(), m.row_idx.span(), m.rows, "CSC");
  return m;
}

void write_packed_weight(std::ostream& out, const PackedWeight& weight) {
  write_pod(out, wire::kMagicPackedWeight);
  write_pod(out, wire::kContainerVersion);
  wire::write_string(out, std::string(weight.format()));
  write_pod<std::uint64_t>(out, weight.k());
  write_pod<std::uint64_t>(out, weight.n());
  weight.save(out);
}

std::unique_ptr<PackedWeight> read_packed_weight(std::istream& in) {
  // io.read fault site: an armed injection here models a corrupt or
  // unreadable artifact, and must surface as a request error (the same
  // runtime_error contract real wire-format corruption follows).
  fault_point(FaultSite::kIoRead);
  MappedArtifact image = read_artifact_image(in);
  return load_packed_weight_mapped(image);
}

void write_model_weights(
    std::ostream& out,
    const std::vector<std::pair<std::string, const PackedWeight*>>& layers) {
  for (const auto& [name, weight] : layers)
    if (!weight)
      throw std::invalid_argument("write_model_weights: layer '" + name +
                                  "' has no packed weight");
  write_pod(out, wire::kMagicModelWeights);
  write_pod(out, wire::kContainerVersion);
  write_pod<std::uint64_t>(out, layers.size());
  for (const auto& [name, weight] : layers) {
    wire::write_string(out, name);
    write_packed_weight(out, *weight);
  }
}

std::vector<NamedWeight> read_model_weights(std::istream& in) {
  MappedArtifact image = read_artifact_image(in);
  return read_model_weights(image);
}

std::vector<NamedWeight> read_model_weights(MappedArtifact& in) {
  fault_point(FaultSite::kIoRead);
  if (in.pod<std::uint32_t>() != wire::kMagicModelWeights)
    throw std::runtime_error(
        "tilesparse::io: not a model-weights artifact (bad magic)");
  if (in.pod<std::uint32_t>() != wire::kContainerVersion)
    throw std::runtime_error(
        "tilesparse::io: unsupported model-weights version");
  // Each layer costs at least a name prefix plus a container header.
  const auto count = in.count(2 * sizeof(std::uint64_t));
  std::vector<NamedWeight> layers;
  layers.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    NamedWeight entry;
    entry.name = in.string();
    entry.weight = load_packed_weight_mapped(in);
    layers.push_back(std::move(entry));
  }
  return layers;
}

void write_calibration_json(std::ostream& out,
                            const PlannerCalibration& calibration) {
  // Escape-free on purpose: `source` is a provenance tag we write
  // ourselves (hostname/date/shape); quotes and backslashes are
  // dropped rather than escaped.
  std::string source;
  for (char ch : calibration.source)
    if (ch != '"' && ch != '\\' && ch != '\n') source += ch;
  out << "{\n"
      << "  \"csr_mac_penalty\": " << calibration.csr_mac_penalty << ",\n"
      << "  \"tw_mac_penalty\": " << calibration.tw_mac_penalty << ",\n"
      << "  \"bsr_mac_penalty\": " << calibration.bsr_mac_penalty << ",\n"
      << "  \"int8_mac_discount\": " << calibration.int8_mac_discount << ",\n"
      << "  \"macs_per_byte\": " << calibration.macs_per_byte << ",\n"
      << "  \"shard_overhead_us\": " << calibration.shard_overhead_us << ",\n"
      << "  \"dense_gflops\": " << calibration.dense_gflops << ",\n"
      << "  \"source\": \"" << source << "\"\n"
      << "}\n";
}

namespace {

// Minimal flat-object JSON scan: finds "key": and parses the value
// (number or string).  Enough for the calibration artifact; not a
// general JSON parser.
bool json_number(const std::string& text, const std::string& key,
                 double& out) {
  const std::string needle = "\"" + key + "\"";
  auto pos = text.find(needle);
  if (pos == std::string::npos) return false;
  pos = text.find(':', pos + needle.size());
  if (pos == std::string::npos) return false;
  ++pos;
  while (pos < text.size() &&
         std::isspace(static_cast<unsigned char>(text[pos])))
    ++pos;
  try {
    out = std::stod(text.substr(pos));
  } catch (const std::exception&) {
    throw std::runtime_error("tilesparse::io: bad calibration value for '" +
                             key + "'");
  }
  return true;
}

bool json_string(const std::string& text, const std::string& key,
                 std::string& out) {
  const std::string needle = "\"" + key + "\"";
  auto pos = text.find(needle);
  if (pos == std::string::npos) return false;
  pos = text.find(':', pos + needle.size());
  if (pos == std::string::npos) return false;
  pos = text.find('"', pos);
  if (pos == std::string::npos) return false;
  const auto end = text.find('"', pos + 1);
  if (end == std::string::npos) return false;
  out = text.substr(pos + 1, end - pos - 1);
  return true;
}

}  // namespace

PlannerCalibration read_calibration_json(std::istream& in) {
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  if (text.find('{') == std::string::npos)
    throw std::runtime_error("tilesparse::io: calibration is not JSON");
  PlannerCalibration calibration;
  json_number(text, "csr_mac_penalty", calibration.csr_mac_penalty);
  json_number(text, "tw_mac_penalty", calibration.tw_mac_penalty);
  json_number(text, "bsr_mac_penalty", calibration.bsr_mac_penalty);
  json_number(text, "int8_mac_discount", calibration.int8_mac_discount);
  json_number(text, "macs_per_byte", calibration.macs_per_byte);
  json_number(text, "shard_overhead_us", calibration.shard_overhead_us);
  json_number(text, "dense_gflops", calibration.dense_gflops);
  json_string(text, "source", calibration.source);
  return calibration;
}

namespace {

std::ofstream open_out(const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("tilesparse::io: cannot open " + path);
  return out;
}

std::ifstream open_in(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("tilesparse::io: cannot open " + path);
  return in;
}

/// Writes through a same-directory temp file renamed over `path` after
/// a clean flush, so a crash or write error mid-save never leaves a
/// torn artifact where a concurrent reader (stream or mmap) could open
/// it.  rename(2) within one directory is atomic on POSIX.
void atomic_save(const std::string& path,
                 const std::function<void(std::ostream&)>& write_body) {
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  try {
    {
      auto out = open_out(tmp);
      write_body(out);
      out.flush();
      if (!out)
        throw std::runtime_error("tilesparse::io: write failed for " + path);
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0)
      throw std::runtime_error("tilesparse::io: cannot rename " + tmp +
                               " over " + path);
  } catch (...) {
    std::remove(tmp.c_str());
    throw;
  }
}

}  // namespace

void save_packed_weight(const std::string& path, const PackedWeight& weight) {
  atomic_save(path,
              [&](std::ostream& out) { write_packed_weight(out, weight); });
}
void save_model_weights(
    const std::string& path,
    const std::vector<std::pair<std::string, const PackedWeight*>>& layers) {
  atomic_save(path,
              [&](std::ostream& out) { write_model_weights(out, layers); });
}
std::unique_ptr<PackedWeight> load_packed_weight(const std::string& path) {
  MappedArtifact image = read_artifact_image(path);
  fault_point(FaultSite::kIoRead);
  return load_packed_weight_mapped(image);
}
std::vector<NamedWeight> load_model_weights(const std::string& path) {
  MappedArtifact image = read_artifact_image(path);
  return read_model_weights(image);
}
std::vector<NamedWeight> load_model_weights_mapped(const std::string& path) {
  MappedArtifact artifact(std::make_shared<const MmapFile>(path));
  return read_model_weights(artifact);
}
std::unique_ptr<PackedWeight> load_packed_weight_mapped(
    const std::string& path) {
  MappedArtifact artifact(std::make_shared<const MmapFile>(path));
  return load_packed_weight_mapped(artifact);
}
void save_calibration(const std::string& path,
                      const PlannerCalibration& calibration) {
  auto out = open_out(path);
  write_calibration_json(out, calibration);
}
PlannerCalibration load_calibration(const std::string& path) {
  auto in = open_in(path);
  return read_calibration_json(in);
}
PlannerCalibration load_planner_calibration(const std::string& path) {
  const PlannerCalibration calibration = load_calibration(path);
  set_planner_calibration(calibration);
  return calibration;
}

}  // namespace tilesparse
