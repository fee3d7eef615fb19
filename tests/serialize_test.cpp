#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>

#include "core/tile_exec.hpp"
#include "exec/backend_registry.hpp"
#include "io/mmap_file.hpp"
#include "io/serialize.hpp"
#include "io/wire.hpp"
#include "prune/importance.hpp"
#include "prune/tw_pruner.hpp"
#include "sparse/csc.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace tilesparse {
namespace {

MatrixF random_matrix(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  Rng rng(seed);
  MatrixF m(rows, cols);
  fill_normal(m, rng);
  return m;
}

/// The bytes a writer produced, as the 64-byte-aligned artifact image
/// every loader parses.  Objects read from it borrow the image, so the
/// returned cursor must outlive them.
MappedArtifact image_of(std::istream& written) {
  return read_artifact_image(written);
}

TEST(Serialize, MatrixRoundTrip) {
  const MatrixF m = random_matrix(17, 23, 1);
  std::stringstream buffer;
  write_matrix(buffer, m);
  MappedArtifact in = image_of(buffer);
  const MatrixF back = read_matrix(in);
  EXPECT_EQ(back.rows(), m.rows());
  EXPECT_EQ(back.cols(), m.cols());
  EXPECT_FLOAT_EQ(max_abs_diff(m, back), 0.0f);
}

TEST(Serialize, EmptyMatrixRoundTrip) {
  std::stringstream buffer;
  write_matrix(buffer, MatrixF{});
  MappedArtifact in = image_of(buffer);
  const MatrixF back = read_matrix(in);
  EXPECT_TRUE(back.empty());
}

TEST(Serialize, PatternRoundTrip) {
  const MatrixF w = random_matrix(64, 96, 2);
  const TilePattern pattern =
      tw_pattern_from_scores(magnitude_scores(w), 0.6, 16);
  std::stringstream buffer;
  write_pattern(buffer, pattern);
  MappedArtifact in = image_of(buffer);
  const TilePattern back = read_pattern(in);
  EXPECT_EQ(back.k, pattern.k);
  EXPECT_EQ(back.n, pattern.n);
  EXPECT_EQ(back.g, pattern.g);
  EXPECT_EQ(back.tiles.size(), pattern.tiles.size());
  EXPECT_EQ(back.kept_elements(), pattern.kept_elements());
  for (std::size_t i = 0; i < pattern.tiles.size(); ++i) {
    EXPECT_EQ(back.tiles[i].out_cols, pattern.tiles[i].out_cols);
    EXPECT_EQ(back.tiles[i].row_keep, pattern.tiles[i].row_keep);
  }
}

TEST(Serialize, TilesRoundTripPreservesExecution) {
  MatrixF w = random_matrix(48, 64, 3);
  const TilePattern pattern =
      tw_pattern_from_scores(magnitude_scores(w), 0.5, 16);
  apply_pattern(pattern, w);
  const auto tiles = compact_tiles(w, pattern);

  std::stringstream buffer;
  write_tiles(buffer, tiles);
  MappedArtifact in = image_of(buffer);
  const auto back = read_tiles(in);

  const MatrixF a = random_matrix(8, 48, 4);
  const MatrixF c1 = tw_matmul(a, tiles, 64);
  const MatrixF c2 = tw_matmul(a, back, 64);
  EXPECT_FLOAT_EQ(max_abs_diff(c1, c2), 0.0f);
}

TEST(Serialize, CsrRoundTrip) {
  Rng rng(5);
  MatrixF dense(20, 30);
  for (float& v : dense.flat()) v = rng.uniform() < 0.7f ? 0.0f : rng.normal();
  const Csr csr = csr_from_dense(dense);
  std::stringstream buffer;
  write_csr(buffer, csr);
  MappedArtifact in = image_of(buffer);
  const CsrStore back = read_csr(in);
  EXPECT_EQ(back.nnz(), csr.nnz());
  EXPECT_FLOAT_EQ(max_abs_diff(csr_to_dense(back.ref()), dense), 0.0f);
}

TEST(Serialize, BadMagicThrows) {
  std::stringstream buffer;
  write_matrix(buffer, MatrixF(2, 2));
  MappedArtifact in = image_of(buffer);
  EXPECT_THROW(read_pattern(in), std::runtime_error);
}

TEST(Serialize, TruncatedStreamThrows) {
  const MatrixF m = random_matrix(8, 8, 6);
  std::stringstream buffer;
  write_matrix(buffer, m);
  const std::string full = buffer.str();
  std::stringstream truncated(full.substr(0, full.size() / 2));
  MappedArtifact in = image_of(truncated);
  EXPECT_THROW(read_matrix(in), std::runtime_error);
}

TEST(Serialize, CorruptPatternFailsValidation) {
  const MatrixF w = random_matrix(16, 16, 7);
  TilePattern pattern = tw_pattern_from_scores(magnitude_scores(w), 0.5, 4);
  std::stringstream buffer;
  // Corrupt: duplicate a column across tiles before writing.
  ASSERT_GE(pattern.tiles.size(), 2u);
  pattern.tiles[1].out_cols[0] = pattern.tiles[0].out_cols[0];
  write_pattern(buffer, pattern);
  MappedArtifact in = image_of(buffer);
  EXPECT_THROW(read_pattern(in), std::logic_error);
}

TEST(Serialize, CscRoundTrip) {
  Rng rng(51);
  MatrixF dense(24, 18);
  for (float& v : dense.flat()) v = rng.uniform() < 0.6f ? 0.0f : rng.normal();
  const Csc csc = csc_from_dense(dense);
  std::stringstream buffer;
  write_csc(buffer, csc);
  MappedArtifact in = image_of(buffer);
  const CscStore back = read_csc(in);
  EXPECT_EQ(back.nnz(), csc.nnz());
  EXPECT_FLOAT_EQ(max_abs_diff(csc_to_dense(back.ref()), dense), 0.0f);
}

TEST(Serialize, CsrRejectsOutOfRangeIndices) {
  Rng rng(52);
  MatrixF dense(8, 8);
  fill_normal(dense, rng);
  Csr csr = csr_from_dense(dense);
  csr.col_idx.front() = 100;  // out of [0, cols)
  std::stringstream buffer;
  write_csr(buffer, csr);
  MappedArtifact in = image_of(buffer);
  EXPECT_THROW(read_csr(in), std::runtime_error);
}

// ------------------------------------------------- whole-PackedWeight

/// Packs `w` under `format`, supplying a TW pattern and pre-pruning
/// scores where the format needs them.
std::unique_ptr<PackedWeight> pack_for_serialize_test(
    const std::string& format, const MatrixF& w, std::size_t g = 16,
    double sparsity = 0.6) {
  const MatrixF scores = magnitude_scores(w);
  const TilePattern pattern = tw_pattern_from_scores(scores, sparsity, g);
  PackOptions options;
  options.pattern = &pattern;
  options.scores = &scores;
  return make_packed(format, w, options);
}

class PackedWeightRoundTrip : public ::testing::TestWithParam<std::string> {};

TEST_P(PackedWeightRoundTrip, ReproducesObjectExactly) {
  const std::string format = GetParam();
  const MatrixF w = random_matrix(64, 48, 31);
  const auto packed = pack_for_serialize_test(format, w);

  std::stringstream buffer;
  write_packed_weight(buffer, *packed);
  const auto loaded = read_packed_weight(buffer);
  ASSERT_NE(loaded, nullptr);

  // The loaded object is the same backend with the same payload:
  // format, shape, storage footprint and reconstruction all exact.
  EXPECT_EQ(loaded->format(), packed->format());
  EXPECT_EQ(loaded->k(), packed->k());
  EXPECT_EQ(loaded->n(), packed->n());
  EXPECT_EQ(loaded->bytes(), packed->bytes());
  EXPECT_FLOAT_EQ(max_abs_diff(loaded->to_dense(), packed->to_dense()), 0.0f);

  // And it serves matmul bit-identically — no re-packing and (for
  // tw-int8) no re-quantisation happened on load.
  const MatrixF a = random_matrix(8, 64, 37);
  const ExecContext ctx;
  EXPECT_FLOAT_EQ(
      max_abs_diff(loaded->matmul(ctx, a), packed->matmul(ctx, a)), 0.0f);
}

INSTANTIATE_TEST_SUITE_P(AllFormats, PackedWeightRoundTrip,
                         ::testing::ValuesIn(registered_formats()),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name)
                             if (c == '-') c = '_';
                           return name;
                         });

TEST(PackedWeightArtifact, FileRoundTrip) {
  const MatrixF w = random_matrix(32, 32, 41);
  const auto packed = pack_for_serialize_test("tw", w);
  const std::string path = "/tmp/tilesparse_packed_weight_test.bin";
  save_packed_weight(path, *packed);
  const auto loaded = load_packed_weight(path);
  EXPECT_EQ(loaded->format(), "tw");
  EXPECT_FLOAT_EQ(max_abs_diff(loaded->to_dense(), packed->to_dense()), 0.0f);
  std::remove(path.c_str());
  EXPECT_THROW(load_packed_weight("/nonexistent/dir/x.bin"),
               std::runtime_error);
}

TEST(PackedWeightArtifact, BadMagicThrows) {
  std::stringstream buffer;
  write_matrix(buffer, MatrixF(4, 4));  // a matrix is not a container
  EXPECT_THROW(read_packed_weight(buffer), std::runtime_error);
}

TEST(PackedWeightArtifact, VersionMismatchThrows) {
  std::stringstream buffer;
  wire::write_pod(buffer, wire::kMagicPackedWeight);
  wire::write_pod<std::uint32_t>(buffer, 999);
  EXPECT_THROW(read_packed_weight(buffer), std::runtime_error);
}

TEST(PackedWeightArtifact, UnknownFormatThrows) {
  std::stringstream buffer;
  wire::write_pod(buffer, wire::kMagicPackedWeight);
  wire::write_pod(buffer, wire::kContainerVersion);
  wire::write_string(buffer, "no-such-format");
  wire::write_pod<std::uint64_t>(buffer, 4);
  wire::write_pod<std::uint64_t>(buffer, 4);
  try {
    read_packed_weight(buffer);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("no-such-format"), std::string::npos);
  }
}

TEST(PackedWeightArtifact, TruncatedPayloadThrows) {
  for (const std::string& format : registered_formats()) {
    const MatrixF w = random_matrix(32, 32, 43);
    const auto packed = pack_for_serialize_test(format, w);
    std::stringstream buffer;
    write_packed_weight(buffer, *packed);
    const std::string full = buffer.str();
    // Cut inside the payload (past the container header) — every
    // format must fail with runtime_error, never bad_alloc or UB.
    std::stringstream truncated(full.substr(0, full.size() * 3 / 4));
    EXPECT_THROW(read_packed_weight(truncated), std::runtime_error) << format;
  }
}

TEST(PackedWeightArtifact, GarbageSizePrefixThrowsNotBadAlloc) {
  // A corrupt 64-bit length must be rejected against the remaining
  // image bytes before any allocation happens.
  MatrixF w = random_matrix(32, 32, 47);
  const TilePattern pattern =
      tw_pattern_from_scores(magnitude_scores(w), 0.5, 16);
  apply_pattern(pattern, w);
  std::stringstream buffer;
  write_tiles(buffer, compact_tiles(w, pattern));
  std::string bytes = buffer.str();
  // Offset 8 is the tile-count u64 (after magic + version).
  for (std::size_t i = 8; i < 16; ++i) bytes[i] = '\xff';
  std::stringstream corrupt(bytes);
  MappedArtifact in = image_of(corrupt);
  EXPECT_THROW(read_tiles(in), std::runtime_error);
}

/// A pipe-like stream buffer: bytes flow forward only and every seek
/// fails, so tellg() cannot report a position or a length.
class ForwardOnlyBuf : public std::streambuf {
 public:
  explicit ForwardOnlyBuf(std::string bytes) : bytes_(std::move(bytes)) {
    setg(bytes_.data(), bytes_.data(), bytes_.data() + bytes_.size());
  }

 private:
  std::string bytes_;
};

TEST(PackedWeightArtifact, NonSeekableStreamRejectsGarbageSizePrefix) {
  // Without seeking, a stream cannot be measured before the parse, so
  // the length check has to come from the bytes actually read.
  const auto packed = pack_for_serialize_test("tw", random_matrix(32, 32, 49));
  std::stringstream buffer;
  write_packed_weight(buffer, *packed);
  std::string bytes = buffer.str();
  // Offset 8 is the format-name length u64 (after magic + version);
  // 2^50 bytes is more than any allocator will hand out.
  const std::uint64_t garbage = std::uint64_t{1} << 50;
  std::memcpy(bytes.data() + 8, &garbage, sizeof(garbage));
  ForwardOnlyBuf pipe(bytes);
  std::istream in(&pipe);
  ASSERT_EQ(in.tellg(), std::istream::pos_type(-1));
  EXPECT_THROW(read_packed_weight(in), std::runtime_error);
}

TEST(PackedWeightArtifact, StreamNotAtAlignedOffsetThrows) {
  // Payload alignment is relative to where the artifact starts.
  const auto packed = pack_for_serialize_test("dense", random_matrix(8, 8, 50));
  std::stringstream buffer;
  buffer << 'x';
  write_packed_weight(buffer, *packed);
  buffer.seekg(1);
  EXPECT_THROW(read_packed_weight(buffer), std::runtime_error);
}

TEST(ModelArtifact, RoundTripsNamedLayers) {
  const MatrixF w1 = random_matrix(32, 48, 53);
  const MatrixF w2 = random_matrix(48, 16, 59);
  const auto tw = pack_for_serialize_test("tw", w1);
  const auto int8 = pack_for_serialize_test("tw-int8", w2);

  std::stringstream buffer;
  write_model_weights(buffer, {{"ffn.w", tw.get()}, {"head.w", int8.get()}});
  const auto loaded = read_model_weights(buffer);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[0].name, "ffn.w");
  EXPECT_EQ(loaded[0].weight->format(), "tw");
  EXPECT_EQ(loaded[1].name, "head.w");
  EXPECT_EQ(loaded[1].weight->format(), "tw-int8");
  EXPECT_FLOAT_EQ(max_abs_diff(loaded[0].weight->to_dense(), tw->to_dense()),
                  0.0f);
  EXPECT_FLOAT_EQ(
      max_abs_diff(loaded[1].weight->to_dense(), int8->to_dense()), 0.0f);
}

TEST(ModelArtifact, RejectsPackedWeightContainer) {
  const MatrixF w = random_matrix(16, 16, 61);
  const auto packed = pack_for_serialize_test("dense", w);
  std::stringstream buffer;
  write_packed_weight(buffer, *packed);  // wrong container kind
  EXPECT_THROW(read_model_weights(buffer), std::runtime_error);
}

TEST(Serialize, CalibrationJsonRoundTrip) {
  PlannerCalibration calib;
  calib.csr_mac_penalty = 12.5;
  calib.tw_mac_penalty = 1.25;
  calib.int8_mac_discount = 0.75;
  calib.macs_per_byte = 2.5;
  calib.dense_gflops = 42.0;
  calib.source = "unit test host";
  std::stringstream buffer;
  write_calibration_json(buffer, calib);
  const PlannerCalibration back = read_calibration_json(buffer);
  EXPECT_DOUBLE_EQ(back.csr_mac_penalty, calib.csr_mac_penalty);
  EXPECT_DOUBLE_EQ(back.tw_mac_penalty, calib.tw_mac_penalty);
  EXPECT_DOUBLE_EQ(back.int8_mac_discount, calib.int8_mac_discount);
  EXPECT_DOUBLE_EQ(back.macs_per_byte, calib.macs_per_byte);
  EXPECT_DOUBLE_EQ(back.dense_gflops, calib.dense_gflops);
  EXPECT_EQ(back.source, calib.source);
  EXPECT_TRUE(back.measured());
}

TEST(Serialize, CalibrationMissingKeysKeepDefaults) {
  std::stringstream buffer("{\"csr_mac_penalty\": 20.0}");
  const PlannerCalibration back = read_calibration_json(buffer);
  EXPECT_DOUBLE_EQ(back.csr_mac_penalty, 20.0);
  const PlannerCalibration defaults;
  EXPECT_DOUBLE_EQ(back.macs_per_byte, defaults.macs_per_byte);
  EXPECT_FALSE(back.measured());  // no dense_gflops recorded
}

TEST(Serialize, CalibrationRejectsNonJson) {
  std::stringstream buffer("not json at all");
  EXPECT_THROW(read_calibration_json(buffer), std::runtime_error);
}

}  // namespace
}  // namespace tilesparse
