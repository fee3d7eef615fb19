// Artifact loading: the mmap path (MmapFile + MappedArtifact) against
// the stream path, which reads the file into an owned aligned image and
// runs the same parser.  Two properties are pinned here:
//
//  1. Equivalence — for every registered format, a weight loaded
//     zero-copy from a mapped artifact is bit-identical to the
//     stream-loaded one: to_dense, matmul, shard_cols, bytes.
//  2. Hostile input — truncated, corrupt, misaligned, or missing
//     artifacts throw std::runtime_error with offset diagnostics; they
//     never fault or feed the kernels a misaligned pointer.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "exec/backend_registry.hpp"
#include "io/mmap_file.hpp"
#include "io/serialize.hpp"
#include "nn/prune_experiment.hpp"
#include "prune/importance.hpp"
#include "prune/tw_pruner.hpp"
#include "serve/serving_runtime.hpp"
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

std::unique_ptr<PackedWeight> pack_for_mmap_test(const std::string& format,
                                                 const MatrixF& w,
                                                 std::size_t g = 16,
                                                 double sparsity = 0.6) {
  const MatrixF scores = magnitude_scores(w);
  const TilePattern pattern = tw_pattern_from_scores(scores, sparsity, g);
  PackOptions options;
  options.pattern = &pattern;
  options.scores = &scores;
  return make_packed(format, w, options);
}

/// A per-test artifact path that is removed on scope exit.
class TempArtifact {
 public:
  explicit TempArtifact(const char* tag)
      : path_("/tmp/tilesparse_mmap_test_" + std::string(tag) + "_" +
              std::to_string(getpid()) + ".bin") {}
  ~TempArtifact() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// ------------------------------------------------ mmap == stream, per format

class MappedEqualsStream : public ::testing::TestWithParam<std::string> {};

TEST_P(MappedEqualsStream, BitIdenticalEverywhere) {
  const std::string format = GetParam();
  const MatrixF w = random_matrix(64, 48, 301);
  const auto packed = pack_for_mmap_test(format, w);
  TempArtifact artifact(("eq_" + format).c_str());
  save_packed_weight(artifact.path(), *packed);

  const auto streamed = load_packed_weight(artifact.path());
  const auto mapped = load_packed_weight_mapped(artifact.path());
  ASSERT_NE(mapped, nullptr);

  // Same backend, same payload — the mapped one borrows the file, the
  // streamed one the private image it was read into.
  EXPECT_EQ(mapped->format(), streamed->format());
  EXPECT_EQ(mapped->k(), streamed->k());
  EXPECT_EQ(mapped->n(), streamed->n());
  EXPECT_TRUE(mapped->borrows_storage());
  EXPECT_TRUE(streamed->borrows_storage());
  EXPECT_FLOAT_EQ(max_abs_diff(mapped->to_dense(), streamed->to_dense()),
                  0.0f);

  const MatrixF a = random_matrix(8, 64, 307);
  const ExecContext ctx;
  EXPECT_FLOAT_EQ(
      max_abs_diff(mapped->matmul(ctx, a), streamed->matmul(ctx, a)), 0.0f);

  // Shards materialise owning copies (they must outlive the mapping
  // independently) and still execute identically.
  ASSERT_TRUE(mapped->col_shardable());
  const auto shard_mapped = mapped->shard_cols(8, 40);
  const auto shard_streamed = streamed->shard_cols(8, 40);
  EXPECT_FALSE(shard_mapped->borrows_storage());
  EXPECT_FLOAT_EQ(max_abs_diff(shard_mapped->matmul(ctx, a),
                               shard_streamed->matmul(ctx, a)),
                  0.0f);
}

INSTANTIATE_TEST_SUITE_P(AllFormats, MappedEqualsStream,
                         ::testing::ValuesIn(registered_formats()),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name)
                             if (c == '-') c = '_';
                           return name;
                         });

TEST(MappedModel, ModelArtifactLoadsZeroCopy) {
  const MatrixF w1 = random_matrix(48, 64, 311);
  const MatrixF w2 = random_matrix(64, 32, 313);
  const auto tw = pack_for_mmap_test("tw", w1);
  const auto int8 = pack_for_mmap_test("tw-int8", w2);
  TempArtifact artifact("model");
  save_model_weights(artifact.path(),
                     {{"ffn.w", tw.get()}, {"head.w", int8.get()}});

  const auto streamed = load_model_weights(artifact.path());
  const auto mapped = load_model_weights_mapped(artifact.path());
  ASSERT_EQ(mapped.size(), 2u);
  for (std::size_t i = 0; i < mapped.size(); ++i) {
    EXPECT_EQ(mapped[i].name, streamed[i].name);
    EXPECT_TRUE(mapped[i].weight->borrows_storage());
    EXPECT_FLOAT_EQ(max_abs_diff(mapped[i].weight->to_dense(),
                                 streamed[i].weight->to_dense()),
                    0.0f);
  }
}

// ----------------------------------------------------- hostile artifacts

TEST(MappedHostile, TruncationAlwaysThrowsNeverFaults) {
  for (const std::string& format : registered_formats()) {
    const MatrixF w = random_matrix(48, 32, 337);
    const auto packed = pack_for_mmap_test(format, w);
    TempArtifact artifact(("trunc_" + format).c_str());
    save_packed_weight(artifact.path(), *packed);
    const std::string full = read_file(artifact.path());
    // Cut at several depths: inside the header, inside the payload,
    // one byte short of complete.
    for (const std::size_t keep :
         {std::size_t{6}, full.size() / 4, full.size() / 2,
          full.size() * 3 / 4, full.size() - 1}) {
      write_file(artifact.path(), full.substr(0, keep));
      EXPECT_THROW(load_packed_weight_mapped(artifact.path()),
                   std::runtime_error)
          << format << " truncated to " << keep << " bytes";
    }
  }
}

TEST(MappedHostile, CorruptCountThrowsWithOffsetDiagnostic) {
  const MatrixF w = random_matrix(32, 32, 347);
  const auto packed = pack_for_mmap_test("tw", w);
  TempArtifact artifact("corrupt");
  save_packed_weight(artifact.path(), *packed);
  std::string bytes = read_file(artifact.path());
  // The format-name length prefix sits right after magic + version;
  // stamping it with 0xff makes every downstream size check fire.
  for (std::size_t i = 8; i < 16; ++i) bytes[i] = '\xff';
  write_file(artifact.path(), bytes);
  try {
    load_packed_weight_mapped(artifact.path());
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("offset"), std::string::npos)
        << e.what();
  }
}

TEST(MappedHostile, BadMagicThrows) {
  TempArtifact artifact("magic");
  write_file(artifact.path(), std::string(256, 'x'));
  EXPECT_THROW(load_packed_weight_mapped(artifact.path()),
               std::runtime_error);
  EXPECT_THROW(load_model_weights_mapped(artifact.path()),
               std::runtime_error);
}

TEST(MappedHostile, MissingAndEmptyFilesThrow) {
  EXPECT_THROW(MmapFile("/nonexistent/dir/artifact.bin"), std::runtime_error);
  TempArtifact artifact("empty");
  write_file(artifact.path(), "");
  EXPECT_THROW(MmapFile(artifact.path()), std::runtime_error);
}

TEST(MappedHostile, MisalignedImageBaseRejected) {
  // The v2 offsets only translate to element alignment on a 64-byte
  // aligned base; MappedArtifact refuses anything else up front.
  alignas(64) static const std::byte image[128] = {};
  EXPECT_NO_THROW(MappedArtifact(image, sizeof(image)));
  EXPECT_THROW(MappedArtifact(image + 1, sizeof(image) - 1),
               std::runtime_error);
}

// ----------------------------------------------------- atomic save

TEST(AtomicSave, NoTempFileSurvivesSuccessOrFailure) {
  const MatrixF w = random_matrix(32, 32, 353);
  const auto packed = pack_for_mmap_test("dense", w);

  // Success: the artifact exists, no .tmp. sibling does.
  TempArtifact artifact("atomic");
  save_packed_weight(artifact.path(), *packed);
  EXPECT_FALSE(read_file(artifact.path()).empty());
  EXPECT_TRUE(
      read_file(artifact.path() + ".tmp." + std::to_string(getpid())).empty());

  // Failure (unwritable directory): throws, and the destination — which
  // here pre-exists with known content — is left untouched.
  EXPECT_THROW(
      save_packed_weight("/nonexistent/dir/artifact.bin", *packed),
      std::runtime_error);
  const std::string before = read_file(artifact.path());
  const auto reloaded = load_packed_weight_mapped(artifact.path());
  EXPECT_FLOAT_EQ(max_abs_diff(reloaded->to_dense(), packed->to_dense()),
                  0.0f);
  EXPECT_EQ(read_file(artifact.path()), before);
}

// ----------------------------------------------------- serving integration

TEST(SharedModelServe, MappedModelServesIdenticallyThroughRuntime) {
  const MatrixF w1 = random_matrix(48, 64, 359);
  const MatrixF w2 = random_matrix(64, 48, 367);
  const auto tw = pack_for_mmap_test("tw", w1);
  const auto csr = pack_for_mmap_test("csr", w2);
  TempArtifact artifact("serve");
  save_model_weights(artifact.path(),
                     {{"a.w", tw.get()}, {"b.w", csr.get()}});

  const auto model = serve::SharedModel::load_mapped(artifact.path());
  ASSERT_NE(model->find("a.w"), nullptr);
  ASSERT_NE(model->find("b.w"), nullptr);
  EXPECT_EQ(model->find("nope"), nullptr);
  EXPECT_TRUE(model->find("a.w")->borrows_storage());

  serve::ServingOptions options;
  options.workers = 2;
  serve::ServingRuntime runtime(options);
  runtime.attach_model(model);

  const MatrixF a = random_matrix(4, 48, 373);
  const ExecContext ctx;
  const MatrixF expected = tw->matmul(ctx, a);

  serve::Request request;
  request.work = [&](serve::WorkerContext& context) {
    EXPECT_NE(context.model, nullptr);
    return context.model->find("a.w")->matmul(ctx, a);
  };
  const serve::RequestHandle handle = runtime.submit(std::move(request));
  const serve::Response& response = handle->wait();
  ASSERT_EQ(response.status, serve::RequestStatus::kOk) << response.error;
  EXPECT_FLOAT_EQ(max_abs_diff(response.result, expected), 0.0f);
  runtime.shutdown();

  // The runtime's reference is gone but ours still pins the mapping.
  EXPECT_TRUE(model->find("a.w")->borrows_storage());
}

TEST(MappedEvaluate, TaskEvaluatesIdenticallyFromMappedArtifact) {
  auto task = make_bert_cls_task(/*pretrain_steps=*/20, 379);
  std::vector<TilePattern> patterns;
  for (Param* p : task->prunable()) {
    const TilePattern pattern =
        tw_pattern_from_scores(magnitude_scores(p->value), 0.5, 16);
    apply_pattern(pattern, p->value);
    patterns.push_back(pattern);
  }
  TempArtifact artifact("eval");
  export_packed_weights(*task, "tw", &patterns, artifact.path());
  const double streamed =
      evaluate_from_artifact(*task, artifact.path(), ExecContext{},
                             ArtifactLoad::kStream);
  const double mapped =
      evaluate_from_artifact(*task, artifact.path(), ExecContext{},
                             ArtifactLoad::kMapped);
  EXPECT_EQ(mapped, streamed);
}

}  // namespace
}  // namespace tilesparse
