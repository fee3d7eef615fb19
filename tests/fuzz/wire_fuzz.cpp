// Fuzz harness for the deployment wire formats (io/serialize): the
// single-weight TSPW container and the model-level TSMW artifact.  Both
// entries reach the one artifact parser, MappedArtifact: the stream
// front end (read_packed_weight) reads the input into an owned aligned
// image, and the mapped entry (read_model_weights) parses a 64-byte-
// aligned copy — exactly the base alignment an mmap'd file gets.  The
// parser consumes untrusted bytes at serving startup, so the contract
// under fuzzing is strict: any input either parses or throws
// std::exception — no crash, no sanitizer report, no misaligned span
// handed to a kernel, no unbounded allocation (sizes are validated
// against the image length before allocation).  And every weight that
// parses is executed as served: to_dense(), one whole matmul and one
// column-range matmul on a 2-row A — within the harness's own size
// caps, since a header may declare dimensions no payload backs.  A payload the loaders accept but a
// kernel mis-indexes therefore fails the run under ASan+UBSan instead
// of passing as "parsed".
//
// Built two ways (CMakeLists TILESPARSE_ENABLE_FUZZER):
//  * libFuzzer (clang): LLVMFuzzerTestOneInput only; link with
//    -fsanitize=fuzzer,address,undefined.
//  * standalone (any compiler): a main() that replays corpus files —
//      wire_fuzz --write-seeds <dir>   emit valid seed inputs
//      wire_fuzz <file|dir>...         replay inputs (dirs recurse one level)
//    so the seeded-corpus smoke runs even without clang.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <exception>
#include <memory>
#include <sstream>
#include <string>

#include "exec/backend_registry.hpp"
#include "exec/tw_weight.hpp"
#include "io/mmap_file.hpp"
#include "io/serialize.hpp"
#include "prune/importance.hpp"
#include "prune/tw_pruner.hpp"
#include "tensor/matrix.hpp"
#include "util/rng.hpp"

namespace {

// Header dimensions reach int32 max with no payload behind them.  The
// harness's own buffers stay bounded: A (2 x K) and C (2 x N) by running
// only weights up to kMaxRunDim, the K x N to_dense() image by also
// capping K * N.
constexpr std::size_t kMaxRunDim = std::size_t{1} << 20;
constexpr std::size_t kMaxDenseElements = std::size_t{1} << 22;

/// Executes a parsed weight the way serving does: to_dense(), then a
/// whole matmul and a column-range matmul (the middle third of the
/// columns, as a scheduler shard runs it) on a 2-row A.
void execute(const tilesparse::PackedWeight& weight) {
  const std::size_t k = weight.k(), n = weight.n();
  if (k > kMaxRunDim || n > kMaxRunDim) return;
  if (k * n <= kMaxDenseElements) (void)weight.to_dense();
  tilesparse::MatrixF a(2, k);
  for (std::size_t i = 0; i < a.size(); ++i)
    a.data()[i] = static_cast<float>(i % 7) - 3.0f;
  const tilesparse::ExecContext ctx;
  (void)weight.matmul(ctx, a);
  if (n == 0) return;
  const std::size_t n0 = n / 3, n1 = n - n / 3;
  tilesparse::MatrixF c(2, n1 - n0);
  weight.matmul(ctx, a, c, n0, n1);
}

void fuzz_one(const std::uint8_t* data, std::size_t size) {
  {
    std::istringstream in(
        std::string(reinterpret_cast<const char*>(data), size),
        std::ios::binary);
    try {
      auto weight = tilesparse::read_packed_weight(in);
      if (weight) execute(*weight);
    } catch (const std::exception&) {
      // Malformed input rejected — the expected failure mode.
    }
  }

  // The same bytes at the base alignment an mmap'd file gets.  The
  // image is shared so borrowed weights keep it alive past the cursor
  // (execute() still reads it below).
  const std::shared_ptr<std::byte> image(
      static_cast<std::byte*>(
          ::operator new(size > 0 ? size : 1, std::align_val_t{64})),
      [](std::byte* p) { ::operator delete(p, std::align_val_t{64}); });
  if (size > 0) std::memcpy(image.get(), data, size);
  tilesparse::MappedArtifact in(image.get(), size, image);
  try {
    const auto model = tilesparse::read_model_weights(in);
    for (const auto& layer : model) execute(*layer.weight);
  } catch (const std::exception&) {
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  fuzz_one(data, size);
  return 0;
}

#ifndef TILESPARSE_LIBFUZZER

#include <filesystem>
#include <fstream>
#include <iostream>
#include <utility>
#include <vector>

namespace {

tilesparse::MatrixF random_matrix(std::size_t rows, std::size_t cols,
                                  std::uint64_t seed) {
  tilesparse::MatrixF m(rows, cols);
  tilesparse::Rng rng(seed);
  for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] = rng.normal();
  return m;
}

/// Emits a valid artifact of every registered format plus a
/// model-level container holding all of them — the corpus seeds that
/// give the fuzzer real headers and payloads to mutate.
int write_seeds(const std::filesystem::path& dir) {
  std::filesystem::create_directories(dir);
  const tilesparse::MatrixF w = random_matrix(24, 32, 7);
  const tilesparse::MatrixF scores = tilesparse::magnitude_scores(w);
  const tilesparse::TilePattern pattern =
      tilesparse::tw_pattern_from_scores(scores, 0.5, 8);
  tilesparse::PackOptions options;
  options.pattern = &pattern;
  options.scores = &scores;
  std::vector<std::pair<std::string, std::unique_ptr<tilesparse::PackedWeight>>>
      packed;
  for (const std::string& format : tilesparse::registered_formats())
    packed.emplace_back(format, tilesparse::make_packed(format, w, options));
  for (const auto& [format, weight] : packed) {
    std::ostringstream out(std::ios::binary);
    tilesparse::write_packed_weight(out, *weight);
    std::ofstream file(dir / ("tspw_" + format + ".bin"), std::ios::binary);
    file << out.str();
  }
  std::vector<std::pair<std::string, const tilesparse::PackedWeight*>> layers;
  for (const auto& [format, weight] : packed)
    layers.emplace_back("layer." + format, weight.get());
  std::ostringstream out(std::ios::binary);
  tilesparse::write_model_weights(out, layers);
  std::ofstream file(dir / "tsmw_model.bin", std::ios::binary);
  file << out.str();
  // A tw header declaring K = N = 2^31 - 1 over zero tiles: the loader
  // accepts it, so only the caps above keep its execution bounded.
  const std::size_t huge = (std::size_t{1} << 31) - 1;
  std::ostringstream huge_out(std::ios::binary);
  tilesparse::write_packed_weight(huge_out, tilesparse::TwWeight({}, huge, huge));
  std::ofstream huge_file(dir / "tspw_tw_huge_header.bin", std::ios::binary);
  huge_file << huge_out.str();
  std::cout << "wire_fuzz: wrote " << packed.size() + 2 << " seeds to " << dir
            << "\n";
  return 0;
}

int replay_file(const std::filesystem::path& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    std::cerr << "wire_fuzz: cannot read " << path << "\n";
    return 1;
  }
  std::ostringstream buffer(std::ios::binary);
  buffer << file.rdbuf();
  const std::string bytes = buffer.str();
  fuzz_one(reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 3 && std::string(argv[1]) == "--write-seeds")
    return write_seeds(argv[2]);
  if (argc < 2) {
    std::cerr << "usage: wire_fuzz --write-seeds <dir> | wire_fuzz "
                 "<file|dir>...\n";
    return 2;
  }
  int failures = 0;
  std::size_t replayed = 0;
  for (int i = 1; i < argc; ++i) {
    const std::filesystem::path path(argv[i]);
    if (std::filesystem::is_directory(path)) {
      for (const auto& entry : std::filesystem::directory_iterator(path)) {
        if (!entry.is_regular_file()) continue;
        failures += replay_file(entry.path());
        ++replayed;
      }
    } else {
      failures += replay_file(path);
      ++replayed;
    }
  }
  std::cout << "wire_fuzz: replayed " << replayed << " input(s)\n";
  return failures == 0 ? 0 : 1;
}

#endif  // TILESPARSE_LIBFUZZER
