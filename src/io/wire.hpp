#pragma once
// Low-level wire helpers: the write side of the artifact format, shared
// by io/serialize and the PackedWeight::save payload code.  Reading is
// done in one place only — the MappedArtifact cursor in io/mmap_file.hpp
// — whether the bytes come from a mapping or a stream.
//
// All artifacts are little-endian on the wire.  write_pod emits host
// byte order, so the library refuses to compile on big-endian hosts
// rather than silently producing artifacts no little-endian reader can
// open; porting to such a host means adding byte-swap shims here.

#include <bit>
#include <cstdint>
#include <ostream>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "tensor/matrix.hpp"

namespace tilesparse::wire {

static_assert(std::endian::native == std::endian::little,
              "tilesparse artifacts are little-endian; this host is not — "
              "add byte-swap shims in io/wire.hpp before building here");

// Container magics shared by the writer (io/serialize) and the reader
// dispatch (exec/backend_registry).
inline constexpr std::uint32_t kMagicPackedWeight = 0x54535057;  // "TSPW"
inline constexpr std::uint32_t kMagicModelWeights = 0x54534d57;  // "TSMW"

/// Wire-layout version stamped in every header.  Version 2 pads every
/// bulk payload (dense panels, tile matrices, CSR/CSC index + value
/// arrays, int8 tiles) out to a 64-byte aligned absolute file offset,
/// so a parser over an aligned image of the artifact can hand the
/// arrays to the kernels in place (io/mmap_file.hpp).  It is the only
/// layout written or read.
inline constexpr std::uint32_t kContainerVersion = 2;

/// Alignment of every bulk payload, relative to the start of the file.
/// 64 covers the strictest element type and matches the cache line the
/// GEMM micro-kernels are laid out for; image bases are 64-byte
/// aligned, so file offset == in-memory alignment.
inline constexpr std::size_t kPayloadAlign = 64;

template <typename T>
void write_pod(std::ostream& out, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

/// Zero-pads `out` so the next byte lands on a kPayloadAlign boundary
/// (absolute file offset).  Writers call this before every bulk
/// payload; requires a positioned stream (files, string streams).
inline void pad_to_alignment(std::ostream& out) {
  const auto pos = out.tellp();
  if (pos == std::ostream::pos_type(-1))
    throw std::runtime_error(
        "tilesparse::io: aligned artifacts need a positioned stream");
  const auto rem = static_cast<std::size_t>(
      static_cast<std::uint64_t>(pos) % kPayloadAlign);
  if (rem == 0) return;
  static constexpr char kZeros[kPayloadAlign] = {};
  out.write(kZeros, static_cast<std::streamsize>(kPayloadAlign - rem));
}

/// Size-prefixed, aligned array write from any contiguous storage
/// (vectors and the owning-or-borrowing ArrayStore spans serialize
/// identically).
template <typename T>
void write_span(std::ostream& out, std::span<const T> v) {
  static_assert(std::is_trivially_copyable_v<T>);
  write_pod<std::uint64_t>(out, v.size());
  pad_to_alignment(out);
  if (!v.empty())
    out.write(reinterpret_cast<const char*>(v.data()),
              static_cast<std::streamsize>(v.size() * sizeof(T)));
}

template <typename T>
void write_vector(std::ostream& out, const std::vector<T>& v) {
  write_span<T>(out, std::span<const T>(v));
}

inline void write_string(std::ostream& out, const std::string& s) {
  write_pod<std::uint64_t>(out, s.size());
  out.write(s.data(), static_cast<std::streamsize>(s.size()));
}

/// Matrix payload: rows, cols, aligned row-major data — no magic
/// framing (the enclosing object provides it).  Works for any
/// trivially copyable element type (float tiles, int8 quantised tiles,
/// u8 masks).
template <typename T>
void write_matrix_payload(std::ostream& out, const Matrix<T>& m) {
  write_pod<std::uint64_t>(out, m.rows());
  write_pod<std::uint64_t>(out, m.cols());
  pad_to_alignment(out);
  if (!m.empty())
    out.write(reinterpret_cast<const char*>(m.data()),
              static_cast<std::streamsize>(m.size() * sizeof(T)));
}

/// Index-vector sanity shared by the tile loaders: strictly ascending
/// and within [0, limit).  Throws std::runtime_error — a file is never
/// trusted.
inline void check_index_vector(std::span<const std::int32_t> indices,
                               std::size_t limit, const char* what) {
  std::int64_t prev = -1;
  for (const std::int32_t idx : indices) {
    if (idx <= prev || static_cast<std::size_t>(idx) >= limit)
      throw std::runtime_error(std::string("tilesparse::io: corrupt ") + what +
                               " index vector");
    prev = idx;
  }
}

}  // namespace tilesparse::wire
