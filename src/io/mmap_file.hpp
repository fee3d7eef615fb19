#pragma once
// Artifact images and the MappedArtifact cursor — the one parser every
// artifact load goes through.
//
// An image is the artifact's bytes at a 64-byte-aligned base, in one of
// two forms:
//  * a read-only file mapping (MmapFile: page-aligned, MAP_SHARED so
//    every process mapping the same file shares one physical copy of
//    the page cache) — the zero-copy load path;
//  * an owned heap buffer the file or stream was read into
//    (read_artifact_image) — the stream load path.
// MappedArtifact walks the v2 wire layout over either, resolving each
// bulk section to a typed ConstSpan<T> pointing straight into the
// image.  Exec backends wrap those spans in borrowed storage
// (exec/weight_storage.hpp) and keep the image alive through a
// shared_ptr keepalive; with a mapping, weights from N serving
// processes cost one physical copy of RSS between them.
//
// Validation contract: every read is bounds-checked against the image
// before it is performed and every typed span is checked for element
// alignment, so a corrupt or truncated artifact throws
// std::runtime_error (with the failing offset in the message) — it
// never faults, overflows, allocates from a corrupt size, or hands a
// kernel a misaligned pointer.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iosfwd>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>

namespace tilesparse {

/// Immutable typed view into an artifact image section.
template <typename T>
using ConstSpan = std::span<const T>;

/// RAII read-only file mapping.  Not copyable or movable: share it via
/// shared_ptr (the keepalive the borrowing weights hold).
class MmapFile {
 public:
  /// Maps `path` read-only.  Throws std::runtime_error (with errno
  /// text) when the file cannot be opened, statted, or mapped; an
  /// empty file is rejected here — there is no artifact to parse.
  explicit MmapFile(const std::string& path);
  ~MmapFile();

  MmapFile(const MmapFile&) = delete;
  MmapFile& operator=(const MmapFile&) = delete;

  const std::byte* data() const noexcept { return data_; }
  std::size_t size() const noexcept { return size_; }
  const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
  const std::byte* data_ = nullptr;
  std::size_t size_ = 0;
};

/// Sequential cursor over a v2 artifact image (a mapping or an owned
/// buffer).  The reading dual of the writers in io/wire.hpp: bulk
/// payloads resolve to spans into the image instead of being copied
/// out.
class MappedArtifact {
 public:
  /// Cursor over a whole mapped file; the cursor (and every weight
  /// loaded through it) keeps the mapping alive via keepalive().
  explicit MappedArtifact(std::shared_ptr<const MmapFile> file)
      : MappedArtifact(file ? file->data() : nullptr,
                       file ? file->size() : 0, file) {
    if (!file)
      throw std::invalid_argument("MappedArtifact: null mapping");
  }

  /// Cursor over an arbitrary in-memory image (read_artifact_image,
  /// tests, the fuzz harness).  `data` must be 64-byte aligned — the
  /// mmap path gets that for free from page alignment, and the v2
  /// layout's absolute offsets only translate to element alignment on
  /// an aligned base.
  MappedArtifact(const std::byte* data, std::size_t size,
                 std::shared_ptr<const void> keepalive = nullptr)
      : data_(data), size_(size), keepalive_(std::move(keepalive)) {
    if (size_ > 0 && reinterpret_cast<std::uintptr_t>(data_) % 64 != 0)
      throw std::runtime_error(
          "MappedArtifact: image base is not 64-byte aligned");
  }

  std::size_t size() const noexcept { return size_; }
  std::size_t offset() const noexcept { return offset_; }
  std::size_t remaining() const noexcept { return size_ - offset_; }

  /// The mapping or buffer every borrowed span must outlive.
  const std::shared_ptr<const void>& keepalive() const noexcept {
    return keepalive_;
  }

  template <typename T>
  T pod() {
    static_assert(std::is_trivially_copyable_v<T>);
    if (remaining() < sizeof(T)) fail("short artifact (pod read)");
    T value{};
    std::memcpy(&value, data_ + offset_, sizeof(T));
    offset_ += sizeof(T);
    return value;
  }

  /// u64 entry count of a sequence whose entries occupy at least
  /// `min_entry_bytes` each on the wire.  A count the rest of the image
  /// cannot hold is corrupt, and is rejected before anything
  /// count-sized is allocated.
  std::uint64_t count(std::size_t min_entry_bytes) {
    const auto n = pod<std::uint64_t>();
    if (n > remaining() / min_entry_bytes)
      fail("corrupt size prefix (larger than the artifact)");
    return n;
  }

  /// u64 length + bytes, copied out (names and format tags are small).
  std::string string() {
    const auto size = pod<std::uint64_t>();
    if (size > remaining()) fail("corrupt string length");
    std::string s(reinterpret_cast<const char*>(data_ + offset_),
                  static_cast<std::size_t>(size));
    offset_ += static_cast<std::size_t>(size);
    return s;
  }

  /// Advances past the zero padding the v2 writer emitted before a
  /// bulk payload (wire::pad_to_alignment).
  void skip_alignment() {
    const std::size_t rem = offset_ % 64;
    if (rem == 0) return;
    if (64 - rem > remaining()) fail("truncated inside alignment padding");
    offset_ += 64 - rem;
  }

  /// Resolves `count` elements of T in place, after the v2 alignment
  /// padding.  Bounds- and alignment-checked; the returned span aliases
  /// the image and is valid for the keepalive's lifetime.
  template <typename T>
  ConstSpan<T> span(std::uint64_t count) {
    static_assert(std::is_trivially_copyable_v<T>);
    skip_alignment();
    if (count > remaining() / sizeof(T)) fail("corrupt section size");
    if (offset_ % alignof(T) != 0) fail("misaligned section");
    const T* p = reinterpret_cast<const T*>(data_ + offset_);
    offset_ += static_cast<std::size_t>(count) * sizeof(T);
    return {p, static_cast<std::size_t>(count)};
  }

  /// u64 count + aligned payload, as wire::write_span emits it.
  template <typename T>
  ConstSpan<T> array() {
    return span<T>(pod<std::uint64_t>());
  }

  [[noreturn]] void fail(const char* what) const {
    throw std::runtime_error("tilesparse::io: " + std::string(what) +
                             " at artifact offset " + std::to_string(offset_) +
                             " of " + std::to_string(size_));
  }

 private:
  const std::byte* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t offset_ = 0;
  std::shared_ptr<const void> keepalive_;
};

/// Reads the artifact at `path` into one owned, 64-byte-aligned buffer
/// — sized from the file and filled in a single pass, no second copy —
/// and returns a cursor over it.  The buffer is the cursor's keepalive,
/// so weights parsed from it pin it exactly as mapped weights pin a
/// mapping.  Throws std::runtime_error (with errno text) when the file
/// cannot be opened or read.
MappedArtifact read_artifact_image(const std::string& path);

/// Reads the rest of `in` into an owned aligned buffer, as above.  The
/// v2 alignment is relative to where the artifact starts, so a
/// seekable `in` must be positioned at a multiple of 64 (throws
/// std::runtime_error otherwise); a non-seekable one is taken to start
/// at its first byte.  Consumes the stream to its end.
MappedArtifact read_artifact_image(std::istream& in);

}  // namespace tilesparse
