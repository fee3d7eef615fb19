#include "io/mmap_file.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <istream>
#include <new>

#include "io/wire.hpp"

namespace tilesparse {

namespace {

[[noreturn]] void fail_errno(const std::string& path, const char* what) {
  throw std::runtime_error("tilesparse::io: " + std::string(what) + " '" +
                           path + "': " + std::strerror(errno));
}

/// Uninitialised heap bytes at the image base alignment, freed when the
/// last weight borrowing from them goes.
std::shared_ptr<std::byte> aligned_buffer(std::size_t size) {
  constexpr std::align_val_t kAlign{wire::kPayloadAlign};
  return std::shared_ptr<std::byte>(
      static_cast<std::byte*>(::operator new(std::max<std::size_t>(size, 1),
                                             kAlign)),
      [](std::byte* p) { ::operator delete(p, kAlign); });
}

}  // namespace

MmapFile::MmapFile(const std::string& path) : path_(path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) fail_errno(path, "cannot open");
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    fail_errno(path, "cannot stat");
  }
  if (st.st_size <= 0) {
    ::close(fd);
    throw std::runtime_error("tilesparse::io: '" + path +
                             "' is empty — not an artifact");
  }
  const auto size = static_cast<std::size_t>(st.st_size);
  // MAP_SHARED + PROT_READ: every process mapping this artifact shares
  // the same page-cache pages; nothing here can dirty them.
  void* p = ::mmap(nullptr, size, PROT_READ, MAP_SHARED, fd, 0);
  const int saved = errno;
  ::close(fd);  // the mapping holds its own reference to the file
  if (p == MAP_FAILED) {
    errno = saved;
    fail_errno(path, "cannot mmap");
  }
  data_ = static_cast<const std::byte*>(p);
  size_ = size;
}

MmapFile::~MmapFile() {
  if (data_) ::munmap(const_cast<std::byte*>(data_), size_);
}

MappedArtifact read_artifact_image(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) fail_errno(path, "cannot open");
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    fail_errno(path, "cannot stat");
  }
  const auto size = static_cast<std::size_t>(st.st_size);
  auto buffer = aligned_buffer(size);
  std::size_t filled = 0;
  while (filled < size) {
    const ssize_t got = ::read(fd, buffer.get() + filled, size - filled);
    if (got < 0 && errno == EINTR) continue;
    if (got < 0) {
      const int saved = errno;
      ::close(fd);
      errno = saved;
      fail_errno(path, "cannot read");
    }
    if (got == 0) break;  // truncated underneath us: parse what is there
    filled += static_cast<std::size_t>(got);
  }
  ::close(fd);
  const std::byte* data = buffer.get();
  return MappedArtifact(data, filled, std::move(buffer));
}

MappedArtifact read_artifact_image(std::istream& in) {
  const auto start = in.tellg();
  std::size_t capacity = 64 * 1024;
  if (start != std::istream::pos_type(-1)) {
    if (static_cast<std::uint64_t>(start) % wire::kPayloadAlign != 0)
      throw std::runtime_error(
          "tilesparse::io: artifact stream starts at offset " +
          std::to_string(static_cast<std::uint64_t>(start)) +
          ", not a multiple of " + std::to_string(wire::kPayloadAlign) +
          " — payload alignment is relative to the artifact start");
    in.seekg(0, std::ios::end);
    const auto end = in.tellg();
    in.seekg(start);
    // One byte past the known size, so the first read also sees EOF.
    if (end != std::istream::pos_type(-1) && end >= start)
      capacity = static_cast<std::size_t>(end - start) + 1;
  }
  auto buffer = aligned_buffer(capacity);
  std::size_t size = 0;
  while (in) {
    if (size == capacity) {
      auto grown = aligned_buffer(2 * capacity);
      std::memcpy(grown.get(), buffer.get(), size);
      buffer = std::move(grown);
      capacity *= 2;
    }
    in.read(reinterpret_cast<char*>(buffer.get() + size),
            static_cast<std::streamsize>(capacity - size));
    size += static_cast<std::size_t>(in.gcount());
  }
  const std::byte* data = buffer.get();
  return MappedArtifact(data, size, std::move(buffer));
}

}  // namespace tilesparse
