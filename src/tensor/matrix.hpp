#pragma once
// Row-major dense matrix with 64-byte-aligned storage.
//
// This is the single dense container shared by the GEMM substrate, the
// pruning algorithms and the NN layers.  It intentionally stays small:
// owning storage + shape + a few element accessors.  Algorithms live in
// free functions (tensor/ops.hpp) per Core Guidelines C.4.
//
// A Matrix either owns its storage (the default: 64-byte aligned heap
// allocation, freed on destruction) or borrows immutable storage that
// outlives it — the path for weights resolved out of an artifact image,
// mapped or read into memory (io/mmap_file.hpp).  A borrowed matrix
// never frees; copying one always deep-copies into an owning matrix, so value
// semantics are unchanged for every existing caller.  Mutating a
// borrowed matrix through the non-const accessors is undefined (mapped
// pages are read-only, and the image is shared); callers that need to
// write take a copy.

#include <cassert>
#include <cstddef>
#include <cstdlib>
#include <limits>
#include <new>
#include <span>
#include <utility>

namespace tilesparse {

template <typename T>
class Matrix {
 public:
  Matrix() = default;

  Matrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(allocate(rows * cols)) {
    for (std::size_t i = 0; i < rows_ * cols_; ++i) data_[i] = T{};
  }

  /// Non-owning view of immutable external storage (rows * cols
  /// row-major elements at `data`, which must outlive the matrix — the
  /// borrower holds a keepalive on the image, see exec backends).
  static Matrix borrowed(const T* data, std::size_t rows,
                         std::size_t cols) noexcept {
    Matrix m;
    m.rows_ = rows;
    m.cols_ = cols;
    m.data_ = const_cast<T*>(data);
    m.owns_ = false;
    return m;
  }

  Matrix(const Matrix& other) : Matrix(other.rows_, other.cols_) {
    for (std::size_t i = 0; i < rows_ * cols_; ++i) data_[i] = other.data_[i];
  }

  Matrix(Matrix&& other) noexcept
      : rows_(std::exchange(other.rows_, 0)),
        cols_(std::exchange(other.cols_, 0)),
        data_(std::exchange(other.data_, nullptr)),
        owns_(std::exchange(other.owns_, true)) {}

  Matrix& operator=(Matrix other) noexcept {
    swap(other);
    return *this;
  }

  ~Matrix() {
    if (owns_) std::free(data_);
  }

  void swap(Matrix& other) noexcept {
    std::swap(rows_, other.rows_);
    std::swap(cols_, other.cols_);
    std::swap(data_, other.data_);
    std::swap(owns_, other.owns_);
  }

  /// True when this matrix views storage it does not own.
  bool borrows() const noexcept { return !owns_; }

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  std::size_t size() const noexcept { return rows_ * cols_; }
  bool empty() const noexcept { return size() == 0; }

  T* data() noexcept { return data_; }
  const T* data() const noexcept { return data_; }

  std::span<T> flat() noexcept { return {data_, size()}; }
  std::span<const T> flat() const noexcept { return {data_, size()}; }

  T& operator()(std::size_t r, std::size_t c) noexcept {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  const T& operator()(std::size_t r, std::size_t c) const noexcept {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  /// Row r as a contiguous span.
  std::span<T> row(std::size_t r) noexcept {
    assert(r < rows_);
    return {data_ + r * cols_, cols_};
  }
  std::span<const T> row(std::size_t r) const noexcept {
    assert(r < rows_);
    return {data_ + r * cols_, cols_};
  }

  void fill(T value) noexcept {
    for (std::size_t i = 0; i < size(); ++i) data_[i] = value;
  }

 private:
  static T* allocate(std::size_t count) {
    if (count == 0) return nullptr;
    // A count whose byte size wraps std::size_t would allocate a tiny
    // block and overflow the heap on first fill.
    if (count > (std::numeric_limits<std::size_t>::max() - 63) / sizeof(T))
      throw std::bad_alloc{};
    // 64-byte alignment: cache-line aligned rows help the packed GEMM
    // micro-kernel vectorise without peel loops.
    const std::size_t bytes = ((count * sizeof(T) + 63) / 64) * 64;
    void* p = std::aligned_alloc(64, bytes);
    if (!p) throw std::bad_alloc{};
    return static_cast<T*>(p);
  }

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  T* data_ = nullptr;
  bool owns_ = true;
};

using MatrixF = Matrix<float>;
using MatrixU8 = Matrix<unsigned char>;

}  // namespace tilesparse
