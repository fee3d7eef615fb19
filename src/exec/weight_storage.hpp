#pragma once
// Owning-or-borrowing storage for PackedWeight payloads.
//
// Packing produces weights that own their arrays (vectors, Matrix
// allocations).  Loading an artifact instead resolves payloads to spans
// into an artifact image — a read-only mmap shared through the page
// cache, or the owned buffer a file or stream was read into
// (io/mmap_file.hpp) — so N serving processes mapping one artifact pay
// one copy of RSS between them.  This header provides the small storage
// types that hold either form behind one interface:
//
//  * Matrix<T> itself grows a borrowed mode (tensor/matrix.hpp) for
//    the dense / tile / int8-tile payloads;
//  * ArrayStore<T> is the same idea for flat arrays (CSR/CSC index and
//    value sections);
//  * CsrStore / CscStore bundle the arrays of one sparse matrix and
//    hand kernels a CsrRef / CscRef view either way.
//
// Lifetime: borrowed storage aliases the image, so every borrowing
// weight holds a StorageKeepalive (shared_ptr to the mapping or buffer)
// — the image lives as long as any weight loaded from it.  Packed
// weights, shards and copies own their storage; only loaded weights
// borrow.

#include <cstddef>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "sparse/csc.hpp"
#include "sparse/csr.hpp"

namespace tilesparse {

/// Shared ownership of whatever backs borrowed storage (the MmapFile
/// or the owned image buffer).  Type-erased: storage code never needs
/// the owner's interface, only its lifetime.
using StorageKeepalive = std::shared_ptr<const void>;

/// A flat array that either owns a vector or borrows a span of someone
/// else's immutable storage.  Copy/move keep working: the span member
/// points into external storage (never into the owned vector), so the
/// default member-wise copy stays valid.
template <typename T>
class ArrayStore {
 public:
  ArrayStore() = default;
  ArrayStore(std::vector<T> owned)  // NOLINT(google-explicit-constructor)
      : owned_(std::move(owned)) {}

  static ArrayStore borrowed(std::span<const T> view) noexcept {
    ArrayStore s;
    s.view_ = view;
    s.borrows_ = true;
    return s;
  }

  std::span<const T> span() const noexcept {
    return borrows_ ? view_ : std::span<const T>(owned_);
  }
  const T* data() const noexcept { return span().data(); }
  std::size_t size() const noexcept {
    return borrows_ ? view_.size() : owned_.size();
  }
  bool empty() const noexcept { return size() == 0; }
  bool borrows() const noexcept { return borrows_; }

  const T& operator[](std::size_t i) const noexcept { return span()[i]; }

 private:
  std::vector<T> owned_;
  std::span<const T> view_;
  bool borrows_ = false;
};

/// CSR arrays in owning-or-borrowing form; kernels consume ref().
struct CsrStore {
  std::size_t rows = 0;
  std::size_t cols = 0;
  ArrayStore<std::int64_t> row_ptr;
  ArrayStore<std::int32_t> col_idx;
  ArrayStore<float> values;

  CsrStore() = default;
  explicit CsrStore(Csr own)
      : rows(own.rows),
        cols(own.cols),
        row_ptr(std::move(own.row_ptr)),
        col_idx(std::move(own.col_idx)),
        values(std::move(own.values)) {}

  std::size_t nnz() const noexcept { return values.size(); }
  bool borrows() const noexcept { return values.borrows(); }
  CsrRef ref() const noexcept {
    return {rows, cols, row_ptr.span(), col_idx.span(), values.span()};
  }
};

/// CSC arrays in owning-or-borrowing form; kernels consume ref().
struct CscStore {
  std::size_t rows = 0;
  std::size_t cols = 0;
  ArrayStore<std::int64_t> col_ptr;
  ArrayStore<std::int32_t> row_idx;
  ArrayStore<float> values;

  CscStore() = default;
  explicit CscStore(Csc own)
      : rows(own.rows),
        cols(own.cols),
        col_ptr(std::move(own.col_ptr)),
        row_idx(std::move(own.row_idx)),
        values(std::move(own.values)) {}

  std::size_t nnz() const noexcept { return values.size(); }
  bool borrows() const noexcept { return values.borrows(); }
  CscRef ref() const noexcept {
    return {rows, cols, col_ptr.span(), row_idx.span(), values.span()};
  }
};

}  // namespace tilesparse
