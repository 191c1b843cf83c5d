// Dense 2-D bit matrix with word-parallel row operations.
//
// The placer represents per-resource fabric occupancy and shape footprints
// as bit matrices; computing the set of valid anchors for a shape is a 2-D
// correlation implemented as shifted word-AND sweeps, which is the hot inner
// loop of model construction.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace rr {

class BitMatrix {
 public:
  BitMatrix() = default;
  BitMatrix(int rows, int cols, bool fill = false);

  [[nodiscard]] int rows() const noexcept { return rows_; }
  [[nodiscard]] int cols() const noexcept { return cols_; }
  [[nodiscard]] bool empty() const noexcept { return rows_ == 0 || cols_ == 0; }

  [[nodiscard]] bool get(int r, int c) const noexcept {
    RR_ASSERT(in_bounds(r, c));
    return (word(r, c) >> bit(c)) & 1u;
  }

  void set(int r, int c, bool value = true) noexcept {
    RR_ASSERT(in_bounds(r, c));
    if (value)
      word(r, c) |= (std::uint64_t{1} << bit(c));
    else
      word(r, c) &= ~(std::uint64_t{1} << bit(c));
  }

  void clear() noexcept;
  void fill() noexcept;

  /// Clear rows [begin, end) (clipped to the matrix; empty when end <= begin).
  void clear_rows(int begin, int end) noexcept;

  /// Number of set bits.
  [[nodiscard]] std::size_t popcount() const noexcept;

  /// Number of set bits in row r.
  [[nodiscard]] std::size_t row_popcount(int r) const noexcept;

  /// True iff any bit of `other` overlaps a set bit of *this when `other`
  /// is translated by (dr, dc). Bits of `other` falling outside *this are
  /// ignored (treated as non-overlapping).
  [[nodiscard]] bool intersects_shifted(const BitMatrix& other, int dr,
                                        int dc) const noexcept;

  /// Number of set bits shared by *this and `other` translated by (dr, dc)
  /// — the overlap area behind intersects_shifted. Bits of `other` falling
  /// outside *this count as non-overlapping.
  [[nodiscard]] std::size_t overlap_popcount_shifted(const BitMatrix& other,
                                                     int dr,
                                                     int dc) const noexcept;

  /// OR `other` into *this translated by (dr, dc); out-of-range bits of
  /// `other` must be zero or an assertion fires.
  void or_shifted(const BitMatrix& other, int dr, int dc) noexcept;

  /// AND-NOT: clear every bit of *this that is set in `other` translated by
  /// (dr, dc).
  void clear_shifted(const BitMatrix& other, int dr, int dc) noexcept;

  /// In-place AND with a same-shaped matrix.
  void and_with(const BitMatrix& other) noexcept;

  /// In-place OR with a same-shaped matrix.
  void or_with(const BitMatrix& other) noexcept;

  /// True iff every set bit of `other`, translated by (dr, dc), lands on a
  /// set bit of *this (i.e. `other` "fits under" *this). Bits of `other`
  /// translated outside *this make the result false.
  [[nodiscard]] bool covers_shifted(const BitMatrix& other, int dr,
                                    int dc) const noexcept;

  bool operator==(const BitMatrix& other) const noexcept = default;

  /// Words per stored row (rows are contiguous, tail bits beyond cols()
  /// are zero). Together with row_span this is the raw view the SIMD batch
  /// kernels (geost/anchor_kernel) operate on.
  [[nodiscard]] std::size_t words_per_row() const noexcept {
    return words_per_row_;
  }

  /// The words of row r (length words_per_row()).
  [[nodiscard]] std::span<const std::uint64_t> row_span(int r) const noexcept {
    RR_ASSERT(r >= 0 && r < rows_);
    return {words_.data() + static_cast<std::size_t>(r) * words_per_row_,
            words_per_row_};
  }

  /// Mutable view of row r. Callers must keep tail bits beyond cols() zero
  /// — every other operation relies on that invariant.
  [[nodiscard]] std::span<std::uint64_t> row_span_mut(int r) noexcept {
    RR_ASSERT(r >= 0 && r < rows_);
    return {words_.data() + static_cast<std::size_t>(r) * words_per_row_,
            words_per_row_};
  }

  /// The 64-bit window of row r beginning at column c: bit i is cell
  /// (r, c + i). r and c may lie outside the matrix; out-of-range cells read
  /// as zero.
  [[nodiscard]] std::uint64_t row_window(int r, int c) const noexcept;

  /// Multi-line string with '#' for set bits and '.' for clear bits;
  /// row 0 printed first.
  [[nodiscard]] std::string to_string() const;

 private:
  [[nodiscard]] bool in_bounds(int r, int c) const noexcept {
    return r >= 0 && r < rows_ && c >= 0 && c < cols_;
  }
  [[nodiscard]] std::uint64_t& word(int r, int c) noexcept {
    return words_[static_cast<std::size_t>(r) * words_per_row_ +
                  static_cast<std::size_t>(c >> 6)];
  }
  [[nodiscard]] const std::uint64_t& word(int r, int c) const noexcept {
    return words_[static_cast<std::size_t>(r) * words_per_row_ +
                  static_cast<std::size_t>(c >> 6)];
  }
  static int bit(int c) noexcept { return c & 63; }

  int rows_ = 0;
  int cols_ = 0;
  std::size_t words_per_row_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace rr
