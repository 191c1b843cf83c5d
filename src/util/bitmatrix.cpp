#include "util/bitmatrix.hpp"

#include <algorithm>
#include <bit>

#include "util/simd/simd.hpp"

namespace rr {

BitMatrix::BitMatrix(int rows, int cols, bool fillValue) {
  RR_REQUIRE(rows >= 0 && cols >= 0, "BitMatrix dimensions must be >= 0");
  rows_ = rows;
  cols_ = cols;
  words_per_row_ = static_cast<std::size_t>((cols + 63) / 64);
  words_.assign(static_cast<std::size_t>(rows) * words_per_row_, 0);
  if (fillValue) fill();
}

void BitMatrix::clear() noexcept {
  std::fill(words_.begin(), words_.end(), 0);
}

void BitMatrix::clear_rows(int begin, int end) noexcept {
  begin = std::max(begin, 0);
  end = std::min(end, rows_);
  if (end <= begin) return;
  const auto row_start = [&](int r) {
    return words_.begin() + static_cast<std::ptrdiff_t>(
                                static_cast<std::size_t>(r) * words_per_row_);
  };
  std::fill(row_start(begin), row_start(end), 0);
}

void BitMatrix::fill() noexcept {
  if (empty()) return;
  std::fill(words_.begin(), words_.end(), ~std::uint64_t{0});
  // Mask off the tail bits beyond the last column in each row.
  const int tail = cols_ & 63;
  if (tail != 0) {
    const std::uint64_t mask = (std::uint64_t{1} << tail) - 1;
    for (int r = 0; r < rows_; ++r) {
      words_[static_cast<std::size_t>(r) * words_per_row_ +
             (words_per_row_ - 1)] &= mask;
    }
  }
}

std::size_t BitMatrix::popcount() const noexcept {
  return simd::popcount(words_);
}

std::size_t BitMatrix::row_popcount(int r) const noexcept {
  return simd::popcount(row_span(r));
}

std::uint64_t BitMatrix::row_window(int r, int c) const noexcept {
  // Reads 64 bits of row r starting at column c; columns outside [0, cols_)
  // contribute zeros. c may be negative.
  if (r < 0 || r >= rows_) return 0;
  std::uint64_t out = 0;
  const std::size_t base = static_cast<std::size_t>(r) * words_per_row_;
  // The window spans at most two stored words.
  const int firstWord = c >= 0 ? (c >> 6) : ((c - 63) / 64);
  const int shift = c - firstWord * 64;  // in [0, 63]
  auto load = [&](int wi) -> std::uint64_t {
    if (wi < 0 || wi >= static_cast<int>(words_per_row_)) return 0;
    return words_[base + static_cast<std::size_t>(wi)];
  };
  out = load(firstWord) >> shift;
  if (shift != 0) out |= load(firstWord + 1) << (64 - shift);
  return out;
}

bool BitMatrix::intersects_shifted(const BitMatrix& other, int dr,
                                   int dc) const noexcept {
  for (int r = 0; r < other.rows_; ++r) {
    const int tr = r + dr;
    if (tr < 0 || tr >= rows_) continue;
    const std::size_t obase =
        static_cast<std::size_t>(r) * other.words_per_row_;
    for (std::size_t wi = 0; wi < other.words_per_row_; ++wi) {
      const std::uint64_t ow = other.words_[obase + wi];
      if (ow == 0) continue;
      const int col = static_cast<int>(wi) * 64 + dc;
      if (ow & row_window(tr, col)) return true;
    }
  }
  return false;
}

std::size_t BitMatrix::overlap_popcount_shifted(const BitMatrix& other,
                                                int dr, int dc) const noexcept {
  std::size_t total = 0;
  for (int r = 0; r < other.rows_; ++r) {
    const int tr = r + dr;
    if (tr < 0 || tr >= rows_) continue;
    total += simd::shifted_and_popcount(other.row_span(r), row_span(tr), dc);
  }
  return total;
}

bool BitMatrix::covers_shifted(const BitMatrix& other, int dr,
                               int dc) const noexcept {
  for (int r = 0; r < other.rows_; ++r) {
    const int tr = r + dr;
    const std::size_t obase =
        static_cast<std::size_t>(r) * other.words_per_row_;
    for (std::size_t wi = 0; wi < other.words_per_row_; ++wi) {
      const std::uint64_t ow = other.words_[obase + wi];
      if (ow == 0) continue;
      if (tr < 0 || tr >= rows_) return false;
      const int col = static_cast<int>(wi) * 64 + dc;
      if ((ow & row_window(tr, col)) != ow) return false;
    }
  }
  return true;
}

namespace {

/// Column positions of the first and last set bit of a row span, or
/// nothing when the row is empty.
struct BitBounds {
  int lo;
  int hi;
  bool any;
};

BitBounds row_bit_bounds(std::span<const std::uint64_t> row) noexcept {
  BitBounds bounds{0, 0, false};
  for (std::size_t wi = 0; wi < row.size(); ++wi) {
    if (row[wi] == 0) continue;
    if (!bounds.any) {
      bounds.lo = static_cast<int>(wi) * 64 + std::countr_zero(row[wi]);
      bounds.any = true;
    }
    bounds.hi = static_cast<int>(wi) * 64 + 63 - std::countl_zero(row[wi]);
  }
  return bounds;
}

}  // namespace

void BitMatrix::or_shifted(const BitMatrix& other, int dr, int dc) noexcept {
  // Word-parallel per-row OR. The contract stays the per-cell one: every
  // set bit of `other` translated by (dr, dc) must land inside *this, which
  // is equivalent to its extremal set bits landing inside.
  for (int r = 0; r < other.rows_; ++r) {
    const auto src = other.row_span(r);
    const BitBounds bounds = row_bit_bounds(src);
    if (!bounds.any) continue;
    const int tr = r + dr;
    RR_ASSERT(tr >= 0 && tr < rows_ && bounds.lo + dc >= 0 &&
              bounds.hi + dc < cols_);
    const std::size_t w0 = static_cast<std::size_t>(bounds.lo + dc) >> 6;
    const std::size_t w1 = static_cast<std::size_t>(bounds.hi + dc) >> 6;
    const auto dst = row_span_mut(tr).subspan(w0, w1 - w0 + 1);
    simd::shift_or_into(dst, src, static_cast<long>(w0) * 64 - dc);
  }
}

void BitMatrix::clear_shifted(const BitMatrix& other, int dr, int dc) noexcept {
  // Word-parallel per-row AND-NOT; bits translated outside *this simply
  // fall off the gathered window, matching the per-cell semantics.
  for (int r = 0; r < other.rows_; ++r) {
    const int tr = r + dr;
    if (tr < 0 || tr >= rows_) continue;
    const auto src = other.row_span(r);
    const BitBounds bounds = row_bit_bounds(src);
    if (!bounds.any) continue;
    const long lo_word =
        std::max<long>(0, static_cast<long>(bounds.lo + dc) >> 6);
    const long hi_word = std::min<long>(
        static_cast<long>(words_per_row_) - 1,
        simd::detail::floor_div64(static_cast<long>(bounds.hi) + dc));
    if (hi_word < lo_word) continue;
    const auto dst =
        row_span_mut(tr).subspan(static_cast<std::size_t>(lo_word),
                                 static_cast<std::size_t>(hi_word - lo_word) +
                                     1);
    simd::shift_andnot_into(dst, src, lo_word * 64 - dc);
  }
}

void BitMatrix::and_with(const BitMatrix& other) noexcept {
  RR_ASSERT(rows_ == other.rows_ && cols_ == other.cols_);
  simd::and_inplace(words_, other.words_);
}

void BitMatrix::or_with(const BitMatrix& other) noexcept {
  RR_ASSERT(rows_ == other.rows_ && cols_ == other.cols_);
  simd::or_inplace(words_, other.words_);
}

std::string BitMatrix::to_string() const {
  std::string out;
  out.reserve(static_cast<std::size_t>(rows_) *
              (static_cast<std::size_t>(cols_) + 1));
  for (int r = 0; r < rows_; ++r) {
    for (int c = 0; c < cols_; ++c) out.push_back(get(r, c) ? '#' : '.');
    out.push_back('\n');
  }
  return out;
}

}  // namespace rr
