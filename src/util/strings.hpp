// Small string parsing helpers and the line lexer shared by every text
// format (.fdf, .mlf, .fft, .net and serve traces).
#pragma once

#include <iosfwd>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/error.hpp"

namespace rr {

/// Strip leading/trailing ASCII whitespace.
[[nodiscard]] std::string_view trim(std::string_view s) noexcept;

/// Split on a delimiter; empty fields are preserved.
[[nodiscard]] std::vector<std::string_view> split(std::string_view s,
                                                  char delim);

/// Split on runs of whitespace; no empty fields.
[[nodiscard]] std::vector<std::string_view> split_ws(std::string_view s);

/// Parse a base-10 integer; nullopt on any trailing garbage or overflow.
[[nodiscard]] std::optional<long> parse_int(std::string_view s) noexcept;

/// Parse a double; nullopt on any trailing garbage.
[[nodiscard]] std::optional<double> parse_double(std::string_view s) noexcept;

/// True when `s` begins with `prefix`.
[[nodiscard]] bool starts_with(std::string_view s,
                               std::string_view prefix) noexcept;

/// Lower-case an ASCII string.
[[nodiscard]] std::string to_lower(std::string_view s);

/// Line lexer of the text formats: reads and counts lines, strips
/// surrounding whitespace (a CRLF's CR too), splits whitespace fields,
/// checks numeric fields, and throws every error located as
/// InvalidInput("<source>:<line>: <what>").
class LineLexer {
 public:
  /// `source` names the input in errors; `in` must outlive the lexer.
  LineLexer(std::istream& in, std::string source);

  /// Advance to the next directive line: '#' starts a comment running to
  /// the end of the line, and lines left blank are skipped. False at EOF.
  bool next();
  /// Advance to the next line as written, blank or holding '#' (.mlf shape
  /// pictures). False at EOF.
  bool next_raw();

  /// 1-based number of the current line; at EOF, the last line read.
  [[nodiscard]] int line() const noexcept { return line_; }
  [[nodiscard]] std::string_view text() const noexcept { return text_; }
  [[nodiscard]] std::size_t size() const noexcept { return fields_.size(); }
  [[nodiscard]] std::string_view operator[](std::size_t i) const {
    RR_ASSERT(i < fields_.size());
    return fields_[i];
  }

  /// Field `i` as a base-10 Int no less than `min`; fails with `error`
  /// when it is missing, not an integer, or out of range.
  template <class Int = int>
  [[nodiscard]] Int integer(std::size_t i, std::string_view error,
                            Int min = std::numeric_limits<Int>::min()) const {
    const std::optional<long> value =
        i < size() ? parse_int(fields_[i]) : std::nullopt;
    if (!value || *value < min || *value > std::numeric_limits<Int>::max())
      fail(error);
    return static_cast<Int>(*value);
  }
  /// Field `i` as a finite double; fails with `error` otherwise.
  [[nodiscard]] double number(std::size_t i, std::string_view error) const;

  [[noreturn]] void fail(std::string_view what) const { fail_at(line_, what); }
  /// Fail located at an earlier `line` (the first line of a block).
  [[noreturn]] void fail_at(int line, std::string_view what) const;

 private:
  void set(std::string_view text);

  std::istream& in_;
  std::string source_;
  std::string buffer_;
  std::string_view text_;
  std::vector<std::string_view> fields_;  // views into buffer_
  int line_ = 0;
};

}  // namespace rr
