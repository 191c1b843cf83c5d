#include "util/strings.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <istream>
#include <utility>

namespace rr {

std::string_view trim(std::string_view s) noexcept {
  std::size_t begin = 0;
  std::size_t end = s.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(s[begin])))
    ++begin;
  while (end > begin && std::isspace(static_cast<unsigned char>(s[end - 1])))
    --end;
  return s.substr(begin, end - begin);
}

std::vector<std::string_view> split(std::string_view s, char delim) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == delim) {
      out.push_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::vector<std::string_view> split_ws(std::string_view s) {
  std::vector<std::string_view> out;
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    const std::size_t start = i;
    while (i < s.size() && !std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    if (i > start) out.push_back(s.substr(start, i - start));
  }
  return out;
}

std::optional<long> parse_int(std::string_view s) noexcept {
  s = trim(s);
  if (s.empty()) return std::nullopt;
  long value = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc{} || ptr != s.data() + s.size()) return std::nullopt;
  return value;
}

std::optional<double> parse_double(std::string_view s) noexcept {
  s = trim(s);
  if (s.empty()) return std::nullopt;
  double value = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc{} || ptr != s.data() + s.size()) return std::nullopt;
  return value;
}

bool starts_with(std::string_view s, std::string_view prefix) noexcept {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::string to_lower(std::string_view s) {
  std::string out(s);
  for (char& ch : out)
    ch = static_cast<char>(std::tolower(static_cast<unsigned char>(ch)));
  return out;
}

LineLexer::LineLexer(std::istream& in, std::string source)
    : in_(in), source_(std::move(source)) {}

bool LineLexer::next() {
  while (std::getline(in_, buffer_)) {
    ++line_;
    const std::string_view text =
        trim(std::string_view(buffer_).substr(0, buffer_.find('#')));
    if (text.empty()) continue;
    set(text);
    return true;
  }
  set({});
  return false;
}

bool LineLexer::next_raw() {
  const bool more = static_cast<bool>(std::getline(in_, buffer_));
  if (more) ++line_;
  set(more ? trim(buffer_) : std::string_view{});
  return more;
}

void LineLexer::set(std::string_view text) {
  text_ = text;
  fields_ = split_ws(text);
}

double LineLexer::number(std::size_t i, std::string_view error) const {
  const std::optional<double> value =
      i < size() ? parse_double(fields_[i]) : std::nullopt;
  if (!value || !std::isfinite(*value)) fail(error);
  return *value;
}

void LineLexer::fail_at(int line, std::string_view what) const {
  throw InvalidInput(source_ + ':' + std::to_string(line) + ": " +
                     std::string(what));
}

}  // namespace rr
