#pragma once

// The one reader for every line-oriented text input (machine, task graph,
// mapping, profiles database, checkpoint) and the typed
// number conversions CLI flags, wire fields and store names share with it.
// The lexical and number rules are those of docs/file_formats.md.

#include <charconv>
#include <cstddef>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/support/error.hpp"

namespace automap {

/// Exact value of an integer token in [lo, hi], or nullopt.
template <typename T>
[[nodiscard]] std::optional<T> parse_int(std::string_view token, T lo, T hi,
                                         int base = 10) {
  T value{};
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value, base);
  if (ec != std::errc() || ptr != end || value < lo || value > hi)
    return std::nullopt;
  return value;
}

/// Exact value of a finite double token (or `inf` when `allow_inf`), or
/// nullopt.
[[nodiscard]] std::optional<double> parse_double(std::string_view token,
                                                 bool allow_inf = false);

/// Throwing forms: an Error naming `field` and the token.
template <typename T>
[[nodiscard]] T to_int(std::string_view token, T lo, T hi,
                       std::string_view field) {
  if (const std::optional<T> v = parse_int(token, lo, hi)) return *v;
  throw Error(std::string(field) + ": expected an integer in [" +
              std::to_string(lo) + ", " + std::to_string(hi) + "], got '" +
              std::string(token) + "'");
}
/// Same, over the whole range of T.
template <typename T>
[[nodiscard]] T to_int(std::string_view token, std::string_view field) {
  return to_int(token, std::numeric_limits<T>::min(),
                std::numeric_limits<T>::max(), field);
}
[[nodiscard]] double to_double(std::string_view token, std::string_view field);
/// For the fields whose writers emit an infinite mean or clock.
[[nodiscard]] double to_double_or_inf(std::string_view token,
                                      std::string_view field);

/// Cursor over the lines of one text. Tokens are views into the text, so
/// the text must outlive the reader and every token taken from it.
class LineReader {
 public:
  explicit LineReader(std::string_view text) : text_(text) {}

  /// Advances to the next line that is not blank or a comment and splits
  /// it into tokens; false at the end of the text.
  bool next();

  [[nodiscard]] std::size_t size() const { return tokens_.size(); }
  [[nodiscard]] std::string_view operator[](std::size_t i) const {
    return tokens_[i];
  }
  [[nodiscard]] int line_number() const { return line_number_; }

  /// Throws unless the current line matches `usage` word for word, e.g.
  /// "mem <kind> count <n> capacity <bytes>": one token per word, and each
  /// word outside <angle brackets> literally. With `more`, the line may
  /// continue past the usage.
  void expect_line(std::string_view usage, bool more = false) const;
  /// Reads the next line and requires it to match `usage`.
  void next_line(std::string_view usage, bool more = false) {
    next();  // at the end of the text no tokens are left to match
    expect_line(usage, more);
  }

  /// Runs `body`, re-throwing any Error from it as "line N: <message>" for
  /// the current line. Each format's entry point parses inside one call.
  template <typename Body>
  decltype(auto) at_line(Body&& body) const {
    try {
      return body();
    } catch (const Error& e) {
      throw Error("line " + std::to_string(line_number_) + ": " + e.what());
    }
  }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
  int line_number_ = 0;
  std::vector<std::string_view> tokens_;
};

}  // namespace automap
