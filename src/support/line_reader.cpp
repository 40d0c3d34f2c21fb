#include "src/support/line_reader.hpp"

#include <algorithm>
#include <cmath>

namespace automap {

std::optional<double> parse_double(std::string_view token, bool allow_inf) {
  double value = 0.0;
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  if (std::isfinite(value) || (allow_inf && value > 0)) return value;
  return std::nullopt;
}

double to_double(std::string_view token, std::string_view field) {
  if (const std::optional<double> v = parse_double(token)) return *v;
  throw Error(std::string(field) + ": expected a finite number, got '" +
              std::string(token) + "'");
}

double to_double_or_inf(std::string_view token, std::string_view field) {
  if (const std::optional<double> v = parse_double(token, true)) return *v;
  throw Error(std::string(field) + ": expected a finite number or inf, got '" +
              std::string(token) + "'");
}

namespace {
/// Token separators. A character test, not std::string_view::find_first_of:
/// that calls memchr over the separator set once per character scanned.
bool is_blank(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f';
}
}  // namespace

bool LineReader::next() {
  tokens_.clear();
  while (tokens_.empty() && pos_ < text_.size()) {
    const std::size_t end = std::min(text_.find('\n', pos_), text_.size());
    std::string_view line = text_.substr(pos_, end - pos_);
    pos_ = end + 1;
    ++line_number_;
    line = line.substr(0, line.find('#'));
    const char* p = line.data();
    const char* const stop = p + line.size();
    while (true) {
      while (p != stop && is_blank(*p)) ++p;
      if (p == stop) break;
      const char* const start = p;
      while (p != stop && !is_blank(*p)) ++p;
      tokens_.emplace_back(start, static_cast<std::size_t>(p - start));
    }
  }
  return !tokens_.empty();
}

void LineReader::expect_line(std::string_view usage, bool more) const {
  std::size_t word = 0;
  bool ok = true;
  for (std::size_t i = 0; ok && i < usage.size(); ++word) {
    const std::size_t end = std::min(usage.find(' ', i), usage.size());
    const std::string_view w = usage.substr(i, end - i);
    ok = word < tokens_.size() && (w.front() == '<' || w == tokens_[word]);
    i = end + 1;
  }
  if (!ok || (more ? tokens_.size() < word : tokens_.size() != word))
    throw Error("expected: " + std::string(usage) + (more ? " ..." : ""));
}

}  // namespace automap
