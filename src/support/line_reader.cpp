#include "src/support/line_reader.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>

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
/// Token separators: space, \t, \v, \f and \r, as one bit test per
/// character.
constexpr std::uint64_t kBlanks = (1ULL << ' ') | (1ULL << '\t') |
                                  (1ULL << '\v') | (1ULL << '\f') |
                                  (1ULL << '\r');
bool is_blank(char c) {
  const auto u = static_cast<unsigned char>(c);
  return u <= ' ' && ((kBlanks >> u) & 1) != 0;
}
}  // namespace

bool LineReader::next() {
  tokens_.clear();
  const char* const text_end = text_.data() + text_.size();
  while (tokens_.empty() && pos_ < text_.size()) {
    const char* p = text_.data() + pos_;
    const std::size_t rest = static_cast<std::size_t>(text_end - p);
    const char* eol = static_cast<const char*>(std::memchr(p, '\n', rest));
    if (eol == nullptr) eol = text_end;
    pos_ = static_cast<std::size_t>(eol - text_.data()) + 1;
    ++line_number_;
    // A '#' starts a comment that runs to the end of the line.
    const char* stop = static_cast<const char*>(
        std::memchr(p, '#', static_cast<std::size_t>(eol - p)));
    if (stop == nullptr) stop = eol;
    // One pass: each character either extends the current token or ends it.
    const char* start = nullptr;
    for (; p != stop; ++p) {
      if (!is_blank(*p)) {
        if (start == nullptr) start = p;
      } else if (start != nullptr) {
        tokens_.emplace_back(start, static_cast<std::size_t>(p - start));
        start = nullptr;
      }
    }
    if (start != nullptr)
      tokens_.emplace_back(start, static_cast<std::size_t>(stop - start));
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
