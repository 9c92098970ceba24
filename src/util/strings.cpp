#include "util/strings.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <type_traits>

#include "util/error.hpp"

namespace tr {

std::vector<std::string> split(std::string_view text, std::string_view delims) {
  std::vector<std::string> tokens;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t start = text.find_first_not_of(delims, pos);
    if (start == std::string_view::npos) break;
    std::size_t end = text.find_first_of(delims, start);
    if (end == std::string_view::npos) end = text.size();
    tokens.emplace_back(text.substr(start, end - start));
    pos = end;
  }
  return tokens;
}

std::string_view trim(std::string_view text) {
  const char* ws = " \t\r\n";
  const std::size_t first = text.find_first_not_of(ws);
  if (first == std::string_view::npos) return {};
  const std::size_t last = text.find_last_not_of(ws);
  return text.substr(first, last - first + 1);
}

std::string to_lower(std::string_view text) {
  std::string out(text);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

bool starts_with(std::string_view text, std::string_view prefix) {
  return text.substr(0, prefix.size()) == prefix;
}

std::string format_fixed(double value, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, value);
  return buf;
}

std::string join(const std::vector<std::string>& items, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += sep;
    out += items[i];
  }
  return out;
}

std::string sanitize_filename(std::string_view name) {
  std::string out;
  for (const char c : name) {
    const bool safe = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '-' || c == '_' ||
                      c == '.';
    out += safe ? c : '_';
  }
  return out.empty() ? "circuit" : out;
}

namespace {

/// Parses all of `text` as a T, or throws the usage-style error.
template <typename T>
T parse_whole(std::string_view what, std::string_view text,
              const char* expected) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  bool ok = !text.empty() && ec == std::errc() && ptr == end;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(value);
  if (!ok) {
    throw Error(std::string(what) + " expects " + expected + ", got '" +
                    std::string(text) + "'",
                ErrorCode::invalid_argument);
  }
  return value;
}

}  // namespace

long long parse_int(std::string_view what, std::string_view text) {
  return parse_whole<long long>(what, text, "an integer");
}

std::uint64_t parse_u64(std::string_view what, std::string_view text) {
  return parse_whole<std::uint64_t>(what, text, "a non-negative integer");
}

double parse_double(std::string_view what, std::string_view text) {
  return parse_whole<double>(what, text, "a finite number");
}

}  // namespace tr
