#pragma once
// Small string helpers shared by the BLIF parser, report printers and
// command-line parsers.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace tr {

/// Splits on any run of the characters in `delims`; no empty tokens.
std::vector<std::string> split(std::string_view text,
                               std::string_view delims = " \t");

/// Removes leading and trailing whitespace.
std::string_view trim(std::string_view text);

/// ASCII lower-casing (cell and net names are ASCII).
std::string to_lower(std::string_view text);

/// True if `text` begins with `prefix`.
bool starts_with(std::string_view text, std::string_view prefix);

/// Fixed-point formatting with `digits` decimals (printf %.*f).
std::string format_fixed(double value, int digits);

/// Joins the items with `sep` between them.
std::string join(const std::vector<std::string>& items, std::string_view sep);

/// `name` with every character outside [A-Za-z0-9._-] replaced by '_'
/// ("circuit" when empty): a file name that cannot escape its directory.
std::string sanitize_filename(std::string_view name);

/// Strict numeric parsing of a command-line value: text that is not
/// entirely a number of the kind (no leading space, no "nan"/"inf")
/// throws tr::Error (invalid_argument, "<what> expects ..., got
/// '<text>'") — never a silent 0 that quietly enables a zero delay
/// budget or turns a CI speedup gate off.
long long parse_int(std::string_view what, std::string_view text);
std::uint64_t parse_u64(std::string_view what, std::string_view text);
double parse_double(std::string_view what, std::string_view text);

}  // namespace tr
