// String helpers used throughout parcl. All functions but append_int, which
// appends to its argument, are pure.
#pragma once

#include <charconv>
#include <string>
#include <string_view>
#include <vector>

namespace parcl::util {

/// Splits `text` on `sep`, keeping empty fields. split("a,,b", ',') ->
/// {"a","","b"}; split("", ',') -> {""}.
std::vector<std::string> split(std::string_view text, char sep);

/// Splits on any run of whitespace, dropping empty fields.
std::vector<std::string> split_ws(std::string_view text);

/// Splits into lines; a trailing newline does not produce an empty last line.
std::vector<std::string> split_lines(std::string_view text);

/// Joins `parts` with `sep` between consecutive elements.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// Removes leading and trailing whitespace.
std::string trim(std::string_view text);

bool starts_with(std::string_view text, std::string_view prefix) noexcept;
bool ends_with(std::string_view text, std::string_view suffix) noexcept;
bool contains(std::string_view text, std::string_view needle) noexcept;

/// Replaces every occurrence of `from` (must be non-empty) with `to`.
std::string replace_all(std::string_view text, std::string_view from,
                        std::string_view to);

/// Basename of a path ("/a/b/c.txt" -> "c.txt"); no filesystem access.
std::string path_basename(std::string_view path);

/// Dirname of a path ("/a/b/c.txt" -> "/a/b", "c.txt" -> ".").
std::string path_dirname(std::string_view path);

/// Path without its final extension ("a/b.c.txt" -> "a/b.c"). Dot-files keep
/// their name ("a/.rc" -> "a/.rc").
std::string strip_extension(std::string_view path);

/// Extension including the dot ("a/b.txt" -> ".txt"), empty if none.
std::string extension(std::string_view path);

/// Parses an integer (negative allowed); throws ParseError on anything
/// else. Joblog Exitval columns rely on the sign: -1 marks a
/// dependency-skipped job.
long parse_long(std::string_view text);

/// Parses a double; throws ParseError on anything else.
double parse_double(std::string_view text);

/// Appends `value` in decimal to `out`, as std::to_chars writes it: no
/// locale and no temporary string.
template <typename Int>
void append_int(std::string& out, Int value) {
  char buffer[24];
  out.append(buffer, std::to_chars(buffer, buffer + sizeof(buffer), value).ptr);
}

/// Formats with fixed precision, e.g. format_double(1.5, 2) == "1.50".
std::string format_double(double value, int precision);

/// Human-readable byte count: 1536 -> "1.5 KiB".
std::string format_bytes(double bytes);

/// Human-readable duration in seconds: 90.0 -> "1m30s".
std::string format_duration(double seconds);

}  // namespace parcl::util
