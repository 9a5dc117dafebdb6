// String and path helpers shared by the VFS and reporting code.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace tocttou {

/// Splits a slash-separated path into components. Leading '/' marks the
/// path absolute (reflected by the caller checking is_absolute_path);
/// empty components and "." are dropped, ".." is preserved (resolved by
/// the VFS walk).
std::vector<std::string> split_path(std::string_view path);

/// Component cursor: returns the first component split_path would keep
/// at or after offset `pos` of `path`, and moves `pos` past it; returns
/// an empty view (kept components are never empty) once none is left.
/// The view aliases `path`, which must outlive it. This is the VFS
/// walk's form: path resolution runs on every simulated syscall, and
/// the cursor walks a path with no allocation at all.
///
///   std::size_t pos = 0;
///   for (std::string_view c = next_path_component(path, pos); !c.empty();
///        c = next_path_component(path, pos)) { ... }
inline std::string_view next_path_component(std::string_view path,
                                            std::size_t& pos) {
  while (pos < path.size()) {
    while (pos < path.size() && path[pos] == '/') ++pos;
    const std::size_t begin = pos;
    while (pos < path.size() && path[pos] != '/') ++pos;
    const std::string_view comp = path.substr(begin, pos - begin);
    if (!comp.empty() && comp != ".") return comp;
  }
  return {};
}

/// Number of components split_path would return, with no allocation.
std::size_t count_path_components(std::string_view path);

bool is_absolute_path(std::string_view path);

/// Joins components into an absolute path string.
std::string join_path(const std::vector<std::string>& components);

/// printf-style formatting into std::string.
std::string strfmt(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// RFC 4180 CSV field escaping: fields containing a comma, a double
/// quote, or a line break are wrapped in double quotes, with embedded
/// quotes doubled. Everything else passes through unchanged.
std::string csv_escape(std::string_view field);

/// Left/right padding for table rendering.
std::string pad_left(std::string_view s, std::size_t width);
std::string pad_right(std::string_view s, std::size_t width);

}  // namespace tocttou
