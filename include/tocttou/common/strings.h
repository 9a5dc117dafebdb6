// String and path helpers shared by the VFS and reporting code.
#pragma once

#include <string>
#include <string_view>

namespace tocttou {

/// Component cursor over a slash-separated path: returns the first
/// component at or after offset `pos` of `path`, and moves `pos` past
/// it; returns an empty view (kept components are never empty) once none
/// is left. Empty components and "." are skipped, ".." is kept (resolved
/// by the VFS walk); whether the path is absolute is is_absolute_path's
/// question. The view aliases `path`, which must outlive it. No syscall
/// runs the cursor: a Path (common/path.h) runs it once, when it is
/// built, and walks read the components it stored. Setup helpers such as
/// Vfs::mkdir_p run it over a text directly, allocating nothing.
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

/// Number of components the cursor yields, with no allocation
/// (Path::size() for a parsed path).
std::size_t count_path_components(std::string_view path);

bool is_absolute_path(std::string_view path);

/// printf-style formatting into std::string.
std::string strfmt(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// RFC 4180 CSV field escaping: fields containing a comma, a double
/// quote, or a line break are wrapped in double quotes, with embedded
/// quotes doubled. Everything else passes through unchanged.
std::string csv_escape(std::string_view field);

/// Right padding for table rendering.
std::string pad_right(std::string_view s, std::size_t width);

}  // namespace tocttou
