#include "tocttou/common/strings.h"

#include <cstdarg>
#include <cstdio>

namespace tocttou {

std::size_t count_path_components(std::string_view path) {
  std::size_t n = 0;
  std::size_t pos = 0;
  while (!next_path_component(path, pos).empty()) ++n;
  return n;
}

bool is_absolute_path(std::string_view path) {
  return !path.empty() && path.front() == '/';
}

std::string strfmt(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list copy;
  va_copy(copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, copy);
  va_end(copy);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<std::size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args);
  }
  va_end(args);
  return out;
}

std::string csv_escape(std::string_view field) {
  if (field.find_first_of(",\"\r\n") == std::string_view::npos) {
    return std::string(field);
  }
  std::string out;
  out.reserve(field.size() + 2);
  out += '"';
  for (char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

std::string pad_right(std::string_view s, std::size_t width) {
  if (s.size() >= width) return std::string(s);
  return std::string(s) + std::string(width - s.size(), ' ');
}

}  // namespace tocttou
