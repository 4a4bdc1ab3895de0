#include "common/strings.h"

#include <charconv>
#include <cmath>
#include <cstdio>

namespace erasmus {

std::string format_double(double v) {
  if (std::isnan(v)) return "null";
  if (std::isinf(v)) return v > 0 ? "1e999" : "-1e999";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  std::string s(buf, res.ptr);
  // Bare integers read as integers in JSON; keep the real-ness visible.
  if (s.find('.') == std::string::npos &&
      s.find('e') == std::string::npos) {
    s += ".0";
  }
  return s;
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_quote(std::string_view s) {
  // Appended piecewise: `"\"" + std::string&&` trips g++ 12's -Wrestrict
  // false positive (GCC bug 105329) in Release builds.
  std::string out = "\"";
  out += json_escape(s);
  out += '"';
  return out;
}

}  // namespace erasmus
