// Minimal JSON emission helpers shared by every hand-rolled JSON writer
// in the library (EnumerateStats::ToJson, the wire protocol's replies).
// One implementation keeps the escaping rules and the non-finite-double
// handling from drifting between emitters.
#ifndef KBIPLEX_UTIL_JSON_H_
#define KBIPLEX_UTIL_JSON_H_

#include <cmath>
#include <cstdio>
#include <ostream>
#include <string>

namespace kbiplex {
namespace json {

/// Appends `s` as a quoted JSON string, escaping quotes, backslashes,
/// newlines, and all other control characters.
inline void AppendEscaped(std::ostream& os, const std::string& s) {
  os << '"';
  for (char c : s) {
    switch (c) {
      case '"':
        os << "\\\"";
        break;
      case '\\':
        os << "\\\\";
        break;
      case '\n':
        os << "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

/// Appends a double as a JSON value. JSON has no inf/nan literals;
/// default ostream formatting would emit them bare and corrupt the
/// document, so non-finite values render as null.
inline void AppendDouble(std::ostream& os, double value) {
  if (!std::isfinite(value)) {
    os << "null";
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  os << buf;
}

/// The JSON spelling of a bool.
inline const char* Bool(bool b) { return b ? "true" : "false"; }

}  // namespace json
}  // namespace kbiplex

#endif  // KBIPLEX_UTIL_JSON_H_
