#ifndef CRSAT_BASE_JSON_H_
#define CRSAT_BASE_JSON_H_

#include <string>
#include <string_view>

namespace crsat {

/// Escapes `text` for use inside a JSON string literal: `"` and `\`
/// are backslash-escaped, `\n`, `\r` and `\t` use their short forms, and
/// every other byte below 0x20 is written as `\u00XX`. Bytes from 0x20 up
/// (UTF-8 sequences included) pass through unchanged.
///
/// Header-only so that tools/srclint can share it without linking any
/// crsat library.
inline std::string JsonEscape(std::string_view text) {
  constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += "\\u00";
          out += kHex[(c >> 4) & 0xf];
          out += kHex[c & 0xf];
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace crsat

#endif  // CRSAT_BASE_JSON_H_
