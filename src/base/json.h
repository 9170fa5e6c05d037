#ifndef CRSAT_BASE_JSON_H_
#define CRSAT_BASE_JSON_H_

#include <atomic>
#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace crsat {

/// Escapes `text` for use inside a JSON string literal: `"` and `\`
/// are backslash-escaped, `\n`, `\r` and `\t` use their short forms, and
/// every other byte below 0x20 is written as `\u00XX`. Bytes from 0x20 up
/// (UTF-8 sequences included) pass through unchanged.
///
/// Header-only, like `JsonWriter`, so that tools/srclint can share it
/// without linking any crsat library.
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

/// How one JSON container lays out its members.
enum class JsonLayout {
  /// One member per line, indented two spaces per enclosing container;
  /// `{}` / `[]` when empty.
  kMultiLine,
  /// One line, `", "` between members and `": "` after keys.
  kInline,
  /// One line, `","` and `":"`, no spaces.
  kCompact,
};

/// The one JSON writer behind every `--json` surface. It decides commas,
/// key and string quoting, number formatting and layout; callers only
/// say what to write:
///
///   JsonWriter json;
///   json.BeginObject(JsonLayout::kMultiLine)
///       .Member("schema", name)
///       .Key("classes").BeginArray(JsonLayout::kMultiLine);
///   ...
///   std::string text = json.End().End().str();
///
/// Integers print as `std::to_string` does, `double` as `std::ostream`'s
/// default (`0.303627`, `2476.91`, `1e+06`), `bool` as `true`/`false`.
/// Calls must nest correctly (a `Key` only inside an object, one `End`
/// per `Begin*`); the writer does not check them.
class JsonWriter {
 public:
  /// Opens an object or an array whose members follow `layout`.
  JsonWriter& BeginObject(JsonLayout layout = JsonLayout::kInline) {
    return Open('{', '}', layout);
  }
  JsonWriter& BeginArray(JsonLayout layout = JsonLayout::kInline) {
    return Open('[', ']', layout);
  }

  /// Closes the innermost open container.
  JsonWriter& End() {
    const Frame frame = open_.back();
    open_.pop_back();
    if (frame.layout == JsonLayout::kMultiLine && !frame.empty) {
      NewLine();
    }
    out_ += frame.close;
    return *this;
  }

  /// Writes an object key; the next value written is its value.
  JsonWriter& Key(std::string_view key) {
    Separate();
    Quote(key);
    out_ += open_.back().layout == JsonLayout::kCompact ? ":" : ": ";
    after_key_ = true;
    return *this;
  }

  /// Writes one value: a quoted, escaped string, or a number or bool.
  JsonWriter& Value(std::string_view text) {
    Separate();
    Quote(text);
    return *this;
  }
  // Without this overload a string literal would convert to bool.
  JsonWriter& Value(const char* text) { return Value(std::string_view(text)); }
  JsonWriter& Value(bool value) { return Raw(value ? "true" : "false"); }
  JsonWriter& Value(double value) {
    std::ostringstream text;
    text << value;
    return Raw(text.str());
  }
  template <typename Int,
            typename = std::enable_if_t<std::is_integral_v<Int>>>
  JsonWriter& Value(Int value) {
    return Raw(std::to_string(value));
  }
  /// A process-wide counter, read with a relaxed load.
  JsonWriter& Value(const std::atomic<std::uint64_t>& counter) {
    return Value(counter.load(std::memory_order_relaxed));
  }

  /// `Key(key)` then `Value(value)`.
  template <typename T>
  JsonWriter& Member(std::string_view key, const T& value) {
    return Key(key).Value(value);
  }

  /// Writes `json`, a value some other renderer already produced, as is.
  JsonWriter& Raw(std::string_view json) {
    Separate();
    out_ += json;
    return *this;
  }

  /// Everything written so far.
  const std::string& str() const { return out_; }

 private:
  struct Frame {
    char close;
    JsonLayout layout;
    bool empty = true;
  };

  JsonWriter& Open(char open, char close, JsonLayout layout) {
    Separate();
    out_ += open;
    open_.push_back({close, layout});
    return *this;
  }

  // Whatever goes between the previous member and the next one.
  void Separate() {
    if (after_key_ || open_.empty()) {
      after_key_ = false;
      return;
    }
    Frame& frame = open_.back();
    if (!frame.empty) {
      out_ += frame.layout == JsonLayout::kInline ? ", " : ",";
    }
    frame.empty = false;
    if (frame.layout == JsonLayout::kMultiLine) {
      NewLine();
    }
  }

  void NewLine() {
    out_ += '\n';
    out_.append(2 * open_.size(), ' ');
  }

  void Quote(std::string_view text) {
    out_ += '"';
    out_ += JsonEscape(text);
    out_ += '"';
  }

  std::string out_;
  std::vector<Frame> open_;
  bool after_key_ = false;
};

}  // namespace crsat

#endif  // CRSAT_BASE_JSON_H_
