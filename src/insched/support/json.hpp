#pragma once

// The one JSON codec of the tree: the serving protocol (serve/protocol.cpp),
// schedule and solution JSON (scheduler/serialize.cpp) and lint reports
// (scheduler/lint.cpp) all write strings with append_string and read with
// Reader. The payloads are small and flat, so no JSON library is needed.
//
// Rules, in both directions:
//   * strings: the writer escapes '"', '\' and every byte below 0x20 (short
//     forms \b \f \n \r \t, otherwise \u00xx) and copies every other byte
//     verbatim, so UTF-8 passes through. The reader decodes every RFC 8259
//     escape, \uXXXX and surrogate pairs included, to UTF-8; a bad escape or
//     a lone surrogate throws. Unescaped bytes are taken verbatim.
//   * numbers follow the RFC 8259 grammar and must be finite doubles;
//     integers must also be integral and fit in a long (never rounded).
//   * raw() captures one value verbatim and nests at most kMaxDepth levels.
// Every decode error is a std::runtime_error naming the byte offset.
//
// The per-token methods are inline: a request decode calls them once per
// token, and the rare paths (escapes, errors, raw values) live in json.cpp.

#include <charconv>
#include <cmath>
#include <cstddef>
#include <string>
#include <string_view>

namespace insched::json {

/// Appends `text` to `out` as a quoted JSON string.
void append_string(std::string& out, std::string_view text);

/// Recursive-descent reader over one JSON text, which must outlive it.
class Reader {
 public:
  /// Deepest array/object nesting raw() accepts.
  static constexpr int kMaxDepth = 64;

  explicit Reader(const std::string& text) noexcept : text_(text) {}
  explicit Reader(std::string&&) = delete;  // would dangle

  /// Consumes `c` (after whitespace) or throws.
  void expect(char c) {
    skip();
    if (pos_ >= text_.size() || text_[pos_] != c) fail_expected(c);
    ++pos_;
  }

  /// Consumes `c` (after whitespace) when it is next.
  [[nodiscard]] bool accept(char c) noexcept {
    skip();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  /// A string value with its escapes decoded.
  [[nodiscard]] std::string string() {
    expect('"');
    const std::size_t start = pos_;
    for (; pos_ < text_.size(); ++pos_) {
      const char c = text_[pos_];
      if (c == '"') {
        std::string out(text_.substr(start, pos_ - start));
        ++pos_;
        return out;
      }
      if (c == '\\') return escaped_string(start);
    }
    fail("unterminated string");
  }

  /// A finite number.
  [[nodiscard]] double number() { return finite(number_token()); }

  /// An integral number that fits in a long. "3", "3.0" and "3e0" read as
  /// 3; "2.5" and "1e300" throw.
  [[nodiscard]] long integer() {
    const std::string_view token = number_token();
    if (token.find_first_of(".eE") != std::string_view::npos) return integral(finite(token));
    long value = 0;
    if (std::from_chars(token.data(), token.data() + token.size(), value).ec != std::errc())
      fail("integer out of range");
    return value;
  }

  /// `true` or `false`.
  [[nodiscard]] bool boolean() {
    skip();
    if (text_.substr(pos_, 4) == "true") {
      pos_ += 4;
      return true;
    }
    if (text_.substr(pos_, 5) == "false") {
      pos_ += 5;
      return false;
    }
    fail("expected boolean");
  }

  /// Reads an object, calling `field(key)` after each key's ':'; `field`
  /// must consume the value.
  template <typename Field>
  void object(Field&& field) {
    expect('{');
    if (accept('}')) return;
    do {
      const std::string key = string();
      expect(':');
      field(key);
    } while (accept(','));
    expect('}');
  }

  /// Reads an array, calling `item()` once per element to consume it.
  template <typename Item>
  void array(Item&& item) {
    expect('[');
    if (accept(']')) return;
    do {
      item();
    } while (accept(','));
    expect(']');
  }

  /// Consumes one value of any kind and returns its verbatim text (carries
  /// nested objects such as a response's "solution" through unparsed).
  [[nodiscard]] std::string raw();

  /// Throws unless only whitespace remains.
  void expect_end() {
    skip();
    if (pos_ != text_.size()) fail("trailing data");
  }

 private:
  void skip() noexcept {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\n' ||
                                   text_[pos_] == '\r' || text_[pos_] == '\t'))
      ++pos_;
  }

  void digits() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
    if (pos_ == start) fail("expected number");
  }

  /// Consumes one number token: -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?
  [[nodiscard]] std::string_view number_token() {
    skip();
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    if (pos_ < text_.size() && text_[pos_] == '0') ++pos_;
    else digits();
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      digits();
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      digits();
    }
    return text_.substr(start, pos_ - start);
  }

  [[nodiscard]] double finite(std::string_view token) const {
    double value = 0.0;
    if (std::from_chars(token.data(), token.data() + token.size(), value).ec != std::errc())
      value = out_of_range(token);
    if (!std::isfinite(value)) fail("number out of range");
    return value;
  }

  [[nodiscard]] std::string escaped_string(std::size_t start);
  [[nodiscard]] unsigned hex4();
  /// strtod's reading of a token from_chars refused: an overflow becomes
  /// infinite (and throws), an underflow becomes zero or subnormal.
  [[nodiscard]] static double out_of_range(std::string_view token);
  [[nodiscard]] long integral(double value) const;
  void skip_value(int depth);
  [[noreturn]] void fail(const char* what) const;
  [[noreturn]] void fail_expected(char c) const;

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace insched::json
