#include "insched/support/json.hpp"

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <stdexcept>

#include "insched/support/string_util.hpp"

namespace insched::json {

namespace {

void append_escape(std::string& out, unsigned char c) {
  switch (c) {
    case '"': out += "\\\""; break;
    case '\\': out += "\\\\"; break;
    case '\b': out += "\\b"; break;
    case '\f': out += "\\f"; break;
    case '\n': out += "\\n"; break;
    case '\r': out += "\\r"; break;
    case '\t': out += "\\t"; break;
    default: out += format("\\u%04x", static_cast<unsigned>(c));
  }
}

void append_utf8(std::string& out, unsigned code) {
  static constexpr unsigned kLead[] = {0x00, 0xC0, 0xE0, 0xF0};  // by continuation count
  const int tail = code < 0x80 ? 0 : code < 0x800 ? 1 : code < 0x10000 ? 2 : 3;
  out += static_cast<char>(kLead[tail] | (code >> (6 * tail)));
  for (int shift = 6 * (tail - 1); shift >= 0; shift -= 6)
    out += static_cast<char>(0x80 | ((code >> shift) & 0x3F));
}

}  // namespace

void append_number(std::string& out, double value) {
  if (!std::isfinite(value)) {
    out += "null";
    return;
  }
  char buf[32];
  const int n = std::snprintf(buf, sizeof buf, "%.17g", value);
  out.append(buf, static_cast<std::size_t>(n));
}

void append_string(std::string& out, std::string_view text) {
  out += '"';
  std::size_t run = 0;  // start of the bytes not yet copied
  for (std::size_t i = 0; i < text.size(); ++i) {
    const auto c = static_cast<unsigned char>(text[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(text.substr(run, i - run));
    append_escape(out, c);
    run = i + 1;
  }
  out.append(text.substr(run));
  out += '"';
}

std::string Reader::raw() {
  skip();
  const std::size_t start = pos_;
  skip_value(0);
  return std::string(text_.substr(start, pos_ - start));
}

void Reader::skip_value(int depth) {
  skip();
  if (pos_ >= text_.size()) fail("truncated value");
  const char c = text_[pos_];
  if (c == '"') {
    (void)string();
  } else if (c == '{' || c == '[') {
    if (depth == kMaxDepth) fail("nesting too deep");
    if (c == '{') object([&](const std::string&) { skip_value(depth + 1); });
    else array([&] { skip_value(depth + 1); });
  } else if (text_.substr(pos_, 4) == "null") {
    pos_ += 4;
  } else if (c == 't' || c == 'f') {
    (void)boolean();
  } else {
    (void)number();
  }
}

std::string Reader::escaped_string(std::size_t start) {
  std::string out(text_.substr(start, pos_ - start));
  while (pos_ < text_.size()) {
    const char c = text_[pos_++];
    if (c == '"') return out;
    if (c != '\\') {
      out += c;
      continue;
    }
    if (pos_ >= text_.size()) break;
    switch (text_[pos_++]) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case '/': out += '/'; break;
      case 'b': out += '\b'; break;
      case 'f': out += '\f'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case 'u': {
        unsigned code = hex4();
        if (code >= 0xDC00 && code <= 0xDFFF) fail("lone low surrogate");
        if (code >= 0xD800 && code <= 0xDBFF) {
          if (text_.substr(pos_, 2) != "\\u") fail("lone high surrogate");
          pos_ += 2;
          const unsigned low = hex4();
          if (low < 0xDC00 || low > 0xDFFF) fail("lone high surrogate");
          code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
        }
        append_utf8(out, code);
        break;
      }
      default: fail("bad escape");
    }
  }
  fail("unterminated string");
}

unsigned Reader::hex4() {
  unsigned code = 0;
  const char* at = text_.data() + pos_;
  if (text_.size() - pos_ < 4 || std::from_chars(at, at + 4, code, 16).ptr != at + 4)
    fail("bad \\u escape");
  pos_ += 4;
  return code;
}

double Reader::out_of_range(std::string_view token) {
  return std::strtod(std::string(token).c_str(), nullptr);
}

long Reader::integral(double value) const {
  // [-2^63, 2^63) is exactly the range of doubles that convert to a long.
  constexpr double kLimit = -static_cast<double>(std::numeric_limits<long>::min());
  if (value != std::trunc(value)) fail("expected integer");
  if (value < -kLimit || value >= kLimit) fail("integer out of range");
  return static_cast<long>(value);
}

void Reader::fail(const char* what) const {
  throw std::runtime_error(format("json: %s at offset %zu", what, pos_));
}

void Reader::fail_expected(char c) const {
  throw std::runtime_error(format("json: expected '%c' at offset %zu", c, pos_));
}

}  // namespace insched::json
