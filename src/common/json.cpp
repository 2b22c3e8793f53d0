#include "common/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace idem::json {

void escape_string(std::string_view s, std::string& out) {
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void Value::dump_to(std::string& out) const {
  switch (type_) {
    case Type::Null: out += "null"; break;
    case Type::Bool: out += bool_ ? "true" : "false"; break;
    case Type::Number: {
      // Integers (the common case in our schemas) print without a decimal
      // point so artifacts stay byte-stable and greppable.
      if (num_ == std::floor(num_) && std::abs(num_) < 9.0e15) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(num_));
        out += buf;
      } else {
        char buf[40];
        std::snprintf(buf, sizeof buf, "%.17g", num_);
        out += buf;
      }
      break;
    }
    case Type::String: escape_string(str_, out); break;
    case Type::ArrayT: {
      out.push_back('[');
      for (std::size_t i = 0; i < array_.size(); ++i) {
        if (i > 0) out.push_back(',');
        array_[i].dump_to(out);
      }
      out.push_back(']');
      break;
    }
    case Type::ObjectT: {
      out.push_back('{');
      bool first = true;
      for (const auto& [key, value] : object_) {
        if (!first) out.push_back(',');
        first = false;
        escape_string(key, out);
        out.push_back(':');
        value.dump_to(out);
      }
      out.push_back('}');
      break;
    }
  }
}

std::string Value::dump() const {
  std::string out;
  dump_to(out);
  return out;
}

namespace {

struct Parser {
  std::string_view text;
  std::size_t pos = 0;

  [[noreturn]] void fail(const char* what) {
    throw ParseError(std::string(what) + " at offset " + std::to_string(pos));
  }

  void skip_ws() {
    while (pos < text.size() &&
           (text[pos] == ' ' || text[pos] == '\t' || text[pos] == '\n' || text[pos] == '\r')) {
      ++pos;
    }
  }

  char peek() {
    if (pos >= text.size()) fail("unexpected end of document");
    return text[pos];
  }

  void expect(char c) {
    if (peek() != c) fail("unexpected character");
    ++pos;
  }

  bool consume_literal(std::string_view lit) {
    if (text.substr(pos, lit.size()) != lit) return false;
    pos += lit.size();
    return true;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos >= text.size()) fail("unterminated string");
      char c = text[pos++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        --pos;
        fail("raw control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos >= text.size()) fail("unterminated escape");
      char e = text[pos++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'u': {
          if (pos + 4 > text.size()) fail("bad \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text[pos++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape");
          }
          // Our writer only emits \u for control characters; decode the
          // BMP code point as UTF-8.
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  Value parse_number() {
    std::size_t start = pos;
    if (peek() == '-') ++pos;
    while (pos < text.size() &&
           (std::isdigit(static_cast<unsigned char>(text[pos])) || text[pos] == '.' ||
            text[pos] == 'e' || text[pos] == 'E' || text[pos] == '+' || text[pos] == '-')) {
      ++pos;
    }
    double value = 0;
    auto result = std::from_chars(text.data() + start, text.data() + pos, value);
    if (result.ec != std::errc() || result.ptr != text.data() + pos) fail("bad number");
    return Value(value);
  }

  Value parse_value() {
    skip_ws();
    char c = peek();
    if (c == '{') {
      ++pos;
      Object object;
      skip_ws();
      if (peek() == '}') { ++pos; return Value(std::move(object)); }
      for (;;) {
        skip_ws();
        std::string key = parse_string();
        skip_ws();
        expect(':');
        object.emplace(std::move(key), parse_value());
        skip_ws();
        if (peek() == ',') { ++pos; continue; }
        expect('}');
        return Value(std::move(object));
      }
    }
    if (c == '[') {
      ++pos;
      Array array;
      skip_ws();
      if (peek() == ']') { ++pos; return Value(std::move(array)); }
      for (;;) {
        array.push_back(parse_value());
        skip_ws();
        if (peek() == ',') { ++pos; continue; }
        expect(']');
        return Value(std::move(array));
      }
    }
    if (c == '"') return Value(parse_string());
    if (consume_literal("true")) return Value(true);
    if (consume_literal("false")) return Value(false);
    if (consume_literal("null")) return Value(nullptr);
    return parse_number();
  }
};

}  // namespace

Value Value::parse(std::string_view text) {
  Parser parser{text};
  Value value = parser.parse_value();
  parser.skip_ws();
  if (parser.pos != text.size()) parser.fail("trailing characters after document");
  return value;
}

std::optional<Value> Value::parse_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return std::nullopt;
  std::string text;
  char buffer[1 << 16];
  std::size_t got;
  while ((got = std::fread(buffer, 1, sizeof buffer, f)) > 0) text.append(buffer, got);
  std::fclose(f);
  return parse(text);
}

}  // namespace idem::json
