// The repo's one JSON reader/writer: fault-plan replay files, chaos-run
// corpora, shard maps, and the CLI tools that check traces and diff
// benchmark results. Hand-rolled on purpose: the repo takes no JSON
// dependency and the schemas are ours. The parser is strict where it
// matters for those inputs (raw control characters in strings, trailing
// garbage) and every parse error names its byte offset.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace idem::json {

class Value;
using Array = std::vector<Value>;
/// Ordered map: serialization order is deterministic, which keeps replay
/// artifacts byte-stable across runs.
using Object = std::map<std::string, Value>;

enum class Type : std::uint8_t { Null, Bool, Number, String, ArrayT, ObjectT };

/// Thrown on malformed documents and type mismatches.
struct ParseError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

class Value {
 public:
  Value() = default;
  Value(std::nullptr_t) {}
  Value(bool b) : type_(Type::Bool), bool_(b) {}
  Value(double d) : type_(Type::Number), num_(d) {}
  Value(std::int64_t i) : type_(Type::Number), num_(static_cast<double>(i)) {}
  Value(std::uint64_t u) : type_(Type::Number), num_(static_cast<double>(u)) {}
  Value(int i) : Value(static_cast<std::int64_t>(i)) {}
  Value(const char* s) : type_(Type::String), str_(s) {}
  Value(std::string s) : type_(Type::String), str_(std::move(s)) {}
  Value(Array a) : type_(Type::ArrayT), array_(std::move(a)) {}
  Value(Object o) : type_(Type::ObjectT), object_(std::move(o)) {}

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::Null; }

  bool as_bool() const { require(Type::Bool); return bool_; }
  double as_double() const { require(Type::Number); return num_; }
  std::int64_t as_int() const { require(Type::Number); return static_cast<std::int64_t>(num_); }
  std::uint64_t as_uint() const { require(Type::Number); return static_cast<std::uint64_t>(num_); }
  const std::string& as_string() const { require(Type::String); return str_; }
  const Array& as_array() const { require(Type::ArrayT); return array_; }
  const Object& as_object() const { require(Type::ObjectT); return object_; }
  Array& as_array() { require(Type::ArrayT); return array_; }
  Object& as_object() { require(Type::ObjectT); return object_; }

  /// Object member access; throws ParseError when absent.
  const Value& at(const std::string& key) const {
    const Object& o = as_object();
    auto it = o.find(key);
    if (it == o.end()) throw ParseError("missing key: " + key);
    return it->second;
  }
  /// Object member access with a fallback for optional fields.
  template <typename T>
  T get_or(const std::string& key, T fallback) const;
  bool contains(const std::string& key) const {
    return type_ == Type::ObjectT && object_.count(key) > 0;
  }
  /// Object member, or nullptr when absent or when this is no object.
  const Value* find(const std::string& key) const {
    if (type_ != Type::ObjectT) return nullptr;
    auto it = object_.find(key);
    return it == object_.end() ? nullptr : &it->second;
  }
  Value* find(const std::string& key) {
    return const_cast<Value*>(static_cast<const Value&>(*this).find(key));
  }

  /// Serializes compactly (no whitespace) — the canonical artifact form.
  std::string dump() const;
  void dump_to(std::string& out) const;

  /// Parses one document; trailing non-whitespace is an error.
  static Value parse(std::string_view text);
  /// Parses the file at `path`: nullopt when it cannot be read, and a
  /// ParseError when its content is malformed.
  static std::optional<Value> parse_file(const std::string& path);

 private:
  void require(Type t) const {
    if (type_ != t) throw ParseError("json type mismatch");
  }

  Type type_ = Type::Null;
  bool bool_ = false;
  double num_ = 0;
  std::string str_;
  Array array_;
  Object object_;
};

template <>
inline bool Value::get_or<bool>(const std::string& key, bool fallback) const {
  return contains(key) ? at(key).as_bool() : fallback;
}
template <>
inline double Value::get_or<double>(const std::string& key, double fallback) const {
  return contains(key) ? at(key).as_double() : fallback;
}
template <>
inline std::int64_t Value::get_or<std::int64_t>(const std::string& key,
                                                std::int64_t fallback) const {
  return contains(key) ? at(key).as_int() : fallback;
}
template <>
inline std::uint64_t Value::get_or<std::uint64_t>(const std::string& key,
                                                  std::uint64_t fallback) const {
  return contains(key) ? at(key).as_uint() : fallback;
}
template <>
inline std::string Value::get_or<std::string>(const std::string& key,
                                              std::string fallback) const {
  return contains(key) ? at(key).as_string() : fallback;
}

/// Escapes and quotes `s` as a JSON string literal.
void escape_string(std::string_view s, std::string& out);

}  // namespace idem::json
