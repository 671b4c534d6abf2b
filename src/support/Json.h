//===--- Json.h - Minimal JSON reading and writing -------------*- C++ -*-===//
//
// Part of SyRust-CPP (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small dependency-free JSON value type with a writer and a recursive-
/// descent parser. The paper's test executor talks to the synthesizer by
/// parsing `cargo --message-format=json` output (Section 6.1); this module
/// backs the reproduction of that channel (rustsim diagnostics serialized
/// to JSON and parsed back by the refinement side) and the CLI's `--json`
/// result export.
///
/// Supported: objects, arrays, strings (with standard escapes), doubles,
/// integers, booleans, null. Numbers are stored as double plus an
/// integer-ness flag, which is lossless for the magnitudes used here. An
/// integer literal outside int64's range parses as a plain double, and
/// only numbers inside that range print in integer form.
///
//===----------------------------------------------------------------------===//

#ifndef SYRUST_SUPPORT_JSON_H
#define SYRUST_SUPPORT_JSON_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace syrust::json {

/// A JSON value (tree-owning).
class Value {
public:
  enum class Kind : uint8_t { Null, Bool, Number, String, Array, Object };

  Value() = default;
  static Value null() { return Value(); }
  static Value boolean(bool B);
  static Value number(double D);
  static Value integer(int64_t I);
  static Value string(std::string S);
  static Value array();
  static Value object();

  Kind kind() const { return K; }
  bool isNull() const { return K == Kind::Null; }

  bool asBool() const { return Bool; }
  double asDouble() const { return Num; }
  /// The number truncated toward zero and saturated to int64's range;
  /// NaN reads as 0.
  int64_t asInt() const;
  const std::string &asString() const { return Str; }

  /// Array access.
  void push(Value V) { Elems.push_back(std::move(V)); }
  size_t size() const { return Elems.size(); }
  const Value &at(size_t I) const { return Elems[I]; }

  /// Object access. get() returns a shared null for missing keys.
  void set(const std::string &Key, Value V);
  const Value &get(const std::string &Key) const;
  bool has(const std::string &Key) const { return Members.count(Key); }
  const std::map<std::string, Value> &members() const { return Members; }

  /// Compact rendering (no whitespace).
  std::string dump() const;

private:
  Kind K = Kind::Null;
  bool Bool = false;
  double Num = 0;
  bool IsInt = false;
  std::string Str;
  std::vector<Value> Elems;
  std::map<std::string, Value> Members;
};

/// Parse outcome.
struct ParseResult {
  bool Ok = false;
  Value Val;
  std::string Error;
};

/// Parses one JSON document; trailing garbage is an error.
ParseResult parse(std::string_view Text);

/// Escapes a string for embedding in JSON output.
std::string escape(std::string_view S);

} // namespace syrust::json

#endif // SYRUST_SUPPORT_JSON_H
