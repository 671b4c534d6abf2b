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
/// The writer's contract, which every byte-identity check rests on:
/// object members print in byte order of their keys; an integral number
/// inside int64's range prints as `%lld` would, every other number as
/// `%.17g` would (`inf`, `-inf`, `nan` and `-nan` included, which the
/// parser reads back); strings are pure ASCII, with every control byte,
/// DEL and byte >= 0x80 escaped as `\u00xx`. A document is written in one
/// pass into one buffer.
///
//===----------------------------------------------------------------------===//

#ifndef SYRUST_SUPPORT_JSON_H
#define SYRUST_SUPPORT_JSON_H

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace syrust::json {

class Parser;
class Fields;

/// A JSON value (tree-owning).
class Value {
public:
  enum class Kind : uint8_t { Null, Bool, Number, String, Array, Object };
  /// One object member. An object keeps its members sorted by key, each
  /// key once.
  using Member = std::pair<std::string, Value>;

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

  /// Object access. set() replaces an existing member of the same key;
  /// get() returns a shared null for missing keys. Lookups are binary
  /// searches, and a key past the last one appends.
  void set(std::string Key, Value V);
  const Value &get(std::string_view Key) const;
  bool has(std::string_view Key) const { return find(Key) != nullptr; }
  const std::vector<Member> &members() const { return Members; }

  /// Compact rendering (no whitespace).
  std::string dump() const;

private:
  friend class Parser;
  friend class Fields;
  const Value *find(std::string_view Key) const;
  /// Appends the compact rendering to \p Out.
  void dumpTo(std::string &Out) const;

  Kind K = Kind::Null;
  bool Bool = false;
  bool IsInt = false;
  double Num = 0;
  std::string Str;
  std::vector<Value> Elems;
  std::vector<Member> Members;
};

/// The deepest nesting of arrays and objects parse() accepts. The tool's
/// own documents reach 7 levels; the limit keeps the recursive descent
/// well inside any thread's stack.
constexpr int MaxDepth = 512;

/// Parse outcome.
struct ParseResult {
  bool Ok = false;
  Value Val;
  std::string Error;
  /// True when the input was refused for nesting deeper than MaxDepth,
  /// which no truncated write of a shallower document can produce.
  bool TooDeep = false;
};

/// Parses one JSON document; trailing garbage is an error. Costs
/// O(n log n) in the input: each object's members are sorted once.
ParseResult parse(std::string_view Text);

/// Appends \p S to \p Out with the writer's string escapes (no quotes).
void appendEscaped(std::string &Out, std::string_view S);

/// A strict reader of one object's fields: each getter wants its key
/// present with the named JSON kind, and otherwise records the first
/// problem in the caller's error string ("missing field 'k'" or "field
/// 'k' has the wrong type") and returns a zero value. Readers of the
/// tool's own documents use it so that a file written by another schema,
/// or edited by hand, fails with the field's name instead of reading it
/// as zero. Several cursors may share one error string; the first
/// problem any of them meets is the one reported.
class Fields {
public:
  Fields(const Value &V, std::string &Err) : V(V), Err(Err) {}

  bool ok() const { return Err.empty(); }

  uint64_t u64(std::string_view Key) {
    const Value *F = want(Key, Value::Kind::Number);
    return F ? static_cast<uint64_t>(F->asInt()) : 0;
  }
  int64_t i64(std::string_view Key) {
    const Value *F = want(Key, Value::Kind::Number);
    return F ? F->asInt() : 0;
  }
  double num(std::string_view Key) {
    const Value *F = want(Key, Value::Kind::Number);
    return F ? F->asDouble() : 0;
  }
  bool boolean(std::string_view Key) {
    const Value *F = want(Key, Value::Kind::Bool);
    return F && F->asBool();
  }
  std::string str(std::string_view Key) {
    const Value *F = want(Key, Value::Kind::String);
    return F ? F->asString() : std::string();
  }
  const Value *object(std::string_view Key) {
    return want(Key, Value::Kind::Object);
  }
  const Value *array(std::string_view Key) {
    return want(Key, Value::Kind::Array);
  }

private:
  const Value *want(std::string_view Key, Value::Kind K);

  const Value &V;
  std::string &Err;
};

} // namespace syrust::json

#endif // SYRUST_SUPPORT_JSON_H
