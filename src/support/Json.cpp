//===--- Json.cpp - Minimal JSON reading and writing ----------------------===//
//
// Part of SyRust-CPP (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/Json.h"

#include "support/StringUtils.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>
#include <numeric>

using namespace syrust;
using namespace syrust::json;

namespace {
/// True when \p D truncates to a value int64_t holds: the condition for
/// casting it.
bool fitsInt64(double D) {
  return D >= -9223372036854775808.0 && D < 9223372036854775808.0;
}

/// Appends \p Num as `%lld` prints it when it is integral (or stored as an
/// integer) and fits int64, else as `%.17g` prints it.
void appendNumber(std::string &Out, double Num, bool IsInt) {
  char Buf[32];
  std::to_chars_result R =
      (IsInt || Num == std::floor(Num)) && fitsInt64(Num)
          ? std::to_chars(Buf, Buf + sizeof(Buf), static_cast<int64_t>(Num))
          : std::to_chars(Buf, Buf + sizeof(Buf), Num,
                          std::chars_format::general, 17);
  Out.append(Buf, R.ptr);
}

bool keyLess(const Value::Member &M, std::string_view Key) {
  return std::string_view(M.first) < Key;
}
} // namespace

Value Value::boolean(bool B) {
  Value V;
  V.K = Kind::Bool;
  V.Bool = B;
  return V;
}

Value Value::number(double D) {
  Value V;
  V.K = Kind::Number;
  V.Num = D;
  return V;
}

Value Value::integer(int64_t I) {
  Value V;
  V.K = Kind::Number;
  V.Num = static_cast<double>(I);
  V.IsInt = true;
  return V;
}

int64_t Value::asInt() const {
  if (fitsInt64(Num))
    return static_cast<int64_t>(Num);
  if (std::isnan(Num))
    return 0;
  return Num < 0 ? INT64_MIN : INT64_MAX;
}

Value Value::string(std::string S) {
  Value V;
  V.K = Kind::String;
  V.Str = std::move(S);
  return V;
}

Value Value::array() {
  Value V;
  V.K = Kind::Array;
  return V;
}

Value Value::object() {
  Value V;
  V.K = Kind::Object;
  return V;
}

void Value::set(std::string Key, Value V) {
  // Builders mostly set keys in ascending order: append without a search.
  if (Members.empty() || Members.back().first < Key) {
    Members.emplace_back(std::move(Key), std::move(V));
    return;
  }
  // The last key is not below Key, so the search stays inside.
  auto It = std::lower_bound(Members.begin(), Members.end(),
                             std::string_view(Key), keyLess);
  if (It->first == Key)
    It->second = std::move(V);
  else
    Members.emplace(It, std::move(Key), std::move(V));
}

const Value *Value::find(std::string_view Key) const {
  auto It = std::lower_bound(Members.begin(), Members.end(), Key, keyLess);
  return It != Members.end() && It->first == Key ? &It->second : nullptr;
}

const Value &Value::get(std::string_view Key) const {
  static const Value Null;
  const Value *V = find(Key);
  return V ? *V : Null;
}

void syrust::json::appendEscaped(std::string &Out, std::string_view S) {
  static constexpr char Hex[] = "0123456789abcdef";
  size_t Run = 0; // Start of the pending run of bytes that print as-is.
  for (size_t I = 0; I < S.size(); ++I) {
    // The unsigned read matters: a plain char sign-extends bytes >= 0x80.
    const unsigned char U = static_cast<unsigned char>(S[I]);
    if (U >= 0x20 && U < 0x7f && U != '"' && U != '\\')
      continue;
    Out.append(S.data() + Run, I - Run);
    Run = I + 1;
    switch (U) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    case '\r':
      Out += "\\r";
      break;
    default: {
      // Remaining control bytes, DEL and every non-ASCII byte become
      // per-byte \u00XX (the parser's \u path is byte-exact), so hostile
      // type names and messages round-trip losslessly and the document
      // is pure ASCII.
      const char Esc[] = {'\\', 'u', '0', '0', Hex[U >> 4], Hex[U & 15]};
      Out.append(Esc, sizeof(Esc));
    }
    }
  }
  Out.append(S.data() + Run, S.size() - Run);
}

std::string Value::dump() const {
  std::string Out;
  dumpTo(Out);
  return Out;
}

void Value::dumpTo(std::string &Out) const {
  switch (K) {
  case Kind::Null:
    Out += "null";
    return;
  case Kind::Bool:
    Out += Bool ? "true" : "false";
    return;
  case Kind::Number:
    appendNumber(Out, Num, IsInt);
    return;
  case Kind::String:
    Out += '"';
    appendEscaped(Out, Str);
    Out += '"';
    return;
  case Kind::Array:
    Out += '[';
    for (size_t I = 0; I < Elems.size(); ++I) {
      if (I)
        Out += ',';
      Elems[I].dumpTo(Out);
    }
    Out += ']';
    return;
  case Kind::Object:
    Out += '{';
    for (size_t I = 0; I < Members.size(); ++I) {
      if (I)
        Out += ',';
      Out += '"';
      appendEscaped(Out, Members[I].first);
      Out += "\":";
      Members[I].second.dumpTo(Out);
    }
    Out += '}';
    return;
  }
}

namespace syrust::json {

class Parser {
public:
  explicit Parser(std::string_view Text) : Text(Text) {}

  ParseResult run() {
    ParseResult R;
    Value V = parseValue();
    skipSpace();
    if (Failed) {
      R.Error = Error;
      R.TooDeep = TooDeep;
      return R;
    }
    if (Pos != Text.size()) {
      R.Error = format("trailing characters at offset %zu", Pos);
      return R;
    }
    R.Ok = true;
    R.Val = std::move(V);
    return R;
  }

private:
  void fail(const std::string &Msg) {
    if (!Failed)
      Error = Msg;
    Failed = true;
  }

  void skipSpace() {
    while (Pos < Text.size() &&
           std::isspace(static_cast<unsigned char>(Text[Pos])))
      ++Pos;
  }

  bool consume(char C) {
    skipSpace();
    if (Pos < Text.size() && Text[Pos] == C) {
      ++Pos;
      return true;
    }
    return false;
  }

  bool literal(std::string_view Word) {
    if (Text.substr(Pos, Word.size()) == Word) {
      Pos += Word.size();
      return true;
    }
    return false;
  }

  Value parseValue() {
    skipSpace();
    if (Failed || Pos >= Text.size()) {
      fail("unexpected end of input");
      return Value();
    }
    char C = Text[Pos];
    if (C == '{' || C == '[') {
      if (Depth == MaxDepth) {
        TooDeep = true;
        fail(format("nesting deeper than %d levels at offset %zu", MaxDepth,
                    Pos));
        return Value();
      }
      ++Depth;
      Value V = C == '{' ? parseObject() : parseArray();
      --Depth;
      return V;
    }
    if (C == '"')
      return Value::string(parseString());
    if (literal("true"))
      return Value::boolean(true);
    if (literal("false"))
      return Value::boolean(false);
    if (literal("null"))
      return Value::null();
    // The writer's spellings of the non-finite numbers.
    const bool Minus = C == '-';
    if (literal(Minus ? "-inf" : "inf"))
      return Value::number((Minus ? -1 : 1) *
                           std::numeric_limits<double>::infinity());
    if (literal(Minus ? "-nan" : "nan"))
      return Value::number(std::copysign(
          std::numeric_limits<double>::quiet_NaN(), Minus ? -1 : 1));
    return parseNumber();
  }

  Value parseObject() {
    Value Obj = Value::object();
    consume('{');
    skipSpace();
    if (consume('}'))
      return Obj;
    do {
      skipSpace();
      if (Pos >= Text.size() || Text[Pos] != '"') {
        fail(format("expected object key at offset %zu", Pos));
        return Obj;
      }
      std::string Key = parseString();
      if (!consume(':')) {
        fail(format("expected ':' at offset %zu", Pos));
        return Obj;
      }
      Value V = parseValue();
      if (Failed)
        return Obj;
      Obj.Members.emplace_back(std::move(Key), std::move(V));
    } while (consume(','));
    if (!consume('}'))
      fail(format("expected '}' at offset %zu", Pos));
    sortMembers(Obj.Members);
    return Obj;
  }

  /// Sorts an object's members by key, stably, and keeps the last of each
  /// run of equal keys: what set() leaves for the same members in the
  /// same order, in O(n log n) rather than a shift per member.
  static void sortMembers(std::vector<Value::Member> &Members) {
    auto NotAscending = [](const Value::Member &A, const Value::Member &B) {
      return !(A.first < B.first);
    };
    // Every document this tool writes is already in order.
    if (std::adjacent_find(Members.begin(), Members.end(), NotAscending) ==
        Members.end())
      return;
    // Sort positions, then move each member once: a member is far larger
    // to move than its position.
    std::vector<size_t> Order(Members.size());
    std::iota(Order.begin(), Order.end(), size_t(0));
    std::stable_sort(Order.begin(), Order.end(), [&](size_t A, size_t B) {
      return Members[A].first < Members[B].first;
    });
    std::vector<Value::Member> Sorted;
    Sorted.reserve(Members.size());
    for (size_t I : Order) {
      if (!Sorted.empty() && Sorted.back().first == Members[I].first)
        Sorted.back().second = std::move(Members[I].second);
      else
        Sorted.push_back(std::move(Members[I]));
    }
    Members = std::move(Sorted);
  }

  Value parseArray() {
    Value Arr = Value::array();
    consume('[');
    skipSpace();
    if (consume(']'))
      return Arr;
    do {
      Arr.push(parseValue());
      if (Failed)
        return Arr;
    } while (consume(','));
    if (!consume(']'))
      fail(format("expected ']' at offset %zu", Pos));
    return Arr;
  }

  std::string parseString() {
    std::string Out;
    ++Pos; // Opening quote.
    while (Pos < Text.size() && Text[Pos] != '"') {
      const size_t Run = Pos;
      while (Pos < Text.size() && Text[Pos] != '"' && Text[Pos] != '\\')
        ++Pos;
      Out.append(Text.data() + Run, Pos - Run);
      if (Pos >= Text.size() || Text[Pos] == '"')
        break;
      if (++Pos >= Text.size()) // The backslash.
        break;
      char E = Text[Pos++];
      switch (E) {
      case 'n':
        Out += '\n';
        break;
      case 't':
        Out += '\t';
        break;
      case 'r':
        Out += '\r';
        break;
      case '"':
      case '\\':
      case '/':
        Out += E;
        break;
      case 'u': {
        // Only the \u00XX range produced by appendEscaped() is supported.
        if (Pos + 4 <= Text.size()) {
          unsigned Code = 0;
          std::sscanf(std::string(Text.substr(Pos, 4)).c_str(), "%4x",
                      &Code);
          Out += static_cast<char>(Code);
          Pos += 4;
        }
        break;
      }
      default:
        fail(format("bad escape '\\%c'", E));
        return Out;
      }
    }
    if (Pos >= Text.size()) {
      fail("unterminated string");
      return Out;
    }
    ++Pos; // Closing quote.
    return Out;
  }

  Value parseNumber() {
    size_t Start = Pos;
    bool IsInt = true;
    if (Pos < Text.size() && (Text[Pos] == '-' || Text[Pos] == '+'))
      ++Pos;
    while (Pos < Text.size() &&
           (std::isdigit(static_cast<unsigned char>(Text[Pos])) ||
            Text[Pos] == '.' || Text[Pos] == 'e' || Text[Pos] == 'E' ||
            Text[Pos] == '-' || Text[Pos] == '+')) {
      if (Text[Pos] == '.' || Text[Pos] == 'e' || Text[Pos] == 'E')
        IsInt = false;
      ++Pos;
    }
    if (Pos == Start) {
      fail(format("expected value at offset %zu", Start));
      return Value();
    }
    double D = std::atof(std::string(Text.substr(Start, Pos - Start)).c_str());
    return IsInt && fitsInt64(D) ? Value::integer(static_cast<int64_t>(D))
                                 : Value::number(D);
  }

  std::string_view Text;
  size_t Pos = 0;
  int Depth = 0;
  bool Failed = false;
  bool TooDeep = false;
  std::string Error;
};

} // namespace syrust::json

ParseResult syrust::json::parse(std::string_view Text) {
  return Parser(Text).run();
}

const Value *Fields::want(std::string_view Key, Value::Kind K) {
  const Value *F = V.find(Key);
  if (!F || F->kind() != K) {
    if (Err.empty())
      Err = F ? "field '" + std::string(Key) + "' has the wrong type"
              : "missing field '" + std::string(Key) + "'";
    return nullptr;
  }
  return F;
}
