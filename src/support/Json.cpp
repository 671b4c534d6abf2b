//===--- Json.cpp - Minimal JSON reading and writing ----------------------===//
//
// Part of SyRust-CPP (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/Json.h"

#include "support/StringUtils.h"

#include <cctype>
#include <cmath>

using namespace syrust;
using namespace syrust::json;

namespace {
/// True when \p D truncates to a value int64_t holds: the condition for
/// casting it.
bool fitsInt64(double D) {
  return D >= -9223372036854775808.0 && D < 9223372036854775808.0;
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

void Value::set(const std::string &Key, Value V) {
  Members[Key] = std::move(V);
}

const Value &Value::get(const std::string &Key) const {
  static const Value Null;
  auto It = Members.find(Key);
  return It == Members.end() ? Null : It->second;
}

std::string syrust::json::escape(std::string_view S) {
  std::string Out;
  Out.reserve(S.size() + 2);
  for (char C : S) {
    switch (C) {
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
      // Escape remaining control characters AND every non-ASCII byte as
      // per-byte \u00XX (the parser's \u path is byte-exact), so hostile
      // type names and messages round-trip losslessly and the emitted
      // document is pure ASCII. The unsigned cast matters: a plain char
      // sign-extends bytes >= 0x80 into garbage escapes.
      unsigned char U = static_cast<unsigned char>(C);
      if (U < 0x20 || U >= 0x7f)
        Out += format("\\u%04x", U);
      else
        Out += C;
    }
    }
  }
  return Out;
}

std::string Value::dump() const {
  switch (K) {
  case Kind::Null:
    return "null";
  case Kind::Bool:
    return Bool ? "true" : "false";
  case Kind::Number:
    if ((IsInt || Num == std::floor(Num)) && fitsInt64(Num))
      return format("%lld", static_cast<long long>(Num));
    return format("%.17g", Num);
  case Kind::String:
    return "\"" + escape(Str) + "\"";
  case Kind::Array: {
    std::string Out = "[";
    for (size_t I = 0; I < Elems.size(); ++I) {
      if (I)
        Out += ",";
      Out += Elems[I].dump();
    }
    return Out + "]";
  }
  case Kind::Object: {
    std::string Out = "{";
    bool First = true;
    for (const auto &[Key, Val] : Members) {
      if (!First)
        Out += ",";
      First = false;
      Out += "\"" + escape(Key) + "\":" + Val.dump();
    }
    return Out + "}";
  }
  }
  return "null";
}

namespace {

class Parser {
public:
  explicit Parser(std::string_view Text) : Text(Text) {}

  ParseResult run() {
    ParseResult R;
    Value V = parseValue();
    skipSpace();
    if (Failed) {
      R.Error = Error;
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
    if (C == '{')
      return parseObject();
    if (C == '[')
      return parseArray();
    if (C == '"')
      return Value::string(parseString());
    if (literal("true"))
      return Value::boolean(true);
    if (literal("false"))
      return Value::boolean(false);
    if (literal("null"))
      return Value::null();
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
      Obj.set(Key, parseValue());
      if (Failed)
        return Obj;
    } while (consume(','));
    if (!consume('}'))
      fail(format("expected '}' at offset %zu", Pos));
    return Obj;
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
      char C = Text[Pos++];
      if (C != '\\') {
        Out += C;
        continue;
      }
      if (Pos >= Text.size())
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
        // Only the \u00XX range produced by escape() is supported.
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
  bool Failed = false;
  std::string Error;
};

} // namespace

ParseResult syrust::json::parse(std::string_view Text) {
  return Parser(Text).run();
}
