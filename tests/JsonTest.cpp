//===--- JsonTest.cpp - Tests for the JSON substrate and diagnostics ------===//
//
// Part of SyRust-CPP (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//

#include "rustsim/DiagnosticJson.h"
#include "support/Json.h"
#include "types/TypeParser.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace syrust;
using namespace syrust::json;
using namespace syrust::rustsim;
using namespace syrust::types;

namespace {

//===----------------------------------------------------------------------===//
// JSON value / parser
//===----------------------------------------------------------------------===//

TEST(JsonTest, DumpPrimitives) {
  EXPECT_EQ(Value::null().dump(), "null");
  EXPECT_EQ(Value::boolean(true).dump(), "true");
  EXPECT_EQ(Value::integer(-42).dump(), "-42");
  EXPECT_EQ(Value::string("a\"b\n").dump(), "\"a\\\"b\\n\"");
}

TEST(JsonTest, DumpNested) {
  Value Obj = Value::object();
  Obj.set("k", Value::integer(1));
  Value Arr = Value::array();
  Arr.push(Value::string("x"));
  Arr.push(Value::boolean(false));
  Obj.set("list", std::move(Arr));
  EXPECT_EQ(Obj.dump(), "{\"k\":1,\"list\":[\"x\",false]}");
}

TEST(JsonTest, ParseRoundTrip) {
  const char *Doc =
      "{\"a\":1,\"b\":[true,null,\"s\"],\"c\":{\"d\":-2.5}}";
  ParseResult R = parse(Doc);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Val.get("a").asInt(), 1);
  EXPECT_EQ(R.Val.get("b").size(), 3u);
  EXPECT_TRUE(R.Val.get("b").at(1).isNull());
  EXPECT_DOUBLE_EQ(R.Val.get("c").get("d").asDouble(), -2.5);
  // dump-parse-dump is a fixpoint.
  EXPECT_EQ(parse(R.Val.dump()).Val.dump(), R.Val.dump());
}

TEST(JsonTest, NumbersOutsideInt64StayDoubles) {
  // An integer literal past int64's range parses as a plain double, and
  // no number is cast to int64 unless it fits.
  ParseResult R = parse("{\"a\":100000000000000000000000,"
                        "\"b\":-100000000000000000000000}");
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Val.get("a").asDouble(), 1e23);
  EXPECT_EQ(R.Val.get("a").asInt(), INT64_MAX);
  EXPECT_EQ(R.Val.get("b").asInt(), INT64_MIN);
  EXPECT_EQ(parse(R.Val.dump()).Val.get("a").asDouble(), 1e23);
  EXPECT_EQ(Value::number(9223372036854775808.0).dump(),
            "9.2233720368547758e+18");
  EXPECT_EQ(Value::number(-9223372036854775808.0).dump(),
            "-9223372036854775808");
  EXPECT_EQ(Value::number(HUGE_VAL).dump(), "inf");
  EXPECT_EQ(Value::number(HUGE_VAL).asInt(), INT64_MAX);
  EXPECT_EQ(Value::number(std::nan("")).asInt(), 0);
  EXPECT_EQ(parse("1e999").Val.asInt(), INT64_MAX);
  EXPECT_EQ(Value::integer(INT64_MIN).dump(), "-9223372036854775808");
}

TEST(JsonTest, ParseWithWhitespace) {
  ParseResult R = parse("  { \"x\" : [ 1 , 2 ] }  ");
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Val.get("x").at(1).asInt(), 2);
}

TEST(JsonTest, StringEscapesRoundTrip) {
  Value V = Value::string("tab\there\nnew\\slash\"quote");
  ParseResult R = parse(V.dump());
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Val.asString(), "tab\there\nnew\\slash\"quote");
}

TEST(JsonTest, HostileBytesEscapeToPureAsciiAndRoundTrip) {
  // Control bytes, DEL, and high (non-ASCII) bytes - e.g. UTF-8 in a
  // checker message - must all be \uXXXX-escaped byte-for-byte. Signed
  // char must not sign-extend 0x80..0xff into bogus escapes.
  const std::string Hostile = std::string("a\x01b\x1f") + "\x7f\x80\xff" +
                              "caf\xc3\xa9\"\\\n";
  Value V = Value::string(Hostile);
  std::string Wire = V.dump();
  for (char C : Wire) {
    unsigned char U = static_cast<unsigned char>(C);
    EXPECT_GE(U, 0x20u);
    EXPECT_LT(U, 0x7fu);
  }
  ParseResult R = parse(Wire);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Val.asString(), Hostile);
  // dump-parse-dump is a fixpoint even for hostile bytes.
  EXPECT_EQ(R.Val.dump(), Wire);
}

TEST(JsonTest, RejectsMalformed) {
  EXPECT_FALSE(parse("{").Ok);
  EXPECT_FALSE(parse("[1,]").Ok);
  EXPECT_FALSE(parse("{\"a\" 1}").Ok);
  EXPECT_FALSE(parse("\"unterminated").Ok);
  EXPECT_FALSE(parse("12 34").Ok);
  EXPECT_FALSE(parse("").Ok);
}

TEST(JsonTest, MissingKeysAreNull) {
  Value Obj = Value::object();
  EXPECT_TRUE(Obj.get("nope").isNull());
  EXPECT_FALSE(Obj.has("nope"));
}

//===----------------------------------------------------------------------===//
// Diagnostic wire format (the paper's --message-format=json channel)
//===----------------------------------------------------------------------===//

class DiagJsonFixture : public ::testing::Test {
protected:
  TypeArena Arena;
  TypeParser Parser{Arena, {"T"}};

  const Type *ty(const char *S) {
    const Type *T = Parser.parse(S);
    EXPECT_NE(T, nullptr);
    return T;
  }

  /// Serializes and re-parses; expects success.
  Diagnostic roundTrip(const Diagnostic &D) {
    std::string Wire = diagnosticToJson(D);
    Diagnostic Out;
    std::string Error;
    EXPECT_TRUE(diagnosticFromJson(Wire, Arena, Out, Error))
        << Error << "\n" << Wire;
    return Out;
  }
};

TEST_F(DiagJsonFixture, TraitErrorRoundTrips) {
  Diagnostic D;
  D.Detail = ErrorDetail::TraitBound;
  D.Category = categoryOf(D.Detail);
  D.Line = 3;
  D.Api = 7;
  D.Message = "the trait bound `Msb0: BitStore` is not satisfied";
  D.ActualInputs = {ty("&mut Vec<String>"), ty("String")};
  D.BadTypeVar = "T";
  D.MissingTrait = "BitStore";
  D.BadBinding = ty("Vec<String>");

  Diagnostic Out = roundTrip(D);
  EXPECT_EQ(Out.Detail, D.Detail);
  EXPECT_EQ(Out.Category, D.Category);
  EXPECT_EQ(Out.Line, 3);
  EXPECT_EQ(Out.Api, 7);
  EXPECT_EQ(Out.Message, D.Message);
  // Types re-intern to the SAME pointers (same arena).
  ASSERT_EQ(Out.ActualInputs.size(), 2u);
  EXPECT_EQ(Out.ActualInputs[0], D.ActualInputs[0]);
  EXPECT_EQ(Out.ActualInputs[1], D.ActualInputs[1]);
  EXPECT_EQ(Out.BadBinding, D.BadBinding);
  EXPECT_EQ(Out.BadTypeVar, "T");
  EXPECT_EQ(Out.MissingTrait, "BitStore");
}

TEST_F(DiagJsonFixture, PolymorphismFixRoundTrips) {
  Diagnostic D;
  D.Detail = ErrorDetail::Polymorphism;
  D.Category = categoryOf(D.Detail);
  D.Line = 0;
  D.Api = 2;
  D.Message = "mismatched types: expected `Option<String>`";
  D.ActualInputs = {ty("&mut Vec<String>")};
  D.ExpectedOutput = ty("Option<String>");
  Diagnostic Out = roundTrip(D);
  EXPECT_EQ(Out.ExpectedOutput, D.ExpectedOutput);
  ASSERT_EQ(Out.ActualInputs.size(), 1u);
  EXPECT_EQ(Out.ActualInputs[0], D.ActualInputs[0]);
}

TEST_F(DiagJsonFixture, RenamedTypeVariablesRoundTrip) {
  // Encoder-level context types can carry renamed variables ("T#a5");
  // the wire format must preserve them as variables.
  const Type *Poly =
      Arena.named("Option", {Arena.typeVar("T#a5")});
  Diagnostic D;
  D.Detail = ErrorDetail::Polymorphism;
  D.Category = categoryOf(D.Detail);
  D.ActualInputs = {Poly};
  Diagnostic Out = roundTrip(D);
  ASSERT_EQ(Out.ActualInputs.size(), 1u);
  EXPECT_EQ(Out.ActualInputs[0], Poly);
  EXPECT_FALSE(Out.ActualInputs[0]->isConcrete());
}

TEST_F(DiagJsonFixture, EveryDetailTagRoundTrips) {
  for (ErrorDetail Detail :
       {ErrorDetail::TraitBound, ErrorDetail::Polymorphism,
        ErrorDetail::DefaultTypeParam, ErrorDetail::TypeMismatch,
        ErrorDetail::Ownership, ErrorDetail::Borrowing,
        ErrorDetail::AnonLifetime, ErrorDetail::Arity,
        ErrorDetail::MethodNotFound}) {
    Diagnostic D;
    D.Detail = Detail;
    D.Category = categoryOf(Detail);
    D.Message = "m";
    Diagnostic Out = roundTrip(D);
    EXPECT_EQ(Out.Detail, Detail);
    EXPECT_EQ(Out.Category, categoryOf(Detail));
  }
}

TEST_F(DiagJsonFixture, HostileMessageBytesRoundTrip) {
  // Real compiler messages carry UTF-8 (backticked identifiers can hold
  // any byte); the wire format must stay pure ASCII yet reproduce the
  // message byte-for-byte.
  Diagnostic D;
  D.Detail = ErrorDetail::Ownership;
  D.Category = categoryOf(D.Detail);
  D.Line = 1;
  D.Api = 3;
  D.Message = std::string("use of moved value: `caf\xc3\xa9`\x01\x7f");
  D.BadTypeVar = "\x80T\xff";
  std::string Wire = diagnosticToJson(D);
  for (char C : Wire)
    EXPECT_LT(static_cast<unsigned char>(C), 0x80u);
  Diagnostic Out = roundTrip(D);
  EXPECT_EQ(Out.Message, D.Message);
  EXPECT_EQ(Out.BadTypeVar, D.BadTypeVar);
}

TEST_F(DiagJsonFixture, RejectsForeignRecords) {
  Diagnostic Out;
  std::string Error;
  EXPECT_FALSE(diagnosticFromJson("{\"reason\":\"build-finished\"}",
                                  Arena, Out, Error));
  EXPECT_FALSE(diagnosticFromJson("not json", Arena, Out, Error));
  // Category/detail mismatch is rejected.
  EXPECT_FALSE(diagnosticFromJson(
      "{\"reason\":\"compiler-message\",\"detail\":\"trait\","
      "\"category\":\"Misc\",\"message\":\"m\",\"line\":0,\"api\":0}",
      Arena, Out, Error));
}

} // namespace
