//===--- JsonTest.cpp - Tests for the JSON substrate and diagnostics ------===//
//
// Part of SyRust-CPP (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//

#include "campaign/Campaign.h"
#include "campaign/Checkpoint.h"
#include "core/ResultJson.h"
#include "core/Session.h"
#include "obs/Recorder.h"
#include "oracle/AuditRunner.h"
#include "rustsim/DiagnosticJson.h"
#include "support/Json.h"
#include "support/Rng.h"
#include "types/TypeParser.h"

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>

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

TEST(JsonTest, NestingUpToTheLimitParsesAndOneLevelMoreFails) {
  for (const char *Open : {"[", "{\"k\":"}) {
    const char Close = Open[0] == '[' ? ']' : '}';
    auto Nested = [&](int Levels) {
      std::string Doc;
      for (int I = 0; I < Levels; ++I)
        Doc += Open;
      Doc += "0";
      Doc.append(Levels, Close);
      return Doc;
    };
    const std::string AtLimit = Nested(MaxDepth);
    ParseResult R = parse(AtLimit);
    ASSERT_TRUE(R.Ok) << Open << ": " << R.Error;
    EXPECT_FALSE(R.TooDeep);
    EXPECT_EQ(R.Val.dump(), AtLimit);

    const std::string Deeper = Nested(MaxDepth + 1);
    R = parse(Deeper);
    EXPECT_FALSE(R.Ok) << Open;
    EXPECT_TRUE(R.TooDeep) << Open;
    // The error names the offset of the first bracket past the limit.
    const size_t Offset = MaxDepth * std::string(Open).size();
    EXPECT_EQ(R.Error, "nesting deeper than 512 levels at offset " +
                           std::to_string(Offset));
  }
  // Far deeper input is refused the same way instead of exhausting the
  // stack, and a shallow syntax error is not reported as too deep.
  EXPECT_TRUE(parse(std::string(200000, '[')).TooDeep);
  EXPECT_FALSE(parse("[[1,]]").TooDeep);
}

TEST(JsonTest, NonFiniteNumbersReadBackAsWritten) {
  // The writer prints non-finite numbers as %.17g does; the reader takes
  // those tokens back, so a value parsed from an overflowing literal
  // re-parses from its own dump.
  const double Inf = std::numeric_limits<double>::infinity();
  const double NaN = std::numeric_limits<double>::quiet_NaN();
  for (double D : {Inf, -Inf, NaN, -NaN}) {
    const std::string Wire = Value::number(D).dump();
    ParseResult R = parse(Wire);
    ASSERT_TRUE(R.Ok) << Wire << ": " << R.Error;
    EXPECT_EQ(R.Val.dump(), Wire);
  }
  ParseResult Huge = parse("[1e999,-1e999]");
  ASSERT_TRUE(Huge.Ok);
  EXPECT_EQ(Huge.Val.dump(), "[inf,-inf]");
  EXPECT_EQ(parse(Huge.Val.dump()).Val.dump(), "[inf,-inf]");
  EXPECT_FALSE(parse("infinity").Ok);
}

TEST(JsonTest, ParsedObjectsKeepByteOrderAndTheLastDuplicate) {
  ParseResult R = parse("{\"b\":1,\"\\u00ff\":2,\"a\":3,\"B\":4,\"b\":5,"
                        "\"a\":6,\"\":7}");
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Val.dump(),
            "{\"\":7,\"B\":4,\"a\":6,\"b\":5,\"\\u00ff\":2}");
  EXPECT_EQ(R.Val.get("b").asInt(), 5);
  EXPECT_TRUE(R.Val.has(""));
  EXPECT_FALSE(R.Val.has("c"));
  // set() gives the same object for the same members in the same order.
  Value Built = Value::object();
  for (auto [Key, N] : {std::pair{"b", 1}, {"\xff", 2}, {"a", 3}, {"B", 4},
                        {"b", 5}, {"a", 6}, {"", 7}})
    Built.set(Key, Value::integer(N));
  EXPECT_EQ(Built.dump(), R.Val.dump());
}

/// One document with every value kind, built with keys out of order, one
/// key set twice and keys that need escaping.
Value everyKindDocument() {
  const double Inf = std::numeric_limits<double>::infinity();
  Value Numbers = Value::array();
  for (double D : {0.1, 1.0 / 3, -0.0, 5e-324, 1e21, 1e300,
                   9223372036854775808.0, Inf, -Inf, std::nan("")})
    Numbers.push(Value::number(D));
  for (int64_t I : {int64_t(0), int64_t(-42), (int64_t(1) << 53) + 1,
                    std::numeric_limits<int64_t>::min()})
    Numbers.push(Value::integer(I));

  Value Strings = Value::array();
  for (const char *S : {"", "plain / text", "quote\" backslash\\",
                        "nl\n tab\t cr\r", "\x01\x1f\x7f", "\x80\xc3\xa9\xff"})
    Strings.push(Value::string(S));

  Value Nested = Value::object();
  Nested.set("empty_array", Value::array());
  Nested.set("empty_object", Value::object());
  Value Deep = Value::array();
  Value Inner = Value::object();
  Inner.set("k", Value::array());
  Deep.push(std::move(Inner));
  Deep.push(Value::null());
  Nested.set("deep", std::move(Deep));

  Value Doc = Value::object();
  Doc.set("zeta", Value::boolean(false));
  Doc.set("strings", std::move(Strings));
  Doc.set("alpha", Value::integer(1));
  Doc.set("numbers", std::move(Numbers));
  Doc.set("alpha", Value::string("set twice, last wins"));
  Doc.set("nested", std::move(Nested));
  Doc.set("quo\"te", Value::boolean(true));
  Doc.set("ctl\x01", Value::null());
  Doc.set("high\xc3\xa9", Value::integer(2));
  Doc.set("Zed", Value::integer(3));
  Doc.set("", Value::integer(4));
  return Doc;
}

TEST(JsonTest, WriterBytesArePinned) {
  // Recorded from the std::map/snprintf writer this one replaced: every
  // result, aggregate, checkpoint and fingerprint rests on these bytes.
  // Integral numbers in int64's range print as %lld (2^53 + 1 is stored
  // as a double), all others as %.17g.
  const std::string Expected =
      "{\"\":4,\"Zed\":3,\"alpha\":\"set twice, last wins\",\"ctl\\u0001\":nul"
      "l,\"high\\u00c3\\u00a9\":2,\"nested\":{\"deep\":[{\"k\":[]},null],\"emp"
      "ty_array\":[],\"empty_object\":{}},\"numbers\":[0.100000000000000"
      "01,0.33333333333333331,0,4.9406564584124654e-324,1e+21,1.000"
      "0000000000001e+300,9.2233720368547758e+18,inf,-inf,nan,0,-42"
      ",9007199254740992,-9223372036854775808],\"quo\\\"te\":true,\"stri"
      "ngs\":[\"\",\"plain / text\",\"quote\\\" backslash\\\\\",\"nl\\n tab\\t cr"
      "\\r\",\"\\u0001\\u001f\\u007f\",\"\\u0080\\u00c3\\u00a9\\u00ff\"],\"zeta\":"
      "false}";
  EXPECT_EQ(everyKindDocument().dump(), Expected);
}

TEST(JsonTest, EveryKindReadsBackToTheSameBytes) {
  const std::string Wire = everyKindDocument().dump();
  ParseResult R = parse(Wire);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Val.dump(), Wire);
}

/// Documents the tool writes, small enough to mutate by the thousand: a
/// one-cell campaign's aggregate, per-job result and coverage document,
/// its checkpoint lines, a run's metrics JSONL lines and an audit, all at
/// 2 sim-s.
const std::vector<std::string> &toolDocuments() {
  static const std::vector<std::string> Docs = [] {
    std::vector<std::string> Out;
    core::Session S;
    campaign::CampaignSpec Spec;
    Spec.Crates = {"slab"};
    Spec.Variants = {"base"};
    Spec.Base.BudgetSeconds = 2;
    const std::string Ckpt = testing::TempDir() + "/json_corpus.jsonl";
    std::remove(Ckpt.c_str());
    campaign::CheckpointWriter Writer;
    std::string Err;
    EXPECT_TRUE(Writer.open(Ckpt, Spec, Err)) << Err;
    campaign::CampaignRunner Runner(S, Spec);
    // Host wall time is the one field that varies from run to run; fix
    // it so every run of the test mutates the same bytes.
    auto FixWall = [](core::RunResult &Result) {
      Result.Synth.BuildSeconds = 0.125;
      Result.Synth.SolveSeconds = 1.0 / 3;
    };
    Runner.onJobDone([&](const campaign::CampaignJobResult &JR) {
      campaign::CampaignJobResult Fixed = JR;
      FixWall(Fixed.Result);
      Writer.append(Fixed);
    });
    campaign::CampaignResult R = Runner.run();
    Writer.close();
    FixWall(R.Jobs.at(0).Result);
    Out.push_back(campaign::campaignToJson(Spec, R).dump());
    Out.push_back(core::resultToJson(R.Jobs.at(0).Result).dump());
    Out.push_back(coverage::coverageDocumentToJson(R.ApiCoverage).dump());

    std::ifstream In(Ckpt, std::ios::binary);
    for (std::string Line; std::getline(In, Line);)
      Out.push_back(Line);

    obs::Recorder::Options Metrics;
    Metrics.Trace = false;
    obs::Recorder Rec(Metrics);
    core::RunConfig Config;
    Config.BudgetSeconds = 2;
    S.runOne("slab", Config, &Rec);
    std::istringstream Lines(Rec.metrics().jsonl());
    for (std::string Line; std::getline(Lines, Line);)
      Out.push_back(Line);

    oracle::AuditSpec Audit;
    Audit.Crates = {"slab"};
    Audit.Base.MaxModels = 100;
    Out.push_back(
        oracle::auditToJson(Audit, oracle::runAudit(S, Audit)).dump());
    return Out;
  }();
  return Docs;
}

TEST(JsonTest, ToolDocumentsRoundTripByteForByte) {
  const std::vector<std::string> &Docs = toolDocuments();
  ASSERT_GE(Docs.size(), 7u);
  for (const std::string &Doc : Docs) {
    ParseResult R = parse(Doc);
    ASSERT_TRUE(R.Ok) << R.Error;
    EXPECT_EQ(R.Val.dump(), Doc);
  }
}

/// Applies one seeded mutation to \p Doc: a byte flip, an insertion, a
/// deletion, a span duplication, a truncation or, one time in sixteen (a
/// wrapped mutant holds hundreds of containers to check), a wrap in
/// arrays or objects nested around the parser's limit.
void mutate(std::string &Doc, Rng &R) {
  static const char Interesting[] = "{}[]\":,\\-+.eE0123456789untfl ";
  auto Pos = [&] { return R.below(Doc.size() + 1); };
  if (R.chance(1.0 / 16)) {
    const int Levels = static_cast<int>(MaxDepth - 8 + R.below(16));
    const bool Arrays = R.chance(0.5);
    std::string Wrapped;
    for (int I = 0; I < Levels; ++I)
      Wrapped += Arrays ? "[" : "{\"w\":";
    Wrapped += Doc;
    Wrapped.append(Levels, Arrays ? ']' : '}');
    Doc = std::move(Wrapped);
    return;
  }
  switch (R.below(5)) {
  case 0: // Flip: any byte, or one bit.
    if (!Doc.empty()) {
      char &C = Doc[R.below(Doc.size())];
      C = R.chance(0.5) ? static_cast<char>(R.below(256))
                        : static_cast<char>(C ^ (1 << R.below(8)));
    }
    break;
  case 1: { // Insert a byte that matters to the grammar, or any byte.
    const size_t At = Pos();
    Doc.insert(At, 1,
               R.chance(0.7)
                   ? Interesting[R.below(sizeof(Interesting) - 1)]
                   : static_cast<char>(R.below(256)));
    break;
  }
  case 2: { // Delete a span.
    const size_t At = Pos();
    Doc.erase(At, 1 + R.below(16));
    break;
  }
  case 3: { // Duplicate a span somewhere else.
    const size_t From = Pos();
    const std::string Span = Doc.substr(From, 1 + R.below(64));
    Doc.insert(Pos(), Span);
    break;
  }
  case 4: // Truncate.
    Doc.resize(Pos());
    break;
  }
}

TEST(JsonTest, SeededMutantsNeverCrashAndRoundTrip) {
  // ASan+UBSan in CI turn any out-of-bounds read or overflow into a
  // failure; the oracle here is that a refusal says why and an accepted
  // value re-reads from its own rendering to the same bytes.
  const std::vector<std::string> &Docs = toolDocuments();
  Rng R(2021);
  size_t Accepted = 0, Refused = 0, TooDeep = 0;
  for (int I = 0; I < 4000; ++I) {
    std::string Doc = Docs[R.below(Docs.size())];
    for (uint64_t N = 1 + R.below(3); N > 0; --N)
      mutate(Doc, R);
    ParseResult P = parse(Doc);
    if (!P.Ok) {
      ++Refused;
      TooDeep += P.TooDeep;
      ASSERT_FALSE(P.Error.empty()) << "mutant " << I;
      continue;
    }
    ++Accepted;
    const std::string Once = P.Val.dump();
    ParseResult Again = parse(Once);
    ASSERT_TRUE(Again.Ok) << "mutant " << I << ": " << Again.Error;
    ASSERT_EQ(Again.Val.dump(), Once) << "mutant " << I;
  }
  // Both halves of the oracle, and the nesting limit, are exercised.
  EXPECT_GT(Accepted, 400u);
  EXPECT_GT(Refused, 400u);
  EXPECT_GT(TooDeep, 100u);
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
