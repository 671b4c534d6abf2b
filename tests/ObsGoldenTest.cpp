//===--- ObsGoldenTest.cpp - Golden-trace determinism tests ---------------===//
//
// Part of SyRust-CPP (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The flight recorder's contract: because every timestamp comes from the
/// SimClock, two runs with the same seed must produce byte-identical trace
/// and metrics documents, the recorder must not change what the pipeline
/// computes, and the trace must be analyzable by `syrust report`'s
/// summarizer.
///
//===----------------------------------------------------------------------===//

#include "core/Session.h"
#include "report/TraceReport.h"
#include "support/Json.h"

#include <gtest/gtest.h>

#include <string>

using namespace syrust;
using namespace syrust::core;
using namespace syrust::crates;

namespace {

/// One Session shared by the tests in this file; Session::runOne is the
/// one way to run a crate.
const Session &session() {
  static const Session S;
  return S;
}

RunConfig tracedConfig() {
  RunConfig C;
  C.BudgetSeconds = 60;
  C.SnapshotInterval = 10;
  C.Seed = 2021;
  return C;
}

struct Traced {
  RunResult Result;
  std::string TraceJson;
  std::string MetricsJsonl;
};

Traced runTraced(const char *Crate) {
  obs::Recorder Rec;
  Traced T;
  T.Result = session().runOne(Crate, tracedConfig(), &Rec);
  T.TraceJson = Rec.tracer().chromeJson();
  T.MetricsJsonl = Rec.metrics().jsonl();
  return T;
}

TEST(ObsGoldenTest, SameSeedGivesByteIdenticalTraceAndMetrics) {
  Traced A = runTraced("slab");
  Traced B = runTraced("slab");
  EXPECT_EQ(A.TraceJson, B.TraceJson);
  EXPECT_EQ(A.MetricsJsonl, B.MetricsJsonl);
  EXPECT_GT(A.TraceJson.size(), 0u);
}

TEST(ObsGoldenTest, RecorderDoesNotPerturbTheRun) {
  Traced Traced = runTraced("slab");
  RunResult Plain = session().runOne("slab", tracedConfig());
  EXPECT_EQ(Traced.Result.Synthesized, Plain.Synthesized);
  EXPECT_EQ(Traced.Result.Rejected, Plain.Rejected);
  EXPECT_EQ(Traced.Result.Executed, Plain.Executed);
  EXPECT_EQ(Traced.Result.UbCount, Plain.UbCount);
  EXPECT_EQ(Traced.Result.ElapsedSeconds, Plain.ElapsedSeconds);
  EXPECT_EQ(Traced.Result.Synth.Emitted, Plain.Synth.Emitted);
  EXPECT_EQ(Traced.Result.Refine.ComboBlocks, Plain.Refine.ComboBlocks);
}

TEST(ObsGoldenTest, TraceIsValidChromeTraceJson) {
  Traced T = runTraced("slab");
  json::ParseResult P = json::parse(T.TraceJson);
  ASSERT_TRUE(P.Ok) << P.Error;
  const json::Value &Events = P.Val.get("traceEvents");
  ASSERT_EQ(Events.kind(), json::Value::Kind::Array);
  ASSERT_GT(Events.size(), 0u);
  // Every event carries the mandatory trace-event fields, and no event
  // leaks wall-clock (the determinism contract).
  for (size_t I = 0; I < Events.size(); ++I) {
    const json::Value &E = Events.at(I);
    EXPECT_TRUE(E.has("name"));
    EXPECT_TRUE(E.has("ph"));
    EXPECT_TRUE(E.has("ts"));
    EXPECT_TRUE(E.has("pid"));
    EXPECT_TRUE(E.has("tid"));
    if (E.has("args")) {
      EXPECT_FALSE(E.get("args").has("wall_us"));
    }
  }
  // The driver's umbrella span is present.
  EXPECT_NE(T.TraceJson.find("\"name\":\"candidate\""),
            std::string::npos);
}

TEST(ObsGoldenTest, MetricsFollowSnapshotCadence) {
  Traced T = runTraced("slab");
  // 60 s budget at a 10 s interval: six periodic lines + one terminal.
  size_t Lines = 0;
  for (char C : T.MetricsJsonl)
    Lines += C == '\n';
  EXPECT_EQ(Lines, 7u);
  // First line is valid JSON with the cumulative counters at t=10.
  json::ParseResult P =
      json::parse(T.MetricsJsonl.substr(0, T.MetricsJsonl.find('\n')));
  ASSERT_TRUE(P.Ok) << P.Error;
  EXPECT_EQ(P.Val.get("t").asDouble(), 10.0);
  EXPECT_GT(P.Val.get("counters").get("driver.synthesized").asInt(), 0);
}

TEST(ObsGoldenTest, TraceReportSummarizesStages) {
  Traced T = runTraced("slab");
  report::TraceSummary S;
  std::string Err;
  ASSERT_TRUE(report::summarizeTrace(T.TraceJson, S, Err)) << Err;
  ASSERT_TRUE(S.Spans.count("candidate"));
  ASSERT_TRUE(S.Spans.count("stage.compile"));
  ASSERT_TRUE(S.Spans.count("stage.execute"));
  ASSERT_TRUE(S.Spans.count("stage.synthesize"));
  // One umbrella span per synthesized candidate.
  EXPECT_EQ(S.Spans["candidate"].Count, T.Result.Synthesized);
  EXPECT_GT(S.EndSeconds, 0.0);
  EXPECT_GT(S.Instants["compile.verdict"], 0u);

  std::string Rendered = report::renderTraceSummary(S);
  EXPECT_NE(Rendered.find("stage.compile"), std::string::npos);
  EXPECT_NE(Rendered.find("Per-stage latency"), std::string::npos);
}

TEST(ObsGoldenTest, SummarizerRejectsGarbage) {
  report::TraceSummary S;
  std::string Err;
  EXPECT_FALSE(report::summarizeTrace("not json", S, Err));
  EXPECT_FALSE(Err.empty());
  Err.clear();
  EXPECT_FALSE(report::summarizeTrace("{\"foo\":1}", S, Err));
  EXPECT_FALSE(Err.empty());
}

} // namespace
