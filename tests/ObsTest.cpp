//===--- ObsTest.cpp - Tests for the flight recorder ----------------------===//
//
// Part of SyRust-CPP (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//

#include "obs/Recorder.h"

#include "support/Json.h"
#include "support/SimClock.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

using namespace syrust;
using namespace syrust::obs;

namespace {

//===----------------------------------------------------------------------===//
// Counter / Gauge
//===----------------------------------------------------------------------===//

TEST(CounterTest, AccumulatesIncrements) {
  Counter C;
  EXPECT_EQ(C.value(), 0u);
  C.inc();
  C.inc(41);
  EXPECT_EQ(C.value(), 42u);
}

TEST(CounterTest, SaturatesInsteadOfWrapping) {
  Counter C;
  C.inc(UINT64_MAX - 1);
  C.inc(10); // Would wrap; must stick at the max.
  EXPECT_EQ(C.value(), UINT64_MAX);
  C.inc(); // Stays saturated.
  EXPECT_EQ(C.value(), UINT64_MAX);
}

TEST(GaugeTest, LastWriteWins) {
  Gauge G;
  EXPECT_EQ(G.value(), 0.0);
  G.set(3.5);
  G.set(-2.0);
  EXPECT_EQ(G.value(), -2.0);
}

//===----------------------------------------------------------------------===//
// Histogram
//===----------------------------------------------------------------------===//

TEST(HistogramTest, BucketEdgesAreLogSpaced) {
  Histogram H(1.0, 2.0, 4); // Edges 1, 2, 4, 8 + overflow.
  ASSERT_EQ(H.numEdges(), 4u);
  EXPECT_EQ(H.upperEdge(0), 1.0);
  EXPECT_EQ(H.upperEdge(1), 2.0);
  EXPECT_EQ(H.upperEdge(2), 4.0);
  EXPECT_EQ(H.upperEdge(3), 8.0);
}

TEST(HistogramTest, ObservationsLandInInclusiveBuckets) {
  Histogram H(1.0, 2.0, 4);
  H.observe(0.0); // <= 1 -> bucket 0
  H.observe(1.0); // boundary is inclusive -> bucket 0
  H.observe(1.5); // <= 2 -> bucket 1
  H.observe(8.0); // boundary -> bucket 3
  H.observe(9.0); // > last edge -> overflow
  EXPECT_EQ(H.bucketCount(0), 2u);
  EXPECT_EQ(H.bucketCount(1), 1u);
  EXPECT_EQ(H.bucketCount(2), 0u);
  EXPECT_EQ(H.bucketCount(3), 1u);
  EXPECT_EQ(H.bucketCount(4), 1u); // Overflow slot.
  EXPECT_EQ(H.count(), 5u);
  EXPECT_DOUBLE_EQ(H.sum(), 19.5);
}

//===----------------------------------------------------------------------===//
// MetricsRegistry
//===----------------------------------------------------------------------===//

TEST(MetricsRegistryTest, LookupCreatesAndReturnsStableRefs) {
  MetricsRegistry M;
  Counter &A = M.counter("x");
  A.inc(3);
  EXPECT_EQ(M.counter("x").value(), 3u);
  EXPECT_EQ(&M.counter("x"), &A);
}

TEST(MetricsRegistryTest, SnapshotCadenceProducesOneLineEach) {
  MetricsRegistry M;
  M.counter("tests").inc(5);
  M.snapshot(60.0);
  M.counter("tests").inc(5);
  M.snapshot(120.0);
  EXPECT_EQ(M.numSnapshots(), 2u);

  // JSONL: one valid JSON object per line, cumulative counters, the
  // snapshot time under "t".
  std::string Jsonl = M.jsonl();
  size_t Newline = Jsonl.find('\n');
  ASSERT_NE(Newline, std::string::npos);
  json::ParseResult L1 = json::parse(Jsonl.substr(0, Newline));
  json::ParseResult L2 =
      json::parse(Jsonl.substr(Newline + 1,
                               Jsonl.size() - Newline - 2));
  ASSERT_TRUE(L1.Ok) << L1.Error;
  ASSERT_TRUE(L2.Ok) << L2.Error;
  EXPECT_EQ(L1.Val.get("t").asDouble(), 60.0);
  EXPECT_EQ(L1.Val.get("counters").get("tests").asInt(), 5);
  EXPECT_EQ(L2.Val.get("t").asDouble(), 120.0);
  EXPECT_EQ(L2.Val.get("counters").get("tests").asInt(), 10);
}

TEST(MetricsRegistryTest, SnapshotsKeepTheValuesOfTheirInstant) {
  // Lines are rendered only when jsonl() is asked for, yet each shows
  // the counters, gauges and histogram buckets of its own snapshot.
  MetricsRegistry M;
  M.gauge("g").set(1.5);
  M.histogram("lat", 1.0, 2.0, 3).observe(2.0);
  M.snapshot(1.0);
  const std::string First = M.snapshotValue(1.0).dump();
  M.gauge("g").set(7);
  M.histogram("lat").observe(100);
  M.counter("late").inc();
  M.snapshot(2.0);
  const std::string Second = M.snapshotValue(2.0).dump();
  EXPECT_NE(First, Second);
  EXPECT_EQ(First + "\n" + Second + "\n", M.jsonl());
}

TEST(MetricsRegistryTest, SnapshotCapturesHistogramShape) {
  MetricsRegistry M;
  M.histogram("lat", 1.0, 2.0, 3).observe(2.0);
  json::Value V = M.snapshotValue(1.0);
  const json::Value &H = V.get("histograms").get("lat");
  EXPECT_EQ(H.get("count").asInt(), 1);
  ASSERT_EQ(H.get("edges").size(), 3u);
  ASSERT_EQ(H.get("buckets").size(), 4u);
  EXPECT_EQ(H.get("buckets").at(1).asInt(), 1);
}

//===----------------------------------------------------------------------===//
// Tracer
//===----------------------------------------------------------------------===//

TEST(TracerTest, StampsEventsWithSimulatedTime) {
  SimClock Clock;
  Tracer T;
  T.bindClock(&Clock);
  T.begin("run", "driver");
  Clock.charge(0.5);
  T.instant("tick", "driver");
  Clock.charge(0.5);
  T.end("run", "driver");
  T.bindClock(nullptr);
  EXPECT_EQ(T.numEvents(), 3u);

  json::ParseResult P = json::parse(T.chromeJson());
  ASSERT_TRUE(P.Ok) << P.Error;
  const json::Value &Events = P.Val.get("traceEvents");
  ASSERT_EQ(Events.size(), 3u);
  EXPECT_EQ(Events.at(0).get("ph").asString(), "B");
  EXPECT_EQ(Events.at(0).get("ts").asDouble(), 0.0);
  EXPECT_EQ(Events.at(1).get("ph").asString(), "i");
  EXPECT_EQ(Events.at(1).get("ts").asDouble(), 500000.0); // Microseconds.
  EXPECT_EQ(Events.at(2).get("ph").asString(), "E");
  EXPECT_EQ(Events.at(2).get("ts").asDouble(), 1000000.0);
}

TEST(TracerTest, CompleteSpanCarriesDurationAndArgs) {
  Tracer T;
  T.complete("stage", "driver", 1.0, 0.25,
             ArgList().add("candidate", uint64_t(7)).add("ok", true));
  json::ParseResult P = json::parse(T.chromeJson());
  ASSERT_TRUE(P.Ok) << P.Error;
  const json::Value &E = P.Val.get("traceEvents").at(0);
  EXPECT_EQ(E.get("ph").asString(), "X");
  EXPECT_EQ(E.get("ts").asDouble(), 1000000.0);
  EXPECT_EQ(E.get("dur").asDouble(), 250000.0);
  EXPECT_EQ(E.get("args").get("candidate").asInt(), 7);
  EXPECT_TRUE(E.get("args").get("ok").asBool());
}

TEST(TracerTest, ArgsRenderEveryValueKindToPinnedBytes) {
  // Every value kind, and more arguments than an ArgList keeps inline.
  // Golden traces and trace consumers depend on these exact bytes.
  ArgList Args;
  Args.add("text", std::string("q\"b\\s\x01t\n"))
      .add("min", INT64_MIN)
      .add("max", UINT64_MAX)
      .add("whole", 42.0)
      .add("frac", 0.1)
      .add("yes", true)
      .add("no", false)
      .add("small", -7)
      .add("borrowed", "lit\"eral")
      .add("huge", 1e300)
      .add("neg_whole", -3.0)
      .add("k\"ey", int64_t(5));
  Tracer T;
  T.instant("e", "c", Args);
  ASSERT_EQ(T.numEvents(), 1u);
  EXPECT_EQ(T.events()[0],
            R"({"name":"e","cat":"c","ph":"i","ts":0,"s":"t","pid":0,)"
            R"("tid":0,"args":{"text":"q\"b\\s\u0001t\n",)"
            R"("min":-9223372036854775808,"max":18446744073709551615,)"
            R"("whole":42,"frac":0.10000000000000001,"yes":true,)"
            R"("no":false,"small":-7,"borrowed":"lit\"eral",)"
            R"("huge":1.0000000000000001e+300,"neg_whole":-3,"k\"ey":5}})");
}

TEST(TracerTest, UnboundClockFreezesAtLastReading) {
  SimClock Clock;
  Tracer T;
  T.bindClock(&Clock);
  Clock.charge(2.0);
  T.bindClock(nullptr); // Clock may be destroyed after this point.
  T.instant("late", "driver");
  json::ParseResult P = json::parse(T.chromeJson());
  ASSERT_TRUE(P.Ok) << P.Error;
  EXPECT_EQ(P.Val.get("traceEvents").at(0).get("ts").asDouble(),
            2000000.0);
}

TEST(TracerTest, WallClockIsOptInOnly) {
  Tracer NoWall;
  NoWall.instant("e", "c");
  EXPECT_EQ(NoWall.chromeJson().find("wall_us"), std::string::npos);

  Tracer Wall(/*CaptureWall=*/true);
  Wall.instant("e", "c");
  EXPECT_NE(Wall.chromeJson().find("wall_us"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Recorder facade
//===----------------------------------------------------------------------===//

TEST(RecorderTest, HalvesAreIndependentlyDisableable) {
  Recorder::Options O;
  O.Trace = false;
  O.Metrics = true;
  Recorder R(O);
  R.instant("dropped", "c");
  R.count("kept");
  EXPECT_EQ(R.tracer().numEvents(), 0u);
  EXPECT_EQ(R.metrics().counter("kept").value(), 1u);

  O.Trace = true;
  O.Metrics = false;
  Recorder R2(O);
  R2.instant("kept", "c");
  R2.count("dropped");
  R2.snapshotMetrics(1.0);
  EXPECT_EQ(R2.tracer().numEvents(), 1u);
  EXPECT_EQ(R2.metrics().counter("dropped").value(), 0u);
  EXPECT_EQ(R2.metrics().numSnapshots(), 0u);
}

TEST(RecorderTest, LiteralAndRuntimeNamesReachOneMetric) {
  Recorder R;
  R.count("x");
  R.count(std::string("x"), 2);
  R.count("x");
  R.gaugeSet("g", 1.0);
  R.gaugeSet(std::string("g"), 2.0);
  R.observe("h", 1.0);
  R.observe(std::string("h"), 3.0);
  EXPECT_EQ(R.metrics().counterValues().size(), 1u);
  EXPECT_EQ(R.metrics().counter("x").value(), 4u);
  EXPECT_EQ(R.metrics().gauge("g").value(), 2.0);
  EXPECT_EQ(R.metrics().histogram("h").count(), 2u);
}

} // namespace
