//===--- CoverageTest.cpp - Tests for the coverage substrate --------------===//
//
// Part of SyRust-CPP (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//

#include "coverage/ApiPairCoverage.h"
#include "coverage/CoverageMap.h"
#include "types/CompatCache.h"
#include "types/TypeParser.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace syrust;
using namespace syrust::api;
using namespace syrust::coverage;
using namespace syrust::program;
using namespace syrust::types;

namespace {

TEST(CoverageTest, StartsAtZero) {
  CoverageMap M(10, 20, 4, 8);
  CoverageNumbers N = M.numbers();
  EXPECT_DOUBLE_EQ(N.ComponentLine, 0);
  EXPECT_DOUBLE_EQ(N.LibraryLine, 0);
  EXPECT_DOUBLE_EQ(N.ComponentBranch, 0);
  EXPECT_DOUBLE_EQ(N.LibraryBranch, 0);
}

TEST(CoverageTest, ComponentAndLibraryRatios) {
  CoverageMap M(10, 20, 4, 8);
  M.coverLines(0, 5); // Half the component, quarter of the library.
  CoverageNumbers N = M.numbers();
  EXPECT_DOUBLE_EQ(N.ComponentLine, 50.0);
  EXPECT_DOUBLE_EQ(N.LibraryLine, 25.0);
}

TEST(CoverageTest, LinesOutsideComponentCountOnlyForLibrary) {
  CoverageMap M(10, 20, 4, 8);
  M.coverLines(10, 20);
  CoverageNumbers N = M.numbers();
  EXPECT_DOUBLE_EQ(N.ComponentLine, 0.0);
  EXPECT_DOUBLE_EQ(N.LibraryLine, 50.0);
}

TEST(CoverageTest, BranchArmsCountSeparately) {
  CoverageMap M(10, 20, 4, 8);
  M.coverBranch(0, true);
  EXPECT_DOUBLE_EQ(M.numbers().ComponentBranch, 100.0 / 8);
  M.coverBranch(0, false);
  EXPECT_DOUBLE_EQ(M.numbers().ComponentBranch, 2 * 100.0 / 8);
  // Re-covering the same arm changes nothing.
  M.coverBranch(0, true);
  EXPECT_DOUBLE_EQ(M.numbers().ComponentBranch, 2 * 100.0 / 8);
}

TEST(CoverageTest, OutOfRangeClamped) {
  CoverageMap M(4, 6, 1, 2);
  M.coverLines(-5, 100);
  EXPECT_DOUBLE_EQ(M.numbers().LibraryLine, 100.0);
  M.coverBranch(99, true); // Silently ignored.
  EXPECT_DOUBLE_EQ(M.numbers().LibraryBranch, 0.0);
}

TEST(CoverageTest, SnapshotsAndSaturation) {
  CoverageMap M(10, 10, 1, 1);
  M.coverLines(0, 2);
  M.snapshot(100);
  M.coverLines(0, 8);
  M.snapshot(200);
  M.snapshot(300); // No change after 200.
  EXPECT_EQ(M.snapshots().size(), 3u);
  EXPECT_DOUBLE_EQ(M.saturationTime(), 200);
}

TEST(CoverageTest, SaturationWithNoSnapshotsIsMinusOne) {
  CoverageMap M(10, 10, 1, 1);
  EXPECT_DOUBLE_EQ(M.saturationTime(), -1);
}

//===----------------------------------------------------------------------===//
// ApiPairCoverage: marking, merge, JSON, saturation.
//===----------------------------------------------------------------------===//

/// A three-API database whose dependency graph is small enough to reason
/// about by hand: Vec::new produces, Vec::push consumes twice (once
/// by-ref, once through its type variable), Vec::len is concrete.
class ApiCoverageFixture : public ::testing::Test {
protected:
  TypeArena Arena;
  TypeParser Parser{Arena, {"T"}};
  ApiDatabase Db;
  ApiId New, Push, Len;

  void SetUp() override {
    New = addApi("Vec::new", {}, "Vec<T>");
    Push = addApi("Vec::push", {"&mut Vec<T>", "T"}, "()");
    Len = addApi("Vec::len", {"&Vec<i32>"}, "usize");
  }

  const Type *parse(const std::string &S) {
    const Type *T = Parser.parse(S);
    EXPECT_NE(T, nullptr) << Parser.error();
    return T;
  }

  ApiId addApi(const std::string &Name, std::vector<std::string> Ins,
               const std::string &Out, ApiId RefinedFrom = ApiIdInvalid) {
    ApiSig Sig;
    Sig.Name = Name;
    for (const auto &I : Ins)
      Sig.Inputs.push_back(parse(I));
    Sig.Output = parse(Out);
    Sig.RefinedFrom = RefinedFrom;
    return Db.add(std::move(Sig));
  }

  api::DependencyGraph build() {
    CompatCache Cache;
    return buildDependencyGraph(Db, Arena, Cache);
  }

  /// `let v1 = Vec::new(); Vec::push(m, v1)` over one template input m —
  /// the fresh Vec flows into Push's type-variable slot, realizing
  /// exactly the (New, Push, 1) edge (the &mut slot takes the input).
  Program newThenPush(ApiId PushId) {
    Program P;
    P.Inputs.push_back({"m", parse("&mut Vec<i32>")});
    Stmt S0;
    S0.Api = New;
    S0.Out = 1;
    Stmt S1;
    S1.Api = PushId;
    S1.Args = {0, 1};
    S1.Out = 2;
    P.Stmts = {S0, S1};
    return P;
  }
};

TEST_F(ApiCoverageFixture, MarkProgramWalksDataflow) {
  api::DependencyGraph G = build();
  ApiPairCoverage Cov(G);
  ApiPairCoverage::MarkDelta Delta = Cov.markProgram(newThenPush(Push), Db);
  EXPECT_EQ(Delta.NewNodes, 2u);
  EXPECT_EQ(Delta.NewEdges, 1u);
  EXPECT_EQ(Delta.Unmatched, 0u);
  ApiCoverageData D = Cov.data();
  EXPECT_EQ(D.NodesTotal, 3u);
  EXPECT_EQ(D.nodesCovered(), 2u);
  EXPECT_EQ(D.edgesCovered(), 1u);
  // Re-marking the same program covers nothing new.
  Delta = Cov.markProgram(newThenPush(Push), Db);
  EXPECT_EQ(Delta.NewNodes, 0u);
  EXPECT_EQ(Delta.NewEdges, 0u);
}

TEST_F(ApiCoverageFixture, RefinedApisCanonicalizeToTheirOriginals) {
  api::DependencyGraph G = build();
  // A monomorphized copy the refinement engine might add mid-run: it is
  // not a graph node, but its RefinedFrom chain leads back to Push.
  ApiId Mono =
      addApi("Vec::push", {"&mut Vec<i32>", "i32"}, "()", Push);
  ApiPairCoverage Cov(G);
  ApiPairCoverage::MarkDelta Delta = Cov.markProgram(newThenPush(Mono), Db);
  EXPECT_EQ(Delta.NewNodes, 2u);
  EXPECT_EQ(Delta.NewEdges, 1u);
  EXPECT_EQ(Delta.Unmatched, 0u);
}

TEST_F(ApiCoverageFixture, EdgesOutsideTheGraphAreCountedNotMarked) {
  api::DependencyGraph G = build();
  // usize does not unify into &mut Vec<T>: wiring Len's output into
  // Push's slot 0 realizes an edge the graph does not have.
  Program P;
  P.Inputs.push_back({"v", parse("&Vec<i32>")});
  Stmt S0;
  S0.Api = Len;
  S0.Args = {0};
  S0.Out = 1;
  Stmt S1;
  S1.Api = Push;
  S1.Args = {1, 0};
  S1.Out = 2;
  P.Stmts = {S0, S1};
  ApiPairCoverage Cov(G);
  ApiPairCoverage::MarkDelta Delta = Cov.markProgram(P, Db);
  EXPECT_EQ(Delta.Unmatched, 1u);
  EXPECT_EQ(Cov.data().UnmatchedEdges, 1u);
}

TEST_F(ApiCoverageFixture, SnapshotsYieldSaturation) {
  api::DependencyGraph G = build();
  ApiPairCoverage Cov(G);
  EXPECT_DOUBLE_EQ(Cov.data().SaturationSeconds, -1);
  Cov.snapshot(10);
  Cov.markProgram(newThenPush(Push), Db);
  Cov.snapshot(20);
  Cov.snapshot(30); // No change after 20.
  ApiCoverageData D = Cov.data();
  ASSERT_EQ(D.Snaps.size(), 3u);
  EXPECT_DOUBLE_EQ(D.SaturationSeconds, 20);
  EXPECT_EQ(D.Snaps[1].EdgesCovered, 1u);
}

TEST_F(ApiCoverageFixture, JsonRoundTrips) {
  api::DependencyGraph G = build();
  ApiPairCoverage Cov(G);
  Cov.markProgram(newThenPush(Push), Db);
  Cov.snapshot(15);
  ApiCoverageData D = Cov.data();
  ApiCoverageData Back;
  std::string Err;
  ASSERT_TRUE(apiCoverageFromJson(apiCoverageToJson(D), Back, Err)) << Err;
  EXPECT_EQ(Back.NodesTotal, D.NodesTotal);
  EXPECT_EQ(Back.EdgesTotal, D.EdgesTotal);
  EXPECT_EQ(Back.NodeBits, D.NodeBits);
  EXPECT_EQ(Back.EdgeBits, D.EdgeBits);
  EXPECT_EQ(Back.UnmatchedEdges, D.UnmatchedEdges);
  ASSERT_EQ(Back.Snaps.size(), 1u);
  EXPECT_DOUBLE_EQ(Back.Snaps[0].AtSeconds, 15);
  EXPECT_DOUBLE_EQ(Back.SaturationSeconds, D.SaturationSeconds);

  ApiCoverageData Bad;
  EXPECT_FALSE(apiCoverageFromJson(json::Value(), Bad, Err));
}

TEST_F(ApiCoverageFixture, MistypedFieldsAreRefusedByName) {
  // A count or time of the wrong JSON kind is refused with the field's
  // name (`syrust coverage` exits 2, a resume refuses the checkpoint),
  // never read as 0.
  api::DependencyGraph G = build();
  ApiPairCoverage Cov(G);
  Cov.snapshot(5);
  Cov.markProgram(newThenPush(Push), Db);
  Cov.snapshot(15);
  const json::Value Good = apiCoverageToJson(Cov.data());
  ApiCoverageData Back;
  std::string Err;
  ASSERT_TRUE(apiCoverageFromJson(Good, Back, Err)) << Err;

  for (const auto &[InSnapshot, Key] :
       std::vector<std::pair<bool, const char *>>{
           {false, "nodes_total"},
           {false, "edges_total"},
           {false, "unmatched_edges"},
           {false, "saturation_seconds"},
           {true, "t"},
           {true, "nodes"},
           {true, "edges"}}) {
    // Key of the document, or of its last snapshot, as a string.
    json::Value Doc = Good;
    if (InSnapshot) {
      json::Value Snaps = json::Value::array();
      Snaps.push(Good.get("snapshots").at(0));
      json::Value Last = Good.get("snapshots").at(1);
      ASSERT_TRUE(Last.has(Key)) << Key;
      Last.set(Key, json::Value::string("25"));
      Snaps.push(std::move(Last));
      Doc.set("snapshots", std::move(Snaps));
    } else {
      ASSERT_TRUE(Doc.has(Key)) << Key;
      Doc.set(Key, json::Value::string("x"));
    }
    EXPECT_FALSE(apiCoverageFromJson(Doc, Back, Err)) << Key;
    EXPECT_EQ(std::string("api_coverage field '") + Key +
                  "' has the wrong type",
              Err);
  }

  // A snapshot list that is not an array is refused the same way.
  json::Value Doc = Good;
  Doc.set("snapshots", json::Value::object());
  EXPECT_FALSE(apiCoverageFromJson(Doc, Back, Err));
  EXPECT_EQ("api_coverage field 'snapshots' has the wrong type", Err);
}

TEST_F(ApiCoverageFixture, MergeOrsBitsAndDropsSnapshots) {
  api::DependencyGraph G = build();
  ApiPairCoverage CovA(G), CovB(G);
  CovA.markProgram(newThenPush(Push), Db);
  CovA.snapshot(10);
  Program JustLen;
  JustLen.Inputs.push_back({"v", parse("&Vec<i32>")});
  Stmt S0;
  S0.Api = Len;
  S0.Args = {0};
  S0.Out = 1;
  JustLen.Stmts = {S0};
  CovB.markProgram(JustLen, Db);

  ApiCoverageData A = CovA.data(), B = CovB.data();
  ApiCoverageData Merged = A;
  Merged.mergeFrom(B);
  EXPECT_EQ(Merged.nodesCovered(), 3u); // New, Push from A; Len from B.
  EXPECT_EQ(Merged.edgesCovered(), 1u);
  // Only commutative state survives a merge.
  EXPECT_TRUE(Merged.Snaps.empty());
  EXPECT_DOUBLE_EQ(Merged.SaturationSeconds, -1);

  // Merge commutes on the bits.
  ApiCoverageData Flipped = B;
  Flipped.mergeFrom(A);
  EXPECT_EQ(Flipped.NodeBits, Merged.NodeBits);
  EXPECT_EQ(Flipped.EdgeBits, Merged.EdgeBits);

  // Merging into an empty document adopts the other side.
  ApiCoverageData Empty;
  Empty.mergeFrom(A);
  EXPECT_EQ(Empty.NodesTotal, A.NodesTotal);
  EXPECT_EQ(Empty.NodeBits, A.NodeBits);
  // And merging an empty document is a no-op.
  ApiCoverageData Copy = A;
  Copy.mergeFrom(ApiCoverageData());
  EXPECT_EQ(Copy.NodeBits, A.NodeBits);
}

TEST_F(ApiCoverageFixture, MergeConflictIsReportedNotSilent) {
  api::DependencyGraph G = build();
  ApiPairCoverage Cov(G);
  Cov.markProgram(newThenPush(Push), Db);
  ApiCoverageData A = Cov.data();

  // Clean merges report no conflict: empty other side, empty this side,
  // and matching totals.
  ApiCoverageData Target = A;
  EXPECT_FALSE(Target.mergeFrom(ApiCoverageData()));
  ApiCoverageData Adopt;
  EXPECT_FALSE(Adopt.mergeFrom(A));
  EXPECT_FALSE(Target.mergeFrom(A));

  // Two non-empty documents with different totals is a genuine
  // conflict: the smaller side's covered bits are discarded, and the
  // regression being pinned is that this used to happen silently.
  ApiCoverageData Other;
  Other.NodesTotal = A.NodesTotal + 1;
  Other.EdgesTotal = A.EdgesTotal + 1;
  Other.NodeBits.assign((Other.NodesTotal + 7) / 8, 0);
  Other.EdgeBits.assign((Other.EdgesTotal + 7) / 8, 0);
  Other.NodeBits[0] = 1;
  ApiCoverageData Bigger = A;
  EXPECT_TRUE(Bigger.mergeFrom(Other));
  EXPECT_EQ(Bigger.EdgesTotal, Other.EdgesTotal); // Larger graph won.
  ApiCoverageData Smaller = Other;
  EXPECT_TRUE(Smaller.mergeFrom(A));
  EXPECT_EQ(Smaller.EdgesTotal, Other.EdgesTotal); // Kept, A discarded.
  EXPECT_EQ(Smaller.UnmatchedEdges, A.UnmatchedEdges + Other.UnmatchedEdges);
}

TEST_F(ApiCoverageFixture, ZeroCoverageRunKeepsSaturationSentinel) {
  api::DependencyGraph G = build();
  ApiPairCoverage Cov(G);
  // Snapshots exist but nothing was ever covered: saturation must stay
  // the -1 sentinel. The regression being pinned: data() used to report
  // the first snapshot's timestamp as a real saturation instant.
  Cov.snapshot(10);
  Cov.snapshot(20);
  ApiCoverageData D = Cov.data();
  ASSERT_EQ(D.Snaps.size(), 2u);
  EXPECT_EQ(D.edgesCovered(), 0u);
  EXPECT_DOUBLE_EQ(D.SaturationSeconds, -1);

  // And the sentinel survives the serialize -> parse round trip.
  ApiCoverageData Back;
  std::string Err;
  ASSERT_TRUE(apiCoverageFromJson(apiCoverageToJson(D), Back, Err)) << Err;
  EXPECT_DOUBLE_EQ(Back.SaturationSeconds, -1);
}

TEST_F(ApiCoverageFixture, SentinelSurvivesStandaloneCoverageDocument) {
  api::DependencyGraph G = build();
  ApiPairCoverage Cov(G);
  Cov.snapshot(10); // Zero coverage: saturation is the -1 sentinel.
  ApiCoverageData D = Cov.data();
  ASSERT_DOUBLE_EQ(D.SaturationSeconds, -1);

  // kind:"coverage" document: serialize, re-parse the dumped text, and
  // pull the entry back out - the sentinel must never be revived as a
  // real timestamp.
  json::Value Doc = coverageDocumentToJson({{"vecdeque", D}});
  json::ParseResult P = json::parse(Doc.dump());
  ASSERT_TRUE(P.Ok) << P.Error;
  const json::Value &Entry = P.Val.get("crates").at(0);
  EXPECT_EQ(Entry.get("crate").asString(), "vecdeque");
  ApiCoverageData Back;
  std::string Err;
  ASSERT_TRUE(
      apiCoverageFromJson(Entry.get("api_coverage"), Back, Err))
      << Err;
  EXPECT_DOUBLE_EQ(Back.SaturationSeconds, -1);

  // Merging parsed documents keeps the sentinel too (merge drops all
  // per-run timing state).
  ApiCoverageData Merged;
  Merged.mergeFrom(Back);
  EXPECT_DOUBLE_EQ(Merged.SaturationSeconds, -1);
}

} // namespace
