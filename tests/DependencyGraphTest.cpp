//===--- DependencyGraphTest.cpp - API dependency graph tests -------------===//
//
// Part of SyRust-CPP (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The frozen API dependency graph's contract: a deterministic
/// producer->consumer edge set derived from the same unification kernel
/// the encoder uses. Three layers of checks:
///
///  - shape on a hand-built database (edges, slots, by-ref/generic
///    metadata, dense index, sorted order);
///  - golden stability on bundled crates: the graph frozen inside the
///    shared CrateAnalysis is byte-identical to one rebuilt from a fresh
///    instance with a fresh cache, and agrees with direct CompatCache
///    probes on EVERY (producer, consumer, slot) triple;
///  - the runtime property behind api_coverage: every edge a synthesized
///    program realizes is present in the frozen graph (UnmatchedEdges
///    stays 0 across a campaign slice), so coverage bitsets never
///    silently drop dataflow.
///
//===----------------------------------------------------------------------===//

#include "api/DependencyGraph.h"
#include "core/Session.h"
#include "types/CompatCache.h"
#include "types/Subtyping.h"
#include "types/TypeParser.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace syrust;
using namespace syrust::api;
using namespace syrust::core;
using namespace syrust::crates;
using namespace syrust::types;

namespace {

class GraphFixture : public ::testing::Test {
protected:
  TypeArena Arena;
  TypeParser Parser{Arena, {"T"}};
  ApiDatabase Db;

  const Type *parse(const std::string &S) {
    const Type *T = Parser.parse(S);
    EXPECT_NE(T, nullptr) << Parser.error();
    return T;
  }

  ApiId addApi(const std::string &Name, std::vector<std::string> Ins,
               const std::string &Out) {
    ApiSig Sig;
    Sig.Name = Name;
    for (const auto &I : Ins)
      Sig.Inputs.push_back(parse(I));
    Sig.Output = parse(Out);
    return Db.add(std::move(Sig));
  }

  DependencyGraph build() {
    CompatCache Cache;
    return buildDependencyGraph(Db, Arena, Cache);
  }
};

TEST_F(GraphFixture, EmptyDatabaseYieldsEmptyGraph) {
  DependencyGraph G = build();
  EXPECT_EQ(G.numNodes(), 0u);
  EXPECT_EQ(G.numEdges(), 0u);
  EXPECT_EQ(G.edgeIndex(0, 0, 0), -1);
}

TEST_F(GraphFixture, ConcreteProducerConsumerChain) {
  ApiId New = addApi("Vec::new", {}, "Vec<i32>");
  ApiId Borrow = addApi("borrow", {"Vec<i32>"}, "&Vec<i32>");
  ApiId Len = addApi("Vec::len", {"&Vec<i32>"}, "usize");
  DependencyGraph G = build();
  EXPECT_EQ(G.numNodes(), 3u);
  // The unifier does not auto-borrow: Vec<i32> reaches the &Vec<i32>
  // slot only through the borrow node, exactly like the synthesizer's
  // builtin::borrow statements.
  EXPECT_EQ(G.edgeIndex(New, Len, 0), -1);
  int ToBorrow = G.edgeIndex(New, Borrow, 0);
  int ToLen = G.edgeIndex(Borrow, Len, 0);
  ASSERT_GE(ToBorrow, 0);
  ASSERT_GE(ToLen, 0);
  const DependencyEdge &E = G.edges()[static_cast<size_t>(ToLen)];
  EXPECT_EQ(E.Producer, Borrow);
  EXPECT_EQ(E.Consumer, Len);
  EXPECT_EQ(E.Slot, 0);
  EXPECT_TRUE(E.ByRef);
  EXPECT_FALSE(E.Generic);
  EXPECT_FALSE(G.edges()[static_cast<size_t>(ToBorrow)].ByRef);
  EXPECT_EQ(G.edgeIndex(Len, New, 0), -1);
}

TEST_F(GraphFixture, GenericEdgesAreFlagged) {
  ApiId New = addApi("Vec::new", {}, "Vec<T>");
  ApiId BorrowMut = addApi("borrow_mut", {"T"}, "&mut T");
  ApiId Push = addApi("Vec::push", {"&mut Vec<T>", "T"}, "()");
  DependencyGraph G = build();
  // Vec<T> feeds Push's type-variable slot directly and its &mut slot
  // only through borrow_mut; both edges are generic.
  EXPECT_EQ(G.edgeIndex(New, Push, 0), -1);
  int Slot1 = G.edgeIndex(New, Push, 1);
  int MutSlot0 = G.edgeIndex(BorrowMut, Push, 0);
  ASSERT_GE(Slot1, 0);
  ASSERT_GE(MutSlot0, 0);
  EXPECT_FALSE(G.edges()[static_cast<size_t>(Slot1)].ByRef);
  EXPECT_TRUE(G.edges()[static_cast<size_t>(Slot1)].Generic);
  EXPECT_TRUE(G.edges()[static_cast<size_t>(MutSlot0)].ByRef);
  EXPECT_TRUE(G.edges()[static_cast<size_t>(MutSlot0)].Generic);
}

TEST_F(GraphFixture, EdgesAreSortedAndDenselyIndexed) {
  addApi("a", {}, "i32");
  addApi("b", {"i32", "i32"}, "i32");
  addApi("c", {"i32"}, "u8");
  DependencyGraph G = build();
  const std::vector<DependencyEdge> &Edges = G.edges();
  ASSERT_GT(Edges.size(), 1u);
  for (size_t I = 0; I + 1 < Edges.size(); ++I) {
    const DependencyEdge &L = Edges[I];
    const DependencyEdge &R = Edges[I + 1];
    bool Less = L.Producer < R.Producer ||
                (L.Producer == R.Producer &&
                 (L.Consumer < R.Consumer ||
                  (L.Consumer == R.Consumer && L.Slot < R.Slot)));
    EXPECT_TRUE(Less) << "edges out of order at " << I;
  }
  for (size_t I = 0; I < Edges.size(); ++I)
    EXPECT_EQ(G.edgeIndex(Edges[I].Producer, Edges[I].Consumer,
                          Edges[I].Slot),
              static_cast<int>(I));
}

TEST_F(GraphFixture, BitsetLookupAgreesWithEdgeIndex) {
  // The encoder's O(1) probe path: hasEdge must answer exactly what
  // edgeIndex answers, for every triple.
  ApiId New = addApi("Vec::new", {}, "Vec<T>");
  addApi("borrow_mut", {"T"}, "&mut T");
  ApiId Push = addApi("Vec::push", {"&mut Vec<T>", "T"}, "()");
  addApi("lone", {"u8"}, "String");
  DependencyGraph G = build();
  for (size_t A = 0; A < Db.size(); ++A)
    for (size_t B = 0; B < Db.size(); ++B)
      for (size_t J = 0; J < Db.get(static_cast<ApiId>(B)).Inputs.size();
           ++J)
        EXPECT_EQ(G.hasEdge(static_cast<ApiId>(A), static_cast<ApiId>(B),
                            static_cast<int>(J)),
                  G.edgeIndex(static_cast<ApiId>(A), static_cast<ApiId>(B),
                              static_cast<int>(J)) >= 0)
            << A << " -> " << B << "#" << J;
  // Ids outside the graph and slots the consumer lacks are no edge.
  EXPECT_EQ(G.edgeIndex(ApiIdInvalid, Push, 1), -1);
  EXPECT_EQ(G.edgeIndex(static_cast<ApiId>(Db.size()), Push, 1), -1);
  EXPECT_EQ(G.edgeIndex(New, static_cast<ApiId>(Db.size()), 0), -1);
  EXPECT_EQ(G.edgeIndex(New, Push, 2), -1);
  EXPECT_EQ(G.edgeIndex(New, Push, -1), -1);
}

//===----------------------------------------------------------------------===//
// Golden stability on bundled crates.
//===----------------------------------------------------------------------===//

/// The graph frozen inside the shared per-crate analysis must be
/// byte-identical to one rebuilt from scratch: same instance-independent
/// rename discipline, same kernel, no dependence on the analysis'
/// cache-warming order.
TEST(DependencyGraphGoldenTest, FrozenGraphMatchesFreshRebuild) {
  Session S;
  for (const char *Name : {"slab", "base16", "smallvec"}) {
    const CrateSpec *Spec = S.find(Name);
    ASSERT_NE(Spec, nullptr) << Name;
    std::shared_ptr<const CrateAnalysis> Analysis = S.analysisFor(*Spec);
    ASSERT_NE(Analysis, nullptr) << Name;
    std::unique_ptr<CrateInstance> Inst = Spec->instantiate();
    CompatCache Fresh;
    DependencyGraph Rebuilt =
        buildDependencyGraph(Inst->Db, Inst->Arena, Fresh);
    EXPECT_EQ(Analysis->graph().describe(Inst->Db),
              Rebuilt.describe(Inst->Db))
        << Name;
    EXPECT_GT(Rebuilt.numEdges(), 0u) << Name;
  }
}

/// Every edge (and every absent edge) agrees with a direct probe of the
/// compatibility kernel on the renamed signatures — the graph is a
/// faithful tabulation, not an approximation.
TEST(DependencyGraphGoldenTest, EveryEdgeAgreesWithDirectProbes) {
  Session S;
  for (const char *Name : {"slab", "base16"}) {
    const CrateSpec *Spec = S.find(Name);
    ASSERT_NE(Spec, nullptr) << Name;
    std::unique_ptr<CrateInstance> Inst = Spec->instantiate();
    CompatCache BuildCache;
    DependencyGraph G =
        buildDependencyGraph(Inst->Db, Inst->Arena, BuildCache);

    const size_t N = Inst->Db.size();
    std::vector<const Type *> RenOut(N, nullptr);
    std::vector<std::vector<const Type *>> RenIn(N);
    for (size_t K = 0; K < N; ++K) {
      const ApiSig &Sig = Inst->Db.get(static_cast<ApiId>(K));
      std::string Suffix = "a" + std::to_string(K);
      RenOut[K] = renameVars(Inst->Arena, Sig.Output, Suffix);
      for (const Type *In : Sig.Inputs)
        RenIn[K].push_back(renameVars(Inst->Arena, In, Suffix));
    }

    CompatCache Probe;
    size_t Edges = 0;
    for (size_t A = 0; A < N; ++A) {
      for (size_t B = 0; B < N; ++B)
        for (size_t J = 0; J < RenIn[B].size(); ++J) {
          bool Unifies = Probe.unifiable2(RenOut[A], RenIn[B][J]);
          int Idx = G.edgeIndex(static_cast<ApiId>(A),
                                static_cast<ApiId>(B),
                                static_cast<int>(J));
          EXPECT_EQ(Idx >= 0, Unifies)
              << Name << ": " << Inst->Db.get(static_cast<ApiId>(A)).Name
              << " -> " << Inst->Db.get(static_cast<ApiId>(B)).Name << "#"
              << J;
          // The O(1) bitset probe the encoder uses must agree too -
          // that agreement is the pruning-soundness invariant
          // (DESIGN.md 5g).
          EXPECT_EQ(G.hasEdge(static_cast<ApiId>(A), static_cast<ApiId>(B),
                              static_cast<int>(J)),
                    Unifies)
              << Name << ": " << Inst->Db.get(static_cast<ApiId>(A)).Name
              << " -> " << Inst->Db.get(static_cast<ApiId>(B)).Name << "#"
              << J;
          Edges += Idx >= 0;
        }
    }
    EXPECT_EQ(Edges, G.numEdges()) << Name;
  }
}

//===----------------------------------------------------------------------===//
// Realized edges are a subset of the frozen graph.
//===----------------------------------------------------------------------===//

/// Property over a small campaign slice: every dataflow edge in every
/// emitted program maps onto a frozen graph edge (after canonicalizing
/// refined APIs back to their polymorphic originals), so UnmatchedEdges
/// — the "graph missed something" diagnostic — stays zero, and marking
/// makes visible progress.
TEST(DependencyGraphGoldenTest, RealizedEdgesAreSubsetOfGraph) {
  Session S;
  RunConfig Config;
  Config.BudgetSeconds = 30;
  Config.SnapshotInterval = 10;
  for (const char *Name : {"slab", "base16", "smallvec"}) {
    for (uint64_t Seed : {2021u, 2022u}) {
      Config.Seed = Seed;
      RunResult R = S.runOne(Name, Config);
      ASSERT_TRUE(R.Supported) << Name;
      const coverage::ApiCoverageData &D = R.ApiCoverage;
      EXPECT_EQ(D.UnmatchedEdges, 0u) << Name << " seed " << Seed;
      EXPECT_GT(D.NodesTotal, 0u) << Name;
      EXPECT_GT(D.EdgesTotal, 0u) << Name;
      EXPECT_GT(D.nodesCovered(), 0u) << Name << " seed " << Seed;
      EXPECT_GT(D.edgesCovered(), 0u) << Name << " seed " << Seed;
      EXPECT_LE(D.edgesCovered(), D.EdgesTotal) << Name;
      EXPECT_LE(D.nodesCovered(), D.NodesTotal) << Name;
    }
  }
}

} // namespace
