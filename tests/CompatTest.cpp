//===--- CompatTest.cpp - Memoized compat kernel + shared analysis --------===//
//
// Part of SyRust-CPP (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Covers the two memoization layers end to end: the CompatCache memo
/// table (answers identical to direct computation, hit/miss accounting,
/// read-only base lookups) beside the unmemoized joint probe, and the
/// copy-on-write overlay TypeArena and CrateInstance (pointer identity
/// with the base, isolation between workers).
///
//===----------------------------------------------------------------------===//

#include "core/CrateAnalysis.h"
#include "core/Session.h"
#include "types/CompatCache.h"
#include "types/Subtyping.h"
#include "types/Type.h"
#include "types/TypeParser.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace syrust;
using namespace syrust::core;
using namespace syrust::types;

namespace {

class CompatCacheFixture : public ::testing::Test {
protected:
  TypeArena Arena;
  TypeParser Parser{Arena, {"T", "U", "K", "V"}};

  const Type *parse(const std::string &S) {
    const Type *T = Parser.parse(S);
    EXPECT_NE(T, nullptr) << "parse failed: " << Parser.error();
    return T;
  }

  std::vector<const Type *> sampleTypes() {
    return {parse("i32"),           parse("String"),
            parse("Vec<T>"),        parse("Vec<String>"),
            parse("&mut Vec<T>"),   parse("&mut Vec<String>"),
            parse("&String"),       parse("&mut String"),
            parse("Option<T>"),     parse("Option<i32>"),
            parse("(T, U)"),        parse("(String, i32)"),
            parse("HashMap<K, V>"), parse("T")};
  }
};

TEST_F(CompatCacheFixture, AnswersMatchDirectComputation) {
  CompatCache Cache;
  std::vector<const Type *> Types = sampleTypes();
  for (const Type *A : Types)
    for (const Type *B : Types) {
      Substitution SU;
      EXPECT_EQ(Cache.unifiable2(A, B), unifiable(A, B, SU))
          << A->str() << " ~ " << B->str();
    }
  // Every answer again, this time from the memo tables.
  const CompatCache::Stats After = Cache.stats();
  for (const Type *A : Types)
    for (const Type *B : Types) {
      Substitution SU;
      EXPECT_EQ(Cache.unifiable2(A, B), unifiable(A, B, SU));
    }
  EXPECT_EQ(Cache.stats().Misses, After.Misses);
  EXPECT_EQ(Cache.stats().Hits, After.Hits + Types.size() * Types.size());
}

TEST_F(CompatCacheFixture, JointProbeSharesOneSubstitution) {
  // T binds to String through slot 1, so slot 2 cannot take i32: the
  // joint probe must fail even though each slot unifies in isolation.
  const Type *P = parse("T");
  CompatCache Cache;
  EXPECT_TRUE(Cache.unifiable2(parse("String"), P));
  EXPECT_TRUE(Cache.unifiable2(parse("i32"), P));
  EXPECT_FALSE(unifiableJoint(parse("String"), P, parse("i32"), P));
  EXPECT_TRUE(unifiableJoint(parse("String"), P, parse("String"), P));
  // Distinct variables bind independently; a shared one binds once,
  // whichever side of the slot it sits on.
  EXPECT_TRUE(unifiableJoint(parse("String"), P, parse("i32"), parse("U")));
  EXPECT_FALSE(unifiableJoint(P, parse("String"), parse("Vec<i32>"),
                              parse("Vec<T>")));
  EXPECT_TRUE(unifiableJoint(parse("Vec<T>"), parse("Vec<String>"),
                             parse("&mut String"), parse("&T")));
  // The same answers as threading one substitution by hand.
  const std::vector<const Type *> Types = sampleTypes();
  for (const Type *A1 : Types)
    for (const Type *A2 : Types) {
      Substitution Joint;
      const bool Direct =
          unifiable(A1, parse("Vec<T>"), Joint) && unifiable(A2, P, Joint);
      EXPECT_EQ(unifiableJoint(A1, parse("Vec<T>"), A2, P), Direct)
          << A1->str() << ", " << A2->str();
    }
}

TEST_F(CompatCacheFixture, ChainedCacheHitsBaseReadOnly) {
  CompatCache Base;
  const Type *A = parse("Vec<String>");
  const Type *P = parse("Vec<T>");
  EXPECT_TRUE(Base.unifiable2(A, P));
  const size_t BaseSize = Base.size();
  const CompatCache::Stats BaseStats = Base.stats();

  CompatCache Derived(&Base);
  // Answered from the base chain: counted as a BaseHit on the derived
  // cache, no stat or entry change on the base.
  EXPECT_TRUE(Derived.unifiable2(A, P));
  EXPECT_EQ(Derived.stats().BaseHits, 1u);
  EXPECT_EQ(Derived.stats().Hits, 0u);
  EXPECT_EQ(Derived.stats().Misses, 0u);
  EXPECT_EQ(Derived.size(), 0u);
  EXPECT_EQ(Base.size(), BaseSize);
  EXPECT_EQ(Base.stats().Hits, BaseStats.Hits);
  EXPECT_EQ(Base.stats().Misses, BaseStats.Misses);

  // A pair the base has never seen computes and stores locally.
  EXPECT_TRUE(Derived.unifiable2(parse("Option<i32>"), parse("Option<T>")));
  EXPECT_EQ(Derived.stats().Misses, 1u);
  EXPECT_EQ(Derived.size(), 1u);
  EXPECT_EQ(Base.size(), BaseSize);

  // Once stored locally, repeats are local hits, not base hits.
  EXPECT_TRUE(Derived.unifiable2(parse("Option<i32>"), parse("Option<T>")));
  EXPECT_EQ(Derived.stats().Hits, 1u);
  EXPECT_EQ(Derived.stats().BaseHits, 1u);
}

//===----------------------------------------------------------------------===//
// Overlay arena: copy-on-write over a frozen base pool.
//===----------------------------------------------------------------------===//

TEST(OverlayArenaTest, BaseTypesKeepPointerIdentity) {
  TypeArena Base;
  const Type *VecI32 = Base.named("Vec", {Base.prim("i32")});
  const Type *T = Base.typeVar("T");
  const size_t BaseLocal = Base.localSize();

  TypeArena Over(Base, Overlay);
  // Requests for base-interned types resolve to the very same pointers,
  // so substitutions and cache keys built against the base stay valid.
  EXPECT_EQ(Over.named("Vec", {Over.prim("i32")}), VecI32);
  EXPECT_EQ(Over.typeVar("T"), T);
  EXPECT_EQ(Over.localSize(), 0u);

  // New types land in the overlay; the base pool is untouched.
  const Type *Fresh = Over.named("Vec", {Over.named("Fresh")});
  EXPECT_NE(Fresh, nullptr);
  EXPECT_GT(Over.localSize(), 0u);
  EXPECT_EQ(Base.localSize(), BaseLocal);
  EXPECT_EQ(Over.size(), Base.localSize() + Over.localSize());
}

TEST(OverlayArenaTest, VarIndicesContinueAcrossOverlay) {
  TypeArena Base;
  const Type *T = Base.typeVar("T");
  const Type *U = Base.typeVar("U");
  EXPECT_GE(T->varIndex(), 0);
  EXPECT_NE(T->varIndex(), U->varIndex());

  // The overlay resumes the base's index sequence: a fresh var never
  // collides with any base var, so one flat Substitution can span both.
  TypeArena Over(Base, Overlay);
  const Type *V = Over.typeVar("V");
  EXPECT_NE(V->varIndex(), T->varIndex());
  EXPECT_NE(V->varIndex(), U->varIndex());
  EXPECT_EQ(Over.typeVar("T"), T); // base var, base index

  Substitution S;
  EXPECT_TRUE(S.bind(T, Base.prim("i32")));
  EXPECT_TRUE(S.bind(V, Base.prim("u8")));
  EXPECT_EQ(S.lookup(T), Base.prim("i32"));
  EXPECT_EQ(S.lookup(V), Base.prim("u8"));
}

//===----------------------------------------------------------------------===//
// Shared crate analysis: one frozen base, isolated worker overlays.
//===----------------------------------------------------------------------===//

TEST(CrateAnalysisTest, WorkerInstancesAreIsolated) {
  Session S;
  const crates::CrateSpec *Spec = S.find("slab");
  ASSERT_NE(Spec, nullptr);
  std::shared_ptr<const CrateAnalysis> Analysis = S.analysisFor(*Spec);
  ASSERT_NE(Analysis, nullptr);
  EXPECT_GT(Analysis->matrixEntries(), 0u);
  // Session memoizes: same crate, same analysis object.
  EXPECT_EQ(S.analysisFor(*Spec).get(), Analysis.get());

  std::unique_ptr<crates::CrateInstance> W1 =
      Analysis->makeWorkerInstance();
  std::unique_ptr<crates::CrateInstance> W2 =
      Analysis->makeWorkerInstance();
  const size_t BaseApis = Analysis->base().Db.activeIds().size();
  const size_t BaseLocal = Analysis->base().Arena.localSize();

  // A refinement-style mutation in one worker (ban an API, intern a new
  // instantiation) is invisible to the base and to the other worker.
  ASSERT_FALSE(W1->Db.activeIds().empty());
  W1->Db.ban(W1->Db.activeIds().front());
  W1->Arena.named("OnlyInW1");
  EXPECT_EQ(W1->Db.activeIds().size(), BaseApis - 1);
  EXPECT_EQ(W2->Db.activeIds().size(), BaseApis);
  EXPECT_EQ(Analysis->base().Db.activeIds().size(), BaseApis);
  EXPECT_GT(W1->Arena.localSize(), 0u);
  EXPECT_EQ(W2->Arena.localSize(), 0u);
  EXPECT_EQ(Analysis->base().Arena.localSize(), BaseLocal);
}

} // namespace
