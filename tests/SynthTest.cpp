//===--- SynthTest.cpp - Tests for the encoder and synthesizer ------------===//
//
// Part of SyRust-CPP (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//

#include "api/DependencyGraph.h"
#include "rustsim/Checker.h"
#include "synth/SeenPrograms.h"
#include "synth/Synthesizer.h"
#include "types/CompatCache.h"
#include "types/TypeParser.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

using namespace syrust;
using namespace syrust::api;
using namespace syrust::program;
using namespace syrust::rustsim;
using namespace syrust::synth;
using namespace syrust::types;

namespace {

class SynthFixture : public ::testing::Test {
protected:
  TypeArena Arena;
  TypeParser Parser{Arena, {"T"}};
  TraitEnv Traits{Arena};
  ApiDatabase Db;
  ApiId LetMut = ApiIdInvalid, Borrow = ApiIdInvalid,
        BorrowMut = ApiIdInvalid;

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

  void addBuiltins() {
    auto B = addBuiltinApis(Db, Arena);
    LetMut = B[0];
    Borrow = B[1];
    BorrowMut = B[2];
  }

  std::vector<TemplateInput> vecTemplate() {
    return {{"s", parse("String")}, {"v", parse("Vec<String>")}};
  }
};

//===----------------------------------------------------------------------===//
// Basic enumeration
//===----------------------------------------------------------------------===//

TEST_F(SynthFixture, LengthOneEnumeratesExpectedPrograms) {
  // Only concrete APIs, no builtins: f(String) and g(Vec<String>).
  addApi("f", {"String"}, "usize");
  addApi("g", {"Vec<String>"}, "usize");
  Synthesizer Synth(Arena, Traits, Db, vecTemplate(), /*MaxLines=*/1);
  std::vector<std::string> Names;
  while (auto P = Synth.next()) {
    ASSERT_EQ(P->Stmts.size(), 1u);
    Names.push_back(Db.get(P->Stmts[0].Api).Name);
  }
  // Exactly two programs: f(s); and g(v);
  ASSERT_EQ(Names.size(), 2u);
  EXPECT_NE(std::find(Names.begin(), Names.end(), "f"), Names.end());
  EXPECT_NE(std::find(Names.begin(), Names.end(), "g"), Names.end());
}

TEST_F(SynthFixture, ArgumentWiringDistinguishesPrograms) {
  // h(String, Vec<String>) has exactly one wiring; k(usize, usize) with
  // two usize inputs has one var -> one wiring (same var twice, prim).
  addApi("h", {"String", "Vec<String>"}, "usize");
  Synthesizer Synth(Arena, Traits, Db, vecTemplate(), 1);
  int Count = 0;
  while (auto P = Synth.next()) {
    ++Count;
    EXPECT_EQ(P->Stmts[0].Args, (std::vector<VarId>{0, 1}));
  }
  EXPECT_EQ(Count, 1);
}

TEST_F(SynthFixture, ChainedCallUsesPriorOutput) {
  addApi("mk", {"String"}, "Token");
  addApi("use_token", {"Token"}, "usize");
  Synthesizer Synth(Arena, Traits, Db, vecTemplate(), 2);
  bool SawChain = false;
  while (auto P = Synth.next()) {
    if (P->Stmts.size() == 2 &&
        Db.get(P->Stmts[0].Api).Name == "mk" &&
        Db.get(P->Stmts[1].Api).Name == "use_token") {
      EXPECT_EQ(P->Stmts[1].Args[0], 2); // Output of line 0.
      SawChain = true;
    }
  }
  EXPECT_TRUE(SawChain);
}

TEST_F(SynthFixture, MoveSemanticsPreventDoubleUse) {
  // Token is owned non-Copy; it can only be consumed once.
  addApi("mk", {"String"}, "Token");
  addApi("use_token", {"Token"}, "usize");
  Synthesizer Synth(Arena, Traits, Db, vecTemplate(), 3);
  while (auto P = Synth.next()) {
    // Count consuming uses per variable; no owned var may be consumed
    // twice.
    std::map<VarId, int> Consumptions;
    for (const Stmt &S : P->Stmts)
      for (VarId A : S.Args)
        Consumptions[A] += 1;
    // `s` is String (non-Copy): at most one use.
    EXPECT_LE(Consumptions[0], 1) << P->render(Db);
  }
}

TEST_F(SynthFixture, PolymorphicApiMatchesAllEligibleArgs) {
  addApi("id", {"T"}, "usize");
  Synthesizer Synth(Arena, Traits, Db, vecTemplate(), 1);
  int Count = 0;
  while (auto P = Synth.next())
    ++Count;
  // id(s) and id(v).
  EXPECT_EQ(Count, 2);
}

TEST_F(SynthFixture, CompatibleTypesConstraintEnforced) {
  // pair(T, T): (s, s) forbidden by Rule 4 (owned twice), (s, v) forbidden
  // by compatibility (T cannot be String and Vec<String>).
  addApi("pair", {"T", "T"}, "usize");
  Synthesizer Synth(Arena, Traits, Db, vecTemplate(), 1);
  int Count = 0;
  while (auto P = Synth.next())
    ++Count;
  EXPECT_EQ(Count, 0);
}

TEST_F(SynthFixture, CompatibleTypesAllowsTwoDistinctSameTypeVars) {
  // With two String inputs, pair(T, T) wires (s1, s2) and (s2, s1).
  addApi("pair", {"T", "T"}, "usize");
  std::vector<TemplateInput> Ins{{"s1", parse("String")},
                                 {"s2", parse("String")}};
  Synthesizer Synth(Arena, Traits, Db, Ins, 1);
  int Count = 0;
  while (auto P = Synth.next())
    ++Count;
  EXPECT_EQ(Count, 2);
}

//===----------------------------------------------------------------------===//
// Builtins and borrows
//===----------------------------------------------------------------------===//

TEST_F(SynthFixture, BorrowRequiresLaterUse) {
  // Redundancy rule 3: a reference that is never used is not synthesized.
  addBuiltins();
  Synthesizer Synth(Arena, Traits, Db, vecTemplate(), 1);
  while (auto P = Synth.next()) {
    EXPECT_NE(Db.get(P->Stmts[0].Api).Builtin, BuiltinKind::Borrow)
        << P->render(Db);
    EXPECT_NE(Db.get(P->Stmts[0].Api).Builtin, BuiltinKind::BorrowMut)
        << P->render(Db);
  }
}

TEST_F(SynthFixture, MutBorrowOnlyThroughLetMut) {
  addBuiltins();
  addApi("take_mut", {"&mut Vec<String>"}, "usize");
  Synthesizer Synth(Arena, Traits, Db, vecTemplate(), 3);
  bool SawMutChain = false;
  while (auto P = Synth.next()) {
    for (size_t I = 0; I < P->Stmts.size(); ++I) {
      const Stmt &S = P->Stmts[I];
      if (Db.get(S.Api).Builtin != BuiltinKind::BorrowMut)
        continue;
      VarId Target = S.Args[0];
      // Target must be the output of a let_mut line.
      ASSERT_GE(Target, 2) << P->render(Db);
      const Stmt &Def = P->Stmts[static_cast<size_t>(Target - 2)];
      EXPECT_EQ(Db.get(Def.Api).Builtin, BuiltinKind::LetMut)
          << P->render(Db);
      SawMutChain = true;
    }
  }
  EXPECT_TRUE(SawMutChain);
}

TEST_F(SynthFixture, DeclTypePredictionForBuiltins) {
  addBuiltins();
  addApi("take_ref", {"&Vec<String>"}, "usize");
  Synthesizer Synth(Arena, Traits, Db, vecTemplate(), 2);
  bool Saw = false;
  while (auto P = Synth.next()) {
    for (const Stmt &S : P->Stmts) {
      if (Db.get(S.Api).Builtin == BuiltinKind::Borrow &&
          S.Args[0] == 1) {
        EXPECT_EQ(S.DeclType, parse("&Vec<String>"));
        Saw = true;
      }
    }
  }
  EXPECT_TRUE(Saw);
}

//===----------------------------------------------------------------------===//
// Soundness: every emitted program compiles (the paper's <1% claim is
// exactly 0% when no trait bounds, quirks, or unresolved polymorphism are
// in play).
//===----------------------------------------------------------------------===//

class SoundnessTest : public SynthFixture,
                      public ::testing::WithParamInterface<int> {};

TEST_F(SynthFixture, AllEmittedProgramsPassTheChecker) {
  Traits.addDefaultPrimImpls();
  Traits.addImpl("Clone", Arena.named("String"));
  addBuiltins();
  addApi("Vec::push", {"&mut Vec<T>", "T"}, "()");
  addApi("Vec::pop", {"&mut Vec<T>"}, "Option<T>");
  addApi("Vec::len", {"&Vec<T>"}, "usize");
  addApi("Vec::into_raw_parts", {"Vec<T>"}, "(usize, usize, usize)");
  addApi("String::new_from", {"usize"}, "String");

  Checker Check(Arena, Traits);
  Synthesizer Synth(Arena, Traits, Db, vecTemplate(), 4);
  int Total = 0, Failed = 0, PolyErrors = 0;
  while (auto P = Synth.next()) {
    ++Total;
    CompileResult R = Check.check(*P, Db);
    if (!R.Success) {
      // The only acceptable rejections are polymorphism errors the
      // refinement loop exists to fix (e.g. Option<T> outputs that are
      // not yet concretized); ownership/lifetime/trait rejections would
      // mean the encoder is unsound.
      EXPECT_EQ(R.Diag.Category, ErrorCategory::Type)
          << P->render(Db) << R.Diag.Message;
      ++Failed;
      if (R.Diag.Detail == ErrorDetail::Polymorphism)
        ++PolyErrors;
    }
    if (Total > 4000)
      break;
  }
  EXPECT_GT(Total, 30);
  EXPECT_EQ(Failed, PolyErrors) << "non-polymorphism rejections present";
}

TEST_F(SynthFixture, SemanticAwareOffProducesOwnershipErrors) {
  // The RQ2 ablation: without Section 4.4 constraints the checker must
  // reject a substantial share with Lifetime&Ownership errors.
  Traits.addDefaultPrimImpls();
  addBuiltins();
  addApi("Vec::push", {"&mut Vec<T>", "T"}, "()");
  addApi("Vec::into_raw_parts", {"Vec<T>"}, "(usize, usize, usize)");

  SynthOptions Opts;
  Opts.SemanticAware = false;
  Checker Check(Arena, Traits);
  Synthesizer Synth(Arena, Traits, Db, vecTemplate(), 3, Opts);
  int Total = 0, LifetimeErrors = 0;
  while (auto P = Synth.next()) {
    ++Total;
    CompileResult R = Check.check(*P, Db);
    if (!R.Success && R.Diag.Category == ErrorCategory::LifetimeOwnership)
      ++LifetimeErrors;
    if (Total > 3000)
      break;
  }
  EXPECT_GT(Total, 50);
  EXPECT_GT(LifetimeErrors, 0)
      << "ablation should produce ownership violations";
}

//===----------------------------------------------------------------------===//
// Path post-check (Rule 7)
//===----------------------------------------------------------------------===//

TEST_F(SynthFixture, PathCheckRejectsUseAfterRootDeath) {
  addBuiltins();
  ApiSig First;
  First.Name = "first";
  First.Inputs = {parse("&Vec<String>")};
  First.Output = parse("&String");
  First.PropagatesFrom = {0};
  ApiId FirstId = Db.add(std::move(First));
  ApiId Consume = addApi("consume", {"Vec<String>"}, "usize");
  ApiId UseRef = addApi("use_ref", {"&String"}, "usize");

  Program P;
  P.Inputs = vecTemplate();
  P.Stmts.push_back(Stmt{Borrow, {1}, 2, parse("&Vec<String>")});
  P.Stmts.push_back(Stmt{FirstId, {2}, 3, parse("&String")});
  P.Stmts.push_back(Stmt{Consume, {1}, 4, parse("usize")});
  P.Stmts.push_back(Stmt{UseRef, {3}, 5, parse("usize")});
  EXPECT_FALSE(Encoding::pathCheckOk(P, Db, Traits));

  // Using the propagated reference before the root dies is fine.
  Program P2;
  P2.Inputs = vecTemplate();
  P2.Stmts.push_back(Stmt{Borrow, {1}, 2, parse("&Vec<String>")});
  P2.Stmts.push_back(Stmt{FirstId, {2}, 3, parse("&String")});
  P2.Stmts.push_back(Stmt{UseRef, {3}, 4, parse("usize")});
  P2.Stmts.push_back(Stmt{Consume, {1}, 5, parse("usize")});
  EXPECT_TRUE(Encoding::pathCheckOk(P2, Db, Traits));
}

//===----------------------------------------------------------------------===//
// Refinement interplay
//===----------------------------------------------------------------------===//

TEST_F(SynthFixture, AdditiveDatabaseChangeExtendsInPlace) {
  addApi("f", {"String"}, "usize");
  Synthesizer Synth(Arena, Traits, Db, vecTemplate(), 1);
  auto P1 = Synth.next();
  ASSERT_TRUE(P1.has_value());
  // Refinement adds a new API; the live encoding is extended in place,
  // so the solver never revisits f(s) and nothing is rebuilt.
  addApi("g", {"Vec<String>"}, "usize");
  Synth.notifyDatabaseChanged();
  std::vector<std::string> Names;
  while (auto P = Synth.next())
    Names.push_back(Db.get(P->Stmts[0].Api).Name);
  ASSERT_EQ(Names.size(), 1u);
  EXPECT_EQ(Names[0], "g");
  EXPECT_EQ(Synth.stats().DuplicatesSkipped, 0u);
  EXPECT_GE(Synth.stats().IncrementalExtends, 1u);
  EXPECT_EQ(Synth.stats().Rebuilds, 1u); // The initial construction only.
}

TEST_F(SynthFixture, StatsCountAnExtendBeforeTheNextSolve) {
  // A run whose last candidate changes the database reports its stats
  // right after notifyDatabaseChanged(); the extend's work must already
  // be in them.
  addApi("f", {"String"}, "usize");
  Synthesizer Synth(Arena, Traits, Db, vecTemplate(), 1);
  ASSERT_TRUE(Synth.next().has_value());
  const SynthStats Before = Synth.stats();
  addApi("g", {"Vec<String>"}, "usize");
  Synth.notifyDatabaseChanged();
  const SynthStats After = Synth.stats();
  EXPECT_EQ(After.IncrementalExtends, 1u);
  EXPECT_GT(After.PruneFallbackProbes, Before.PruneFallbackProbes);
}

TEST_F(SynthFixture, RebuildPathStillSkipsDuplicatesViaHashes) {
  // The historical rebuild-the-world path (IncrementalRefinement off):
  // the fresh solver re-emits f(s) and the hash set has to drop it.
  addApi("f", {"String"}, "usize");
  SynthOptions Opts;
  Opts.IncrementalRefinement = false;
  Synthesizer Synth(Arena, Traits, Db, vecTemplate(), 1, Opts);
  auto P1 = Synth.next();
  ASSERT_TRUE(P1.has_value());
  addApi("g", {"Vec<String>"}, "usize");
  Synth.notifyDatabaseChanged();
  std::vector<std::string> Names;
  while (auto P = Synth.next())
    Names.push_back(Db.get(P->Stmts[0].Api).Name);
  ASSERT_EQ(Names.size(), 1u);
  EXPECT_EQ(Names[0], "g");
  EXPECT_GT(Synth.stats().DuplicatesSkipped, 0u);
  EXPECT_GE(Synth.stats().Rebuilds, 2u);
}

TEST_F(SynthFixture, BanExtendsInPlace) {
  // A ban extends the live encoding: its call sites get root units, so
  // the banned API never comes back and the blocking clauses of the
  // programs emitted before the ban stay in the same solver.
  addApi("f", {"String"}, "usize");
  addApi("g", {"Vec<String>"}, "usize");
  ApiId H = addApi("h", {"String"}, "isize");
  Synthesizer Synth(Arena, Traits, Db, vecTemplate(), 1);
  auto P1 = Synth.next();
  ASSERT_TRUE(P1.has_value());
  Db.ban(H);
  Synth.notifyDatabaseChanged();
  std::vector<std::string> Names;
  while (auto P = Synth.next())
    Names.push_back(Db.get(P->Stmts[0].Api).Name);
  for (const std::string &N : Names) {
    EXPECT_NE(N, "h");
    EXPECT_NE(N, Db.get(P1->Stmts[0].Api).Name);
  }
  // The space is f(s), g(v) and h(s).
  EXPECT_EQ(Names.size(), P1->Stmts[0].Api == H ? 2u : 1u);
  EXPECT_EQ(Synth.stats().Rebuilds, 1u); // The initial construction only.
  EXPECT_EQ(Synth.stats().IncrementalExtends, 1u);
  EXPECT_EQ(Synth.stats().DuplicatesSkipped, 0u);
}

TEST_F(SynthFixture, DeadLengthRevivedByDatabaseAddition) {
  // Interleaved mode, MaxLines=3. Initially length 3 is UNSAT (mk; eat;
  // then nothing can use a usize), so its slot goes dormant. A refinement
  // step then adds gulp: usize -> u8, which makes a 3-statement program
  // reachable - the dead length must come back to life.
  addApi("mk", {"String"}, "Token");
  addApi("eat", {"Token"}, "usize");
  SynthOptions Opts;
  Opts.InterleaveLengths = true;
  Synthesizer Synth(Arena, Traits, Db, vecTemplate(), 3, Opts);
  size_t MaxLen = 0;
  while (auto P = Synth.next())
    MaxLen = std::max(MaxLen, P->Stmts.size());
  EXPECT_LT(MaxLen, 3u);
  // The space is exhausted; without revival the synthesizer would stay
  // done forever.
  addApi("gulp", {"usize"}, "u8");
  Synth.notifyDatabaseChanged();
  bool SawLen3 = false;
  while (auto P = Synth.next())
    SawLen3 |= P->Stmts.size() == 3;
  EXPECT_TRUE(SawLen3);
  EXPECT_GE(Synth.stats().DeadLengthRevivals, 1u);
}

TEST_F(SynthFixture, DormantLengthSleepsThroughBanAndComboBlock) {
  // Interleaved mode keeps an exhausted length's encoding dormant. A ban
  // or a combo block only shrinks the space, so an UNSAT-proven length
  // sleeps through both; the next addition extends it, and that one sync
  // must absorb the ban units and combo clauses it slept through.
  addApi("mk", {"String"}, "Token");
  addApi("eat", {"Token"}, "usize");
  ApiId Pick = addApi("pick", {"T"}, "usize");
  ApiId F = addApi("f", {"usize"}, "Token");
  const Type *Token = parse("Token");
  SynthOptions Opts;
  Opts.InterleaveLengths = true;
  const size_t MaxLines = 3;
  Synthesizer Synth(Arena, Traits, Db, vecTemplate(), MaxLines, Opts);

  // Both changes must touch the programs of the dormant lengths.
  auto UsesF = [&](const Program &P) {
    return std::any_of(P.Stmts.begin(), P.Stmts.end(),
                       [&](const Stmt &S) { return S.Api == F; });
  };
  auto PicksToken = [&](const Program &P) {
    return std::any_of(P.Stmts.begin(), P.Stmts.end(), [&](const Stmt &S) {
      VarId Arg = S.Args[0];
      VarId K = static_cast<VarId>(P.Inputs.size());
      return S.Api == Pick && Arg >= K &&
             P.Stmts[static_cast<size_t>(Arg - K)].DeclType == Token;
    });
  };
  std::map<size_t, std::set<std::string>> Before;
  bool SawF = false, SawPickToken = false;
  while (auto P = Synth.next()) {
    Before[P->Stmts.size()].insert(P->render(Db));
    SawF |= UsesF(*P);
    SawPickToken |= PicksToken(*P);
  }
  ASSERT_TRUE(SawF);
  ASSERT_TRUE(SawPickToken);

  Db.ban(F);
  Synth.notifyDatabaseChanged();
  Db.blockCombo(Pick, {Token});
  Synth.notifyDatabaseChanged();
  EXPECT_EQ(Synth.stats().DeadLengthRevivals, 0u);

  addApi("gulp", {"usize"}, "u8");
  Synth.notifyDatabaseChanged();
  EXPECT_EQ(Synth.stats().DeadLengthRevivals, MaxLines);
  std::map<size_t, std::vector<std::string>> After;
  while (auto P = Synth.next()) {
    EXPECT_FALSE(UsesF(*P)) << P->render(Db);
    EXPECT_FALSE(PicksToken(*P)) << P->render(Db);
    After[P->Stmts.size()].push_back(P->render(Db));
  }

  // Each revived length emits exactly what a fresh synthesizer finds at
  // that length on the final database, minus what it emitted before.
  Synthesizer Fresh(Arena, Traits, Db, vecTemplate(), MaxLines);
  std::map<size_t, std::set<std::string>> Expected;
  while (auto P = Fresh.next())
    if (!Before[P->Stmts.size()].count(P->render(Db)))
      Expected[P->Stmts.size()].insert(P->render(Db));
  ASSERT_FALSE(Expected[MaxLines].empty());
  for (size_t L = 1; L <= MaxLines; ++L) {
    std::vector<std::string> Got = After[L];
    std::sort(Got.begin(), Got.end());
    EXPECT_EQ(Got, std::vector<std::string>(Expected[L].begin(),
                                            Expected[L].end()))
        << "length " << L;
  }
}

TEST_F(SynthFixture, DeadLengthRevivedOnRebuildPathToo) {
  // The revival fix is independent of incremental refinement: with the
  // historical rebuild path the dormant length must also be rebuilt and
  // re-enumerated after an addition.
  addApi("mk", {"String"}, "Token");
  addApi("eat", {"Token"}, "usize");
  SynthOptions Opts;
  Opts.InterleaveLengths = true;
  Opts.IncrementalRefinement = false;
  Synthesizer Synth(Arena, Traits, Db, vecTemplate(), 3, Opts);
  while (Synth.next().has_value())
    ;
  addApi("gulp", {"usize"}, "u8");
  Synth.notifyDatabaseChanged();
  bool SawLen3 = false;
  while (auto P = Synth.next())
    SawLen3 |= P->Stmts.size() == 3;
  EXPECT_TRUE(SawLen3);
  EXPECT_GE(Synth.stats().DeadLengthRevivals, 1u);
}

TEST_F(SynthFixture, BudgetStoppedLengthRevivedByDestructiveChange) {
  // A solve stopped by the conflict budget returns Unknown - not an
  // exhaustion proof - so the dormant length must revive on ANY
  // database change, including destructive ones that only shrink the
  // space (a ban). Only an UNSAT-proven length may sleep through those.
  addBuiltins();
  ApiId F = addApi("f", {"String"}, "usize");
  addApi("g", {"Vec<String>"}, "usize");
  addApi("h", {"usize", "usize"}, "String");
  SynthOptions Opts;
  Opts.InterleaveLengths = true;
  Opts.SolveConflictBudget = 1; // Every nontrivial episode trips.
  Synthesizer Synth(Arena, Traits, Db, vecTemplate(), 3, Opts);
  while (Synth.next().has_value())
    ;
  ASSERT_TRUE(Synth.sawBudgetStop());
  uint64_t EmittedBefore = Synth.stats().Emitted;
  // Bans add no instances, so a length proven UNSAT would stay dead
  // here; the budget-stopped lengths must come back anyway.
  Db.ban(F);
  Synth.notifyDatabaseChanged();
  EXPECT_GE(Synth.stats().DeadLengthRevivals, 1u);
  while (auto P = Synth.next()) {
    for (const Stmt &S : P->Stmts)
      EXPECT_NE(S.Api, F) << P->render(Db);
  }
  EXPECT_GE(Synth.stats().Emitted, EmittedBefore);
}

TEST_F(SynthFixture, BlockedComboSuppressed) {
  ApiId Pop = addApi("Vec::pop", {"&mut Vec<T>"}, "Option<T>");
  (void)Pop;
  addBuiltins();
  // Block pop on &mut Vec<String> before synthesis starts.
  Db.blockCombo(Pop, {parse("&mut Vec<String>")});
  Synthesizer Synth(Arena, Traits, Db, vecTemplate(), 3);
  while (auto P = Synth.next()) {
    for (const Stmt &S : P->Stmts)
      EXPECT_NE(S.Api, Pop) << P->render(Db);
  }
}

TEST_F(SynthFixture, BannedApiNeverUsed) {
  ApiId F = addApi("f", {"String"}, "usize");
  addApi("g", {"Vec<String>"}, "usize");
  Db.ban(F);
  Synthesizer Synth(Arena, Traits, Db, vecTemplate(), 1);
  int Count = 0;
  while (auto P = Synth.next()) {
    ++Count;
    EXPECT_NE(P->Stmts[0].Api, F);
  }
  EXPECT_EQ(Count, 1);
}

//===----------------------------------------------------------------------===//
// Incremental-refinement determinism properties
//===----------------------------------------------------------------------===//

struct ScriptedRun {
  std::vector<uint64_t> Hashes;
  uint64_t DuplicatesSkipped = 0;
  uint64_t IncrementalExtends = 0;
};

/// A refinement-heavy scripted workload: four rounds of "emit up to 25
/// programs, then the database gains an API", then drain to exhaustion.
/// Self-contained so one test can compare several independent runs.
ScriptedRun runScriptedRefinement(bool Incremental) {
  TypeArena Arena;
  TypeParser Parser{Arena, {}};
  TraitEnv Traits{Arena};
  ApiDatabase Db;
  addBuiltinApis(Db, Arena);
  auto Add = [&](const std::string &Name, std::vector<std::string> Ins,
                 const std::string &Out) {
    ApiSig Sig;
    Sig.Name = Name;
    for (const auto &I : Ins)
      Sig.Inputs.push_back(Parser.parse(I));
    Sig.Output = Parser.parse(Out);
    Db.add(std::move(Sig));
  };
  Add("f", {"String"}, "Token");
  Add("g", {"Token"}, "usize");
  Add("h", {"Vec<String>"}, "usize");
  std::vector<TemplateInput> Inputs = {{"s", Parser.parse("String")},
                                       {"v", Parser.parse("Vec<String>")}};
  SynthOptions Opts;
  Opts.IncrementalRefinement = Incremental;
  Synthesizer Synth(Arena, Traits, Db, Inputs, /*MaxLines=*/3, Opts);
  ScriptedRun Run;
  for (int Round = 0; Round < 4; ++Round) {
    for (int K = 0; K < 25; ++K) {
      auto P = Synth.next();
      if (!P.has_value())
        break;
      Run.Hashes.push_back(P->hash());
    }
    Add("r" + std::to_string(Round), {"usize"},
        "Out" + std::to_string(Round));
    Synth.notifyDatabaseChanged();
  }
  while (auto P = Synth.next())
    Run.Hashes.push_back(P->hash());
  Run.DuplicatesSkipped = Synth.stats().DuplicatesSkipped;
  Run.IncrementalExtends = Synth.stats().IncrementalExtends;
  return Run;
}

TEST(SynthDeterminism, IncrementalPathIsDeterministicAcrossRuns) {
  ScriptedRun A = runScriptedRefinement(true);
  ScriptedRun B = runScriptedRefinement(true);
  ASSERT_FALSE(A.Hashes.empty());
  // Same config, same seed: the emitted hash sequences are identical.
  EXPECT_EQ(A.Hashes, B.Hashes);
  EXPECT_GE(A.IncrementalExtends, 1u);
  EXPECT_EQ(A.DuplicatesSkipped, 0u);
}

TEST(SynthDeterminism, IncrementalMatchesRebuildEmittedSet) {
  ScriptedRun Inc = runScriptedRefinement(true);
  ScriptedRun Reb = runScriptedRefinement(false);
  ASSERT_FALSE(Inc.Hashes.empty());
  // Enumeration order may differ between the paths, but the emitted
  // program set must be identical - and duplicates must vanish on the
  // incremental path while the rebuild path leans on the hash set.
  std::set<uint64_t> IncSet(Inc.Hashes.begin(), Inc.Hashes.end());
  std::set<uint64_t> RebSet(Reb.Hashes.begin(), Reb.Hashes.end());
  EXPECT_EQ(IncSet.size(), Inc.Hashes.size());
  EXPECT_EQ(RebSet.size(), Reb.Hashes.size());
  EXPECT_EQ(IncSet, RebSet);
  EXPECT_EQ(Inc.DuplicatesSkipped, 0u);
  EXPECT_GT(Reb.DuplicatesSkipped, 0u);
}

//===----------------------------------------------------------------------===//
// Graph-guided encoding pruning
//===----------------------------------------------------------------------===//

struct PrunedRun {
  std::vector<uint64_t> Hashes;
  uint64_t GraphProbes = 0;
  uint64_t FallbackProbes = 0;
  uint64_t DeadSites = 0;
  uint64_t VarsAvoided = 0;
};

/// The refinement-heavy script of runScriptedRefinement with the frozen
/// dependency graph wired into the encoder, plus one API ("lone") whose
/// u8 slot nothing in the universe can feed - a dead site on every line.
/// Round additions get ids beyond the frozen graph, exercising the
/// fallback arm.
PrunedRun runGraphScripted(bool GraphPrune, bool Incremental) {
  TypeArena Arena;
  TypeParser Parser{Arena, {}};
  TraitEnv Traits{Arena};
  ApiDatabase Db;
  addBuiltinApis(Db, Arena);
  auto Add = [&](const std::string &Name, std::vector<std::string> Ins,
                 const std::string &Out) {
    ApiSig Sig;
    Sig.Name = Name;
    for (const auto &I : Ins)
      Sig.Inputs.push_back(Parser.parse(I));
    Sig.Output = Parser.parse(Out);
    Db.add(std::move(Sig));
  };
  Add("f", {"String"}, "Token");
  Add("g", {"Token"}, "usize");
  Add("h", {"Vec<String>"}, "usize");
  Add("lone", {"u8"}, "IoHandle");
  types::CompatCache Scratch;
  api::DependencyGraph Graph =
      api::buildDependencyGraph(Db, Arena, Scratch);
  std::vector<TemplateInput> Inputs = {{"s", Parser.parse("String")},
                                       {"v", Parser.parse("Vec<String>")}};
  SynthOptions Opts;
  Opts.IncrementalRefinement = Incremental;
  Opts.Graph = &Graph;
  Opts.GraphPrune = GraphPrune;
  Synthesizer Synth(Arena, Traits, Db, Inputs, /*MaxLines=*/3, Opts);
  PrunedRun Run;
  for (int Round = 0; Round < 4; ++Round) {
    for (int K = 0; K < 25; ++K) {
      auto P = Synth.next();
      if (!P.has_value())
        break;
      Run.Hashes.push_back(P->hash());
    }
    Add("r" + std::to_string(Round), {"usize"},
        "Out" + std::to_string(Round));
    Synth.notifyDatabaseChanged();
  }
  while (auto P = Synth.next())
    Run.Hashes.push_back(P->hash());
  Run.GraphProbes = Synth.stats().PruneGraphProbes;
  Run.FallbackProbes = Synth.stats().PruneFallbackProbes;
  Run.DeadSites = Synth.stats().PruneDeadSites;
  Run.VarsAvoided = Synth.stats().PruneVarsAvoided;
  return Run;
}

TEST(SynthGraphPrune, StreamIdenticalPruneOnAndOff) {
  PrunedRun On = runGraphScripted(true, true);
  PrunedRun Off = runGraphScripted(false, true);
  ASSERT_FALSE(On.Hashes.empty());
  // The invariant behind --no-graph-prune: the graph's edge set is the
  // probe-success set, so the emitted stream is identical in ORDER, not
  // just as a set.
  EXPECT_EQ(On.Hashes, Off.Hashes);
  // The probe split shows the switch took effect...
  EXPECT_GT(On.GraphProbes, 0u);
  EXPECT_EQ(Off.GraphProbes, 0u);
  EXPECT_GT(Off.FallbackProbes, 0u);
  // ...and the probe population is identical: every probe the off mode
  // computes, the on mode answers from the graph or the fallback arm.
  EXPECT_EQ(On.GraphProbes + On.FallbackProbes, Off.FallbackProbes);
  // Dead-site elimination is structural, identical in both modes.
  EXPECT_GT(On.DeadSites, 0u);
  EXPECT_EQ(On.DeadSites, Off.DeadSites);
  EXPECT_EQ(On.VarsAvoided, Off.VarsAvoided);
}

TEST(SynthGraphPrune, ExtendMatchesFreshPrunedRebuildSet) {
  // extendForDatabaseChange() after the additive rounds must leave the
  // pruned encoder with the same emitted set a fresh pruned rebuild
  // enumerates (order may differ between the paths; the incremental one
  // must stay duplicate-free without the hash net's help).
  PrunedRun Inc = runGraphScripted(true, true);
  PrunedRun Reb = runGraphScripted(true, false);
  ASSERT_FALSE(Inc.Hashes.empty());
  std::set<uint64_t> IncSet(Inc.Hashes.begin(), Inc.Hashes.end());
  std::set<uint64_t> RebSet(Reb.Hashes.begin(), Reb.Hashes.end());
  EXPECT_EQ(IncSet.size(), Inc.Hashes.size());
  EXPECT_EQ(IncSet, RebSet);
}

TEST_F(SynthFixture, DeadLengthRevivalWithPrunedEncodings) {
  // The mk;eat prefix exhausts below length 3; gulp (added after the
  // graph froze, so answered by the fallback arm) revives the dormant
  // length. Revival must re-probe dead sites from scratch - "eat"'s
  // line-2 site materializes only now.
  addApi("mk", {"String"}, "Token");
  addApi("eat", {"Token"}, "usize");
  types::CompatCache Scratch;
  api::DependencyGraph Graph =
      api::buildDependencyGraph(Db, Arena, Scratch);
  SynthOptions Opts;
  Opts.InterleaveLengths = true;
  Opts.Graph = &Graph;
  Opts.GraphPrune = true;
  Synthesizer Synth(Arena, Traits, Db, vecTemplate(), 3, Opts);
  size_t MaxLen = 0;
  while (auto P = Synth.next())
    MaxLen = std::max(MaxLen, P->Stmts.size());
  EXPECT_LT(MaxLen, 3u);
  addApi("gulp", {"usize"}, "u8");
  Synth.notifyDatabaseChanged();
  bool SawLen3 = false;
  while (auto P = Synth.next())
    SawLen3 |= P->Stmts.size() == 3;
  EXPECT_TRUE(SawLen3);
  EXPECT_GE(Synth.stats().DeadLengthRevivals, 1u);
  EXPECT_GT(Synth.stats().PruneGraphProbes, 0u);
  EXPECT_GT(Synth.stats().PruneFallbackProbes, 0u);
}

TEST_F(SynthFixture, NoDuplicateProgramsAcrossFullEnumeration) {
  addBuiltins();
  addApi("Vec::len", {"&Vec<T>"}, "usize");
  addApi("String::len", {"&String"}, "usize");
  Synthesizer Synth(Arena, Traits, Db, vecTemplate(), 3);
  std::set<uint64_t> Hashes;
  std::set<std::string> Sources;
  int Total = 0;
  while (auto P = Synth.next()) {
    EXPECT_TRUE(Hashes.insert(P->hash()).second);
    EXPECT_TRUE(Sources.insert(P->render(Db)).second)
        << "duplicate source:\n"
        << P->render(Db);
    if (++Total > 3000)
      break;
  }
  EXPECT_GT(Total, 3);
}

//===----------------------------------------------------------------------===//
// Collision-checked duplicate net
//===----------------------------------------------------------------------===//

TEST(SeenProgramsTest, CollisionsAreDistinguishedFromDuplicates) {
  SeenPrograms Seen;
  EXPECT_EQ(Seen.noteKeyed(42, "0(1)"), SeenOutcome::Fresh);
  EXPECT_EQ(Seen.noteKeyed(42, "0(1)"), SeenOutcome::Duplicate);
  // Same hash, different canonical key: a true 64-bit collision. The
  // program must be emitted (not silently dropped) and counted.
  EXPECT_EQ(Seen.noteKeyed(42, "1(2)"), SeenOutcome::Collision);
  EXPECT_EQ(Seen.noteKeyed(42, "1(2)"), SeenOutcome::Duplicate);
  // Same key under a different hash is an independent fresh program.
  EXPECT_EQ(Seen.noteKeyed(7, "1(2)"), SeenOutcome::Fresh);
}

TEST_F(SynthFixture, ForcedCollidingProgramsBothSurviveTheNet) {
  // Two genuinely distinct one-line programs forced onto one hash: the
  // canonical keys differ, so the second is kept as a collision and the
  // third (a replay of the first) is the only true duplicate.
  ApiId F = addApi("f", {"String"}, "usize");
  ApiId G = addApi("g", {"Vec<String>"}, "usize");
  Program A;
  A.Inputs = vecTemplate();
  A.Stmts.push_back(Stmt{F, {0}, 2, parse("usize")});
  Program B;
  B.Inputs = vecTemplate();
  B.Stmts.push_back(Stmt{G, {1}, 2, parse("usize")});

  SeenPrograms Seen;
  const uint64_t ForcedHash = 99;
  EXPECT_EQ(Seen.noteKeyed(ForcedHash, SeenPrograms::canonicalKey(A)),
            SeenOutcome::Fresh);
  EXPECT_EQ(Seen.noteKeyed(ForcedHash, SeenPrograms::canonicalKey(B)),
            SeenOutcome::Collision);
  EXPECT_EQ(Seen.noteKeyed(ForcedHash, SeenPrograms::canonicalKey(A)),
            SeenOutcome::Duplicate);
}

//===----------------------------------------------------------------------===//
// Encoder/checker agreement on &mut-by-value consumption
//===----------------------------------------------------------------------===//

TEST_F(SynthFixture, MutRefConsumingApisAgreeWithChecker) {
  // take(T) can bind T := &mut Vec<String> and swallow a BorrowMut
  // output by value. &mut T is not Copy, so the encoder must kill the
  // reference exactly like the checker moves it; any emitted
  // use-after-consumption would surface here as a LifetimeOwnership
  // rejection.
  Traits.addDefaultPrimImpls();
  addBuiltins();
  addApi("Vec::pop", {"&mut Vec<T>"}, "Option<T>");
  addApi("take", {"T"}, "usize");

  Checker Check(Arena, Traits);
  Synthesizer Synth(Arena, Traits, Db, vecTemplate(), 4);
  int Total = 0, TookMutRef = 0;
  while (auto P = Synth.next()) {
    ++Total;
    CompileResult R = Check.check(*P, Db);
    if (!R.Success) {
      EXPECT_NE(R.Diag.Category, ErrorCategory::LifetimeOwnership)
          << P->render(Db) << R.Diag.Message;
    }
    for (const Stmt &S : P->Stmts) {
      if (Db.get(S.Api).Name != "take")
        continue;
      VarId V = S.Args[0];
      const Type *ArgTy = V < static_cast<VarId>(P->Inputs.size())
                              ? P->Inputs[V].Ty
                              : P->Stmts[V - P->Inputs.size()].DeclType;
      if (ArgTy && ArgTy->isMutRef())
        ++TookMutRef;
    }
    if (Total > 4000)
      break;
  }
  EXPECT_GT(Total, 10);
  EXPECT_GT(TookMutRef, 0)
      << "enumeration never exercised take(&mut _): test is vacuous";
}

} // namespace
