//===--- DriverTest.cpp - End-to-end pipeline tests -----------------------===//
//
// Part of SyRust-CPP (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/ResultJson.h"
#include "core/Session.h"
#include "refine/RefinementEngine.h"
#include "rustsim/Checker.h"
#include "synth/Synthesizer.h"
#include "types/TypeParser.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

using namespace syrust;
using namespace syrust::core;
using namespace syrust::crates;
using namespace syrust::miri;
using namespace syrust::refine;
using namespace syrust::rustsim;

namespace {

/// One Session shared by the tests in this file; Session::runOne is the
/// one way to run a crate.
const Session &session() {
  static const Session S;
  return S;
}

RunConfig quickConfig() {
  RunConfig C;
  C.BudgetSeconds = 60;
  C.SnapshotInterval = 10;
  return C;
}

TEST(DriverTest, UnsupportedCratesAreSkipped) {
  RunResult R = session().runOne("cookie-factory", quickConfig());
  EXPECT_FALSE(R.Supported);
  EXPECT_EQ(R.Synthesized, 0u);
}

TEST(DriverTest, FindsCrossbeamQueueLeakFast) {
  RunConfig C = quickConfig();
  C.StopOnFirstBug = true;
  RunResult R = session().runOne("crossbeam-queue", C);
  ASSERT_TRUE(R.BugFound) << "synthesized " << R.Synthesized;
  EXPECT_EQ(R.FirstBug.Kind, UbKind::MemoryLeak);
  EXPECT_EQ(R.BugLines, 1);
  EXPECT_GT(R.TimeToBug, 0.0);
}

TEST(DriverTest, FindsCrossbeamDanglingPointer) {
  RunConfig C = quickConfig();
  C.BudgetSeconds = 3000;
  C.StopOnFirstBug = true;
  RunResult R = session().runOne("crossbeam", C);
  ASSERT_TRUE(R.BugFound) << "synthesized " << R.Synthesized;
  EXPECT_EQ(R.FirstBug.Kind, UbKind::DanglingPointer);
  EXPECT_EQ(R.BugLines, 3);
}

TEST(DriverTest, FindsEncodingRsOobPointer) {
  RunConfig C = quickConfig();
  C.BudgetSeconds = 600;
  C.StopOnFirstBug = true;
  RunResult R = session().runOne("encoding_rs", C);
  ASSERT_TRUE(R.BugFound) << "synthesized " << R.Synthesized;
  EXPECT_EQ(R.FirstBug.Kind, UbKind::OutOfBoundsPointer);
  EXPECT_EQ(R.BugLines, 4);
}

TEST(DriverTest, FindsBitvecUseAfterFree) {
  RunConfig C = quickConfig();
  C.BudgetSeconds = 8000; // The deepest bug: a five-call chain.
  C.StopOnFirstBug = true;
  RunResult R = session().runOne("bitvec", C);
  ASSERT_TRUE(R.BugFound) << "synthesized " << R.Synthesized;
  EXPECT_EQ(R.FirstBug.Kind, UbKind::UseAfterFree);
  EXPECT_EQ(R.BugLines, 5);
  EXPECT_FALSE(R.BugProgram.empty());
}

TEST(DriverTest, RejectionRateIsLowWithAllFeatures) {
  // The paper's headline: with semantic awareness and hybrid refinement,
  // only a small share of test cases is rejected.
  RunResult R = session().runOne("smallvec", quickConfig());
  EXPECT_GT(R.Synthesized, 50u);
  EXPECT_LT(R.rejectedPercent(), 20.0)
      << R.Rejected << "/" << R.Synthesized;
  EXPECT_GT(R.Executed, 0u);
}

TEST(DriverTest, SemanticAblationRaisesLifetimeErrors) {
  RunConfig On = quickConfig();
  RunConfig Off = quickConfig();
  Off.SemanticAware = false;
  RunResult ROn = session().runOne("slab", On);
  RunResult ROff = session().runOne("slab", Off);
  uint64_t LifetimeOn = ROn.ByCategory[ErrorCategory::LifetimeOwnership];
  uint64_t LifetimeOff =
      ROff.ByCategory[ErrorCategory::LifetimeOwnership];
  EXPECT_GT(LifetimeOff, LifetimeOn * 2)
      << "on=" << LifetimeOn << " off=" << LifetimeOff;
}

TEST(DriverTest, EagerAblationRaisesTypeErrors) {
  RunConfig Hybrid = quickConfig();
  RunConfig Eager = quickConfig();
  Eager.Mode = RefinementMode::PurelyEager;
  Eager.EagerCap = 16;
  RunResult RHybrid = session().runOne("im-rc", Hybrid);
  RunResult REager = session().runOne("im-rc", Eager);
  EXPECT_GT(REager.rejectedPercent(), RHybrid.rejectedPercent())
      << "hybrid=" << RHybrid.rejectedPercent()
      << " eager=" << REager.rejectedPercent();
}

TEST(DriverTest, CoverageAccumulates) {
  RunResult R = session().runOne("bitvec", quickConfig());
  EXPECT_GT(R.Coverage.ComponentLine, 10.0);
  EXPECT_GT(R.Coverage.ComponentBranch, 0.0);
  EXPECT_LE(R.Coverage.LibraryLine, R.Coverage.ComponentLine);
  EXPECT_FALSE(R.CoverageSnaps.empty());
}

TEST(DriverTest, ApiSubsetSelectionClampsAndDedupes) {
  types::TypeArena Arena;
  types::TypeParser Parser{Arena, {}};
  api::ApiDatabase Db;
  std::vector<api::ApiId> Builtins = api::addBuiltinApis(Db, Arena);
  std::vector<api::ApiId> Lib;
  for (int I = 0; I < 6; ++I) {
    api::ApiSig Sig;
    Sig.Name = "api" + std::to_string(I);
    Sig.Inputs.push_back(Parser.parse("String"));
    Sig.Output = Parser.parse("usize");
    Lib.push_back(Db.add(std::move(Sig)));
  }

  // An oversized pinned list with duplicates and a builtin: duplicates
  // collapse, the builtin is skipped, and the result is clamped to the
  // NumApis budget instead of overflowing it.
  Rng R1(7);
  ApiSelectionOptions Opts;
  Opts.Pinned = {Lib[2], Lib[2], Builtins[0], Lib[0], Lib[4], Lib[5]};
  Opts.NumApis = 3;
  std::vector<api::ApiId> Sel = selectApiSubset(Db, Opts, R1);
  ASSERT_EQ(Sel.size(), 3u);
  EXPECT_EQ(Sel[0], Lib[2]);
  EXPECT_EQ(Sel[1], Lib[0]);
  EXPECT_EQ(Sel[2], Lib[4]);
  std::set<api::ApiId> Unique(Sel.begin(), Sel.end());
  EXPECT_EQ(Unique.size(), Sel.size());

  // A budget larger than the library: every API once, still no
  // duplicates and no builtins.
  Rng R2(7);
  Opts.NumApis = 50;
  std::vector<api::ApiId> All = selectApiSubset(Db, Opts, R2);
  EXPECT_EQ(All.size(), Lib.size());
  std::set<api::ApiId> AllUnique(All.begin(), All.end());
  EXPECT_EQ(AllUnique.size(), All.size());
  for (api::ApiId Id : Builtins)
    EXPECT_EQ(AllUnique.count(Id), 0u);
}

TEST(DriverTest, BiasedSelectionWeightsNeverCoveredDegree) {
  // Two-API library: `hub` has the graph's only edge (its String output
  // feeds its own String slot), `loner` has none. With the graph handed
  // to the selector (at run start every edge is never covered), hub's
  // weight is 1+1=2 against loner's 1, so across a fixed seed sweep hub
  // must win strictly more single-slot draws than under the unweighted
  // paper policy.
  types::TypeArena Arena;
  types::TypeParser Parser{Arena, {}};
  api::ApiDatabase Db;
  api::ApiSig Hub;
  Hub.Name = "hub";
  Hub.Inputs.push_back(Parser.parse("String"));
  Hub.Output = Parser.parse("String");
  api::ApiId HubId = Db.add(std::move(Hub));
  api::ApiSig Loner;
  Loner.Name = "loner";
  Loner.Inputs.push_back(Parser.parse("usize"));
  Loner.Output = Parser.parse("bool");
  Db.add(std::move(Loner));
  types::CompatCache Cache;
  api::DependencyGraph Graph = api::buildDependencyGraph(Db, Arena, Cache);
  ASSERT_EQ(Graph.numEdges(), 1u);

  ApiSelectionOptions Plain;
  Plain.NumApis = 1;
  ApiSelectionOptions Biased = Plain;
  Biased.Graph = &Graph;

  int PlainHub = 0, BiasedHub = 0;
  for (uint64_t Seed = 0; Seed < 200; ++Seed) {
    Rng RPlain(Seed), RBiased(Seed);
    std::vector<api::ApiId> P = selectApiSubset(Db, Plain, RPlain);
    std::vector<api::ApiId> B = selectApiSubset(Db, Biased, RBiased);
    ASSERT_EQ(P.size(), 1u);
    PlainHub += P[0] == HubId;
    BiasedHub += B[0] == HubId;
  }
  EXPECT_GT(BiasedHub, PlainHub);
}

TEST(DriverTest, BiasCoverageIsDeterministicAndCounted) {
  RunConfig C = quickConfig();
  C.BiasCoverage = true;
  C.InterleaveLengths = true;
  RunResult A = session().runOne("slab", C);
  RunResult B = session().runOne("slab", C);
  // Biased runs replay byte-identically for a fixed (crate, seed).
  EXPECT_EQ(resultToJson(A, {false}).dump(), resultToJson(B, {false}).dump());
  EXPECT_GT(A.Synth.BiasPicks, 0u);
  // The bias-off pipeline never touches the bias state.
  RunConfig Off = quickConfig();
  Off.InterleaveLengths = true;
  RunResult Plain = session().runOne("slab", Off);
  EXPECT_EQ(Plain.Synth.BiasPicks, 0u);
  EXPECT_EQ(Plain.Synth.BiasNewEdges, 0u);
  EXPECT_EQ(Plain.Synth.BiasDecays, 0u);
}

TEST(DriverTest, CurveIsMonotone) {
  RunResult R = session().runOne("base16", quickConfig());
  ASSERT_FALSE(R.Curve.empty());
  for (size_t I = 1; I < R.Curve.size(); ++I) {
    EXPECT_GE(R.Curve[I].Synthesized, R.Curve[I - 1].Synthesized);
    EXPECT_GE(R.Curve[I].Rejected, R.Curve[I - 1].Rejected);
  }
  const CurvePoint &Last = R.Curve.back();
  EXPECT_EQ(Last.Rejected,
            Last.TypeErrors + Last.LifetimeErrors + Last.MiscErrors);
}

TEST(DriverTest, DeterministicAcrossRuns) {
  RunConfig C = quickConfig();
  RunResult A = session().runOne("slab", C);
  RunResult B = session().runOne("slab", C);
  EXPECT_EQ(A.Synthesized, B.Synthesized);
  EXPECT_EQ(A.Rejected, B.Rejected);
  EXPECT_EQ(A.Executed, B.Executed);
}

TEST(DriverTest, ResultDatabaseRecordsEveryVerdict) {
  RunConfig C = quickConfig();
  C.RecordTests = 100000; // Retain everything at this budget.
  RunResult R = session().runOne("crossbeam-queue", C);
  std::map<TestVerdict, uint64_t> Verdicts;
  for (const TestRecord &Rec : R.Db.records())
    ++Verdicts[Rec.Verdict];
  EXPECT_EQ(R.Db.records().size(), R.Synthesized);
  EXPECT_EQ(Verdicts[TestVerdict::Rejected], R.Rejected);
  EXPECT_EQ(Verdicts[TestVerdict::Passed] + Verdicts[TestVerdict::Ub],
            R.Executed);
  EXPECT_EQ(Verdicts[TestVerdict::Ub], R.UbCount);
  // The leak is in the DB with its program and message.
  auto Ub = std::find_if(
      R.Db.records().begin(), R.Db.records().end(),
      [](const TestRecord &Rec) { return Rec.Verdict == TestVerdict::Ub; });
  ASSERT_NE(Ub, R.Db.records().end());
  EXPECT_EQ(Ub->Ub, UbKind::MemoryLeak);
  EXPECT_FALSE(Ub->Source.empty());
  // No program hash repeats: Algorithm 1 blocks every model.
  std::set<uint64_t> Hashes;
  for (const TestRecord &Rec : R.Db.records())
    EXPECT_TRUE(Hashes.insert(Rec.Hash).second);
}

TEST(DriverTest, ResultDatabaseCapAndOffSwitch) {
  RunConfig C = quickConfig();
  C.RecordTests = 5;
  RunResult R = session().runOne("base16", C);
  ASSERT_GE(R.Synthesized, 5u);
  EXPECT_EQ(R.Db.records().size(), 5u);
  RunConfig Off = quickConfig();
  RunResult R2 = session().runOne("base16", Off);
  EXPECT_TRUE(R2.Db.records().empty());
  // Retention changes no count.
  EXPECT_EQ(R2.Synthesized, R.Synthesized);
  EXPECT_EQ(R2.Rejected, R.Rejected);
  EXPECT_EQ(R2.Executed, R.Executed);
}

TEST(DriverTest, JsonErrorChannelIsLossless) {
  // Routing diagnostics through the cargo-style JSON wire format must not
  // change any outcome: refinement sees byte-equivalent information.
  for (const char *Name : {"bitvec", "im-rc", "slab"}) {
    RunConfig Direct = quickConfig();
    RunConfig Wire = quickConfig();
    Wire.JsonErrorChannel = true;
    RunResult A = session().runOne(Name, Direct);
    RunResult B = session().runOne(Name, Wire);
    EXPECT_EQ(A.Synthesized, B.Synthesized) << Name;
    EXPECT_EQ(A.Rejected, B.Rejected) << Name;
    EXPECT_EQ(A.ByDetail, B.ByDetail) << Name;
    EXPECT_EQ(A.Refine.ComboBlocks, B.Refine.ComboBlocks) << Name;
    EXPECT_EQ(A.Refine.TraitRemovals, B.Refine.TraitRemovals) << Name;
  }
}

TEST(DriverTest, MaxTestsCapRespected) {
  RunConfig C = quickConfig();
  C.MaxTests = 25;
  RunResult R = session().runOne("bytes", C);
  EXPECT_LE(R.Synthesized, 25u);
}

TEST(DriverTest, ProgramHashHasNoCollisionsOnDashmap) {
  // This run's 476 programs include pairs that a weak shift-and-add
  // combine maps to one hash. SeenPrograms would still emit both, but a
  // structural hash must tell real programs apart.
  RunConfig C;
  C.BudgetSeconds = 120;
  C.Seed = 2021;
  RunResult R = session().runOne("dashmap", C);
  EXPECT_EQ(R.Synthesized, 476u);
  EXPECT_EQ(R.Synth.HashCollisions, 0u);
}

/// The programs of \p Crate's run set-up at seed 2021 and at most three
/// lines, enumerated to exhaustion with no refinement feedback: their
/// count and an order-independent digest, the sorted Program::hash()
/// values folded with FNV-1a.
struct ExhaustedSet {
  uint64_t Programs = 0;
  uint64_t Digest = 0;
  uint64_t Duplicates = 0;
};

ExhaustedSet exhaust(const Session &S, const std::string &Crate,
                     bool Interleave) {
  const CrateSpec &Spec = *S.find(Crate);
  RunConfig C;
  C.Seed = 2021;
  C.InterleaveLengths = Interleave;
  // Lazy mode's initialize() leaves the drawn database as it is.
  C.Mode = RefinementMode::PurelyLazy;
  AuditOptions ThreeLines;
  ThreeLines.MaxLines = 3;
  RunSetup Setup(Spec, *S.analysisFor(Spec), C, nullptr, nullptr,
                 ThreeLines);
  synth::Synthesizer &Synth = *Setup.Synth;
  std::vector<uint64_t> Hashes;
  while (std::optional<program::Program> P = Synth.next())
    Hashes.push_back(P->hash());
  std::sort(Hashes.begin(), Hashes.end());
  ExhaustedSet Out;
  Out.Programs = Hashes.size();
  Out.Digest = 0xcbf29ce484222325ULL;
  for (uint64_t H : Hashes)
    Out.Digest = (Out.Digest ^ H) * 0x100000001b3ULL;
  Out.Duplicates = Synth.stats().DuplicatesSkipped;
  return Out;
}

TEST(ExhaustionTest, ProgramSetsAreIndependentOfSearchOrder) {
  // How the solver walks the space - restarts, seeds, blocking at the
  // root or at the model's own level, sequential or interleaved lengths -
  // may reorder a stream but never change the set it exhausts. The table
  // was recorded with the enumerator that restarted from the root for
  // every model; the same sets must come out of any later one.
  struct Row {
    const char *Crate;
    uint64_t Programs;
    uint64_t Digest;
  };
  const Row Rows[] = {
      {"smallvec", 433, 0x2e5cae30a2a5f672ULL},
      {"crossbeam-utils", 987, 0x2465de47005be81ULL},
      {"bytes", 512, 0x91a621b8059cb5b3ULL},
      {"slab", 469, 0x9b246823d5f55e76ULL},
      {"crossbeam-deque", 526, 0x5b91a0ff140c0bb8ULL},
      {"generic-array", 1301, 0x5a242014a7d4f8d5ULL},
      {"crossbeam-queue", 894, 0x88d4f05934bd3d2fULL},
      {"num-rational", 31582, 0x4da82811a2d85b20ULL},
      {"hashbrown", 901, 0xc22a736ffe068ddULL},
      {"crossbeam", 2651, 0x14dc87ced2026edcULL},
      {"petgraph", 1179, 0xd32e5a856615be9cULL},
      {"im-rc", 2175, 0xaf7ff6d2957acebfULL},
      {"bitvec", 109, 0xbf1db2b72ff84169ULL},
      {"ndarray", 2404, 0x8770f3f3f48263d3ULL},
      {"dashmap", 644, 0x11d2bbd56d0e1635ULL},
      {"encoding_rs", 254, 0xe9bf71e7155495a9ULL},
      {"bstr", 675, 0x1d607eef87eb7161ULL},
      {"csv-core", 181, 0x58c3baeceda1180dULL},
      {"data-encoding", 645, 0x960800340b7a81dbULL},
      {"encode_unicode", 984, 0x9539e3490f77bf4bULL},
      {"urlencoding", 359, 0xc3d0d782c0aef99aULL},
      {"rmp-serde", 207, 0xb185360d202392b7ULL},
      {"bytemuck", 572, 0x770c4bce32c841c7ULL},
      {"sval", 406, 0x8cc00d3fb33941a4ULL},
      {"base16", 113, 0x615ecd5ac7ccd94cULL},
      {"cbor-codec", 53, 0x56a670528136e3c1ULL},
      {"hcid", 66, 0x608e1995db82c962ULL},
      {"utf8-width", 3489, 0xbc332594b6e5497eULL},
  };
  Session S;
  ASSERT_EQ(std::size(Rows), S.supportedCrates().size());
  for (const Row &Want : Rows) {
    for (bool Interleave : {false, true}) {
      ExhaustedSet Got = exhaust(S, Want.Crate, Interleave);
      const char *Mode = Interleave ? "interleaved" : "sequential";
      EXPECT_EQ(Got.Duplicates, 0u) << Want.Crate << " " << Mode;
      EXPECT_EQ(Got.Programs, Want.Programs) << Want.Crate << " " << Mode;
      EXPECT_EQ(Got.Digest, Want.Digest)
          << Want.Crate << " " << Mode << ": {\"" << Want.Crate << "\", "
          << Got.Programs << ", 0x" << std::hex << Got.Digest << "ULL},";
    }
  }
}

/// What one completeness cell saw: check failures as messages, and
/// whether its feedback changed the database at all and banned an API.
struct FeedbackCell {
  std::vector<std::string> Failures;
  bool Changed = false;
  bool Banned = false;
};

size_t countBanned(const api::ApiDatabase &Db) {
  return Db.size() - Db.activeIds().size();
}

/// Enumerates \p Crate's run set-up at seed 2021 to exhaustion with real
/// refinement feedback - every program goes through the Checker and the
/// RefinementEngine, and every database change through
/// notifyDatabaseChanged() - then exhausts a fresh Synthesizer on the
/// final database and compares the two.
FeedbackCell exhaustWithFeedback(const Session &S, const std::string &Crate,
                                 RefinementMode Mode, bool Interleave,
                                 int MaxLines) {
  const CrateSpec &Spec = *S.find(Crate);
  RunConfig C;
  C.Seed = 2021;
  C.Mode = Mode;
  C.InterleaveLengths = Interleave;
  AuditOptions Cap;
  Cap.MaxLines = MaxLines;
  RunSetup Setup(Spec, *S.analysisFor(Spec), C, nullptr, nullptr, Cap);
  CrateInstance &Inst = *Setup.Inst;
  RefinementEngine &Refine = Setup.Refine;
  synth::Synthesizer &Synth = *Setup.Synth;
  const size_t BannedAtStart = countBanned(Inst.Db);
  FeedbackCell Cell;
  auto Fail = [&](const std::string &Why) {
    if (Cell.Failures.size() < 5)
      Cell.Failures.push_back(Why);
  };
  std::vector<uint64_t> Emitted; // Hashes in emission order.
  std::set<uint64_t> EmittedSet;
  size_t EmittedBeforeLastChange = 0;
  size_t LengthAtLastChange = 1;
  while (std::optional<program::Program> P = Synth.next()) {
    for (const program::Stmt &St : P->Stmts)
      if (Inst.Db.isBanned(St.Api))
        Fail("emitted a banned API: " + P->render(Inst.Db));
    if (!EmittedSet.insert(P->hash()).second)
      Fail("emitted twice: " + P->render(Inst.Db));
    Emitted.push_back(P->hash());
    CompileResult Compiled = Setup.Check.check(*P, Inst.Db);
    bool Changed = Compiled.Success ? Refine.onSuccess(*P)
                                    : Refine.onDiagnostic(Compiled.Diag);
    if (!Changed)
      continue;
    Synth.notifyDatabaseChanged();
    Cell.Changed = true;
    EmittedBeforeLastChange = Emitted.size();
    LengthAtLastChange = Interleave ? 1 : P->Stmts.size();
  }
  Cell.Banned = countBanned(Inst.Db) > BannedAtStart;
  if (Synth.stats().DuplicatesSkipped != 0)
    Fail("skipped duplicates");

  // The options the set-up gives its synthesizer.
  synth::SynthOptions Opts;
  Opts.InterleaveLengths = Interleave;
  Opts.SolverSeed = 2021;
  Opts.Compat = &Setup.Compat;
  Opts.Graph = &S.analysisFor(Spec)->graph();
  synth::Synthesizer Fresh(Inst.Arena, Inst.Traits, Inst.Db, Inst.Inputs,
                           std::min(MaxLines, Inst.MaxLen), Opts);
  std::set<uint64_t> FreshSet;
  while (std::optional<program::Program> P = Fresh.next()) {
    FreshSet.insert(P->hash());
    if (P->Stmts.size() >= LengthAtLastChange &&
        !EmittedSet.count(P->hash()))
      Fail("missed: " + P->render(Inst.Db));
  }
  for (size_t I = EmittedBeforeLastChange; I < Emitted.size(); ++I)
    if (!FreshSet.count(Emitted[I]))
      Fail("emitted after the last change, absent from the fresh set");
  return Cell;
}

TEST(ExhaustionTest, FeedbackEnumerationIsCompleteOnTheFinalDatabase) {
  // Refinement changes the database while the encodings are live:
  // additions, bans and combo blocks. However the encoder absorbs them,
  // the programs it emits must match what a fresh encoder finds on the
  // final database:
  //   1. no program uses an API banned when it was emitted;
  //   2. no program is emitted twice;
  //   3. every fresh program at least as long as the length being
  //      enumerated at the last change (1 when interleaving, which holds
  //      every length) was emitted;
  //   4. every program emitted after the last change is in the fresh set.
  // Three-line spaces of num-rational, dashmap and petgraph run from 31k
  // to over 560k programs, so those three stop at two lines.
  const std::set<std::string> TwoLines = {"num-rational", "dashmap",
                                          "petgraph"};
  Session S;
  size_t ChangedCells = 0, BanCells = 0;
  for (const std::string &Crate : S.supportedCrates()) {
    for (RefinementMode Mode :
         {RefinementMode::Hybrid, RefinementMode::PurelyLazy}) {
      for (bool Interleave : {false, true}) {
        FeedbackCell Cell = exhaustWithFeedback(
            S, Crate, Mode, Interleave, TwoLines.count(Crate) ? 2 : 3);
        ChangedCells += Cell.Changed;
        BanCells += Cell.Banned;
        for (const std::string &F : Cell.Failures)
          ADD_FAILURE() << Crate
                        << (Mode == RefinementMode::Hybrid ? " hybrid"
                                                           : " lazy")
                        << (Interleave ? " interleaved: " : " sequential: ")
                        << F;
      }
    }
  }
  // The check only means something if feedback changed databases and
  // banned APIs while the encodings were live.
  EXPECT_GT(ChangedCells, 0u);
  EXPECT_GT(BanCells, 0u);
}

} // namespace
