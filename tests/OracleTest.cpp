//===--- OracleTest.cpp - Tests for the agreement oracle ------------------===//
//
// Part of SyRust-CPP (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//

#include "oracle/AuditRunner.h"
#include "rustsim/Checker.h"
#include "types/TypeParser.h"

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <set>

using namespace syrust;
using namespace syrust::api;
using namespace syrust::core;
using namespace syrust::oracle;
using namespace syrust::program;
using namespace syrust::rustsim;
using namespace syrust::types;

namespace {

//===----------------------------------------------------------------------===//
// Disagreement taxonomy
//===----------------------------------------------------------------------===//

TEST(OracleTaxonomy, ExpectedDetailsAreTheRefinementDiet) {
  // Checker-stricter-by-design rejections are expected; the dimensions
  // Rules 1-9 claim to encode are not.
  EXPECT_TRUE(isExpectedDetail(ErrorDetail::TraitBound));
  EXPECT_TRUE(isExpectedDetail(ErrorDetail::Polymorphism));
  EXPECT_TRUE(isExpectedDetail(ErrorDetail::DefaultTypeParam));
  EXPECT_TRUE(isExpectedDetail(ErrorDetail::AnonLifetime));
  EXPECT_TRUE(isExpectedDetail(ErrorDetail::Arity));
  EXPECT_TRUE(isExpectedDetail(ErrorDetail::MethodNotFound));
  EXPECT_FALSE(isExpectedDetail(ErrorDetail::Ownership));
  EXPECT_FALSE(isExpectedDetail(ErrorDetail::Borrowing));
  EXPECT_FALSE(isExpectedDetail(ErrorDetail::TypeMismatch));
  EXPECT_FALSE(isExpectedDetail(ErrorDetail::None));
}

//===----------------------------------------------------------------------===//
// Counterexample minimization
//===----------------------------------------------------------------------===//

/// Small Vec-like library (the CheckerTest fixture's shape) for driving
/// the minimizer on hand-built disagreeing programs.
class MinimizerFixture : public ::testing::Test {
protected:
  TypeArena Arena;
  TypeParser Parser{Arena, {"T"}};
  TraitEnv Traits{Arena};
  ApiDatabase Db;

  ApiId LetMut, Borrow, BorrowMut, IntoRawParts;

  const Type *parse(const std::string &S) {
    const Type *T = Parser.parse(S);
    EXPECT_NE(T, nullptr) << Parser.error();
    return T;
  }

  void SetUp() override {
    Traits.addDefaultPrimImpls();
    auto B = addBuiltinApis(Db, Arena);
    LetMut = B[0];
    Borrow = B[1];
    BorrowMut = B[2];
    ApiSig Sig;
    Sig.Name = "Vec::into_raw_parts";
    Sig.Inputs = {parse("Vec<T>")};
    Sig.Output = parse("(usize, usize, usize)");
    IntoRawParts = Db.add(std::move(Sig));
  }
};

TEST_F(MinimizerFixture, ConvergesToMinimalUseAfterMove) {
  // A 4-line use-after-move with a junk line and an indirection through
  // LetMut. The minimizer must both DROP the junk and SUBSTITUTE the
  // LetMut copy for the original owner (unpinning the producer line),
  // converging to the 2-line core: consume v twice.
  Program P;
  P.Inputs = {{"s", parse("String")}, {"v", parse("Vec<String>")}};
  P.Stmts.push_back(Stmt{LetMut, {1}, 2, parse("Vec<String>")});
  P.Stmts.push_back(Stmt{LetMut, {0}, 3, parse("String")}); // Junk.
  P.Stmts.push_back(
      Stmt{IntoRawParts, {2}, 4, parse("(usize, usize, usize)")});
  P.Stmts.push_back(
      Stmt{IntoRawParts, {2}, 5, parse("(usize, usize, usize)")});

  Checker Check(Arena, Traits);
  CompileResult Original = Check.check(P, Db);
  ASSERT_FALSE(Original.Success);
  ASSERT_EQ(Original.Diag.Detail, ErrorDetail::Ownership);

  MinimizedDisagreement Min =
      minimizeDisagreement(Arena, Traits, Db, P, ErrorDetail::Ownership);
  EXPECT_EQ(Min.Program.Stmts.size(), 2u);
  EXPECT_GT(Min.Steps, 0u);
  // The repro still fails with exactly the original detail.
  CompileResult R = Check.check(Min.Program, Db);
  ASSERT_FALSE(R.Success);
  EXPECT_EQ(R.Diag.Detail, ErrorDetail::Ownership);
}

TEST_F(MinimizerFixture, MinimizationIsIdempotent) {
  // A fixpoint stays a fixpoint: re-minimizing the minimal repro cannot
  // shrink it further (convergence, not oscillation).
  Program P;
  P.Inputs = {{"v", parse("Vec<String>")}};
  P.Stmts.push_back(
      Stmt{IntoRawParts, {0}, 1, parse("(usize, usize, usize)")});
  P.Stmts.push_back(
      Stmt{IntoRawParts, {0}, 2, parse("(usize, usize, usize)")});
  MinimizedDisagreement Min =
      minimizeDisagreement(Arena, Traits, Db, P, ErrorDetail::Ownership);
  EXPECT_EQ(Min.Program.Stmts.size(), 2u);
  MinimizedDisagreement Again = minimizeDisagreement(
      Arena, Traits, Db, Min.Program, ErrorDetail::Ownership);
  EXPECT_EQ(Again.Program.Stmts.size(), Min.Program.Stmts.size());
}

//===----------------------------------------------------------------------===//
// Matrix expansion and validation
//===----------------------------------------------------------------------===//

TEST(AuditSpecTest, MatrixOrderIsCratesOuterSeedsInner) {
  AuditSpec Spec;
  Spec.Crates = {"b", "a"};
  Spec.SeedBegin = 5;
  Spec.SeedEnd = 6;
  std::vector<AuditJob> Jobs = expandAuditMatrix(Spec);
  ASSERT_EQ(Jobs.size(), 4u);
  EXPECT_EQ(Jobs[0].Crate, "b");
  EXPECT_EQ(Jobs[0].Seed, 5u);
  EXPECT_EQ(Jobs[1].Crate, "b");
  EXPECT_EQ(Jobs[1].Seed, 6u);
  EXPECT_EQ(Jobs[2].Crate, "a");
  EXPECT_EQ(Jobs[3].Index, 3u);
  EXPECT_EQ(Jobs[3].Config.Run.Seed, 6u);
}

TEST(AuditSpecTest, ValidateRejectsEachBadField) {
  Session S;
  AuditSpec Spec;
  Spec.Crates = {"slab", "slab", "no-such-crate"};
  Spec.SeedBegin = 9;
  Spec.SeedEnd = 3;
  Spec.Jobs = 0;
  Spec.Base.MaxModels = 0;
  std::vector<std::string> Errors = Spec.validate(S);
  // Duplicate crate, unknown crate, empty seed range, bad job count,
  // zero model cap: one specific message each.
  EXPECT_EQ(Errors.size(), 5u);
}

TEST(AuditSpecTest, RejectsMatrixPastTheCap) {
  Session S;
  AuditSpec Spec;
  Spec.Crates = {"slab"};
  Spec.SeedBegin = 1;
  Spec.SeedEnd = campaign::MatrixSpec::MaxCells;
  EXPECT_TRUE(Spec.validate(S).empty());
  Spec.SeedEnd = 9007199254740991; // 2^53 - 1, the largest --seeds end.
  std::vector<std::string> Errors = Spec.validate(S);
  ASSERT_EQ(Errors.size(), 1u);
  EXPECT_EQ(Errors[0], "AuditSpec matrix has 9007199254740991 cells, more "
                       "than the cap of 8192");
}

//===----------------------------------------------------------------------===//
// End-to-end audits (real crate models)
//===----------------------------------------------------------------------===//

TEST(OracleAudit, AlignedEncoderIsCleanOnRealCrates) {
  // The acceptance invariant at test scale: no unexpected-category
  // disagreement anywhere in the audited streams.
  Session S;
  OracleConfig Config;
  Config.MaxModels = 300;
  for (const char *Crate : {"slab", "base16"}) {
    AuditResult R = auditOne(S, Crate, Config);
    EXPECT_TRUE(R.Supported);
    EXPECT_EQ(R.ModelsReplayed, 300u) << Crate;
    EXPECT_EQ(R.UnexpectedTotal, 0u) << Crate;
    EXPECT_TRUE(R.Unexpected.empty()) << Crate;
    EXPECT_GT(R.AgreePass, 0u) << Crate;
  }
}

TEST(OracleAudit, ReplaysTheStreamARunEmits) {
  // Oracle.h's promise: an audit replays the stream a run emits. Capped
  // at the run's models (emitted plus path-filtered), the audit's
  // classes count exactly the run's verdicts, detail by detail - in the
  // default configuration on every crate, and with each setting an
  // audit takes set in the audit's RunConfig, which the run copies, on a
  // few crates where most of them change the stream.
  struct Setting {
    const char *Name;
    std::function<void(RunConfig &)> Set;
  };
  const Setting Settings[] = {
      {"default", [](RunConfig &) {}},
      {"seed 2022", [](RunConfig &C) { C.Seed = 2022; }},
      {"lazy",
       [](RunConfig &C) { C.Mode = refine::RefinementMode::PurelyLazy; }},
      {"eager",
       [](RunConfig &C) { C.Mode = refine::RefinementMode::PurelyEager; }},
      {"apis 10", [](RunConfig &C) { C.NumApis = 10; }},
      {"eager cap 8", [](RunConfig &C) { C.EagerCap = 8; }},
      {"no graph prune", [](RunConfig &C) { C.GraphPrune = false; }},
      {"portfolio", [](RunConfig &C) { C.Portfolio = true; }},
      {"cegar", [](RunConfig &C) { C.Strategy = "cegar"; }},
  };
  // Each stream-changing setting moves at least one of these streams:
  // the eager cap moves bitvec and dashmap, the cegar strategy slab and
  // dashmap.
  const std::set<std::string> Few = {"slab", "bitvec", "dashmap"};
  Session S;
  for (const Setting &St : Settings) {
    for (const std::string &Crate : S.supportedCrates()) {
      if (St.Name != std::string("default") && !Few.count(Crate))
        continue;
      const std::string Cell = Crate + " " + St.Name;
      OracleConfig Config;
      St.Set(Config.Run);
      RunConfig Run = Config.Run;
      Run.MaxTests = 300;
      RunResult R = S.runOne(Crate, Run);
      ASSERT_TRUE(R.Supported) << Cell;
      // The run's probes hit the Session's shared matrix.
      EXPECT_GT(R.Synth.CompatBaseHits, 0u) << Cell;
      Config.MaxModels = R.Synthesized + R.Synth.PathFiltered;
      AuditResult A = auditOne(S, Crate, Config);
      EXPECT_EQ(A.AgreePass, R.Executed) << Cell;
      EXPECT_EQ(A.ExpectedTotal + A.UnexpectedTotal, R.Rejected) << Cell;
      std::map<ErrorDetail, uint64_t> ByDetail = A.Expected;
      for (const Disagreement &D : A.Unexpected)
        ++ByDetail[D.Detail];
      EXPECT_EQ(ByDetail, R.ByDetail) << Cell;
      EXPECT_EQ(A.AgreeReject + A.FilteredCompilable, R.Synth.PathFiltered)
          << Cell;
      EXPECT_EQ(A.ApiCoverage.NodeBits, R.ApiCoverage.NodeBits) << Cell;
      EXPECT_EQ(A.ApiCoverage.EdgeBits, R.ApiCoverage.EdgeBits) << Cell;
    }
  }
}

TEST(OracleAudit, UnsupportedCrateReportsUnsupported) {
  Session S;
  const crates::CrateSpec *Closure = nullptr;
  for (const crates::CrateSpec &Spec : S.crates())
    if (!Spec.Info.SupportsSynthesis)
      Closure = &Spec;
  ASSERT_NE(Closure, nullptr);
  AuditResult R = auditOne(S, Closure->Info.Name, OracleConfig{});
  EXPECT_FALSE(R.Supported);
  EXPECT_EQ(R.ModelsReplayed, 0u);
}

TEST(OracleAudit, CanaryWeakenedEncoderIsCaughtAndMinimized) {
  // The oracle's self-test: seed a real encoder bug (drop the
  // consumption-kill clauses) and the harness MUST catch it as
  // unexpected Ownership disagreements, each shrunk to a small repro.
  Session S;
  OracleConfig Config;
  Config.MaxModels = 500;
  Config.Audit.WeakenConsumptionKills = true;
  AuditResult R = auditOne(S, "slab", Config);
  ASSERT_GT(R.UnexpectedTotal, 0u)
      << "a seeded encoder bug escaped the oracle";
  ASSERT_EQ(R.Unexpected.size(), R.UnexpectedTotal);
  for (const Disagreement &D : R.Unexpected) {
    EXPECT_EQ(D.Detail, ErrorDetail::Ownership);
    EXPECT_GT(D.Lines, 0);
    EXPECT_GT(D.MinimizedLines, 0);
    EXPECT_LE(D.MinimizedLines, D.Lines);
    EXPECT_FALSE(D.MinimizedSource.empty());
    EXPECT_GT(D.MinimizerSteps, 0u);
  }
  EXPECT_GT(R.MinimizerSteps, 0u);

  // Same configuration without the seeded bug: clean.
  Config.Audit.WeakenConsumptionKills = false;
  AuditResult Clean = auditOne(S, "slab", Config);
  EXPECT_EQ(Clean.UnexpectedTotal, 0u);
}

TEST(OracleAudit, ReportIsByteIdenticalForAnyJobCount) {
  // The campaign determinism contract, inherited: same matrix, any pool
  // width, byte-identical audit document.
  Session S;
  AuditSpec Spec;
  Spec.Crates = {"slab", "base16"};
  Spec.SeedBegin = 2021;
  Spec.SeedEnd = 2022;
  Spec.Base.MaxModels = 150;
  ASSERT_TRUE(Spec.validate(S).empty());

  Spec.Jobs = 1;
  AuditRunResult R1 = runAudit(S, Spec);
  Spec.Jobs = 4;
  AuditRunResult R4 = runAudit(S, Spec);

  EXPECT_EQ(auditToJson(Spec, R1).dump(), auditToJson(Spec, R4).dump());
  EXPECT_EQ(R1.Totals.ModelsReplayed, 4u * 150u);
  EXPECT_TRUE(R1.clean());
  // Merged oracle.* counters are integer sums: pool-width independent.
  EXPECT_EQ(R1.MergedCounters, R4.MergedCounters);
  EXPECT_EQ(R1.MergedCounters.at("oracle.models_replayed"), 4u * 150u);
}

} // namespace
