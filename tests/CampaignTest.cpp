//===--- CampaignTest.cpp - Campaign engine tests -------------------------===//
//
// Part of SyRust-CPP (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The campaign engine's contract: a `(crate, seed, variant)` matrix
/// fanned across a work-stealing pool must merge deterministically — the
/// aggregate JSON and the per-stage metric totals are byte-identical for
/// any pool width — and both RunConfig::validate() and
/// CampaignSpec::validate() must reject each bad field with a specific
/// message. The pool itself (runJobPool, shared with audits) must run
/// each live index exactly once, on a fixed number of workers whose
/// recorders trace only when asked.
///
//===----------------------------------------------------------------------===//

#include "campaign/CampaignRunner.h"
#include "core/ResultJson.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

using namespace syrust;
using namespace syrust::campaign;
using namespace syrust::core;

namespace {

/// A small but non-trivial budget: enough simulated time for every stage
/// of the pipeline to run while keeping the whole matrix fast.
RunConfig quickBase() {
  RunConfig C;
  C.BudgetSeconds = 30;
  C.SnapshotInterval = 10;
  return C;
}

CampaignSpec quadSpec() {
  CampaignSpec Spec;
  Spec.Crates = {"slab", "base16", "bytes", "smallvec"};
  Spec.SeedBegin = 2021;
  Spec.SeedEnd = 2022;
  Spec.Base = quickBase();
  return Spec;
}

/// A word-wise FNV-1a fold of the Program::hash() of every program \p R
/// recorded, in emission order.
uint64_t streamDigest(const RunResult &R) {
  uint64_t Digest = 0xcbf29ce484222325ULL;
  for (const TestRecord &T : R.Db.records())
    Digest = (Digest ^ T.Hash) * 0x100000001b3ULL;
  return Digest;
}

/// \p N sparse matrix indices, ascending, as a resumed matrix leaves
/// them live.
std::vector<size_t> sparseIndices(size_t N) {
  std::vector<size_t> Live;
  for (size_t I = 0; I < N; ++I)
    Live.push_back(3 * I + I % 2);
  return Live;
}

bool contains(const std::vector<std::string> &Errors,
              const std::string &Needle) {
  for (const std::string &E : Errors)
    if (E.find(Needle) != std::string::npos)
      return true;
  return false;
}

//===----------------------------------------------------------------------===//
// RunConfig::validate - one specific message per rejected field.
//===----------------------------------------------------------------------===//

TEST(RunConfigValidateTest, DefaultConfigIsValid) {
  EXPECT_TRUE(RunConfig().validate().empty());
}

TEST(RunConfigValidateTest, RejectsNegativeBudget) {
  RunConfig C;
  C.BudgetSeconds = -1;
  std::vector<std::string> E = C.validate();
  ASSERT_EQ(E.size(), 1u);
  EXPECT_EQ(E[0], "RunConfig.BudgetSeconds must be non-negative, got -1");
}

TEST(RunConfigValidateTest, RejectsZeroApis) {
  RunConfig C;
  C.NumApis = 0;
  std::vector<std::string> E = C.validate();
  ASSERT_EQ(E.size(), 1u);
  EXPECT_EQ(E[0], "RunConfig.NumApis must be at least 1, got 0");
}

TEST(RunConfigValidateTest, RejectsZeroEagerCap) {
  RunConfig C;
  C.EagerCap = 0;
  std::vector<std::string> E = C.validate();
  ASSERT_EQ(E.size(), 1u);
  EXPECT_EQ(E[0], "RunConfig.EagerCap must be nonzero (a zero cap would "
                  "forbid every eager instantiation)");
}

TEST(RunConfigValidateTest, RejectsNegativeStageCosts) {
  RunConfig C;
  C.SolveCost = -0.5;
  C.CompileCost = -1;
  C.ExecCost = -2;
  std::vector<std::string> E = C.validate();
  ASSERT_EQ(E.size(), 3u);
  EXPECT_TRUE(contains(E, "RunConfig.SolveCost must be non-negative"));
  EXPECT_TRUE(contains(E, "RunConfig.CompileCost must be non-negative"));
  EXPECT_TRUE(contains(E, "RunConfig.ExecCost must be non-negative"));
}

TEST(RunConfigValidateTest, RejectsNonPositiveSnapshotInterval) {
  RunConfig C;
  C.SnapshotInterval = 0;
  std::vector<std::string> E = C.validate();
  ASSERT_EQ(E.size(), 1u);
  EXPECT_TRUE(contains(E, "RunConfig.SnapshotInterval must be positive"));
}

TEST(RunConfigValidateTest, RejectsDegenerateCurve) {
  RunConfig C;
  C.CurveSamples = 1;
  std::vector<std::string> E = C.validate();
  ASSERT_EQ(E.size(), 1u);
  EXPECT_TRUE(contains(E, "RunConfig.CurveSamples must be at least 2"));
}

TEST(RunConfigValidateTest, ReportsEveryProblemAtOnce) {
  RunConfig C;
  C.BudgetSeconds = -1;
  C.NumApis = -3;
  C.CurveSamples = 0;
  EXPECT_EQ(C.validate().size(), 3u);
}

//===----------------------------------------------------------------------===//
// CampaignSpec::validate.
//===----------------------------------------------------------------------===//

TEST(CampaignSpecValidateTest, QuadSpecIsValid) {
  Session S;
  EXPECT_TRUE(quadSpec().validate(S).empty());
}

TEST(CampaignSpecValidateTest, RejectsEmptyCrateList) {
  Session S;
  CampaignSpec Spec = quadSpec();
  Spec.Crates.clear();
  EXPECT_TRUE(contains(Spec.validate(S),
                       "CampaignSpec.Crates must name at least one"));
}

TEST(CampaignSpecValidateTest, RejectsUnknownAndDuplicateCrates) {
  Session S;
  CampaignSpec Spec = quadSpec();
  Spec.Crates = {"slab", "slab", "no-such-crate"};
  std::vector<std::string> E = Spec.validate(S);
  EXPECT_TRUE(contains(E, "lists 'slab' more than once"));
  EXPECT_TRUE(contains(E, "unknown crate 'no-such-crate'"));
}

TEST(CampaignSpecValidateTest, RejectsEmptySeedRange) {
  Session S;
  CampaignSpec Spec = quadSpec();
  Spec.SeedBegin = 5;
  Spec.SeedEnd = 4;
  EXPECT_TRUE(contains(Spec.validate(S), "seed range is empty"));
}

TEST(CampaignSpecValidateTest, RejectsUnknownVariant) {
  Session S;
  CampaignSpec Spec = quadSpec();
  Spec.Variants = {"base", "turbo"};
  std::vector<std::string> E = Spec.validate(S);
  EXPECT_TRUE(contains(E, "unknown variant 'turbo'"));
  // The known-variants list must track the full applyVariant vocabulary
  // (it used to silently omit no-graph-prune).
  EXPECT_TRUE(contains(E, "known: base, no-semantic, eager, lazy, "
                          "interleave, mutate-inputs, no-incremental, "
                          "portfolio, no-graph-prune, coverage-bias"));
  RunConfig Probe;
  for (const char *Name :
       {"base", "no-semantic", "eager", "lazy", "interleave",
        "mutate-inputs", "no-incremental", "portfolio", "no-graph-prune",
        "coverage-bias"})
    EXPECT_TRUE(applyVariant(Name, Probe)) << Name;
}

TEST(CampaignSpecValidateTest, RejectsDuplicateVariant) {
  // A variant named twice would run each of its cells twice.
  Session S;
  CampaignSpec Spec = quadSpec();
  Spec.Variants = {"base", "lazy", "base"};
  std::vector<std::string> E = Spec.validate(S);
  EXPECT_TRUE(
      contains(E, "CampaignSpec.Variants lists 'base' more than once"));
  EXPECT_EQ(E.size(), 1u);
}

TEST(CampaignSpecValidateTest, CountsCellsWithoutOverflow) {
  CampaignSpec Spec;
  Spec.Crates = {"slab", "bytes"};
  Spec.SeedBegin = 1;
  Spec.SeedEnd = 3;
  EXPECT_EQ(Spec.cellCount(), 6u);
  EXPECT_EQ(Spec.cellCount(7), 42u);
  Spec.SeedEnd = 0; // Empty range.
  EXPECT_EQ(Spec.cellCount(7), 0u);
  // The full 64-bit range has 2^64 seeds, one more than a uint64_t holds.
  Spec.SeedBegin = 0;
  Spec.SeedEnd = UINT64_MAX;
  EXPECT_EQ(Spec.cellCount(), UINT64_MAX);
  Spec.SeedBegin = 1;
  Spec.SeedEnd = (uint64_t(1) << 63) + 1;
  EXPECT_EQ(Spec.cellCount(), UINT64_MAX); // 2 crates x (2^63 + 1) seeds.
}

TEST(CampaignSpecValidateTest, RejectsMatrixPastTheCap) {
  Session S;
  CampaignSpec Spec = quadSpec();
  Spec.Crates = {"slab"};
  Spec.SeedBegin = 1;
  Spec.SeedEnd = 9007199254740991; // 2^53 - 1, the largest --seeds end.
  EXPECT_TRUE(contains(Spec.validate(S),
                       "CampaignSpec matrix has 9007199254740991 cells, "
                       "more than the cap of 8192"));
  // The variants multiply the cells: 4096 seeds x 2 variants is exactly
  // the cap, one more seed is past it.
  Spec.SeedEnd = MatrixSpec::MaxCells / 2;
  Spec.Variants = {"base", "lazy"};
  EXPECT_TRUE(Spec.validate(S).empty());
  Spec.SeedEnd += 1;
  EXPECT_TRUE(contains(Spec.validate(S),
                       "CampaignSpec matrix has 8194 cells, more than the "
                       "cap of 8192"));
}

TEST(CampaignSpecValidateTest, RejectsNonPositiveJobs) {
  Session S;
  CampaignSpec Spec = quadSpec();
  Spec.Jobs = 0;
  EXPECT_TRUE(
      contains(Spec.validate(S), "CampaignSpec.Jobs must be at least 1"));
}

TEST(CampaignSpecValidateTest, SurfacesBaseConfigErrors) {
  Session S;
  CampaignSpec Spec = quadSpec();
  Spec.Base.BudgetSeconds = -10;
  EXPECT_TRUE(contains(Spec.validate(S), "RunConfig.BudgetSeconds"));
}

//===----------------------------------------------------------------------===//
// Matrix expansion and variants.
//===----------------------------------------------------------------------===//

TEST(CampaignTest, MatrixOrderIsCratesThenSeedsThenVariants) {
  CampaignSpec Spec;
  Spec.Crates = {"slab", "bytes"};
  Spec.SeedBegin = 1;
  Spec.SeedEnd = 2;
  Spec.Variants = {"base", "no-semantic"};
  std::vector<CampaignJob> Jobs = expandMatrix(Spec);
  ASSERT_EQ(Jobs.size(), 8u);
  EXPECT_EQ(Jobs[0].Crate, "slab");
  EXPECT_EQ(Jobs[0].Seed, 1u);
  EXPECT_EQ(Jobs[0].Variant, "base");
  EXPECT_EQ(Jobs[1].Variant, "no-semantic");
  EXPECT_EQ(Jobs[2].Seed, 2u);
  EXPECT_EQ(Jobs[4].Crate, "bytes");
  for (size_t I = 0; I < Jobs.size(); ++I) {
    EXPECT_EQ(Jobs[I].Index, I);
    EXPECT_EQ(Jobs[I].Config.Seed, Jobs[I].Seed);
  }
  EXPECT_FALSE(Jobs[1].Config.SemanticAware);
  EXPECT_TRUE(Jobs[0].Config.SemanticAware);
}

TEST(CampaignTest, ApplyVariantCoversTheVocabulary) {
  RunConfig C;
  EXPECT_TRUE(applyVariant("base", C));
  EXPECT_TRUE(applyVariant("eager", C));
  EXPECT_EQ(C.Mode, refine::RefinementMode::PurelyEager);
  EXPECT_TRUE(applyVariant("lazy", C));
  EXPECT_EQ(C.Mode, refine::RefinementMode::PurelyLazy);
  EXPECT_TRUE(applyVariant("interleave", C));
  EXPECT_TRUE(C.InterleaveLengths);
  EXPECT_TRUE(applyVariant("mutate-inputs", C));
  EXPECT_TRUE(C.MutateInputs);
  EXPECT_TRUE(applyVariant("no-incremental", C));
  EXPECT_FALSE(C.IncrementalRefinement);
  RunConfig Bias;
  EXPECT_TRUE(applyVariant("coverage-bias", Bias));
  EXPECT_TRUE(Bias.BiasCoverage);
  EXPECT_TRUE(Bias.InterleaveLengths); // The biased leg is interleaved.
  EXPECT_TRUE(Bias.validate().empty());
  EXPECT_FALSE(applyVariant("turbo", C));
}

//===----------------------------------------------------------------------===//
// The determinism contract (satellite: pool-width independence).
//===----------------------------------------------------------------------===//

TEST(CampaignTest, AggregateIsByteIdenticalForAnyPoolWidth) {
  Session S;
  CampaignSpec One = quadSpec();
  One.Jobs = 1;
  CampaignSpec Four = quadSpec();
  Four.Jobs = 4;
  CampaignResult A = CampaignRunner(S, One).run();
  CampaignResult B = CampaignRunner(S, Four).run();
  ASSERT_EQ(A.Jobs.size(), 8u);
  ASSERT_EQ(B.Jobs.size(), 8u);
  // The aggregate document: byte-identical, scheduling scrubbed.
  EXPECT_EQ(campaignToJson(One, A).dump(), campaignToJson(Four, B).dump());
  // The merged per-stage metric totals: identical map, key for key.
  EXPECT_FALSE(A.MergedCounters.empty());
  EXPECT_EQ(A.MergedCounters, B.MergedCounters);
  // And the totals themselves.
  EXPECT_EQ(A.Totals.Synthesized, B.Totals.Synthesized);
  EXPECT_EQ(A.Totals.Rejected, B.Totals.Rejected);
  EXPECT_EQ(A.Totals.Executed, B.Totals.Executed);
  EXPECT_EQ(A.Totals.ByCategory, B.Totals.ByCategory);
  EXPECT_EQ(A.Workers, 1);
  EXPECT_EQ(B.Workers, 4);
}

TEST(CampaignTest, ResultsLandInMatrixOrderOnEveryWorker) {
  Session S;
  CampaignSpec Spec = quadSpec();
  Spec.Jobs = 3; // Deliberately not a divisor of the 8-job matrix.
  CampaignResult R = CampaignRunner(S, Spec).run();
  std::vector<CampaignJob> Expected = expandMatrix(Spec);
  ASSERT_EQ(R.Jobs.size(), Expected.size());
  for (size_t I = 0; I < R.Jobs.size(); ++I) {
    EXPECT_EQ(R.Jobs[I].Job.Index, I);
    EXPECT_EQ(R.Jobs[I].Job.Crate, Expected[I].Crate);
    EXPECT_EQ(R.Jobs[I].Job.Seed, Expected[I].Seed);
    EXPECT_GE(R.Jobs[I].Worker, 0);
    EXPECT_LT(R.Jobs[I].Worker, 3);
    EXPECT_TRUE(R.Jobs[I].Result.Supported);
  }
}

TEST(CampaignTest, PoolClampsToMatrixSize) {
  Session S;
  CampaignSpec Spec;
  Spec.Crates = {"slab"};
  Spec.Base = quickBase();
  Spec.Jobs = 16; // One job: fifteen workers would have nothing to do.
  CampaignResult R = CampaignRunner(S, Spec).run();
  ASSERT_EQ(R.Jobs.size(), 1u);
  EXPECT_EQ(R.Workers, 1);
}

TEST(CampaignTest, ProgressCallbackFiresOncePerJob) {
  Session S;
  CampaignSpec Spec = quadSpec();
  Spec.Jobs = 4;
  CampaignRunner Runner(S, Spec);
  std::atomic<int> Fired{0};
  Runner.onJobDone([&](const CampaignJobResult &JR) {
    EXPECT_FALSE(JR.Job.Crate.empty());
    ++Fired;
  });
  CampaignResult R = Runner.run();
  EXPECT_EQ(Fired.load(), static_cast<int>(R.Jobs.size()));
}

//===----------------------------------------------------------------------===//
// The aggregate document (schema_version 5).
//===----------------------------------------------------------------------===//

TEST(CampaignTest, AggregateDocumentShape) {
  Session S;
  CampaignSpec Spec = quadSpec();
  Spec.Jobs = 2;
  CampaignResult R = CampaignRunner(S, Spec).run();
  json::ParseResult P = json::parse(campaignToJson(Spec, R).dump());
  ASSERT_TRUE(P.Ok) << P.Error;
  EXPECT_EQ(P.Val.get("schema_version").asInt(), 5);
  EXPECT_EQ(P.Val.get("kind").asString(), "campaign");
  EXPECT_EQ(P.Val.get("matrix").get("jobs_total").asInt(), 8);
  const json::Value &Jobs = P.Val.get("jobs");
  ASSERT_EQ(Jobs.kind(), json::Value::Kind::Array);
  ASSERT_EQ(Jobs.size(), 8u);
  // Per-job entries carry the matrix cell and the embedded result, but
  // nothing scheduling-dependent: no worker ids, no host wall time.
  const json::Value &First = Jobs.at(0);
  EXPECT_EQ(First.get("crate").asString(), "slab");
  EXPECT_FALSE(First.has("worker"));
  const json::Value &Synth = First.get("result").get("synthesis");
  EXPECT_TRUE(Synth.has("solve_calls"));
  EXPECT_FALSE(Synth.has("solve_wall_seconds"));
  EXPECT_FALSE(Synth.has("build_wall_seconds"));
  EXPECT_GT(P.Val.get("totals").get("synthesized").asInt(), 0);
  EXPECT_TRUE(P.Val.has("metrics"));
  // Version 5: the campaign aggregate carries per-crate api_coverage.
  const json::Value &Cov = P.Val.get("api_coverage");
  ASSERT_EQ(Cov.kind(), json::Value::Kind::Array);
  ASSERT_EQ(Cov.size(), Spec.Crates.size());
  EXPECT_EQ(Cov.at(0).get("crate").asString(), "slab");
  EXPECT_GT(
      Cov.at(0).get("api_coverage").get("edges_covered").asInt(), 0);
}

TEST(CampaignTest, SaturationSentinelSurvivesRunDocumentRoundTrip) {
  // A run that tracked coverage but never covered an edge carries the
  // -1 "never saturated" sentinel. The full run-document round trip
  // (serialize -> dump -> parse -> resultFromJson) must preserve it -
  // no path may revive it as a real timestamp.
  RunResult R;
  R.Crate = "slab";
  R.ApiCoverage.NodesTotal = 5;
  R.ApiCoverage.EdgesTotal = 9;
  R.ApiCoverage.NodeBits.assign(1, 0);
  R.ApiCoverage.EdgeBits.assign(2, 0);
  R.ApiCoverage.Snaps.push_back({10.0, 0, 0});
  R.ApiCoverage.SaturationSeconds = -1;
  json::ParseResult P = json::parse(resultToJson(R, {false}).dump());
  ASSERT_TRUE(P.Ok) << P.Error;
  RunResult Back;
  std::string Err;
  ASSERT_TRUE(resultFromJson(P.Val, Back, Err)) << Err;
  EXPECT_DOUBLE_EQ(Back.ApiCoverage.SaturationSeconds, -1);
  ASSERT_EQ(Back.ApiCoverage.Snaps.size(), 1u);
  // And re-serializing reproduces the document byte for byte, sentinel
  // included (the checkpoint-resume identity depends on this).
  EXPECT_EQ(resultToJson(Back, {false}).dump(),
            resultToJson(R, {false}).dump());
}

TEST(CampaignTest, SaturationSentinelSurvivesCampaignAggregate) {
  // Campaign aggregates merge per-run coverage; merges drop all per-run
  // timing, so the aggregate's api_coverage entries must carry the -1
  // sentinel through serialize -> parse, never a revived timestamp.
  Session S;
  CampaignSpec Spec;
  Spec.Crates = {"slab"};
  Spec.Base = quickBase();
  CampaignResult R = CampaignRunner(S, Spec).run();
  json::ParseResult P = json::parse(campaignToJson(Spec, R).dump());
  ASSERT_TRUE(P.Ok) << P.Error;
  const json::Value &Cov = P.Val.get("api_coverage");
  ASSERT_EQ(Cov.size(), 1u);
  coverage::ApiCoverageData Back;
  std::string Err;
  ASSERT_TRUE(coverage::apiCoverageFromJson(
      Cov.at(0).get("api_coverage"), Back, Err))
      << Err;
  EXPECT_DOUBLE_EQ(Back.SaturationSeconds, -1);
  EXPECT_TRUE(Back.Snaps.empty());
}

TEST(CampaignTest, SingleRunDocumentKeepsWallTimeByDefault) {
  Session S;
  RunResult R = S.runOne("slab", quickBase());
  json::Value Doc = resultToJson(R);
  EXPECT_EQ(Doc.get("schema_version").asInt(), 5);
  EXPECT_TRUE(Doc.get("synthesis").has("solve_wall_seconds"));
  ResultJsonOptions NoWall;
  NoWall.HostWallTime = false;
  EXPECT_FALSE(
      resultToJson(R, NoWall).get("synthesis").has("solve_wall_seconds"));
}

//===----------------------------------------------------------------------===//
// Session facade.
//===----------------------------------------------------------------------===//

TEST(SessionTest, RunOneRejectsInvalidConfigAndUnknownCrate) {
  Session S;
  RunConfig Bad = quickBase();
  Bad.CurveSamples = 0;
  EXPECT_FALSE(S.runOne("slab", Bad).Supported);
  EXPECT_FALSE(S.runOne("no-such-crate", quickBase()).Supported);
  EXPECT_EQ(S.find("no-such-crate"), nullptr);
}

TEST(SessionTest, ProgramStreamsArePinned) {
  // A word-wise FNV-1a fold of the Program::hash() of every synthesized
  // program, in emission order, at seed 2021 and 60 sim-s. A change that
  // moves any of these streams - order included - must update the table
  // on purpose.
  struct Cell {
    const char *Crate;
    const char *Variant;
    uint64_t Programs;
    uint64_t Digest;
  };
  const Cell Cells[] = {
      {"slab", "base", 417, 0xceb555260daef258ULL},
      {"slab", "interleave", 423, 0xd1179a74e2850b3dULL},
      {"slab", "lazy", 828, 0xa5307dfc897bd3e5ULL},
      {"slab", "no-incremental", 417, 0xa271f1ae5276de88ULL},
      {"slab", "coverage-bias", 423, 0xa97243085245e8bfULL},
      {"smallvec", "base", 423, 0xd17fd0180f97dec1ULL},
      {"smallvec", "interleave", 424, 0x34dad22bf1a86322ULL},
      {"smallvec", "lazy", 1160, 0x21d698f52a9c68b5ULL},
      {"smallvec", "no-incremental", 423, 0x7f9792892b03c372ULL},
      {"smallvec", "coverage-bias", 422, 0x74f6a94061fb38edULL},
      {"crossbeam-utils", "base", 426, 0x25352e3cc5100460ULL},
      {"crossbeam-utils", "interleave", 434, 0xea1a9959b79bed15ULL},
      {"crossbeam-utils", "lazy", 463, 0x6a7c84e33ad7ac21ULL},
      {"crossbeam-utils", "no-incremental", 426, 0x22ba5a1f7864f94eULL},
      {"crossbeam-utils", "coverage-bias", 430, 0x3fe85eb42244f7bcULL},
      {"encoding_rs", "base", 419, 0xd93b979334b611f2ULL},
      {"encoding_rs", "interleave", 420, 0xc00714a61373618ULL},
      {"encoding_rs", "lazy", 419, 0xd93b979334b611f2ULL},
      {"encoding_rs", "no-incremental", 419, 0x21caa64ba6b6a04bULL},
      {"encoding_rs", "coverage-bias", 420, 0xc4e867b2d72dd474ULL},
  };
  Session S;
  for (const Cell &Want : Cells) {
    RunConfig C;
    C.Seed = 2021;
    C.BudgetSeconds = 60;
    C.RecordTests = size_t(1) << 20;
    ASSERT_TRUE(applyVariant(Want.Variant, C));
    RunResult R = S.runOne(Want.Crate, C);
    ASSERT_EQ(R.Db.records().size(), R.Synthesized);
    uint64_t Digest = streamDigest(R);
    EXPECT_EQ(R.Synthesized, Want.Programs) << Want.Crate << " "
                                            << Want.Variant;
    EXPECT_EQ(Digest, Want.Digest)
        << Want.Crate << " " << Want.Variant << ": {\"" << Want.Crate
        << "\", \"" << Want.Variant << "\", " << R.Synthesized << ", 0x"
        << std::hex << Digest << "ULL},";
  }
}

TEST(SessionTest, AdjacentSeedsDriveDifferentSearches) {
  // crossbeam-utils has no more library APIs than a run selects, so
  // seeds 2020 and 2021 select the same APIs and only the solver seed
  // tells their runs apart. A seed scramble that maps 2k and 2k+1 to one
  // solver state runs one search for both.
  Session S;
  const crates::CrateSpec &Spec = *S.find("crossbeam-utils");
  RunConfig C;
  C.BudgetSeconds = 60;
  C.RecordTests = size_t(1) << 20;
  auto Analysis = S.analysisFor(Spec);
  C.Seed = 2020;
  RunSetup Even(Spec, *Analysis, C);
  RunResult A = S.runOne("crossbeam-utils", C);
  C.Seed = 2021;
  RunSetup Odd(Spec, *Analysis, C);
  RunResult B = S.runOne("crossbeam-utils", C);
  ASSERT_EQ(Even.Inst->Db.activeIds(), Odd.Inst->Db.activeIds());
  ASSERT_GT(A.Synthesized, 0u);
  EXPECT_NE(streamDigest(A), streamDigest(B));
}

TEST(SessionTest, SupportedCratesMatchRegistry) {
  Session S;
  std::vector<std::string> Names = S.supportedCrates();
  EXPECT_FALSE(Names.empty());
  std::set<std::string> Unique(Names.begin(), Names.end());
  EXPECT_EQ(Unique.size(), Names.size());
  for (const std::string &Name : Names) {
    const crates::CrateSpec *Spec = S.find(Name);
    ASSERT_NE(Spec, nullptr) << Name;
    EXPECT_TRUE(Spec->Info.SupportsSynthesis) << Name;
  }
}

//===----------------------------------------------------------------------===//
// Merged multi-lane traces.
//===----------------------------------------------------------------------===//

TEST(CampaignTest, MergedTraceHasOneNamedLanePerWorker) {
  Session S;
  CampaignSpec Spec;
  Spec.Crates = {"slab", "base16"};
  Spec.SeedBegin = 2021;
  Spec.SeedEnd = 2022;
  Spec.Base = quickBase();
  Spec.Jobs = 2;
  Spec.Trace = true;
  CampaignResult R = CampaignRunner(S, Spec).run();
  ASSERT_FALSE(R.MergedTraceJson.empty());
  json::ParseResult P = json::parse(R.MergedTraceJson);
  ASSERT_TRUE(P.Ok) << P.Error;
  const json::Value &Events = P.Val.get("traceEvents");
  ASSERT_EQ(Events.kind(), json::Value::Kind::Array);
  std::set<int64_t> Lanes;
  std::set<std::string> LaneNames;
  for (size_t I = 0; I < Events.size(); ++I) {
    const json::Value &E = Events.at(I);
    Lanes.insert(E.get("tid").asInt());
    if (E.get("ph").asString() == "M" &&
        E.get("name").asString() == "thread_name")
      LaneNames.insert(E.get("args").get("name").asString());
  }
  EXPECT_EQ(Lanes, (std::set<int64_t>{0, 1}));
  EXPECT_EQ(LaneNames,
            (std::set<std::string>{"worker-0", "worker-1"}));
}

//===----------------------------------------------------------------------===//
// The job pool campaigns and audits share.
//===----------------------------------------------------------------------===//

TEST(CampaignPoolTest, RunsEveryLiveIndexExactlyOnce) {
  for (size_t N : {0, 1, 5, 17}) {
    const std::vector<size_t> Live = sparseIndices(N);
    const size_t Span = Live.empty() ? 1 : Live.back() + 2;
    for (int Jobs : {1, 2, 4, 8}) {
      std::vector<std::atomic<int>> Runs(Span);
      std::vector<obs::Recorder> Recs = runJobPool(
          Live, Jobs, /*Trace=*/false,
          [&](size_t Index, int Worker, obs::Recorder &Rec) {
            EXPECT_EQ(Rec.tracer().lane(), Worker);
            ASSERT_LT(Index, Span);
            ++Runs[Index];
          });
      const std::set<size_t> LiveSet(Live.begin(), Live.end());
      for (size_t I = 0; I < Span; ++I)
        EXPECT_EQ(Runs[I].load(), LiveSet.count(I) ? 1 : 0)
            << "index " << I << ", " << N << " live, jobs " << Jobs;
      ASSERT_EQ(Recs.size(), std::max<size_t>(
                                 1, std::min<size_t>(Jobs, Live.size())))
          << N << " live, jobs " << Jobs;
      for (size_t W = 0; W < Recs.size(); ++W)
        EXPECT_EQ(Recs[W].tracer().lane(), static_cast<int>(W));
    }
  }
}

TEST(CampaignPoolTest, OneWorkerRunsInlineNewestFirst) {
  const std::vector<size_t> Live = sparseIndices(5);
  std::vector<size_t> Order;
  std::set<std::thread::id> Threads;
  runJobPool(Live, 1, /*Trace=*/false,
             [&](size_t Index, int Worker, obs::Recorder &) {
               EXPECT_EQ(Worker, 0);
               Order.push_back(Index);
               Threads.insert(std::this_thread::get_id());
             });
  // The owner pops its own deque from the back.
  EXPECT_EQ(Order, std::vector<size_t>(Live.rbegin(), Live.rend()));
  EXPECT_EQ(Threads, std::set<std::thread::id>{std::this_thread::get_id()});
}

TEST(CampaignPoolTest, RecordersTraceOnlyWhenAsked) {
  const std::vector<size_t> Live = sparseIndices(5);
  for (bool Trace : {false, true}) {
    std::atomic<size_t> Counted = 0;
    std::vector<obs::Recorder> Recs =
        runJobPool(Live, 2, Trace, [&](size_t, int, obs::Recorder &Rec) {
          Rec.instant("pool.job", "test");
          Rec.count("pool.jobs");
          // Counters are recorded either way, and each job finds only
          // its own: the worker's metrics are reset before every job.
          const std::map<std::string, uint64_t> Mine =
              Rec.metrics().counterValues();
          if (Mine == std::map<std::string, uint64_t>{{"pool.jobs", 1}})
            ++Counted;
        });
    size_t Events = 0;
    for (obs::Recorder &Rec : Recs)
      Events += Rec.tracer().events().size();
    EXPECT_EQ(Events, Trace ? Live.size() : 0u) << "trace " << Trace;
    EXPECT_EQ(Counted.load(), Live.size()) << "trace " << Trace;
  }
}

TEST(CampaignTest, TraceOffLeavesMergedTraceEmpty) {
  Session S;
  CampaignSpec Spec;
  Spec.Crates = {"slab"};
  Spec.Base = quickBase();
  CampaignResult R = CampaignRunner(S, Spec).run();
  EXPECT_TRUE(R.MergedTraceJson.empty());
}

} // namespace
