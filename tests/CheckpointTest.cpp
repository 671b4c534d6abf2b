//===--- CheckpointTest.cpp - Campaign checkpoint/resume tests ------------===//
//
// Part of SyRust-CPP (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
//
// The checkpoint contract: a campaign killed at any cell boundary (or
// mid-append — SIGKILL tears the final line) resumes to an aggregate
// byte-identical to an uninterrupted run's. These tests drive the
// pieces — fingerprints, the JSONL writer/loader, the torn-tail rule,
// and RunResult JSON round-tripping — then prove the headline property
// end to end through CampaignRunner::preload.
//
//===----------------------------------------------------------------------===//

#include "campaign/Checkpoint.h"

#include "campaign/Campaign.h"
#include "core/ResultJson.h"
#include "core/Session.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

using namespace syrust;
using namespace syrust::campaign;

namespace {

CampaignSpec smallSpec() {
  CampaignSpec Spec;
  Spec.Crates = {"slab", "bytes"};
  Spec.SeedBegin = 2021;
  Spec.SeedEnd = 2022;
  Spec.Variants = {"base", "no-semantic"};
  Spec.Base.BudgetSeconds = 8;
  return Spec;
}

std::string tempPath(const std::string &Name) {
  return testing::TempDir() + "/" + Name;
}

std::string slurp(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream Out;
  Out << In.rdbuf();
  return Out.str();
}

/// Writes a checkpoint whose one cell line holds \p Result and
/// \p Counters, loads it, and returns why the loader refused the line
/// (empty when it was accepted). The file is named after the running
/// test, since ctest runs test cases in parallel.
std::string refusalOfCell(json::Value Result, json::Value Counters) {
  json::Value Line = json::Value::object();
  Line.set("index", json::Value::integer(0));
  Line.set("result", std::move(Result));
  Line.set("counters", std::move(Counters));
  const std::string Path = tempPath(
      std::string(
          testing::UnitTest::GetInstance()->current_test_info()->name()) +
      ".jsonl");
  {
    std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
    Out << "{\"fingerprint\":\"0\",\"kind\":\"campaign_checkpoint\","
           "\"schema_version\":5}\n"
        << Line.dump() << "\n";
  }
  CheckpointData Data;
  std::string Err;
  EXPECT_TRUE(loadCheckpoint(Path, Data, Err)) << Err;
  EXPECT_TRUE(Data.TornTail.empty());
  EXPECT_EQ(Data.Refused.empty(), Data.Cells.size() == 1);
  return Data.Refused;
}

TEST(CheckpointTest, FingerprintIgnoresPoolWidthOnly) {
  CampaignSpec Spec = smallSpec();
  const std::string Base = specFingerprint(Spec);
  EXPECT_EQ(16u, Base.size());

  // Jobs and Trace never affect results, so they must not affect the
  // fingerprint: a checkpoint taken at --jobs 8 resumes at --jobs 1.
  CampaignSpec Wider = smallSpec();
  Wider.Jobs = 8;
  Wider.Trace = true;
  EXPECT_EQ(Base, specFingerprint(Wider));

  // Everything result-determining must perturb it.
  CampaignSpec C = smallSpec();
  C.Crates = {"slab"};
  EXPECT_NE(Base, specFingerprint(C));
  C = smallSpec();
  C.SeedEnd = 2023;
  EXPECT_NE(Base, specFingerprint(C));
  C = smallSpec();
  C.Variants = {"base"};
  EXPECT_NE(Base, specFingerprint(C));
  C = smallSpec();
  C.Base.BudgetSeconds = 9;
  EXPECT_NE(Base, specFingerprint(C));
  C = smallSpec();
  C.Base.Portfolio = true;
  EXPECT_NE(Base, specFingerprint(C));
}

TEST(CheckpointTest, ResultJsonRoundTripsByteIdentically) {
  // The property the whole design leans on: parsing a rendered result
  // and re-rendering it reproduces the bytes. (Object keys render
  // sorted; numbers render canonically.)
  core::Session S;
  core::RunConfig Config;
  Config.BudgetSeconds = 8;
  core::RunResult R = S.runOne("slab", Config);

  core::ResultJsonOptions NoWall;
  NoWall.HostWallTime = false;
  const std::string Once = core::resultToJson(R, NoWall).dump();
  json::ParseResult P = json::parse(Once);
  ASSERT_TRUE(P.Ok) << P.Error;
  core::RunResult Back;
  std::string Err;
  ASSERT_TRUE(core::resultFromJson(P.Val, Back, Err)) << Err;
  EXPECT_EQ(Once, core::resultToJson(Back, NoWall).dump());

  // Schema-5 documents written before the rebuild-and-replay path was
  // deleted carry one more synthesis key, models_reblocked; readers must
  // still load them, and the key drops out on re-render.
  json::Value Old = P.Val;
  json::Value Synth = Old.get("synthesis");
  Synth.set("models_reblocked", json::Value::integer(0));
  Old.set("synthesis", std::move(Synth));
  core::RunResult FromOld;
  ASSERT_TRUE(core::resultFromJson(Old, FromOld, Err)) << Err;
  EXPECT_EQ(Once, core::resultToJson(FromOld, NoWall).dump());
}

TEST(CheckpointTest, MistypedValuesAreRefusedByName) {
  // A checkpoint cell whose count, minimized bug or wall time has the
  // wrong JSON kind must fail with the key's name (resume exits 2), not
  // load as zero and shrink the resumed aggregate.
  core::RunResult R;
  R.Crate = "slab";
  R.ByCategory[rustsim::ErrorCategory::Type] = 47;
  R.ByDetail[rustsim::ErrorDetail::TraitBound] = 47;
  R.BugFound = true;
  R.FirstBug.Kind = miri::UbKind::MemoryLeak;
  R.BugLines = 3;
  R.MinimizedLines = 2;
  R.MinimizedProgram = "let v1 = f(x);";
  const json::Value Good = core::resultToJson(R);
  core::RunResult Back;
  std::string Err;
  ASSERT_TRUE(core::resultFromJson(Good, Back, Err)) << Err;
  EXPECT_EQ(2, Back.MinimizedLines);

  // Replaces Section.Key (or the top-level Key) with Bad and expects the
  // reader to refuse the document, naming Key.
  auto ExpectRefused = [&](const char *Section, const char *Key,
                           json::Value Bad) {
    json::Value Doc = Good;
    json::Value Sec = Doc.get(Section);
    ASSERT_TRUE(Sec.has(Key)) << Section << "." << Key;
    Sec.set(Key, std::move(Bad));
    Doc.set(Section, std::move(Sec));
    core::RunResult Out;
    std::string Why;
    EXPECT_FALSE(core::resultFromJson(Doc, Out, Why))
        << Section << "." << Key << " was accepted";
    EXPECT_NE(std::string::npos, Why.find(std::string("'") + Key + "'"))
        << Why;
  };
  ExpectRefused("by_category", "Type", json::Value::string("47"));
  ExpectRefused("by_detail", "trait", json::Value::string("47"));
  ExpectRefused("bug", "minimized_lines", json::Value::string("2"));
  ExpectRefused("bug", "minimized_program", json::Value::integer(2));
  ExpectRefused("synthesis", "build_wall_seconds",
                json::Value::string("0.5"));
  ExpectRefused("synthesis", "solve_wall_seconds", json::Value::boolean(true));

  // In a checkpoint file the refused cell is complete, so it is not a
  // torn append: loading stops there and reports it, and a resume
  // refuses the file instead of re-running or misreading the cell. The
  // same holds for a mistyped counter.
  EXPECT_EQ("", refusalOfCell(Good, json::Value::object()));
  json::Value Bad = Good;
  json::Value Cat = Bad.get("by_category");
  Cat.set("Type", json::Value::string("47"));
  Bad.set("by_category", std::move(Cat));
  std::string Why = refusalOfCell(std::move(Bad), json::Value::object());
  EXPECT_NE(std::string::npos, Why.find("line 2")) << Why;
  EXPECT_NE(std::string::npos, Why.find("'Type'")) << Why;
  json::Value Counters = json::Value::object();
  Counters.set("compile.checks", json::Value::string("421"));
  Why = refusalOfCell(Good, std::move(Counters));
  EXPECT_NE(std::string::npos, Why.find("'compile.checks'")) << Why;
}

TEST(CheckpointTest, MistypedApiCoverageIsRefusedByName) {
  // The api_coverage section of a cell is read as strictly as the rest:
  // a number written as a string refuses the line, naming the field,
  // instead of resuming with a zero saturation time or snapshot count.
  core::RunResult R;
  R.Crate = "slab";
  R.ApiCoverage.NodesTotal = 3;
  R.ApiCoverage.EdgesTotal = 9;
  R.ApiCoverage.NodeBits = {0x5};
  R.ApiCoverage.EdgeBits = {0x1, 0x1};
  R.ApiCoverage.UnmatchedEdges = 1;
  R.ApiCoverage.Snaps = {{60, 1, 1}, {120, 2, 2}};
  R.ApiCoverage.SaturationSeconds = 120;
  const json::Value Good = core::resultToJson(R);
  ASSERT_EQ("", refusalOfCell(Good, json::Value::object()));

  // Replaces Key of the section, or of its first snapshot, with a string.
  auto Mistyped = [&](bool InSnapshot, const char *Key) {
    json::Value Doc = Good;
    json::Value Cov = Doc.get("api_coverage");
    if (InSnapshot) {
      json::Value First = Cov.get("snapshots").at(0);
      EXPECT_TRUE(First.has(Key)) << Key;
      First.set(Key, json::Value::string("25"));
      json::Value Snaps = json::Value::array();
      Snaps.push(std::move(First));
      Snaps.push(Cov.get("snapshots").at(1));
      Cov.set("snapshots", std::move(Snaps));
    } else {
      EXPECT_TRUE(Cov.has(Key)) << Key;
      Cov.set(Key, json::Value::string("x"));
    }
    Doc.set("api_coverage", std::move(Cov));
    return Doc;
  };
  for (const auto &[InSnapshot, Key] :
       std::vector<std::pair<bool, const char *>>{
           {false, "unmatched_edges"},
           {false, "saturation_seconds"},
           {true, "t"},
           {true, "nodes"},
           {true, "edges"}}) {
    const std::string Why =
        refusalOfCell(Mistyped(InSnapshot, Key), json::Value::object());
    EXPECT_NE(std::string::npos, Why.find("line 2")) << Key << ": " << Why;
    EXPECT_NE(std::string::npos,
              Why.find(std::string("field '") + Key + "' has the wrong type"))
        << Key << ": " << Why;
  }
}

TEST(CheckpointTest, EachLineCarriesOnlyItsOwnJobsCounters) {
  // One worker runs every cell, so each job follows others on the same
  // recorder; its line must still list exactly the counters a fresh
  // recorder gets from that job alone, no zero-valued keys that earlier
  // jobs registered.
  core::Session S;
  CampaignSpec Spec = smallSpec();
  const std::string Path = tempPath("ckpt_own_counters.jsonl");
  std::remove(Path.c_str());
  CampaignRunner Runner(S, Spec);
  CheckpointWriter W;
  std::string Err;
  ASSERT_TRUE(W.open(Path, Spec, Err)) << Err;
  Runner.onJobDone([&](const CampaignJobResult &JR) { W.append(JR); });
  CampaignResult Full = Runner.run();
  W.close();

  CheckpointData Data;
  ASSERT_TRUE(loadCheckpoint(Path, Data, Err)) << Err;
  ASSERT_EQ(Full.Jobs.size(), Data.Cells.size());
  for (const CampaignJobResult &JR : Full.Jobs) {
    obs::Recorder::Options Metrics;
    Metrics.Trace = false;
    obs::Recorder Alone(Metrics);
    S.runOne(JR.Job.Crate, JR.Job.Config, &Alone);
    EXPECT_EQ(Alone.metrics().counterValues(),
              Data.Cells.at(JR.Job.Index).Counters)
        << JR.Job.Crate << " " << JR.Job.Variant << " " << JR.Job.Seed;
  }
}

TEST(CheckpointTest, WriterCutsATornTailBeforeAppending) {
  // A kill mid-append leaves half a line. The next writer must cut it
  // off, or its first cell would join the torn bytes into one malformed
  // line and every later load would stop there.
  core::Session S;
  CampaignSpec Spec = smallSpec();
  const std::string Path = tempPath("ckpt_cut.jsonl");
  std::remove(Path.c_str());
  CampaignRunner First(S, Spec);
  CheckpointWriter W;
  std::string Err;
  ASSERT_TRUE(W.open(Path, Spec, Err)) << Err;
  First.onJobDone([&](const CampaignJobResult &JR) { W.append(JR); });
  CampaignResult Full = First.run();
  W.close();

  const std::string Bytes = slurp(Path);
  const size_t Cut = Bytes.size() / 2 + 3;
  {
    std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
    Out << Bytes.substr(0, Cut);
  }
  CheckpointData Torn;
  ASSERT_TRUE(loadCheckpoint(Path, Torn, Err)) << Err;
  ASSERT_FALSE(Torn.TornTail.empty());

  // Resume once: the writer keeps every complete line and appends the
  // rest of the matrix after them.
  CampaignRunner Second(S, Spec);
  Second.preload(Torn.Cells);
  ASSERT_TRUE(W.open(Path, Spec, Err)) << Err;
  EXPECT_EQ(Bytes.substr(0, Bytes.rfind('\n', Cut) + 1), slurp(Path));
  Second.onJobDone([&](const CampaignJobResult &JR) { W.append(JR); });
  Second.run();
  W.close();

  CheckpointData Again;
  ASSERT_TRUE(loadCheckpoint(Path, Again, Err)) << Err;
  EXPECT_TRUE(Again.TornTail.empty());
  EXPECT_TRUE(Again.Refused.empty()) << Again.Refused;
  EXPECT_EQ(Full.Jobs.size(), Again.Cells.size());
  const std::string After = slurp(Path);
  EXPECT_EQ(1 + Full.Jobs.size(),
            static_cast<size_t>(std::count(After.begin(), After.end(), '\n')));
}

TEST(CheckpointTest, WriterLoaderRoundTrip) {
  core::Session S;
  CampaignSpec Spec = smallSpec();
  const std::string Path = tempPath("ckpt_roundtrip.jsonl");
  std::remove(Path.c_str());

  // Run the campaign once, checkpointing every cell.
  CampaignRunner Runner(S, Spec);
  CheckpointWriter W;
  std::string Err;
  ASSERT_TRUE(W.open(Path, Spec, Err)) << Err;
  size_t Appended = 0;
  Runner.onJobDone([&](const CampaignJobResult &JR) {
    W.append(JR);
    ++Appended;
  });
  CampaignResult Full = Runner.run();
  W.close();
  ASSERT_EQ(Full.Jobs.size(), Appended);

  CheckpointData Data;
  ASSERT_TRUE(loadCheckpoint(Path, Data, Err)) << Err;
  EXPECT_EQ(specFingerprint(Spec), Data.Fingerprint);
  EXPECT_EQ(Full.Jobs.size(), Data.Cells.size());
  EXPECT_TRUE(Data.TornTail.empty());

  // Every recovered cell re-renders to the same result document.
  for (const auto &[Index, Cell] : Data.Cells) {
    ASSERT_LT(Index, Full.Jobs.size());
    const CampaignJobResult &JR = Full.Jobs[Index];
    EXPECT_EQ(core::resultToJson(JR.Result).dump(),
              core::resultToJson(Cell.Result).dump());
  }
}

TEST(CheckpointTest, MissingFileAndBadHeaderAreErrors) {
  CheckpointData Data;
  std::string Err;
  EXPECT_FALSE(loadCheckpoint(tempPath("ckpt_nope.jsonl"), Data, Err));

  const std::string Bad = tempPath("ckpt_bad_header.jsonl");
  {
    std::ofstream Out(Bad, std::ios::binary);
    Out << "{\"kind\":\"something_else\"}\n";
  }
  EXPECT_FALSE(loadCheckpoint(Bad, Data, Err));
  EXPECT_NE(std::string::npos, Err.find("header"));
}

TEST(CheckpointTest, TooDeepLinesAreRefusedNotTakenForTorn) {
  // No line of ours nests near the parser's limit, torn or whole, so a
  // deep line (header or cell) refuses the file, naming line and offset.
  const std::string Deep(100000, '[');
  const std::string Path = tempPath("ckpt_deep.jsonl");
  for (const std::string &Text : {Deep + "\n", Deep}) {
    {
      std::ofstream Out(Path, std::ios::binary);
      Out << Text;
    }
    CheckpointData Data;
    std::string Err;
    ASSERT_TRUE(loadCheckpoint(Path, Data, Err)) << Err;
    EXPECT_EQ(Data.Refused,
              "checkpoint '" + Path +
                  "' line 1: nesting deeper than 512 levels at offset 512");
    EXPECT_TRUE(Data.TornTail.empty());
  }
}

TEST(CheckpointTest, TornTailIsToleratedNotFatal) {
  core::Session S;
  CampaignSpec Spec = smallSpec();
  const std::string Path = tempPath("ckpt_torn.jsonl");
  std::remove(Path.c_str());

  CampaignRunner Runner(S, Spec);
  CheckpointWriter W;
  std::string Err;
  ASSERT_TRUE(W.open(Path, Spec, Err)) << Err;
  Runner.onJobDone([&](const CampaignJobResult &JR) { W.append(JR); });
  Runner.run();
  W.close();

  CheckpointData Whole;
  ASSERT_TRUE(loadCheckpoint(Path, Whole, Err)) << Err;
  const size_t All = Whole.Cells.size();
  ASSERT_GE(All, 2u);

  // SIGKILL mid-append: chop the file mid-way through its last line.
  std::string Bytes = slurp(Path);
  ASSERT_FALSE(Bytes.empty());
  std::string Torn = Bytes.substr(0, Bytes.size() - Bytes.size() / 8);
  ASSERT_NE(Torn, Bytes);
  {
    std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
    Out << Torn;
  }
  CheckpointData Partial;
  ASSERT_TRUE(loadCheckpoint(Path, Partial, Err)) << Err;
  EXPECT_LT(Partial.Cells.size(), All);
  EXPECT_FALSE(Partial.TornTail.empty());
}

TEST(CheckpointTest, ResumedAggregateIsByteIdentical) {
  core::Session S;
  CampaignSpec Spec = smallSpec();

  // The uninterrupted truth.
  CampaignRunner Uninterrupted(S, Spec);
  CampaignResult FullRun = Uninterrupted.run();
  const std::string Truth = campaignToJson(Spec, FullRun).dump();

  // An interrupted run: checkpoint every cell, then pretend the process
  // died and only a prefix of cells (plus a torn tail) survived.
  const std::string Path = tempPath("ckpt_resume.jsonl");
  std::remove(Path.c_str());
  {
    CampaignRunner First(S, Spec);
    CheckpointWriter W;
    std::string Err;
    ASSERT_TRUE(W.open(Path, Spec, Err)) << Err;
    First.onJobDone([&](const CampaignJobResult &JR) { W.append(JR); });
    First.run();
    W.close();
  }
  std::string Bytes = slurp(Path);
  {
    // Keep the header and roughly half the cells; tear the last kept
    // line in two to simulate the kill landing mid-append.
    std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
    Out << Bytes.substr(0, Bytes.size() / 2 + 3);
  }

  CheckpointData Data;
  std::string Err;
  ASSERT_TRUE(loadCheckpoint(Path, Data, Err)) << Err;
  ASSERT_EQ(specFingerprint(Spec), Data.Fingerprint);
  ASSERT_GT(Data.Cells.size(), 0u);
  ASSERT_LT(Data.Cells.size(), FullRun.Jobs.size());

  // Resume — at a different pool width, which must not matter.
  CampaignSpec Resumed = Spec;
  Resumed.Jobs = 3;
  CampaignRunner Second(S, Resumed);
  Second.preload(std::move(Data.Cells));
  CampaignResult Resume = Second.run();
  EXPECT_EQ(Truth, campaignToJson(Spec, Resume).dump());
}

TEST(CheckpointTest, PreloadedCellsDoNotReExecute) {
  core::Session S;
  CampaignSpec Spec = smallSpec();

  const std::string Path = tempPath("ckpt_noreexec.jsonl");
  std::remove(Path.c_str());
  CampaignRunner First(S, Spec);
  CheckpointWriter W;
  std::string Err;
  ASSERT_TRUE(W.open(Path, Spec, Err)) << Err;
  First.onJobDone([&](const CampaignJobResult &JR) { W.append(JR); });
  CampaignResult FullRun = First.run();
  W.close();

  CheckpointData Data;
  ASSERT_TRUE(loadCheckpoint(Path, Data, Err)) << Err;
  ASSERT_EQ(FullRun.Jobs.size(), Data.Cells.size());

  // Everything preloaded: the second run must execute zero live jobs.
  CampaignRunner Second(S, Spec);
  Second.preload(std::move(Data.Cells));
  size_t LiveJobs = 0;
  Second.onJobDone([&](const CampaignJobResult &) { ++LiveJobs; });
  CampaignResult Resume = Second.run();
  EXPECT_EQ(0u, LiveJobs);
  EXPECT_EQ(campaignToJson(Spec, FullRun).dump(),
            campaignToJson(Spec, Resume).dump());
}

} // namespace
