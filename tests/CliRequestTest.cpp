//===--- CliRequestTest.cpp - Unified request API tests -------------------===//
//
// Part of SyRust-CPP (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
//
// The cli library is the single construction path for every request the
// framework executes — `syrust` argv and the serve protocol both go
// through its option table. These tests pin the properties that make
// that worth having: one specific message per bad field, and argv/JSON
// agreement by construction (argvToRequestJson output decodes to the
// same spec parseArgv produced).
//
//===----------------------------------------------------------------------===//

#include "cli/RequestSpec.h"

#include "cli/Execute.h"
#include "core/ResultJson.h"
#include "core/Session.h"

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>

using namespace syrust;
using namespace syrust::cli;

namespace {

RequestSpec parseOk(Verb V, std::vector<const char *> Argv) {
  RequestSpec Spec;
  std::vector<std::string> Errors;
  bool Ok = parseArgv(V, static_cast<int>(Argv.size()), Argv.data(), Spec,
                      Errors);
  EXPECT_TRUE(Ok) << (Errors.empty() ? "" : Errors.front());
  return Spec;
}

std::vector<std::string> parseErrors(Verb V,
                                     std::vector<const char *> Argv) {
  RequestSpec Spec;
  std::vector<std::string> Errors;
  EXPECT_FALSE(parseArgv(V, static_cast<int>(Argv.size()), Argv.data(),
                         Spec, Errors));
  return Errors;
}

bool mentions(const std::vector<std::string> &Errors,
              const std::string &Needle) {
  for (const std::string &E : Errors)
    if (E.find(Needle) != std::string::npos)
      return true;
  return false;
}

TEST(CliRequestTest, ExitCodesAreTheDocumentedContract) {
  // docs/SERVE.md and the usage text promise these numbers; scripts
  // depend on them.
  EXPECT_EQ(0, ExitOk);
  EXPECT_EQ(1, ExitFinding);
  EXPECT_EQ(2, ExitUsage);
  EXPECT_EQ(3, ExitRuntime);
}

TEST(CliRequestTest, VerbNamesRoundTrip) {
  for (Verb V : {Verb::List, Verb::Run, Verb::Campaign, Verb::Audit,
                 Verb::Coverage, Verb::Report, Verb::Serve}) {
    Verb Back;
    ASSERT_TRUE(verbFromName(verbName(V), Back)) << verbName(V);
    EXPECT_EQ(static_cast<int>(V), static_cast<int>(Back));
  }
  Verb V;
  EXPECT_FALSE(verbFromName("bogus", V));
  EXPECT_FALSE(verbFromName("", V));
}

TEST(CliRequestTest, RunArgvParses) {
  RequestSpec Spec = parseOk(
      Verb::Run, {"slab", "--budget", "25", "--seed", "7", "--portfolio",
                  "--trace-out", "t.json", "--json"});
  EXPECT_EQ(Verb::Run, Spec.V);
  EXPECT_EQ("slab", Spec.Run.Crate);
  EXPECT_EQ(25.0, Spec.Run.Config.BudgetSeconds);
  EXPECT_EQ(7u, Spec.Run.Config.Seed);
  EXPECT_TRUE(Spec.Run.Config.Portfolio);
  EXPECT_EQ("t.json", Spec.Out.TraceOut);
  EXPECT_TRUE(Spec.Out.Json);
}

TEST(CliRequestTest, CampaignArgvParses) {
  RequestSpec Spec = parseOk(
      Verb::Campaign,
      {"--crates", "slab,bytes", "--seeds", "3..5", "--variants",
       "base,portfolio", "--jobs", "4", "--budget", "9", "--out", "d",
       "--checkpoint", "ck.jsonl"});
  EXPECT_EQ(Verb::Campaign, Spec.V);
  ASSERT_EQ(2u, Spec.Campaign.Spec.Crates.size());
  EXPECT_EQ("slab", Spec.Campaign.Spec.Crates[0]);
  EXPECT_EQ(3u, Spec.Campaign.Spec.SeedBegin);
  EXPECT_EQ(5u, Spec.Campaign.Spec.SeedEnd);
  ASSERT_EQ(2u, Spec.Campaign.Spec.Variants.size());
  EXPECT_EQ(4, Spec.Campaign.Spec.Jobs);
  EXPECT_EQ(9.0, Spec.Campaign.Spec.Base.BudgetSeconds);
  EXPECT_EQ("d", Spec.Out.OutDir);
  EXPECT_EQ("ck.jsonl", Spec.Campaign.CheckpointPath);
}

TEST(CliRequestTest, AuditArgvParses) {
  // The run settings an audit takes land in the RunConfig it replays;
  // the audit's own settings beside it.
  RequestSpec Spec = parseOk(
      Verb::Audit, {"--crates", "slab", "--seeds", "3..5", "--apis", "10",
                    "--strategy", "cegar", "--portfolio",
                    "--no-graph-prune", "--max-lines", "3", "--max-models",
                    "100", "--weaken-kills"});
  EXPECT_EQ(Verb::Audit, Spec.V);
  const oracle::OracleConfig &Base = Spec.Audit.Spec.Base;
  EXPECT_EQ(10, Base.Run.NumApis);
  EXPECT_EQ("cegar", Base.Run.Strategy);
  EXPECT_TRUE(Base.Run.Portfolio);
  EXPECT_FALSE(Base.Run.GraphPrune);
  EXPECT_EQ(3, Base.Audit.MaxLines);
  EXPECT_TRUE(Base.Audit.WeakenConsumptionKills);
  EXPECT_EQ(100u, Base.MaxModels);
  EXPECT_EQ(3u, Spec.Audit.Spec.SeedBegin);
  EXPECT_EQ(5u, Spec.Audit.Spec.SeedEnd);
}

TEST(CliRequestTest, OneSpecificMessagePerBadField) {
  // Three independent mistakes → three messages, each naming its field.
  std::vector<std::string> Errors = parseErrors(
      Verb::Campaign,
      {"--budget", "nope", "--seeds", "9..3", "--bogus-flag"});
  EXPECT_EQ(3u, Errors.size());
  EXPECT_TRUE(mentions(Errors, "--budget")) << Errors.front();
  EXPECT_TRUE(mentions(Errors, "--seeds"));
  EXPECT_TRUE(mentions(Errors, "--bogus-flag"));
}

TEST(CliRequestTest, FlagsAreScopedToTheirVerbs) {
  // --checkpoint belongs to campaign alone; run must name the rejected
  // flag, not silently eat it.
  EXPECT_TRUE(mentions(
      parseErrors(Verb::Run, {"slab", "--checkpoint", "x.jsonl"}),
      "--checkpoint"));
  EXPECT_TRUE(
      mentions(parseErrors(Verb::Coverage, {"f.json", "--budget", "3"}),
               "--budget"));
  // --top belongs to coverage alone.
  EXPECT_TRUE(mentions(parseErrors(Verb::Run, {"slab", "--top", "3"}),
                       "--top"));
}

TEST(CliRequestTest, MissingValuesAndPositionals) {
  EXPECT_TRUE(
      mentions(parseErrors(Verb::Run, {"slab", "--budget"}), "--budget"));
  EXPECT_TRUE(mentions(parseErrors(Verb::Run, {}), "crate"));
  EXPECT_TRUE(mentions(parseErrors(Verb::Report, {}), "file"));
  EXPECT_TRUE(
      mentions(parseErrors(Verb::Run, {"slab", "extra"}), "extra"));
}

TEST(CliRequestTest, JsonRequestDecodes) {
  json::ParseResult P = json::parse(
      "{\"verb\":\"campaign\",\"crates\":\"slab,bytes\","
      "\"seeds\":\"3..5\",\"jobs\":4,\"budget\":9,\"out\":\"d\"}");
  ASSERT_TRUE(P.Ok);
  RequestSpec Spec;
  std::vector<std::string> Errors;
  ASSERT_TRUE(fromRequestJson(P.Val, Spec, Errors))
      << (Errors.empty() ? "" : Errors.front());
  EXPECT_EQ(Verb::Campaign, Spec.V);
  ASSERT_EQ(2u, Spec.Campaign.Spec.Crates.size());
  EXPECT_EQ(3u, Spec.Campaign.Spec.SeedBegin);
  EXPECT_EQ(5u, Spec.Campaign.Spec.SeedEnd);
  EXPECT_EQ(4, Spec.Campaign.Spec.Jobs);
  EXPECT_EQ("d", Spec.Out.OutDir);
}

TEST(CliRequestTest, JsonRequestRejectsBadMembers) {
  // Unknown member, wrong type, and wire-invalid verbs each get one
  // specific message.
  auto decodeErrors = [](const std::string &Text) {
    json::ParseResult P = json::parse(Text);
    EXPECT_TRUE(P.Ok);
    RequestSpec Spec;
    std::vector<std::string> Errors;
    EXPECT_FALSE(fromRequestJson(P.Val, Spec, Errors));
    return Errors;
  };
  EXPECT_TRUE(mentions(
      decodeErrors("{\"verb\":\"run\",\"crate\":\"slab\",\"bogus\":1}"),
      "bogus"));
  EXPECT_TRUE(mentions(
      decodeErrors(
          "{\"verb\":\"run\",\"crate\":\"slab\",\"budget\":\"ten\"}"),
      "budget"));
  EXPECT_TRUE(
      mentions(decodeErrors("{\"verb\":\"serve\",\"socket\":\"s\"}"),
               "verb"));
  EXPECT_TRUE(mentions(decodeErrors("{\"crates\":\"slab\"}"), "verb"));
  // --connect is how a request reaches a daemon, not something a daemon
  // forwards to itself.
  EXPECT_TRUE(mentions(
      decodeErrors(
          "{\"verb\":\"run\",\"crate\":\"slab\",\"connect\":\"s\"}"),
      "connect"));
}

TEST(CliRequestTest, RemovedOptionsAreUnknownOnBothSurfaces) {
  // Every run chains onto the shared compatibility matrix and marks
  // API-pair coverage; neither has an off switch.
  for (const std::string Key : {"no-compat-cache", "no-api-coverage"}) {
    const std::string Flag = "--" + Key;
    EXPECT_TRUE(mentions(parseErrors(Verb::Run, {"slab", Flag.c_str()}),
                         "unknown flag '" + Flag + "'"));
    EXPECT_TRUE(mentions(parseErrors(Verb::Campaign, {Flag.c_str()}),
                         "unknown flag '" + Flag + "'"));
    for (const std::string &Request :
         {"{\"verb\":\"run\",\"crate\":\"slab\",\"" + Key + "\":true}",
          "{\"verb\":\"campaign\",\"" + Key + "\":true}"}) {
      json::ParseResult P = json::parse(Request);
      ASSERT_TRUE(P.Ok);
      RequestSpec Spec;
      std::vector<std::string> Errors;
      EXPECT_FALSE(fromRequestJson(P.Val, Spec, Errors));
      EXPECT_TRUE(mentions(Errors, "unknown request field '" + Key + "'"))
          << Request;
    }
  }
}

TEST(CliRequestTest, ArgvAndJsonSurfacesAgree) {
  // The no-drift property: render argv as a protocol request, decode
  // it, and the spec must match what parseArgv produced directly.
  struct Case {
    Verb V;
    std::vector<const char *> Argv;
  };
  const Case Cases[] = {
      {Verb::Run,
       {"slab", "--budget", "25", "--seed", "7", "--portfolio",
        "--stop-on-bug", "--max-tests", "50", "--json"}},
      {Verb::Campaign,
       {"--crates", "slab,bytes", "--seeds", "3..5", "--variants",
        "base,portfolio", "--jobs", "4", "--budget", "9", "--out", "d",
        "--coverage-out", "c.json"}},
      {Verb::Audit,
       {"--crates", "slab", "--seeds", "2..4", "--max-models", "100",
        "--weaken-kills", "--apis", "10", "--strategy", "cegar",
        "--portfolio", "--no-graph-prune", "--max-lines", "3", "--out",
        "a"}},
      {Verb::Coverage, {"c.json", "--top", "3"}},
  };
  for (const Case &C : Cases) {
    RequestSpec Direct;
    std::vector<std::string> Errors;
    ASSERT_TRUE(parseArgv(C.V, static_cast<int>(C.Argv.size()),
                          C.Argv.data(), Direct, Errors));

    json::Value Wire;
    ASSERT_TRUE(argvToRequestJson(C.V, static_cast<int>(C.Argv.size()),
                                  C.Argv.data(), Wire, Errors));
    // The wire form must decode cleanly after a JSON round trip, as it
    // would over the socket.
    json::ParseResult P = json::parse(Wire.dump());
    ASSERT_TRUE(P.Ok);
    RequestSpec ViaWire;
    ASSERT_TRUE(fromRequestJson(P.Val, ViaWire, Errors))
        << (Errors.empty() ? "" : Errors.front());

    EXPECT_EQ(static_cast<int>(Direct.V), static_cast<int>(ViaWire.V));
    // Each verb's RunConfig compares whole, through its canonical
    // rendering; the rest of the spec compares field by field.
    EXPECT_EQ(core::runConfigToJson(Direct.Run.Config).dump(),
              core::runConfigToJson(ViaWire.Run.Config).dump());
    EXPECT_EQ(core::runConfigToJson(Direct.Campaign.Spec.Base).dump(),
              core::runConfigToJson(ViaWire.Campaign.Spec.Base).dump());
    EXPECT_EQ(core::runConfigToJson(Direct.Audit.Spec.Base.Run).dump(),
              core::runConfigToJson(ViaWire.Audit.Spec.Base.Run).dump());
    EXPECT_EQ(Direct.Run.Crate, ViaWire.Run.Crate);
    EXPECT_EQ(Direct.Campaign.Spec.Crates, ViaWire.Campaign.Spec.Crates);
    EXPECT_EQ(Direct.Campaign.Spec.SeedBegin,
              ViaWire.Campaign.Spec.SeedBegin);
    EXPECT_EQ(Direct.Campaign.Spec.SeedEnd, ViaWire.Campaign.Spec.SeedEnd);
    EXPECT_EQ(Direct.Campaign.Spec.Variants,
              ViaWire.Campaign.Spec.Variants);
    EXPECT_EQ(Direct.Campaign.Spec.Jobs, ViaWire.Campaign.Spec.Jobs);
    EXPECT_EQ(Direct.Audit.Spec.Crates, ViaWire.Audit.Spec.Crates);
    EXPECT_EQ(Direct.Audit.Spec.Base.MaxModels,
              ViaWire.Audit.Spec.Base.MaxModels);
    EXPECT_EQ(Direct.Audit.Spec.Base.Audit.MaxLines,
              ViaWire.Audit.Spec.Base.Audit.MaxLines);
    EXPECT_EQ(Direct.Audit.Spec.Base.Audit.WeakenConsumptionKills,
              ViaWire.Audit.Spec.Base.Audit.WeakenConsumptionKills);
    EXPECT_EQ(Direct.Coverage.File, ViaWire.Coverage.File);
    EXPECT_EQ(Direct.Coverage.Top, ViaWire.Coverage.Top);
    EXPECT_EQ(Direct.Out.OutDir, ViaWire.Out.OutDir);
    EXPECT_EQ(Direct.Out.CoverageOut, ViaWire.Out.CoverageOut);
    EXPECT_EQ(Direct.Out.Json, ViaWire.Out.Json);
  }
}

TEST(CliRequestTest, NumbersOutsideTheirDomainFailOnBothSurfaces) {
  // Every value lies outside its option's domain: argv names the flag
  // and the wire the field, with the same problem.
  struct Case {
    Verb V;
    const char *Flag, *Text;
    double Val;
    const char *Problem;
  };
  const Case Cases[] = {
      {Verb::Run, "--seed", "nan", std::nan(""), "must be a finite number"},
      {Verb::Campaign, "--jobs", "nan", std::nan(""),
       "must be a finite number"},
      {Verb::Campaign, "--budget", "inf", HUGE_VAL,
       "must be a finite number"},
      {Verb::Run, "--budget", "-1", -1, "must be non-negative"},
      {Verb::Audit, "--max-models", "0.5", 0.5, "must be an integer"},
      {Verb::Campaign, "--jobs", "3e9", 3e9, "must be at most 2147483647"},
      // 2^53 + 1 reads as 2^53 on both surfaces, so 2^53 is out too.
      {Verb::Run, "--seed", "9007199254740993", 9007199254740993.0,
       "must be at most 9007199254740991"},
  };
  auto WireErrors = [](const json::Value &Request) {
    RequestSpec Spec;
    std::vector<std::string> Errors;
    EXPECT_FALSE(fromRequestJson(Request, Spec, Errors));
    return Errors;
  };
  for (const Case &C : Cases) {
    std::vector<const char *> Argv = {C.Flag, C.Text};
    json::Value Request = json::Value::object();
    Request.set("verb", json::Value::string(verbName(C.V)));
    if (C.V == Verb::Run) {
      Argv.insert(Argv.begin(), "slab");
      Request.set("crate", json::Value::string("slab"));
    }
    Request.set(C.Flag + 2, json::Value::number(C.Val));
    EXPECT_TRUE(mentions(parseErrors(C.V, Argv), std::string(C.Flag) + " " +
                                                     C.Problem + ", got '" +
                                                     C.Text + "'"))
        << C.Flag << " " << C.Text;
    EXPECT_TRUE(mentions(WireErrors(Request), std::string("field '") +
                                                  (C.Flag + 2) + "' " +
                                                  C.Problem))
        << C.Flag << " " << C.Text;
  }
  // Seed ranges share the ceiling, and "-1" no longer wraps around.
  for (const char *Range : {"9007199254740992", "1..9007199254740993", "-1"}) {
    EXPECT_TRUE(mentions(parseErrors(Verb::Campaign, {"--seeds", Range}),
                         "--seeds"))
        << Range;
    json::Value Request = json::Value::object();
    Request.set("verb", json::Value::string("audit"));
    Request.set("seeds", json::Value::string(Range));
    EXPECT_TRUE(mentions(WireErrors(Request), "--seeds")) << Range;
  }
  // The edges of each domain still parse.
  RequestSpec Edge = parseOk(Verb::Campaign,
                             {"--jobs", "2147483647", "--budget", "0.5",
                              "--seeds", "0..9007199254740991"});
  EXPECT_EQ(2147483647, Edge.Campaign.Spec.Jobs);
  EXPECT_EQ(9007199254740991u, Edge.Campaign.Spec.SeedEnd);
  EXPECT_EQ(9007199254740991u,
            parseOk(Verb::Run, {"slab", "--seed", "9007199254740991"})
                .Run.Config.Seed);
}

TEST(CliRequestTest, ConnectIsClientSideOnly) {
  // --connect parses (the CLI routes on it) but never reaches the wire
  // form argvToRequestJson produces.
  std::vector<const char *> Argv = {"slab", "--budget", "5", "--connect",
                                    "/tmp/sock"};
  RequestSpec Spec = parseOk(Verb::Run, Argv);
  EXPECT_EQ("/tmp/sock", Spec.Connect);

  json::Value Wire;
  std::vector<std::string> Errors;
  ASSERT_TRUE(argvToRequestJson(Verb::Run,
                                static_cast<int>(Argv.size()),
                                Argv.data(), Wire, Errors));
  EXPECT_FALSE(Wire.has("connect"));
  EXPECT_EQ("run", Wire.get("verb").asString());
}

TEST(CliRequestTest, FinalizeCrossFieldRules) {
  core::Session S;
  {
    // --trace-wall without --trace-out: nothing to stamp.
    RequestSpec Spec =
        parseOk(Verb::Run, {"slab", "--trace-wall"});
    EXPECT_TRUE(mentions(finalize(S, Spec), "--trace-out"));
  }
  {
    // --trace without --out: merged trace has nowhere to go.
    RequestSpec Spec = parseOk(Verb::Campaign, {"--trace"});
    EXPECT_TRUE(mentions(finalize(S, Spec), "--out"));
  }
  {
    // Checkpointed cells carry no trace events, so resume cannot
    // reconstruct a merged trace: refuse the combination.
    RequestSpec Spec = parseOk(
        Verb::Campaign,
        {"--checkpoint", "ck.jsonl", "--trace", "--out", "d"});
    EXPECT_TRUE(mentions(finalize(S, Spec), "--checkpoint"));
  }
  {
    RequestSpec Spec = parseOk(Verb::Serve, {});
    EXPECT_TRUE(mentions(finalize(S, Spec), "--socket"));
  }
  {
    RequestSpec Spec = parseOk(Verb::Run, {"no_such_crate"});
    EXPECT_TRUE(mentions(finalize(S, Spec), "no_such_crate"));
  }
  {
    RequestSpec Spec = parseOk(Verb::Run, {"slab", "--strategy", "nope"});
    EXPECT_TRUE(mentions(finalize(S, Spec), "known:"));
  }
}

TEST(CliRequestTest, FinalizeExpandsAllCrates) {
  core::Session S;
  RequestSpec Spec = parseOk(Verb::Campaign, {"--budget", "3"});
  ASSERT_TRUE(finalize(S, Spec).empty());
  // Empty --crates means every synthesis-supporting crate.
  EXPECT_EQ(S.supportedCrates().size(), Spec.Campaign.Spec.Crates.size());

  RequestSpec Explicit =
      parseOk(Verb::Campaign, {"--crates", "all", "--budget", "3"});
  ASSERT_TRUE(finalize(S, Explicit).empty());
  EXPECT_EQ(Spec.Campaign.Spec.Crates, Explicit.Campaign.Spec.Crates);
}

TEST(CliRequestTest, CheckpointFromTheRestartingEnumeratorIsRefused) {
  // The fingerprints earlier binaries wrote for exactly this campaign:
  // the one that restarted from the root for every model (epoch 1), the
  // one that rebuilt encodings after bans and replayed their blocked
  // models (epoch 2), and the one whose compat counters also counted
  // joint probes and whose cell lines carried counters of earlier jobs
  // on the same worker (epoch 3). Their cells came from different
  // program streams or record counters with another meaning, so a resume
  // must be refused, not mixed into the new aggregate.
  for (const char *Fingerprint :
       {"4d1d18a5ddfd0669", "61f27a36dff8a9dc", "deab3a916fca9705"}) {
    const std::string Path = testing::TempDir() + "/restarting_enum.jsonl";
    {
      std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
      Out << "{\"fingerprint\":\"" << Fingerprint
          << "\",\"kind\":\"campaign_checkpoint\",\"schema_version\":5}\n";
    }
    core::Session S;
    RequestSpec Spec = parseOk(Verb::Campaign,
                               {"--crates", "slab", "--seeds", "2021",
                                "--budget", "8", "--checkpoint", Path.c_str()});
    ASSERT_TRUE(finalize(S, Spec).empty());
    Response R = execute(S, Spec);
    EXPECT_EQ(ExitUsage, R.ExitCode) << Fingerprint;
    EXPECT_NE(std::string::npos, R.Error.find("different campaign"))
        << R.Error;
    EXPECT_NE(std::string::npos, R.Error.find(Fingerprint)) << R.Error;
  }
}

} // namespace
