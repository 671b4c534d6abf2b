//===--- micro_prune.cpp - Graph-guided encoding pruning A/B bench --------===//
//
// Part of SyRust-CPP (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// A/B benchmark for graph-guided encoding pruning, in two parts.
///
/// Part 1 (the headline number) is a probe-dominated stress model: many
/// producers minting distinct concrete types and single-input consumers
/// each accepting exactly one of them, so candidate enumeration asks a
/// large number of per-slot probes of which most FAIL (no clause work
/// follows, the probe itself is the cost) and none are joint probes. A
/// handful of consumers take a type nothing produces, exercising the
/// dead-API pass. Both sides share one pre-warmed CompatCache (the graph
/// build populates it with exactly the encoder's renamed probe keys) and
/// the same frozen graph; the only difference is SynthOptions::GraphPrune,
/// i.e. whether a probe is an O(1) edge-table read or a memo-table lookup.
/// The rebuild-the-world refinement path (incremental refinement off,
/// interleaved lengths, a no-op database notification per round) forces
/// every round to rebuild all live encodings and re-ask the whole probe
/// workload.
///
/// Part 2 runs real library models through core::Session with the
/// --no-graph-prune escape hatch as the off side. Real-model probe
/// volume is modest, so no speedup is claimed here; this part verifies
/// end-to-end stream identity (pruning must change throughput, never
/// results) and reports production probe-avoidance rates.
///
/// Writes BENCH_prune.json. Scale part 2 with SYRUST_BUDGET (simulated
/// seconds per run, default 120) and SYRUST_SEEDS (default 3).
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "api/DependencyGraph.h"
#include "core/Session.h"
#include "report/Table.h"
#include "support/StringUtils.h"
#include "synth/Synthesizer.h"
#include "types/CompatCache.h"
#include "types/TypeParser.h"

#include <cinttypes>
#include <string>
#include <vector>

using namespace syrust;
using namespace syrust::bench;
using namespace syrust::core;
using namespace syrust::report;
using namespace syrust::synth;

namespace {

// Stress-model shape: kProducers distinct concrete output types, one
// single-slot consumer per producer (so all but one probe per consumer
// slot fails), kDeadApis consumers of a type nothing mints (dead sites
// on every line), and kRounds forced full rebuilds. Probe volume per
// rebuild grows with lines * APIs * values-in-scope; the constants below
// push it into the millions while the emitted formulas stay small.
constexpr int kProducers = 220;
constexpr int kConsumers = 220;
constexpr int kDeadApis = 20;
constexpr int kRounds = 10;
constexpr int kPerRound = 6;
constexpr int kMaxLines = 4;

struct StressResult {
  double BuildSeconds = 0;
  uint64_t Emitted = 0;
  uint64_t Rebuilds = 0;
  std::vector<uint64_t> Hashes;
  PruneStats Prune;
};

StressResult runStress(bool GraphPrune, types::TypeArena &Arena,
                       const types::TraitEnv &Traits, api::ApiDatabase &Db,
                       const api::DependencyGraph &Graph,
                       types::CompatCache &Cache,
                       const std::vector<program::TemplateInput> &Inputs) {
  SynthOptions Opts;
  // Rebuild-the-world: every notifyDatabaseChanged() tears down and
  // reconstructs all live encodings, re-asking the full probe workload.
  Opts.IncrementalRefinement = false;
  Opts.InterleaveLengths = true;
  Opts.Compat = &Cache;
  Opts.Graph = &Graph;
  Opts.GraphPrune = GraphPrune;
  Synthesizer Synth(Arena, Traits, Db, Inputs, kMaxLines, Opts);

  StressResult R;
  for (int Round = 0; Round < kRounds; ++Round) {
    for (int K = 0; K < kPerRound; ++K) {
      auto P = Synth.next();
      if (!P.has_value())
        break;
      R.Hashes.push_back(P->hash());
    }
    // No database change: the notification alone forces the
    // non-incremental path to rebuild every live length.
    Synth.notifyDatabaseChanged();
  }
  R.BuildSeconds = Synth.stats().BuildSeconds;
  R.Emitted = Synth.stats().Emitted;
  R.Rebuilds = Synth.stats().Rebuilds;
  R.Prune.GraphProbes = Synth.stats().PruneGraphProbes;
  R.Prune.FallbackProbes = Synth.stats().PruneFallbackProbes;
  R.Prune.DeadSites = Synth.stats().PruneDeadSites;
  R.Prune.VarsAvoided = Synth.stats().PruneVarsAvoided;
  R.Prune.ClausesAvoided = Synth.stats().PruneClausesAvoided;
  return R;
}

double avoidancePercent(const PruneStats &P) {
  uint64_t Total = P.GraphProbes + P.FallbackProbes;
  return Total > 0 ? 100.0 * static_cast<double>(P.GraphProbes) /
                         static_cast<double>(Total)
                   : 0.0;
}

} // namespace

int main() {
  Session S;
  double Budget = envBudget("SYRUST_BUDGET", 120.0);
  int Seeds = static_cast<int>(envBudget("SYRUST_SEEDS", 3));
  banner("micro_prune",
         "graph-guided encoding pruning: graph on vs --no-graph-prune");

  BenchJson J("prune");
  bool StreamsIdentical = true;

  // --- Part 1: probe-dominated stress (headline). -----------------------
  std::printf("probe-dominated rebuild stress: %d producers, %d consumers "
              "(+%d dead), %d rounds, %d lines\n\n",
              kProducers, kConsumers, kDeadApis, kRounds, kMaxLines);
  types::TypeArena Arena;
  types::TypeParser Parser(Arena, {"T"});
  types::TraitEnv Traits(Arena);
  api::ApiDatabase Db;
  auto Add = [&](const std::string &Name, std::vector<std::string> Ins,
                 const std::string &Out) {
    api::ApiSig Sig;
    Sig.Name = Name;
    for (const auto &I : Ins)
      Sig.Inputs.push_back(Parser.parse(I));
    Sig.Output = Parser.parse(Out);
    Db.add(std::move(Sig));
  };
  // Producers mint distinct concrete types from a Copy seed; consumer i
  // accepts only producer i's type, so the other kProducers-1 probes on
  // its slot fail without generating any clause.
  for (int I = 0; I < kProducers; ++I)
    Add("mk" + std::to_string(I), {"usize"},
        "Item" + std::to_string(I) + "<usize>");
  for (int I = 0; I < kConsumers; ++I)
    Add("use" + std::to_string(I), {"Item" + std::to_string(I) + "<usize>"},
        "usize");
  for (int I = 0; I < kDeadApis; ++I)
    Add("dead" + std::to_string(I), {"Orphan" + std::to_string(I)},
        "usize");
  std::vector<program::TemplateInput> Inputs = {
      {"n", Parser.parse("usize")}};

  // One cache for both sides, pre-warmed by the graph build itself: the
  // graph probes exactly the encoder's renamed (output, input) pairs, so
  // the off side measures warm memo lookups, not cold unifications.
  types::CompatCache Cache;
  api::DependencyGraph Graph =
      api::buildDependencyGraph(Db, Arena, Cache);

  StressResult On = runStress(true, Arena, Traits, Db, Graph, Cache, Inputs);
  StressResult Off =
      runStress(false, Arena, Traits, Db, Graph, Cache, Inputs);
  if (On.Hashes != Off.Hashes) {
    StreamsIdentical = false;
    std::fprintf(stderr, "FAIL: stress program stream diverged with "
                         "graph pruning on\n");
  }
  if (On.Prune.DeadSites != Off.Prune.DeadSites ||
      On.Prune.VarsAvoided != Off.Prune.VarsAvoided ||
      On.Prune.ClausesAvoided != Off.Prune.ClausesAvoided) {
    StreamsIdentical = false;
    std::fprintf(stderr, "FAIL: dead-site elimination diverged between "
                         "modes (must be structural)\n");
  }
  double StressSpeedup =
      On.BuildSeconds > 0 ? Off.BuildSeconds / On.BuildSeconds : 0;
  double Avoidance = avoidancePercent(On.Prune);

  Table TS({"Workload", "Build s (graph)", "Build s (no graph)", "Speedup",
            "Probe Avoidance", "Dead Sites", "Rebuilds", "Programs"});
  TS.addRow({"probe stress", format("%.4f", On.BuildSeconds),
             format("%.4f", Off.BuildSeconds),
             format("x%.2f", StressSpeedup), format("%.1f %%", Avoidance),
             format("%" PRIu64, On.Prune.DeadSites),
             format("%" PRIu64, On.Rebuilds),
             format("%" PRIu64, On.Emitted)});
  std::printf("%s\n", TS.render().c_str());

  J.meta("stress_rounds", json::Value::integer(kRounds));
  J.meta("stress_graph_probes",
         json::Value::integer(static_cast<int64_t>(On.Prune.GraphProbes)));
  J.meta("stress_fallback_probes",
         json::Value::integer(
             static_cast<int64_t>(On.Prune.FallbackProbes)));
  J.meta("stress_probe_avoidance_percent", json::Value::number(Avoidance));
  J.meta("stress_dead_sites",
         json::Value::integer(static_cast<int64_t>(On.Prune.DeadSites)));
  J.meta("stress_vars_avoided",
         json::Value::integer(static_cast<int64_t>(On.Prune.VarsAvoided)));
  J.meta("stress_clauses_avoided",
         json::Value::integer(
             static_cast<int64_t>(On.Prune.ClausesAvoided)));
  J.meta("encoding_build_wall_seconds_graph_on",
         json::Value::number(On.BuildSeconds));
  J.meta("encoding_build_wall_seconds_graph_off",
         json::Value::number(Off.BuildSeconds));
  J.meta("encoding_build_speedup", json::Value::number(StressSpeedup));

  // --- Part 2: real library models through the escape hatch. ------------
  std::printf("library models: %.0f simulated seconds per run, %d seeds "
              "per crate\n\n",
              Budget, Seeds);
  const char *Crates[] = {"slab", "smallvec", "hashbrown"};
  J.meta("budget_sim_seconds", json::Value::number(Budget));
  J.meta("seeds_per_crate", json::Value::integer(Seeds));

  Table T({"Library", "Seed", "Build s (graph)", "Build s (no graph)",
           "Probe Avoidance", "Dead Sites", "Programs"});
  double OnBuild = 0, OffBuild = 0, OnWall = 0, OffWall = 0;

  for (const char *Crate : Crates) {
    for (int I = 0; I < Seeds; ++I) {
      RunConfig OnC;
      OnC.BudgetSeconds = Budget;
      OnC.Seed = 2021 + static_cast<uint64_t>(I);
      RunConfig OffC = OnC;
      OffC.GraphPrune = false;

      WallTimer WOn;
      RunResult ROn = S.runOne(Crate, OnC);
      double HostOn = WOn.seconds();
      WallTimer WOff;
      RunResult ROff = S.runOne(Crate, OffC);
      double HostOff = WOff.seconds();

      if (ROn.Synthesized != ROff.Synthesized ||
          ROn.Rejected != ROff.Rejected ||
          ROn.Executed != ROff.Executed ||
          ROn.Synth.SolverConflicts != ROff.Synth.SolverConflicts ||
          ROn.Synth.PruneDeadSites != ROff.Synth.PruneDeadSites) {
        StreamsIdentical = false;
        std::fprintf(stderr,
                     "FAIL: %s seed %d diverged with graph pruning on\n",
                     Crate, I);
      }

      std::string Label =
          std::string(Crate) + "/seed" + std::to_string(2021 + I);
      J.addRun(Label + "/graph-on", ROn, HostOn);
      J.addRun(Label + "/no-graph", ROff, HostOff);
      OnBuild += ROn.Synth.BuildSeconds;
      OffBuild += ROff.Synth.BuildSeconds;
      OnWall += HostOn;
      OffWall += HostOff;

      PruneStats RunPrune;
      RunPrune.GraphProbes = ROn.Synth.PruneGraphProbes;
      RunPrune.FallbackProbes = ROn.Synth.PruneFallbackProbes;
      T.addRow({Crate, std::to_string(2021 + I),
                format("%.4f", ROn.Synth.BuildSeconds),
                format("%.4f", ROff.Synth.BuildSeconds),
                format("%.1f %%", avoidancePercent(RunPrune)),
                format("%" PRIu64, ROn.Synth.PruneDeadSites),
                format("%" PRIu64, ROn.Synthesized)});
    }
  }

  J.meta("library_build_wall_seconds_graph_on",
         json::Value::number(OnBuild));
  J.meta("library_build_wall_seconds_graph_off",
         json::Value::number(OffBuild));
  J.meta("host_wall_seconds_graph_on", json::Value::number(OnWall));
  J.meta("host_wall_seconds_graph_off", json::Value::number(OffWall));
  J.meta("streams_identical", json::Value::boolean(StreamsIdentical));

  std::printf("%s\n", T.render().c_str());
  std::printf("stress encoding-build wall time: %.4f s with graph, %.4f s "
              "without -> x%.2f speedup\n",
              On.BuildSeconds, Off.BuildSeconds, StressSpeedup);
  std::printf("stress probe avoidance: %.1f %% of probes answered by the "
              "graph bitset\n",
              Avoidance);
  std::printf("program streams identical: %s\n",
              StreamsIdentical ? "yes" : "NO - BUG");
  J.write();
  return StreamsIdentical ? 0 : 1;
}
