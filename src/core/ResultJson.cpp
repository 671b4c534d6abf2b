//===--- ResultJson.cpp - RunResult JSON export ----------------------------===//
//
// Part of SyRust-CPP (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/ResultJson.h"

#include "miri/Heap.h"
#include "support/StringUtils.h"

#include <utility>

using namespace syrust;
using namespace syrust::core;
using namespace syrust::json;
using namespace syrust::rustsim;
using refine::RefinementStats;
using synth::SynthStats;

namespace {

// One table of (document key, field) rows per counter section:
// resultToJson writes the section from it and resultFromJson reads the
// section back from it, so each counter is declared once.

/// The "synthesis" section's counters. The two *_wall_seconds fields are
/// written by hand, under ResultJsonOptions::HostWallTime.
const std::pair<const char *, uint64_t SynthStats::*> SynthKeys[] = {
    {"emitted", &SynthStats::Emitted},
    {"path_filtered", &SynthStats::PathFiltered},
    {"duplicates_skipped", &SynthStats::DuplicatesSkipped},
    {"hash_collisions", &SynthStats::HashCollisions},
    {"rebuilds", &SynthStats::Rebuilds},
    {"incremental_extends", &SynthStats::IncrementalExtends},
    {"dead_length_revivals", &SynthStats::DeadLengthRevivals},
    {"solve_calls", &SynthStats::SolveCalls},
    {"solver_conflicts", &SynthStats::SolverConflicts},
    {"solver_propagations", &SynthStats::SolverPropagations},
    {"compat_cache_hits", &SynthStats::CompatHits},
    {"compat_cache_base_hits", &SynthStats::CompatBaseHits},
    {"compat_cache_misses", &SynthStats::CompatMisses},
    {"portfolio_races", &SynthStats::PortfolioRaces},
    {"portfolio_unsat_wins", &SynthStats::PortfolioUnsatWins},
    {"portfolio_cancels", &SynthStats::PortfolioCancels},
    {"prune_graph_probes", &SynthStats::PruneGraphProbes},
    {"prune_fallback_probes", &SynthStats::PruneFallbackProbes},
    {"prune_dead_sites", &SynthStats::PruneDeadSites},
    {"prune_vars_avoided", &SynthStats::PruneVarsAvoided},
    {"prune_clauses_avoided", &SynthStats::PruneClausesAvoided},
    {"bias_picks", &SynthStats::BiasPicks},
    {"bias_new_edges", &SynthStats::BiasNewEdges},
    {"bias_decays", &SynthStats::BiasDecays},
};

/// The "refinement" section's counters.
const std::pair<const char *, uint64_t RefinementStats::*> RefineKeys[] = {
    {"eager_concretizations", &RefinementStats::EagerConcretizations},
    {"trait_removals", &RefinementStats::TraitRemovals},
    {"combo_blocks", &RefinementStats::ComboBlocks},
    {"output_duplications", &RefinementStats::OutputDuplications},
    {"direct_fixes", &RefinementStats::DirectFixes},
    {"bans", &RefinementStats::Bans},
};

} // namespace

json::Value syrust::core::resultToJson(const RunResult &R,
                                       const ResultJsonOptions &Opts) {
  Value Root = Value::object();
  // Bumped whenever a key is renamed/removed so downstream plotting tools
  // can detect format changes. 2: build_seconds/solve_seconds became
  // build_wall_seconds/solve_wall_seconds (they measure host wall time,
  // not simulated time - see DESIGN.md "Wall time vs simulated time").
  // 3 and 4 introduced the campaign and audit document kinds; 5 adds the
  // api_coverage section to every document kind (the version space is
  // shared across kinds, so all bumped together).
  Root.set("schema_version", Value::integer(5));
  Root.set("crate", Value::string(R.Crate));
  Root.set("supported", Value::boolean(R.Supported));
  Root.set("synthesized", Value::integer(static_cast<int64_t>(R.Synthesized)));
  Root.set("rejected", Value::integer(static_cast<int64_t>(R.Rejected)));
  Root.set("executed", Value::integer(static_cast<int64_t>(R.Executed)));
  Root.set("rejected_percent", Value::number(R.rejectedPercent()));
  Root.set("max_len_reached", Value::integer(R.MaxLenReached));
  Root.set("space_exhausted", Value::boolean(R.SpaceExhausted));
  Root.set("elapsed_sim_seconds", Value::number(R.ElapsedSeconds));

  Value ByCategory = Value::object();
  for (const auto &[Cat, N] : R.ByCategory)
    ByCategory.set(categoryName(Cat),
                   Value::integer(static_cast<int64_t>(N)));
  Root.set("by_category", std::move(ByCategory));

  Value ByDetail = Value::object();
  for (const auto &[Det, N] : R.ByDetail)
    ByDetail.set(detailName(Det), Value::integer(static_cast<int64_t>(N)));
  Root.set("by_detail", std::move(ByDetail));

  Value Curve = Value::array();
  for (const CurvePoint &P : R.Curve) {
    Value Pt = Value::object();
    Pt.set("t", Value::number(P.AtSeconds));
    Pt.set("synthesized", Value::integer(static_cast<int64_t>(P.Synthesized)));
    Pt.set("rejected", Value::integer(static_cast<int64_t>(P.Rejected)));
    Pt.set("type", Value::integer(static_cast<int64_t>(P.TypeErrors)));
    Pt.set("lifetime",
           Value::integer(static_cast<int64_t>(P.LifetimeErrors)));
    Pt.set("misc", Value::integer(static_cast<int64_t>(P.MiscErrors)));
    Curve.push(std::move(Pt));
  }
  Root.set("curve", std::move(Curve));

  Value Cov = Value::object();
  Cov.set("component_line", Value::number(R.Coverage.ComponentLine));
  Cov.set("component_branch", Value::number(R.Coverage.ComponentBranch));
  Cov.set("library_line", Value::number(R.Coverage.LibraryLine));
  Cov.set("library_branch", Value::number(R.Coverage.LibraryBranch));
  Cov.set("saturation_seconds", Value::number(R.CoverageSaturation));
  Value Snaps = Value::array();
  for (const auto &S : R.CoverageSnaps) {
    Value Pt = Value::object();
    Pt.set("t", Value::number(S.AtSeconds));
    Pt.set("component_line", Value::number(S.Numbers.ComponentLine));
    Pt.set("component_branch", Value::number(S.Numbers.ComponentBranch));
    Pt.set("library_line", Value::number(S.Numbers.LibraryLine));
    Pt.set("library_branch", Value::number(S.Numbers.LibraryBranch));
    Snaps.push(std::move(Pt));
  }
  Cov.set("snapshots", std::move(Snaps));
  Root.set("coverage", std::move(Cov));
  Root.set("api_coverage", coverage::apiCoverageToJson(R.ApiCoverage));

  Value Bug = Value::object();
  Bug.set("found", Value::boolean(R.BugFound));
  if (R.BugFound) {
    Bug.set("kind", Value::string(miri::ubKindName(R.FirstBug.Kind)));
    Bug.set("message", Value::string(R.FirstBug.Message));
    Bug.set("time_to_bug", Value::number(R.TimeToBug));
    Bug.set("lines", Value::integer(R.BugLines));
    Bug.set("program", Value::string(R.BugProgram));
    if (R.MinimizedLines > 0) {
      Bug.set("minimized_lines", Value::integer(R.MinimizedLines));
      Bug.set("minimized_program", Value::string(R.MinimizedProgram));
    }
    Bug.set("ub_count", Value::integer(static_cast<int64_t>(R.UbCount)));
  }
  Root.set("bug", std::move(Bug));

  Value Synth = Value::object();
  for (const auto &[Key, Field] : SynthKeys)
    Synth.set(Key, Value::integer(static_cast<int64_t>(R.Synth.*Field)));
  if (Opts.HostWallTime) {
    Synth.set("build_wall_seconds", Value::number(R.Synth.BuildSeconds));
    Synth.set("solve_wall_seconds", Value::number(R.Synth.SolveSeconds));
  }
  Root.set("synthesis", std::move(Synth));

  Value Refine = Value::object();
  for (const auto &[Key, Field] : RefineKeys)
    Refine.set(Key, Value::integer(static_cast<int64_t>(R.Refine.*Field)));
  Root.set("refinement", std::move(Refine));
  return Root;
}

bool syrust::core::resultFromJson(const Value &V, RunResult &Out,
                                  std::string &Err) {
  Err.clear();
  Out = RunResult();
  if (V.kind() != Value::Kind::Object) {
    Err = "result document is not an object";
    return false;
  }
  Fields F(V, Err);
  if (F.i64("schema_version") != 5 && F.ok()) {
    Err = format("unsupported schema_version %lld (want 5)",
                 static_cast<long long>(V.get("schema_version").asInt()));
    return false;
  }
  Out.Crate = F.str("crate");
  Out.Supported = F.boolean("supported");
  Out.Synthesized = F.u64("synthesized");
  Out.Rejected = F.u64("rejected");
  Out.Executed = F.u64("executed");
  Out.MaxLenReached = static_cast<int>(F.i64("max_len_reached"));
  Out.SpaceExhausted = F.boolean("space_exhausted");
  Out.ElapsedSeconds = F.num("elapsed_sim_seconds");
  // rejected_percent is derived from synthesized/rejected; recomputed on
  // re-serialization, so it is deliberately not parsed.

  if (const Value *ByCat = F.object("by_category")) {
    Fields Counts(*ByCat, Err);
    for (const auto &Member : ByCat->members()) {
      const std::string &Name = Member.first;
      ErrorCategory C;
      if (!categoryFromName(Name, C)) {
        Err = "unknown error category '" + Name + "'";
        return false;
      }
      Out.ByCategory[C] = Counts.u64(Name);
    }
  }
  if (const Value *ByDet = F.object("by_detail")) {
    Fields Counts(*ByDet, Err);
    for (const auto &Member : ByDet->members()) {
      const std::string &Name = Member.first;
      ErrorDetail D;
      if (!detailFromName(Name, D)) {
        Err = "unknown error detail '" + Name + "'";
        return false;
      }
      Out.ByDetail[D] = Counts.u64(Name);
    }
  }

  if (const Value *Curve = F.array("curve"))
    for (size_t I = 0; I < Curve->size() && F.ok(); ++I) {
      Fields P(Curve->at(I), Err);
      CurvePoint Pt;
      Pt.AtSeconds = P.num("t");
      Pt.Synthesized = P.u64("synthesized");
      Pt.Rejected = P.u64("rejected");
      Pt.TypeErrors = P.u64("type");
      Pt.LifetimeErrors = P.u64("lifetime");
      Pt.MiscErrors = P.u64("misc");
      Out.Curve.push_back(Pt);
    }

  if (const Value *Cov = F.object("coverage")) {
    Fields C(*Cov, Err);
    Out.Coverage.ComponentLine = C.num("component_line");
    Out.Coverage.ComponentBranch = C.num("component_branch");
    Out.Coverage.LibraryLine = C.num("library_line");
    Out.Coverage.LibraryBranch = C.num("library_branch");
    Out.CoverageSaturation = C.num("saturation_seconds");
    if (const Value *Snaps = C.array("snapshots"))
      for (size_t I = 0; I < Snaps->size() && C.ok(); ++I) {
        Fields P(Snaps->at(I), Err);
        coverage::CoverageSnapshot S;
        S.AtSeconds = P.num("t");
        S.Numbers.ComponentLine = P.num("component_line");
        S.Numbers.ComponentBranch = P.num("component_branch");
        S.Numbers.LibraryLine = P.num("library_line");
        S.Numbers.LibraryBranch = P.num("library_branch");
        Out.CoverageSnaps.push_back(S);
      }
  }

  if (F.ok() && V.has("api_coverage") &&
      !coverage::apiCoverageFromJson(V.get("api_coverage"),
                                     Out.ApiCoverage, Err))
    return false;

  if (const Value *Bug = F.object("bug")) {
    Fields B(*Bug, Err);
    Out.BugFound = B.boolean("found");
    if (Out.BugFound) {
      if (!miri::ubKindFromName(B.str("kind"), Out.FirstBug.Kind)) {
        if (Err.empty())
          Err = "unknown UB kind '" + Bug->get("kind").asString() + "'";
        return false;
      }
      Out.FirstBug.Message = B.str("message");
      Out.TimeToBug = B.num("time_to_bug");
      Out.BugLines = static_cast<int>(B.i64("lines"));
      Out.BugProgram = B.str("program");
      if (Bug->has("minimized_lines")) {
        Out.MinimizedLines = static_cast<int>(B.i64("minimized_lines"));
        Out.MinimizedProgram = B.str("minimized_program");
      }
      Out.UbCount = B.u64("ub_count");
    }
  }

  if (const Value *Synth = F.object("synthesis")) {
    Fields S(*Synth, Err);
    for (const auto &[Key, Field] : SynthKeys)
      Out.Synth.*Field = S.u64(Key);
    // Wall-time diagnostics are optional (campaign aggregates strip
    // them); absent means zero.
    if (Synth->has("build_wall_seconds"))
      Out.Synth.BuildSeconds = S.num("build_wall_seconds");
    if (Synth->has("solve_wall_seconds"))
      Out.Synth.SolveSeconds = S.num("solve_wall_seconds");
  }

  if (const Value *Refine = F.object("refinement")) {
    Fields R(*Refine, Err);
    for (const auto &[Key, Field] : RefineKeys)
      Out.Refine.*Field = R.u64(Key);
  }
  return F.ok();
}

json::Value syrust::core::runConfigToJson(const RunConfig &C) {
  Value V = Value::object();
  V.set("budget_seconds", Value::number(C.BudgetSeconds));
  V.set("num_apis", Value::integer(C.NumApis));
  V.set("semantic_aware", Value::boolean(C.SemanticAware));
  V.set("interleave_lengths", Value::boolean(C.InterleaveLengths));
  V.set("mutate_inputs", Value::boolean(C.MutateInputs));
  V.set("incremental_refinement",
        Value::boolean(C.IncrementalRefinement));
  const char *Mode = C.Mode == refine::RefinementMode::PurelyEager
                         ? "eager"
                         : C.Mode == refine::RefinementMode::PurelyLazy
                               ? "lazy"
                               : "hybrid";
  V.set("mode", Value::string(Mode));
  V.set("portfolio", Value::boolean(C.Portfolio));
  V.set("strategy", Value::string(C.Strategy));
  V.set("solve_conflict_budget",
        Value::integer(static_cast<int64_t>(C.SolveConflictBudget)));
  V.set("eager_cap", Value::integer(static_cast<int64_t>(C.EagerCap)));
  V.set("seed", Value::integer(static_cast<int64_t>(C.Seed)));
  V.set("solve_cost", Value::number(C.SolveCost));
  V.set("compile_cost", Value::number(C.CompileCost));
  V.set("exec_cost", Value::number(C.ExecCost));
  V.set("snapshot_interval", Value::number(C.SnapshotInterval));
  V.set("curve_samples", Value::integer(C.CurveSamples));
  V.set("max_tests", Value::integer(static_cast<int64_t>(C.MaxTests)));
  V.set("stop_on_first_bug", Value::boolean(C.StopOnFirstBug));
  V.set("minimize_bugs", Value::boolean(C.MinimizeBugs));
  V.set("graph_prune", Value::boolean(C.GraphPrune));
  V.set("bias_coverage", Value::boolean(C.BiasCoverage));
  V.set("json_error_channel", Value::boolean(C.JsonErrorChannel));
  V.set("record_tests",
        Value::integer(static_cast<int64_t>(C.RecordTests)));
  return V;
}
