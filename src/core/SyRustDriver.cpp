//===--- SyRustDriver.cpp - Algorithm 1 end-to-end driver -----------------===//
//
// Part of SyRust-CPP (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/SyRustDriver.h"

#include "core/BugMinimizer.h"
#include "core/Session.h"
#include "miri/Interpreter.h"
#include "rustsim/DiagnosticJson.h"
#include "sat/SolverStrategy.h"

#include <cassert>
#include <cstdio>

#include <algorithm>
#include <string>
#include <utility>

using namespace syrust;
using namespace syrust::api;
using namespace syrust::core;
using namespace syrust::crates;
using namespace syrust::miri;
using namespace syrust::program;
using namespace syrust::refine;
using namespace syrust::rustsim;
using namespace syrust::synth;

namespace {

std::string numField(const char *Field, double Got, const char *Rule) {
  char Buf[160];
  std::snprintf(Buf, sizeof(Buf), "RunConfig.%s must be %s, got %g",
                Field, Rule, Got);
  return Buf;
}

} // namespace

std::vector<std::string> RunConfig::validate() const {
  std::vector<std::string> Errors;
  if (BudgetSeconds < 0)
    Errors.push_back(
        numField("BudgetSeconds", BudgetSeconds, "non-negative"));
  if (NumApis < 1)
    Errors.push_back(numField("NumApis", NumApis, "at least 1"));
  if (EagerCap == 0)
    Errors.push_back("RunConfig.EagerCap must be nonzero (a zero cap "
                     "would forbid every eager instantiation)");
  if (SolveCost < 0)
    Errors.push_back(numField("SolveCost", SolveCost, "non-negative"));
  if (CompileCost < 0)
    Errors.push_back(
        numField("CompileCost", CompileCost, "non-negative"));
  if (ExecCost < 0)
    Errors.push_back(numField("ExecCost", ExecCost, "non-negative"));
  if (SnapshotInterval <= 0)
    Errors.push_back(numField("SnapshotInterval", SnapshotInterval,
                              "positive (zero would loop forever in the "
                              "snapshot cadence)"));
  if (CurveSamples < 2)
    Errors.push_back(numField("CurveSamples", CurveSamples,
                              "at least 2 (a curve needs a start and an "
                              "end point)"));
  if (!Strategy.empty() && !sat::findStrategy(Strategy))
    Errors.push_back("RunConfig.Strategy '" + Strategy +
                     "' is not a known solver strategy (known: " +
                     sat::knownStrategyNames() + ")");
  return Errors;
}

std::vector<ApiId> syrust::core::selectApiSubset(
    const ApiDatabase &Db, const ApiSelectionOptions &Opts, Rng &R) {
  const std::vector<ApiId> &Pinned = Opts.Pinned;
  const int NumApis = Opts.NumApis;
  // Section 6.2: 15 APIs per library - pinned picks first, the rest by
  // weighted random selection where unsafe-containing APIs get 50% more
  // weight.
  std::vector<ApiId> Candidates;
  for (size_t I = 0; I < Db.size(); ++I) {
    ApiId Id = static_cast<ApiId>(I);
    if (Db.get(Id).Builtin == BuiltinKind::None)
      Candidates.push_back(Id);
  }
  std::vector<ApiId> Selected;
  auto IsSelected = [&Selected](ApiId Id) {
    return std::find(Selected.begin(), Selected.end(), Id) !=
           Selected.end();
  };
  // Pinned picks: deduplicated, restricted to real library APIs, and
  // clamped so an oversized pinned list cannot exceed the protocol's
  // selection budget.
  for (ApiId Id : Pinned) {
    if (static_cast<int>(Selected.size()) >= NumApis)
      break;
    if (IsSelected(Id) ||
        std::find(Candidates.begin(), Candidates.end(), Id) ==
            Candidates.end())
      continue;
    Selected.push_back(Id);
  }
  // --bias-coverage leg: a never-covered edge is only coverable when
  // BOTH endpoints make the cut, so each draw multiplies the paper's
  // base weight by 1 + the candidate's never-covered edges into the
  // set selected so far (self-edges included). Recomputing per pick
  // grows a connected subset around realizable gaps instead of a bag
  // of isolated hubs. Integer-valued counts (times the exact 1.5
  // unsafe boost) keep the weighted draw bit-exact across platforms -
  // no libm, no rounding divergence.
  const std::vector<api::DependencyEdge> *BiasEdges = nullptr;
  std::vector<char> InSelected;
  if (Opts.Graph) {
    BiasEdges = &Opts.Graph->edges();
    InSelected.assign(Db.size(), 0);
    for (ApiId Id : Selected)
      InSelected[static_cast<size_t>(Id)] = 1;
  }
  auto BiasBoost = [&](ApiId Id) {
    // 1 + never-covered edges joining Id to Selected or to itself
    // (capped). On the first draw (nothing selected yet) only
    // self-edges count, so ties fall back to the paper's base
    // weighting. The cap matters: an unbounded boost makes the draw
    // near-deterministic, excluding the same weakly-connected APIs on
    // every seed - and when the candidate pool barely exceeds
    // NumApis, systematically starving any API loses its edges
    // outright while a random exclusion spreads the cost. Capped at
    // 4:1 the bias nudges the draw without erasing per-seed
    // diversity.
    uint64_t Connect = 0;
    for (const api::DependencyEdge &E : *BiasEdges) {
      if (E.Producer != Id && E.Consumer != Id)
        continue;
      const ApiId Other = E.Producer == Id ? E.Consumer : E.Producer;
      if (Other == Id || InSelected[static_cast<size_t>(Other)])
        ++Connect;
    }
    if (Connect > 3)
      Connect = 3;
    return 1.0 + static_cast<double>(Connect);
  };
  std::vector<ApiId> Pool;
  for (ApiId Id : Candidates)
    if (!IsSelected(Id))
      Pool.push_back(Id);
  while (static_cast<int>(Selected.size()) < NumApis && !Pool.empty()) {
    std::vector<double> Weights;
    Weights.reserve(Pool.size());
    for (ApiId Id : Pool) {
      double W = Db.get(Id).HasUnsafe ? 1.5 : 1.0;
      if (BiasEdges)
        W *= BiasBoost(Id);
      Weights.push_back(W);
    }
    size_t Pick = R.pickWeighted(Weights);
    if (BiasEdges)
      InSelected[static_cast<size_t>(Pool[Pick])] = 1;
    Selected.push_back(Pool[Pick]);
    Pool.erase(Pool.begin() + static_cast<long>(Pick));
  }
  assert(static_cast<int>(Selected.size()) <= NumApis &&
         "API selection exceeds the configured budget");
  return Selected;
}

namespace {

/// The API draw: an overlay instance of \p Analysis with every library
/// API outside the run's selection banned.
std::unique_ptr<CrateInstance> drawApis(const CrateSpec &Spec,
                                        const CrateAnalysis &Analysis,
                                        const RunConfig &Config) {
  std::unique_ptr<CrateInstance> Inst = Analysis.makeWorkerInstance();
  Rng R(Config.Seed ^ std::hash<std::string>{}(Spec.Info.Name));
  ApiSelectionOptions Opts;
  Opts.Pinned = Inst->Pinned;
  Opts.NumApis = Config.NumApis;
  // --bias-coverage: weight the draw by never-covered incident degree.
  // At run start no edge is covered; campaign workers inherit no
  // cross-run bits by design - each cell stays a pure function of
  // (crate, seed, variant).
  Opts.Graph = Config.BiasCoverage ? &Analysis.graph() : nullptr;
  std::vector<ApiId> Selected = selectApiSubset(Inst->Db, Opts, R);
  for (size_t I = 0; I < Inst->Db.size(); ++I) {
    ApiId Id = static_cast<ApiId>(I);
    if (Inst->Db.get(Id).Builtin != BuiltinKind::None)
      continue;
    if (std::find(Selected.begin(), Selected.end(), Id) == Selected.end())
      Inst->Db.ban(Id);
  }
  return Inst;
}

} // namespace

RunSetup::RunSetup(const CrateSpec &Spec, const CrateAnalysis &Analysis,
                   const RunConfig &Config, obs::Recorder *Obs,
                   const SimClock *Clock, const AuditOptions &Audit,
                   std::function<void(const Program &)> OnPathFiltered)
    : Inst(drawApis(Spec, Analysis, Config)),
      Compat(&Analysis.baseCache()),
      Refine(Inst->Arena, Inst->Db, Config.Mode),
      Check(Inst->Arena, Inst->Traits), ApiCov(Analysis.graph()), Obs(Obs) {
  if (Obs && Clock) {
    Obs->bindClock(Clock);
    Obs->begin("run", "driver",
               obs::ArgList()
                   .add("crate", Spec.Info.Name)
                   .add("seed", Config.Seed)
                   .add("budget_seconds", Config.BudgetSeconds));
  }
  Refine.setEagerCap(Config.EagerCap);
  Refine.setRecorder(Obs);
  Refine.initialize(Inst->Inputs);

  // The crate's frozen dependency graph serves three consumers: API-pair
  // coverage marking, the encoder's graph-guided pruning, and (bias mode
  // only) coverage-weighted API selection in the draw.
  SynthOptions Opts;
  Opts.SemanticAware = Config.SemanticAware;
  Opts.InterleaveLengths = Config.InterleaveLengths;
  Opts.IncrementalRefinement = Config.IncrementalRefinement;
  Opts.Portfolio = Config.Portfolio;
  Opts.Strategy = Config.Strategy;
  if (Config.SolveConflictBudget != 0)
    Opts.SolveConflictBudget = Config.SolveConflictBudget;
  Opts.SolverSeed = Config.Seed;
  Opts.Obs = Obs;
  Opts.Compat = &Compat;
  Opts.Graph = &Analysis.graph();
  Opts.GraphPrune = Config.GraphPrune;
  Opts.BiasCoverage = Config.BiasCoverage;
  Opts.BiasSeed = Config.Seed;
  Opts.OnPathFiltered = std::move(OnPathFiltered);
  Opts.WeakenConsumptionKills = Audit.WeakenConsumptionKills;
  const int MaxLines = Audit.MaxLines > 0
                           ? std::min(Audit.MaxLines, Inst->MaxLen)
                           : Inst->MaxLen;
  Synth.emplace(Inst->Arena, Inst->Traits, Inst->Db, Inst->Inputs, MaxLines,
                std::move(Opts));
  Check.setRecorder(Obs);
}

std::optional<Program>
RunSetup::next(coverage::ApiPairCoverage::MarkDelta *Delta) {
  std::optional<Program> P = Synth->next();
  if (!P)
    return P;
  const coverage::ApiPairCoverage::MarkDelta D =
      ApiCov.markProgram(*P, Inst->Db);
  if (Obs) {
    if (D.NewNodes)
      Obs->count("coverage.api.nodes_covered", D.NewNodes);
    if (D.NewEdges)
      Obs->count("coverage.api.edges_covered", D.NewEdges);
    if (D.Unmatched)
      Obs->count("coverage.api.unmatched_edges", D.Unmatched);
  }
  if (Delta)
    *Delta = D;
  return P;
}

RunResult Session::runOne(const CrateSpec &Spec, RunConfig Config,
                          obs::Recorder *Obs) const {
  RunResult Result;
  Result.Crate = Spec.Info.Name;
  std::vector<std::string> Errors = Config.validate();
  for (const std::string &E : Errors)
    std::fprintf(stderr, "syrust: invalid configuration: %s\n", E.c_str());
  if (!Errors.empty() || !Spec.Info.SupportsSynthesis) {
    Result.Supported = false;
    return Result;
  }
  Result.Db = ResultDatabase(Config.RecordTests);
  std::shared_ptr<const CrateAnalysis> Analysis = analysisFor(Spec);

  SimClock Clock;
  RunSetup Setup(Spec, *Analysis, Config, Obs, &Clock);
  CrateInstance &Inst = *Setup.Inst;
  Synthesizer &Synth = *Setup.Synth;
  RefinementEngine &Refine = Setup.Refine;
  coverage::CoverageMap Cov(Inst.ComponentLines, Inst.LibraryLines,
                            Inst.ComponentBranches, Inst.LibraryBranches);
  TemplateInit Init = Inst.Init;
  if (Config.MutateInputs) {
    // Input-mutation extension: jitter scalar payloads and lengths so
    // data-dependent branches flip across executions.
    TemplateInit Base = Inst.Init;
    Init = [Base](AbstractHeap &Heap, Rng &R) {
      std::vector<Value> Values = Base(Heap, R);
      for (Value &V : Values) {
        V.Int += static_cast<int64_t>(R.below(7)) - 3;
        if (V.Int < 0)
          V.Int = 0;
        if (V.Len > 0) {
          V.Len += static_cast<int64_t>(R.below(5)) - 2;
          if (V.Len < 0)
            V.Len = 0;
          if (V.Cap < V.Len)
            V.Cap = V.Len;
        }
      }
      return Values;
    };
  }
  Interpreter Interp(Inst.Db, Inst.Traits, Inst.Registry, Init, &Cov,
                     Config.Seed + 7);
  Interp.setRecorder(Obs);

  if (Obs) {
    // Totals once up front, covered pre-created at zero: every metrics
    // snapshot row carries the full coverage.api.* set from t=0. The
    // matrix gauge is observability for the shared analysis; gauges are
    // not campaign-merged, so per-run it is simply the frozen size.
    const coverage::ApiCoverageData D0 = Setup.ApiCov.data();
    Obs->count("coverage.api.nodes_total", D0.NodesTotal);
    Obs->count("coverage.api.edges_total", D0.EdgesTotal);
    Obs->count("coverage.api.nodes_covered", 0);
    Obs->count("coverage.api.edges_covered", 0);
    Obs->gaugeSet("compat.matrix.entries",
                  static_cast<double>(Analysis->matrixEntries()));
  }

  double NextSnapshot = Config.SnapshotInterval;
  double CurveStep =
      Config.BudgetSeconds / std::max(Config.CurveSamples, 1);
  int CurveIdx = 0;

  auto SampleCurve = [&]() {
    // The curve is strictly monotone in AtSeconds: when several sample
    // boundaries fall into one loop iteration (or the budget runs out
    // exactly on a boundary) only one point is recorded for that time.
    if (!Result.Curve.empty() &&
        Result.Curve.back().AtSeconds >= Clock.now())
      return;
    CurvePoint P;
    P.AtSeconds = Clock.now();
    P.Synthesized = Result.Synthesized;
    P.Rejected = Result.Rejected;
    P.TypeErrors = Result.ByCategory[ErrorCategory::Type];
    P.LifetimeErrors = Result.ByCategory[ErrorCategory::LifetimeOwnership];
    P.MiscErrors = Result.ByCategory[ErrorCategory::Misc];
    Result.Curve.push_back(P);
  };

  while (!Clock.exhausted(Config.BudgetSeconds)) {
    if (Config.MaxTests != 0 && Result.Synthesized >= Config.MaxTests)
      break;
    double CandStart = Clock.now();
    uint64_t CandId = Result.Synthesized;
    coverage::ApiPairCoverage::MarkDelta Delta;
    std::optional<Program> P = Setup.next(&Delta);
    Clock.charge(Config.SolveCost);
    if (Obs)
      Obs->complete("stage.synthesize", "driver", CandStart,
                    Config.SolveCost,
                    obs::ArgList()
                        .add("candidate", CandId)
                        .add("produced", P.has_value()));
    if (!P.has_value()) {
      // A budget-stop run ends on Unknown, not on an exhaustion proof -
      // claiming SpaceExhausted would launder "gave up" into "proved
      // UNSAT" in every downstream report.
      Result.SpaceExhausted = !Synth.sawBudgetStop();
      break;
    }
    Result.MaxLenReached =
        std::max(Result.MaxLenReached, static_cast<int>(P->Stmts.size()));
    ++Result.Synthesized;
    if (Obs)
      Obs->count("driver.synthesized");
    Synth.noteCoverage(static_cast<int>(P->Stmts.size()), Delta.NewEdges,
                       Clock.now());

    // Test executor stage 1: compile.
    double CompileStart = Clock.now();
    CompileResult Compiled = Setup.Check.check(*P, Inst.Db);
    Clock.charge(Config.CompileCost);
    if (Obs)
      Obs->complete("stage.compile", "driver", CompileStart,
                    Config.CompileCost,
                    obs::ArgList()
                        .add("candidate", CandId)
                        .add("ok", Compiled.Success));
    const char *CandVerdict = "rejected";
    bool StopNow = false;
    bool DbChanged = false;
    auto Record = [&](TestVerdict Verdict, ErrorDetail Detail,
                      miri::UbKind Ub, const std::string &Message) {
      if (!Result.Db.wantsMore())
        return;
      TestRecord Rec;
      Rec.Hash = P->hash();
      Rec.Lines = static_cast<int>(P->Stmts.size());
      Rec.AtSeconds = Clock.now();
      Rec.Verdict = Verdict;
      Rec.Detail = Detail;
      Rec.Ub = Ub;
      Rec.Message = Message;
      Rec.Source = P->render(Inst.Db);
      Result.Db.record(std::move(Rec));
    };
    if (!Compiled.Success) {
      ++Result.Rejected;
      if (Obs)
        Obs->count("driver.rejected");
      ++Result.ByCategory[Compiled.Diag.Category];
      ++Result.ByDetail[Compiled.Diag.Detail];
      if (Config.JsonErrorChannel) {
        // Paper pipeline: the executor emits a cargo-style JSON message,
        // the synthesizer side parses it back (Section 6.1).
        std::string Wire = diagnosticToJson(Compiled.Diag);
        Diagnostic Parsed;
        std::string Err;
        if (diagnosticFromJson(Wire, Inst.Arena, Parsed, Err)) {
          DbChanged = Refine.onDiagnostic(Parsed);
        } else {
          std::fprintf(stderr, "json channel error: %s\n", Err.c_str());
          DbChanged = Refine.onDiagnostic(Compiled.Diag);
        }
      } else {
        DbChanged = Refine.onDiagnostic(Compiled.Diag);
      }
      Record(TestVerdict::Rejected, Compiled.Diag.Detail,
             miri::UbKind::None, Compiled.Diag.Message);
    } else {
      DbChanged = Refine.onSuccess(*P);
      // Test executor stage 2: run under the miri substitute.
      double ExecStart = Clock.now();
      ExecResult Exec = Interp.run(*P);
      Clock.charge(Config.ExecCost * Inst.MiriCostFactor);
      ++Result.Executed;
      if (Obs) {
        Obs->complete("stage.execute", "driver", ExecStart,
                      Config.ExecCost * Inst.MiriCostFactor,
                      obs::ArgList()
                          .add("candidate", CandId)
                          .add("ub", Exec.UbFound));
        Obs->count("driver.executed");
      }
      CandVerdict = Exec.UbFound ? "ub" : "passed";
      Record(Exec.UbFound ? TestVerdict::Ub : TestVerdict::Passed,
             ErrorDetail::None, Exec.Report.Kind, Exec.Report.Message);
      if (Exec.UbFound) {
        ++Result.UbCount;
        if (Obs)
          Obs->count("driver.ub");
        if (!Result.BugFound) {
          Result.BugFound = true;
          Result.FirstBug = Exec.Report;
          Result.TimeToBug = Clock.now();
          Result.BugLines = static_cast<int>(P->Stmts.size());
          Result.BugProgram = P->render(Inst.Db);
          if (Config.MinimizeBugs) {
            MinimizedBug Min = minimizeBugProgram(Inst, *P,
                                                  Exec.Report.Kind);
            Result.MinimizedLines = Min.Lines;
            Result.MinimizedProgram = Min.Program.render(Inst.Db);
          }
        }
        if (Config.StopOnFirstBug)
          StopNow = true;
      }
    }
    if (DbChanged)
      Synth.notifyDatabaseChanged();
    if (Obs)
      Obs->complete("candidate", "driver", CandStart,
                    Clock.now() - CandStart,
                    obs::ArgList()
                        .add("candidate", CandId)
                        .add("verdict", CandVerdict)
                        .add("lines", static_cast<int>(P->Stmts.size()))
                        .add("refined", DbChanged));
    if (StopNow)
      break;

    // Index-based boundaries: accumulating NextCurve += CurveStep drifts
    // in floating point and could drop the final in-budget sample.
    while (CurveIdx < Config.CurveSamples &&
           Clock.now() >= CurveStep * (CurveIdx + 1)) {
      SampleCurve();
      ++CurveIdx;
    }
    while (Clock.now() >= NextSnapshot &&
           NextSnapshot <= Config.BudgetSeconds) {
      Cov.snapshot(NextSnapshot);
      Setup.ApiCov.snapshot(NextSnapshot);
      if (Obs)
        Obs->snapshotMetrics(NextSnapshot);
      NextSnapshot += Config.SnapshotInterval;
    }
  }
  SampleCurve(); // Terminal point (skipped if this instant was sampled).
  Cov.snapshot(Clock.now());
  Setup.ApiCov.snapshot(Clock.now());

  Result.Coverage = Cov.numbers();
  Result.CoverageSnaps = Cov.snapshots();
  Result.CoverageSaturation = Cov.saturationTime();
  Result.Synth = Synth.stats();
  const types::CompatCache::Stats &CS = Setup.Compat.stats();
  Result.Synth.CompatHits = CS.Hits;
  Result.Synth.CompatBaseHits = CS.BaseHits;
  Result.Synth.CompatMisses = CS.Misses;
  if (Obs) {
    Obs->count("compat.cache.hits", CS.Hits);
    Obs->count("compat.cache.base_hits", CS.BaseHits);
    Obs->count("compat.cache.misses", CS.Misses);
    Obs->count("synth.prune.graph_probes", Result.Synth.PruneGraphProbes);
    Obs->count("synth.prune.fallback_probes",
               Result.Synth.PruneFallbackProbes);
    Obs->count("synth.prune.dead_sites", Result.Synth.PruneDeadSites);
    Obs->count("synth.prune.vars_avoided", Result.Synth.PruneVarsAvoided);
    Obs->count("synth.prune.clauses_avoided",
               Result.Synth.PruneClausesAvoided);
    // Only bias runs emit synth.bias.* rows: a bias-off aggregate must
    // stay byte-identical to the pre-bias pipeline, zero rows included.
    if (Config.BiasCoverage) {
      Obs->count("synth.bias.picks", Result.Synth.BiasPicks);
      Obs->count("synth.bias.new_edges", Result.Synth.BiasNewEdges);
      Obs->count("synth.bias.decays", Result.Synth.BiasDecays);
    }
  }
  Result.ApiCoverage = Setup.ApiCov.data();
  Result.Refine = Refine.stats();
  Result.ElapsedSeconds = Clock.now();
  if (Obs) {
    Obs->snapshotMetrics(Clock.now()); // Terminal metrics snapshot.
    Obs->end("run", "driver",
             obs::ArgList()
                 .add("synthesized", Result.Synthesized)
                 .add("rejected", Result.Rejected)
                 .add("executed", Result.Executed)
                 .add("ub", Result.UbCount));
    // The SimClock dies with this frame; detach so late events (there
    // should be none) cannot read freed memory.
    Obs->bindClock(nullptr);
  }
  return Result;
}
