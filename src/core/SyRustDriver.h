//===--- SyRustDriver.h - Algorithm 1 end-to-end driver --------*- C++ -*-===//
//
// Part of SyRust-CPP (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The SyRust pipeline of Figure 3 for one library: API selection
/// (Section 6.2's 15-API weighted sample with pinned picks and the three
/// builtins) and RunSetup, the enumeration set-up runs and audits share.
/// SyRustDriver.cpp also defines Session::runOne, the one way to run a
/// crate: Algorithm 1's loop with the test executor (rustsim compile +
/// miri execute on the simulated clock) and hybrid refinement feedback,
/// producing the RunResult all evaluation benches consume.
///
//===----------------------------------------------------------------------===//

#ifndef SYRUST_CORE_SYRUSTDRIVER_H
#define SYRUST_CORE_SYRUSTDRIVER_H

#include "core/CrateAnalysis.h"
#include "core/ResultDatabase.h"
#include "coverage/ApiPairCoverage.h"
#include "coverage/CoverageMap.h"
#include "crates/CrateRegistry.h"
#include "obs/Recorder.h"
#include "refine/RefinementEngine.h"
#include "rustsim/Checker.h"
#include "rustsim/Diagnostic.h"
#include "support/SimClock.h"
#include "synth/Synthesizer.h"

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace syrust::core {

/// One run's configuration: evaluation budgets, feature toggles (RQ2/RQ3
/// variants), and simulated-cost calibration.
struct RunConfig {
  /// Simulated wall-clock budget. The paper ran 10 hours per library on a
  /// 64-container cluster; the default reproduces the same *shape* at
  /// laptop scale. Scale up via the SYRUST_BUDGET environment variable in
  /// the benches.
  double BudgetSeconds = 600.0;

  /// APIs selected per library (Section 6.2).
  int NumApis = 15;

  /// Section 4.4 semantic awareness; off = the RQ2 variant.
  bool SemanticAware = true;

  /// Section 7.4.3 scheduling extension: round-robin program lengths
  /// instead of exhausting each length before the next. Off reproduces
  /// Algorithm 1 exactly.
  bool InterleaveLengths = false;

  /// Section 7.4.2 extension: perturb the template input values between
  /// executions ("we do not mutate inputs ... likely to trigger more
  /// bugs"). Off reproduces the paper's fixed-input setup.
  bool MutateInputs = false;

  /// Database refinements extend the live SAT encodings in place, so
  /// the blocking clause of every emitted program stays in its solver
  /// and the solver never re-walks it. Off = the historical
  /// rebuild-the-world refinement path (kept for A/B comparison): each
  /// rebuilt encoding re-emits earlier programs, which SeenPrograms
  /// drops.
  bool IncrementalRefinement = true;

  /// Polymorphism strategy; PurelyEager = the RQ3 variant.
  refine::RefinementMode Mode = refine::RefinementMode::Hybrid;

  /// Race the solver-strategy portfolio (sat/SolverStrategy.h) on hard
  /// solve episodes. Emitted programs are byte-identical on or off; the
  /// helpers only turn budget-stop Unknowns into real Unsat proofs, which
  /// spares the synthesizer futile re-solves of exhausted lengths.
  bool Portfolio = false;

  /// Run one named solver configuration instead of the baseline. Must be
  /// a name sat::findStrategy() knows; validate() rejects anything else.
  /// Unlike Portfolio this changes the program stream (explicit opt-in).
  /// Ignored when Portfolio is set. Empty = baseline.
  std::string Strategy;

  /// Per-solve conflict budget handed to the encoder; 0 keeps the
  /// SynthOptions default. The portfolio micro benchmark lowers this so
  /// budget exhaustion actually occurs at bench scale.
  uint64_t SolveConflictBudget = 0;

  /// Cap on eager instantiations per API.
  size_t EagerCap = 48;

  uint64_t Seed = 2021;

  /// Simulated costs (seconds). Execution is multiplied by the crate's
  /// MiriCostFactor (dashmap et al.).
  double SolveCost = 0.004;
  double CompileCost = 0.03;
  double ExecCost = 0.11;

  /// Coverage snapshot cadence (the paper used 900 s over 10 h).
  double SnapshotInterval = 60.0;

  /// Error-rate curve sampling points.
  int CurveSamples = 120;

  /// Optional hard cap on synthesized test cases (0 = none).
  uint64_t MaxTests = 0;

  /// Stop as soon as the first UB is found (bug-hunt benches).
  bool StopOnFirstBug = false;

  /// Delta-debug the first bug-inducing program down to its minimal form
  /// (fills RunResult::MinimizedLines / MinimizedProgram).
  bool MinimizeBugs = false;

  /// Graph-guided encoding pruning: the encoder answers candidate
  /// probes from the frozen dependency graph's edge table (an O(1) read
  /// instead of a CompatCache lookup). The graph's edge set is
  /// exactly the probe-success set, so program streams and all result
  /// documents are byte-identical on/off - only throughput and the
  /// prune.* probe-split counters change (--no-graph-prune is the
  /// escape hatch for A/B runs). Dead-site elimination in the encoder
  /// is structural and unaffected by this switch.
  bool GraphPrune = true;

  /// Coverage-guided enumeration bias (--bias-coverage, off by
  /// default): API selection weights candidates by their never-covered
  /// dependency-graph edges, and in interleaved mode the synthesizer
  /// replaces the round-robin length rotation with a weighted draw
  /// steered by live coverage feedback (Synthesizer::noteCoverage).
  /// Unlike GraphPrune this deliberately *changes* the emitted stream -
  /// that is the point: steer enumeration toward unvisited graph paths
  /// the way a coverage-guided fuzzer steers mutation. A fixed (crate,
  /// seed, variant) cell stays byte-identical for any --jobs because
  /// all re-weighting draws from the run's own Rng and decays on the
  /// SimClock.
  bool BiasCoverage = false;

  /// Route compiler diagnostics through the cargo-style JSON channel
  /// (serialize, then parse back) before handing them to refinement -
  /// reproducing the paper's `--message-format=json` executor/synthesizer
  /// split (Section 6.1). Results must be identical either way.
  bool JsonErrorChannel = false;

  /// Retain up to this many per-test records in RunResult::Db (Algorithm
  /// 1's "DB <- DB u R"); 0 keeps counters only.
  size_t RecordTests = 0;

  /// Checks every field against its domain. Returns one specific message
  /// per invalid field ("RunConfig.CurveSamples must be at least 2, got
  /// 1"), empty when the configuration is runnable. The CLI and
  /// Session::runOne() both call this, so a bad configuration fails
  /// loudly instead of silently misbehaving (a zero SnapshotInterval,
  /// for example, would loop forever in the snapshot cadence).
  std::vector<std::string> validate() const;
};

/// A point of the cumulative error-rate curves (Figures 9/10 top rows).
struct CurvePoint {
  double AtSeconds = 0;
  uint64_t Synthesized = 0;
  uint64_t Rejected = 0;
  uint64_t TypeErrors = 0;
  uint64_t LifetimeErrors = 0;
  uint64_t MiscErrors = 0;
};

/// Everything one run produces.
struct RunResult {
  std::string Crate;
  bool Supported = true;

  uint64_t Synthesized = 0;
  uint64_t Rejected = 0;
  uint64_t Executed = 0;
  int MaxLenReached = 0;
  bool SpaceExhausted = false;

  /// Rejections by category and by fine-grained detail.
  std::map<rustsim::ErrorCategory, uint64_t> ByCategory;
  std::map<rustsim::ErrorDetail, uint64_t> ByDetail;

  std::vector<CurvePoint> Curve;

  /// First undefined behavior found.
  bool BugFound = false;
  miri::UbReport FirstBug;
  double TimeToBug = -1;
  int BugLines = 0;
  std::string BugProgram;
  /// Filled when RunConfig::MinimizeBugs is set.
  int MinimizedLines = 0;
  std::string MinimizedProgram;
  uint64_t UbCount = 0;

  /// Coverage outcome.
  coverage::CoverageNumbers Coverage;
  std::vector<coverage::CoverageSnapshot> CoverageSnaps;
  double CoverageSaturation = -1;

  /// API-pair coverage over the crate's dependency graph (empty when the
  /// crate is unsupported).
  coverage::ApiCoverageData ApiCoverage;

  synth::SynthStats Synth;
  refine::RefinementStats Refine;
  double ElapsedSeconds = 0;

  /// Algorithm 1's database of programs and results (populated when
  /// RunConfig::RecordTests > 0; the counters above count every verdict).
  ResultDatabase Db;

  double rejectedPercent() const {
    return Synthesized == 0
               ? 0.0
               : 100.0 * static_cast<double>(Rejected) /
                     static_cast<double>(Synthesized);
  }
  double categoryPercent(rustsim::ErrorCategory C) const {
    auto It = ByCategory.find(C);
    uint64_t N = It == ByCategory.end() ? 0 : It->second;
    return Rejected == 0 ? 0.0
                         : 100.0 * static_cast<double>(N) /
                               static_cast<double>(Rejected);
  }
};

/// Options for selectApiSubset. An options struct rather than positional
/// arguments so call sites read as what they configure and new knobs can
/// be added without breaking every caller.
struct ApiSelectionOptions {
  /// APIs always included (the paper allows two manual picks per
  /// library, Section 6.2). Deduplicated, restricted to real library
  /// APIs, clamped to NumApis.
  std::vector<api::ApiId> Pinned;
  /// Selection budget (Section 6.2 uses 15 per library).
  int NumApis = 15;
  /// Coverage-bias leg (RunConfig::BiasCoverage): when set, each
  /// candidate's weight is additionally multiplied by 1 plus its count
  /// of never-covered incident dependency-graph edges, so well-connected
  /// APIs whose edges are still unvisited dominate the sample. Selection
  /// runs at run start, when no edge is covered yet. Null keeps the
  /// paper's unsafe-only weighting (the bias-off stream is untouched by
  /// construction).
  const api::DependencyGraph *Graph = nullptr;
};

/// Section 6.2's API-subset selection: pinned picks first (deduplicated,
/// restricted to synthesizable APIs, clamped to the budget), then a
/// weighted random fill where unsafe-containing APIs get 50% more weight
/// (and, with ApiSelectionOptions::Graph set, a 1 + never-covered-degree
/// multiplier - the --bias-coverage leg; weights stay integer-or-half
/// valued doubles, so the draw is exact on every platform).
/// Never returns more than Opts.NumApis entries or a duplicate. Exposed
/// as a free function so tests can drive it directly.
std::vector<api::ApiId> selectApiSubset(const api::ApiDatabase &Db,
                                        const ApiSelectionOptions &Opts,
                                        Rng &R);

/// The settings an audit (oracle::OracleConfig::Audit) adds to a run's
/// set-up. A run leaves every field at its default.
struct AuditOptions {
  /// Cap on program length; 0 = the crate's own MaxLen.
  int MaxLines = 0;
  /// The audit's canary (SynthOptions::WeakenConsumptionKills): with the
  /// consumption-kill clauses dropped, use-after-move programs get
  /// emitted, and the audit must report them as unexpected Ownership
  /// disagreements.
  bool WeakenConsumptionKills = false;
};

/// One enumeration of a crate, set up from one RunConfig over the
/// crate's shared analysis: Algorithm 1's state without its loop.
/// Session::runOne and oracle::auditOne both build it and keep only their
/// loops; an audit builds it from its OracleConfig::Run, so it replays
/// the enumeration a run with that RunConfig performs.
///
/// The constructor draws the APIs (an overlay instance, the
/// selectApiSubset draw from an Rng seeded with Seed ^ hash(crate name),
/// weighted by never-covered graph edges under BiasCoverage, and a ban on
/// every unselected library API); with a \p Clock, binds the recorder to
/// it and opens the `run` span, which the caller closes; initializes
/// refinement (eager cap, recorder, eager concretization); and then
/// builds the synthesizer over the refined database, with \p Audit's
/// length cap and canary. \p OnPathFiltered, when set, receives every
/// model the Rule-7 path filter rejects (SynthOptions::OnPathFiltered,
/// the audit's differential tap). \p Analysis must outlive the set-up.
/// Not movable: the synthesizer points at Compat.
class RunSetup {
public:
  RunSetup(const crates::CrateSpec &Spec, const CrateAnalysis &Analysis,
           const RunConfig &Config, obs::Recorder *Obs = nullptr,
           const SimClock *Clock = nullptr, const AuditOptions &Audit = {},
           std::function<void(const program::Program &)> OnPathFiltered =
               nullptr);

  RunSetup(const RunSetup &) = delete;
  RunSetup &operator=(const RunSetup &) = delete;

  /// The synthesizer's next program, nullopt when it has none. Marks the
  /// program's API pairs and bumps the `coverage.api.*` counters by what
  /// it newly covered, which \p Delta receives when set.
  std::optional<program::Program>
  next(coverage::ApiPairCoverage::MarkDelta *Delta = nullptr);

  /// The overlay instance, with every library API outside the draw banned.
  std::unique_ptr<crates::CrateInstance> Inst;
  /// The run's own compatibility cache, chained onto the analysis's
  /// precomputed matrix, so its counters depend only on this run's
  /// probes - never on scheduling.
  types::CompatCache Compat;
  refine::RefinementEngine Refine;
  /// Always set once constructed; built after refinement's eager pass.
  std::optional<synth::Synthesizer> Synth;
  rustsim::Checker Check;
  coverage::ApiPairCoverage ApiCov;

private:
  obs::Recorder *Obs;
};

} // namespace syrust::core

#endif // SYRUST_CORE_SYRUSTDRIVER_H
