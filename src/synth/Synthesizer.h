//===--- Synthesizer.h - Test-case enumeration driver ----------*- C++ -*-===//
//
// Part of SyRust-CPP (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Streams well-formed candidate test cases for one (template, API
/// database) pair, walking program lengths 1..m as in Algorithm 1. Handles
/// the two events Algorithm 1 weaves into the enumeration loop:
///
///   * model blocking (phi := phi AND NOT sigma) - done with small
///     projected blocking clauses;
///   * API-database refinement (update(phi, A)) - classified on
///     notifyDatabaseChanged(): additive changes (the common eager/lazy
///     concretization case) extend the live encodings in place, keeping
///     learned clauses and every blocking clause; destructive changes
///     (bans) rebuild, replaying blocked-model signatures into the fresh
///     solver. Either way the solver never re-walks an emitted program,
///     with the structural-hash set kept as a last-resort safety net.
///
/// Interleaved mode keeps exhausted lengths around: a refinement that
/// *adds* API instances can make a previously UNSAT length satisfiable
/// again, so additions revive dead lengths (extend or rebuild) instead of
/// abandoning them forever.
///
/// Models failing the Rule 7 path post-check are blocked and counted but
/// never emitted.
///
//===----------------------------------------------------------------------===//

#ifndef SYRUST_SYNTH_SYNTHESIZER_H
#define SYRUST_SYNTH_SYNTHESIZER_H

#include "support/Rng.h"
#include "synth/Encoding.h"
#include "synth/SeenPrograms.h"

#include <memory>
#include <unordered_map>

namespace syrust::synth {

/// Aggregate synthesis statistics.
struct SynthStats {
  uint64_t Emitted = 0;
  uint64_t PathFiltered = 0;
  /// Programs re-emitted by the solver and dropped via the hash set. With
  /// incremental refinement this should stay ~0: blocking persists.
  uint64_t DuplicatesSkipped = 0;
  /// True 64-bit structural-hash collisions caught by the canonical-key
  /// verification (SeenPrograms): distinct programs that a bare hash set
  /// would have silently dropped. Such programs are still emitted.
  uint64_t HashCollisions = 0;
  /// Full encoding constructions (one per length per rebuild).
  uint64_t Rebuilds = 0;
  /// Database changes absorbed by extending a live encoding in place.
  uint64_t IncrementalExtends = 0;
  /// Blocking clauses replayed into fresh encodings after rebuilds.
  uint64_t ModelsReblocked = 0;
  /// Exhausted lengths brought back by database additions.
  uint64_t DeadLengthRevivals = 0;
  /// nextModel() calls and the solver work they cost, summed over all
  /// encodings this synthesizer ever owned.
  uint64_t SolveCalls = 0;
  uint64_t SolverConflicts = 0;
  uint64_t SolverPropagations = 0;
  /// Wall-clock spent constructing/extending encodings vs. solving.
  double BuildSeconds = 0;
  double SolveSeconds = 0;
  int CurrentLength = 0;
  /// Compatibility-kernel memo outcome (all zero when the cache is off).
  /// Hits answered from the run's own cache, BaseHits from the shared
  /// per-crate matrix, Misses computed fresh. Filled by the driver, which
  /// owns the cache; the synthesizer only consumes it through
  /// SynthOptions::Compat.
  uint64_t CompatHits = 0;
  uint64_t CompatBaseHits = 0;
  uint64_t CompatMisses = 0;
  /// Portfolio race outcomes summed over all encodings (zero with the
  /// portfolio off). Races counts episodes where helper racers launched;
  /// UnsatWins counts baseline Unknowns upgraded to real Unsat proofs by
  /// a helper; Cancels counts cancellation signals sent to losing racers.
  /// All three are deterministic (functions of the solve-episode
  /// sequence, not of thread timing).
  uint64_t PortfolioRaces = 0;
  uint64_t PortfolioUnsatWins = 0;
  uint64_t PortfolioCancels = 0;
  /// Encoding-build pruning outcomes summed over all encodings this
  /// synthesizer ever owned (synth::PruneStats). The graph/fallback
  /// probe split reflects the GraphPrune setting; dead-site elimination
  /// is structural, so those numbers are identical prune-on/off. All
  /// deterministic (functions of the database and sync sequence).
  uint64_t PruneGraphProbes = 0;
  uint64_t PruneFallbackProbes = 0;
  uint64_t PruneDeadSites = 0;
  uint64_t PruneVarsAvoided = 0;
  uint64_t PruneClausesAvoided = 0;
  /// Coverage-guided bias outcomes (all zero with BiasCoverage off).
  /// BiasPicks counts weighted length draws that replaced a round-robin
  /// rotation step; BiasNewEdges sums the never-covered-edge yield the
  /// driver fed back through noteCoverage(); BiasDecays counts the
  /// SimClock-driven halvings of the per-length yield weights. All
  /// deterministic: functions of the seed and the simulated clock.
  uint64_t BiasPicks = 0;
  uint64_t BiasNewEdges = 0;
  uint64_t BiasDecays = 0;
};

/// Enumerates candidate programs of increasing length.
class Synthesizer {
public:
  Synthesizer(types::TypeArena &Arena, const types::TraitEnv &Traits,
              const api::ApiDatabase &Db,
              std::vector<program::TemplateInput> Inputs, int MaxLines,
              SynthOptions Opts = {});

  /// Produces the next program, or nullopt when all lengths are exhausted.
  std::optional<program::Program> next();

  /// Signals that the API database was refined. Add-only changes extend
  /// the live encodings in place; destructive changes rebuild them and
  /// replay the blocked models. Additions also revive exhausted lengths
  /// (interleaved mode), since new instances can unlock them.
  void notifyDatabaseChanged();

  /// Coverage feedback for --bias-coverage: the driver reports how many
  /// never-covered dependency-graph edges the last emitted program of
  /// \p Length newly covered, at simulated time \p NowSeconds. The
  /// per-length yield weights steer subsequent interleaved length draws
  /// and decay by halving on a fixed simulated-time cadence, so a
  /// length's hot streak fades instead of monopolizing the schedule
  /// forever. A no-op unless SynthOptions::BiasCoverage is set.
  void noteCoverage(int Length, uint64_t NewEdges, double NowSeconds);

  const SynthStats &stats() const { return Stats; }

  /// True when enumeration ended due to solver budget rather than a real
  /// proof of exhaustion (conservative: per current length).
  bool sawBudgetStop() const { return BudgetStop; }

private:
  bool advanceLength();
  std::unique_ptr<Encoding> makeEncoding(int Length);
  void retireEncoding(std::unique_ptr<Encoding> &E);
  bool solveNext(Encoding &E);
  void snapshotDb();
  void refreshSolverStats();
  std::optional<program::Program> nextSequential();
  std::optional<program::Program> nextInterleaved();
  /// Interleaved mode's length policy: the --bias-coverage weighted draw
  /// while any live length has yield, otherwise the next live length of
  /// the rotation (advancing Rotation past dead ones). Nullopt once no
  /// length is live.
  std::optional<size_t> pickLength();
  bool acceptProgram(program::Program &P);

  types::TypeArena &Arena;
  const types::TraitEnv &Traits;
  const api::ApiDatabase &Db;
  std::vector<program::TemplateInput> Inputs;
  int MaxLines;
  SynthOptions Opts;

  std::unique_ptr<Encoding> Enc;
  /// Interleaved mode: one encoding per length. Exhausted lengths keep
  /// their encoding (marked dead in LengthLive) so additions can revive
  /// them in place.
  std::vector<std::unique_ptr<Encoding>> LengthEncs;
  std::vector<char> LengthLive;
  /// Interleaved mode: marks lengths that went dormant on a budget stop
  /// (Unknown) rather than a real UNSAT proof. Such a length must be
  /// revived by *any* database change - including destructive ones,
  /// which only an actual proof would let us skip.
  std::vector<char> LengthUnknown;
  size_t Rotation = 0;
  /// --bias-coverage state: one never-covered-edge yield weight per
  /// length (same indexing as LengthEncs), the dedicated bias Rng, and
  /// the next simulated-time decay boundary. The Rng is separate from
  /// the solver's so biased scheduling cannot perturb solver
  /// tie-breaking, and the decay runs on the SimClock so a fixed
  /// (crate, seed) cell replays byte-identically at any --jobs.
  std::vector<uint64_t> LengthYield;
  Rng BiasRng;
  double BiasNextDecay = 0;
  /// The last-resort duplicate net: hash lookups verified against stored
  /// canonical program keys, so a 64-bit collision cannot silently drop
  /// a distinct program.
  SeenPrograms Seen;

  /// Blocked models harvested from retired encodings, per length,
  /// replayed into their replacements after destructive rebuilds.
  /// Accessed only by find/operator[], so ordering is not load-bearing.
  std::unordered_map<int, std::vector<Encoding::ModelSig>> RetiredSigs;
  /// Database state at the last (re)build/extend, for classifying the
  /// next change: old activeIds being a prefix of the new ones means
  /// add-only; a grown database means additions are present.
  std::vector<api::ApiId> ActiveSnapshot;
  size_t DbSizeSnapshot = 0;
  /// Solver-stat totals of encodings retired so far.
  uint64_t RetiredConflicts = 0;
  uint64_t RetiredPropagations = 0;
  uint64_t RetiredRaces = 0;
  uint64_t RetiredUnsatWins = 0;
  uint64_t RetiredCancels = 0;
  /// Prune-stat totals of encodings retired so far (same absorb
  /// pattern: totals = retired + live encodings).
  PruneStats RetiredPrune;

  SynthStats Stats;
  bool BudgetStop = false;
  bool Done = false;
};

} // namespace syrust::synth

#endif // SYRUST_SYNTH_SYNTHESIZER_H
