//===--- Synthesizer.h - Test-case enumeration driver ----------*- C++ -*-===//
//
// Part of SyRust-CPP (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Streams well-formed candidate test cases for one (template, API
/// database) pair over program lengths 1..m. One table holds an encoding
/// per length and a pick policy chooses the length each solve uses:
/// sequential mode (Algorithm 1) takes the shortest live length, building
/// its encoding on first pick and destroying it once exhausted, since the
/// algorithm never returns to it; interleaved mode (the Section 7.4.3
/// extension) builds every length up front and rotates over the live
/// ones, keeping an exhausted length dormant so that a refinement that
/// *adds* API instances can revive it. Handles the two events Algorithm 1
/// weaves into the enumeration loop:
///
///   * model blocking (phi := phi AND NOT sigma) - done with small
///     projected blocking clauses;
///   * API-database refinement (update(phi, A)) - notifyDatabaseChanged()
///     extends every built encoding in place, keeping learned clauses
///     and every blocking clause: additions add sites and candidates,
///     bans add root units, combo blocks add their clauses. The solver
///     never re-walks an emitted program, with the structural-hash set
///     kept as a last-resort safety net (it catches the re-emissions of
///     the rebuild-the-world path that IncrementalRefinement off keeps).
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
  /// Full encoding constructions: one per length built, plus one per
  /// length per database change when incremental refinement is off.
  uint64_t Rebuilds = 0;
  /// Database changes absorbed by extending a live encoding in place.
  uint64_t IncrementalExtends = 0;
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
  /// Compatibility-kernel memo outcome: Hits answered from the run's own
  /// cache, BaseHits from the shared per-crate matrix, Misses computed
  /// fresh. Filled by Session::runOne from the cache its core::RunSetup
  /// owns; the synthesizer only consumes it through SynthOptions::Compat.
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

  /// Signals that the API database was refined. Every built encoding is
  /// extended in place (rebuilt when incremental refinement is off).
  /// Additions also revive exhausted lengths (interleaved mode), since
  /// new instances can unlock them.
  void notifyDatabaseChanged();

  /// Coverage feedback for --bias-coverage: the driver reports how many
  /// never-covered dependency-graph edges the last emitted program of
  /// \p Length newly covered, at simulated time \p NowSeconds. The
  /// per-length yield weights steer subsequent interleaved length draws
  /// and decay by halving on a fixed simulated-time cadence, so a
  /// length's hot streak fades instead of monopolizing the schedule
  /// forever. A no-op unless SynthOptions::BiasCoverage is set.
  void noteCoverage(int Length, uint64_t NewEdges, double NowSeconds);

  /// Statistics so far. The solver, portfolio and prune counters of the
  /// encodings still in the table are summed in when this is called, so
  /// the totals are current after a notifyDatabaseChanged() too.
  SynthStats stats() const;

  /// True when enumeration ended due to solver budget rather than a real
  /// proof of exhaustion (conservative: per current length).
  bool sawBudgetStop() const { return BudgetStop; }

private:
  /// Builds the encoding of \p Length from the current database.
  std::unique_ptr<Encoding> makeEncoding(int Length);
  /// Folds \p E's counters into Stats and destroys it.
  void retire(std::unique_ptr<Encoding> &E);
  /// The length policy: nullopt once no length is live. Sequential mode
  /// takes the shortest live length. Interleaved mode takes the
  /// --bias-coverage weighted draw (weight 1 plus the length's decayed
  /// never-covered-edge yield) while any live length has yield, and
  /// otherwise the next live length of the rotation (advancing Rotation
  /// past dead ones).
  std::optional<size_t> pickLength();
  bool acceptProgram(program::Program &P);

  types::TypeArena &Arena;
  const types::TraitEnv &Traits;
  const api::ApiDatabase &Db;
  std::vector<program::TemplateInput> Inputs;
  SynthOptions Opts;

  /// One encoding slot per length 1..MaxLines, null until built and, in
  /// sequential mode, again once its length is exhausted. Interleaved
  /// mode keeps an exhausted length's encoding (dead in LengthLive) so
  /// additions can revive it in place.
  std::vector<std::unique_ptr<Encoding>> LengthEncs;
  std::vector<char> LengthLive;
  /// Interleaved mode: marks lengths that went dormant on a budget stop
  /// (Unknown) rather than a real UNSAT proof. Such a length must be
  /// revived by *any* database change - including bans and combo blocks,
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

  /// Database size at the last change: a grown database means the next
  /// change has additions, which may revive an UNSAT-proven length.
  size_t DbSizeSnapshot = 0;

  /// Everything but the table's encoder counters, which stats() adds;
  /// retired encodings' counters are folded in here.
  SynthStats Stats;
  bool BudgetStop = false;
};

} // namespace syrust::synth

#endif // SYRUST_SYNTH_SYNTHESIZER_H
