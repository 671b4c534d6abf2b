//===--- Portfolio.h - Deterministic solver-strategy racing ----*- C++ -*-===//
//
// Part of SyRust-CPP (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Races a fixed set of solver configurations (SolverStrategy) per solve
/// episode while keeping the emitted model stream byte-identical to a
/// plain single-solver run. The determinism argument:
///
///   * Member 0 is the incremental baseline solver with the historical
///     defaults. Every model the portfolio reports is member 0's model,
///     and member 0 is never interrupted, so its state evolves exactly
///     as it would with the portfolio off.
///   * Helper members are stateless racers: each episode they rebuild
///     from the recorded clause log under their own strategy, so an
///     interrupted helper leaves no state behind that could bleed into
///     a later episode.
///   * Helpers launch from a conflict-count progress hook on member 0
///     (a deterministic property of the search, not of timing), and
///     only their Unsat proofs are consumed - and only for episodes
///     member 0 answers Unknown (budget). Sat and Unsat are mutually
///     exclusive across members, and a relaxation Unsat (the CEGAR
///     member) implies a full-formula Unsat, so upgrading Unknown to
///     Unsat never contradicts the baseline; it only converts "gave up"
///     into a real proof. Ties break to the lowest strategy index:
///     helpers are joined in index order and a lower index is never
///     cancelled on behalf of a higher one.
///
/// The caller-visible effect of the portfolio is therefore exactly one
/// thing: some episodes that would report Unknown report Unsat instead.
/// No program stream can change, but the synthesis layer stops reviving
/// and re-solving genuinely exhausted lengths.
///
//===----------------------------------------------------------------------===//

#ifndef SYRUST_SAT_PORTFOLIO_H
#define SYRUST_SAT_PORTFOLIO_H

#include "sat/Solver.h"
#include "sat/SolverStrategy.h"

#include <atomic>
#include <string>
#include <vector>

namespace syrust::sat {

/// Deterministic portfolio counters (pure functions of the solve-episode
/// sequence, never of thread timing, so they are safe to serialize).
struct PortfolioStats {
  /// Episodes in which helper racers were launched.
  uint64_t Races = 0;
  /// Races where a helper's Unsat proof upgraded member 0's Unknown.
  uint64_t UnsatWins = 0;
  /// Cancellation signals sent to racers that lost.
  uint64_t Cancels = 0;
  /// Race wins per strategy index (parallel to portfolioStrategies()).
  std::vector<uint64_t> Wins;
};

/// Drop-in replacement for the encoder's Solver member: forwards the
/// incremental-solving interface to a baseline solver and, when enabled,
/// races helper strategies per episode. Clauses added between
/// beginLazy()/endLazy() are tagged for CEGAR deferral.
class Portfolio {
public:
  Portfolio();

  /// Selects the mode. Call once, before any variable or clause exists.
  /// \p PortfolioOn races portfolioStrategies() (member 0 stays the
  /// baseline); \p StrategyName, when non-empty, runs that single named
  /// configuration instead (must be a known name - validate upstream).
  /// The two are mutually exclusive; portfolio wins if both are set.
  void configure(bool PortfolioOn, const std::string &StrategyName);

  // -- the Solver interface the encoder consumes --------------------------
  Var newVar() { return Base.newVar(); }
  int numVars() const { return Base.numVars(); }
  bool addClause(std::vector<Lit> Lits);
  /// Short clauses skip the vector unless the op log records them.
  bool addClause(Lit A) {
    return RecordOps ? addClause(std::vector<Lit>{A}) : Base.addClause(A);
  }
  bool addClause(Lit A, Lit B) {
    return RecordOps ? addClause(std::vector<Lit>{A, B})
                     : Base.addClause(A, B);
  }
  bool addClause(Lit A, Lit B, Lit C) {
    return RecordOps ? addClause(std::vector<Lit>{A, B, C})
                     : Base.addClause(A, B, C);
  }
  bool addAtMost(std::vector<Lit> Lits, int K);
  /// Blocks the model of the last Sat answer (Solver::addBlockingClause).
  /// The log records it as an ordinary clause for helper replays.
  bool addBlockingClause(std::vector<Lit> Lits);
  void simplify() { Base.simplify(); }
  SolveResult solve() { return solve(std::vector<Lit>{}); }
  SolveResult solve(const std::vector<Lit> &Assumptions);
  Value modelValue(Var V) const { return Base.modelValue(V); }
  Value modelValue(Lit L) const { return Base.modelValue(L); }
  bool okay() const { return Base.okay(); }
  void setConflictBudget(uint64_t Conflicts) { Budget = Conflicts; }
  /// True when the last solve ended Unknown on budget. A race upgraded
  /// to Unsat reports false: the episode produced a real proof.
  bool budgetExhausted() const { return BudgetFlag; }
  const SolverStats &stats() const { return Base.stats(); }
  void setRandomSeed(uint64_t Seed);
  void setRecorder(obs::Recorder *R);

  // -- CEGAR tagging -------------------------------------------------------
  /// Marks subsequently added constraints as lazily materializable: the
  /// CEGAR strategy solves without them and re-adds only the ones a
  /// candidate model violates. Nestable.
  void beginLazy() { ++LazyDepth; }
  void endLazy() { --LazyDepth; }

  const PortfolioStats &portfolioStats() const { return PStats; }

private:
  /// One recorded constraint, replayable into a fresh helper solver.
  struct Op {
    enum KindTy : uint8_t { ClauseKind, AtMostKind } Kind = ClauseKind;
    std::vector<Lit> Lits;
    int Bound = 0;
    bool Lazy = false;
    /// CEGAR-as-primary only: already materialized into Base.
    bool Materialized = false;
  };

  SolveResult solveSingle(const std::vector<Lit> &Assumptions);
  SolveResult solveRace(const std::vector<Lit> &Assumptions);
  SolveResult runHelper(const SolverStrategy &S,
                        const std::vector<Lit> &Assumptions,
                        const std::atomic<bool> &Cancel) const;
  /// Replays Ops into \p Dst (skipping lazy ops when \p DeferLazy).
  /// Returns false when the replay is root-inconsistent (a real Unsat).
  bool replayInto(Solver &Dst, bool DeferLazy) const;
  /// True when \p O is violated by Dst's current model.
  static bool violatedUnderModel(const Solver &Dst, const Op &O);

  Solver Base;
  bool Enabled = false;
  const SolverStrategy *Single = nullptr;
  bool RecordOps = false;
  std::vector<Op> Ops;
  int LazyDepth = 0;
  uint64_t BaseSeed = 1;
  uint64_t Budget = 0;
  bool BudgetFlag = false;
  obs::Recorder *Obs = nullptr;
  PortfolioStats PStats;
};

} // namespace syrust::sat

#endif // SYRUST_SAT_PORTFOLIO_H
