//===--- Portfolio.cpp - Deterministic solver-strategy racing -------------===//
//
// Part of SyRust-CPP (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//

#include "sat/Portfolio.h"

#include "obs/Recorder.h"

#include <algorithm>
#include <thread>

using namespace syrust;
using namespace syrust::sat;

Portfolio::Portfolio() = default;

void Portfolio::configure(bool PortfolioOn, const std::string &StrategyName) {
  Enabled = PortfolioOn;
  Single = nullptr;
  if (!Enabled && !StrategyName.empty()) {
    Single = findStrategy(StrategyName);
    if (Single)
      Base.applyStrategy(*Single);
  }
  // The op log feeds helper replays (portfolio) or lazy materialization
  // (CEGAR as the primary); any other mode skips recording entirely.
  RecordOps = Enabled || (Single && Single->Cegar);
  setRandomSeed(BaseSeed);
}

void Portfolio::setRandomSeed(uint64_t Seed) {
  BaseSeed = Seed;
  Base.setRandomSeed(Single ? Seed ^ Single->SeedXor : Seed);
}

void Portfolio::setRecorder(obs::Recorder *R) {
  Obs = R;
  Base.setRecorder(R);
}

bool Portfolio::addClause(std::vector<Lit> Lits) {
  if (RecordOps) {
    Op O;
    O.Kind = Op::ClauseKind;
    O.Lits = Lits;
    O.Lazy = LazyDepth > 0;
    if (Single && Single->Cegar && O.Lazy) {
      // CEGAR as the primary: keep the clause out of the solver until a
      // candidate model violates it.
      Ops.push_back(std::move(O));
      return true;
    }
    O.Materialized = true;
    Ops.push_back(std::move(O));
  }
  return Base.addClause(std::move(Lits));
}

bool Portfolio::addAtMost(std::vector<Lit> Lits, int K) {
  if (RecordOps) {
    Op O;
    O.Kind = Op::AtMostKind;
    O.Lits = Lits;
    O.Bound = K;
    O.Lazy = LazyDepth > 0;
    if (Single && Single->Cegar && O.Lazy) {
      Ops.push_back(std::move(O));
      return true;
    }
    O.Materialized = true;
    Ops.push_back(std::move(O));
  }
  return Base.addAtMost(std::move(Lits), K);
}

bool Portfolio::addBlockingClause(std::vector<Lit> Lits) {
  if (RecordOps) {
    // Never deferred, even under beginLazy(): it blocks the model Base
    // has just answered.
    Op O;
    O.Kind = Op::ClauseKind;
    O.Lits = Lits;
    O.Materialized = true;
    Ops.push_back(std::move(O));
  }
  return Base.addBlockingClause(std::move(Lits));
}

bool Portfolio::violatedUnderModel(const Solver &Dst, const Op &O) {
  // Undef (out-of-model) literals count as not-true: a constraint may be
  // materialized although a completion could satisfy it, which costs a
  // clause but never masks a violation.
  int TrueCount = 0;
  for (Lit L : O.Lits)
    if (Dst.modelValue(L) == Value::True)
      ++TrueCount;
  if (O.Kind == Op::ClauseKind)
    return TrueCount == 0;
  return TrueCount > O.Bound;
}

bool Portfolio::replayInto(Solver &Dst, bool DeferLazy) const {
  for (int I = 0, E = Base.numVars(); I < E; ++I)
    Dst.newVar();
  for (const Op &O : Ops) {
    if (DeferLazy && O.Lazy)
      continue;
    bool Consistent = O.Kind == Op::ClauseKind
                          ? Dst.addClause(O.Lits)
                          : Dst.addAtMost(O.Lits, O.Bound);
    if (!Consistent)
      return false;
  }
  return true;
}

SolveResult Portfolio::runHelper(const SolverStrategy &S,
                                 const std::vector<Lit> &Assumptions,
                                 const std::atomic<bool> &Cancel) const {
  Solver H;
  H.applyStrategy(S); // Before newVar: the phase default must apply.
  H.setRandomSeed(BaseSeed ^ S.SeedXor);
  H.setInterrupt(&Cancel);
  if (!replayInto(H, S.Cegar))
    return SolveResult::Unsat; // Root-inconsistent replay: a real proof.

  uint64_t HelperBudget = Budget * S.BudgetFactor;
  if (!S.Cegar) {
    H.setConflictBudget(HelperBudget);
    return H.solve(Assumptions);
  }

  // CEGAR refinement: solve the relaxation, then treat each candidate
  // model as a counterexample query against the deferred (lazy) clauses -
  // the encoder-level counterpart of the rustsim checker oracle - and
  // materialize exactly the violated ones. An Unsat of any iteration is
  // an Unsat of the full formula (the relaxation only removes
  // constraints). One cumulative conflict budget spans all iterations.
  std::vector<char> Added(Ops.size(), 0);
  uint64_t Remaining = HelperBudget;
  while (true) {
    if (Remaining == 0)
      return SolveResult::Unknown;
    H.setConflictBudget(Remaining);
    uint64_t Before = H.stats().Conflicts;
    SolveResult R = H.solve(Assumptions);
    uint64_t Used = H.stats().Conflicts - Before;
    Remaining = Used < Remaining ? Remaining - Used : 0;
    if (R != SolveResult::Sat)
      return R;
    bool AnyViolated = false;
    for (size_t I = 0, E = Ops.size(); I < E; ++I) {
      const Op &O = Ops[I];
      if (!O.Lazy || Added[I] || !violatedUnderModel(H, O))
        continue;
      Added[I] = 1;
      AnyViolated = true;
      bool Consistent = O.Kind == Op::ClauseKind
                            ? H.addClause(O.Lits)
                            : H.addAtMost(O.Lits, O.Bound);
      if (!Consistent)
        return SolveResult::Unsat;
    }
    if (!AnyViolated)
      return SolveResult::Sat; // Genuine full-formula model; discarded.
  }
}

SolveResult Portfolio::solveSingle(const std::vector<Lit> &Assumptions) {
  Base.setConflictBudget(Budget * (Single ? Single->BudgetFactor : 1));
  if (!Single || !Single->Cegar) {
    SolveResult R = Base.solve(Assumptions);
    BudgetFlag = Base.budgetExhausted();
    return R;
  }
  // CEGAR as the primary solver: like the helper loop, but materialized
  // clauses go into the incremental solver permanently, so refinement
  // progress carries across episodes.
  while (true) {
    SolveResult R = Base.solve(Assumptions);
    BudgetFlag = Base.budgetExhausted();
    if (R != SolveResult::Sat)
      return R;
    bool AnyViolated = false;
    for (Op &O : Ops) {
      if (!O.Lazy || O.Materialized || !violatedUnderModel(Base, O))
        continue;
      O.Materialized = true;
      AnyViolated = true;
      bool Consistent = O.Kind == Op::ClauseKind
                            ? Base.addClause(O.Lits)
                            : Base.addAtMost(O.Lits, O.Bound);
      if (!Consistent) {
        BudgetFlag = false;
        return SolveResult::Unsat;
      }
    }
    if (!AnyViolated)
      return R;
  }
}

SolveResult Portfolio::solveRace(const std::vector<Lit> &Assumptions) {
  const std::vector<SolverStrategy> &Set = portfolioStrategies();
  size_t NumHelpers = Set.size() - 1;
  if (PStats.Wins.size() != Set.size())
    PStats.Wins.resize(Set.size(), 0);

  Base.setConflictBudget(Budget);
  if (Budget == 0 || NumHelpers == 0) {
    // Without a budget member 0 can never answer Unknown, so helper
    // proofs could never be consumed; skip the race entirely.
    SolveResult R = Base.solve(Assumptions);
    BudgetFlag = Base.budgetExhausted();
    return R;
  }

  std::atomic<bool> Cancel{false};
  std::vector<std::thread> Threads;
  std::vector<SolveResult> Results(NumHelpers, SolveResult::Unknown);
  bool Launched = false;

  // Racers launch only when the budget actually runs out - the hook
  // fires at a conflict count, a deterministic property of the search,
  // not of timing, and does so just before the budget check turns the
  // episode into an Unknown. Launching any earlier would pay three
  // formula replays on episodes member 0 still answers by itself, which
  // real workloads are dominated by.
  Base.setProgressHook(Budget, [&] {
    Launched = true;
    Threads.reserve(NumHelpers);
    for (size_t I = 0; I < NumHelpers; ++I)
      Threads.emplace_back([this, I, &Set, &Assumptions, &Cancel, &Results] {
        Results[I] = runHelper(Set[I + 1], Assumptions, Cancel);
      });
  });

  SolveResult R0 = Base.solve(Assumptions);
  Base.setProgressHook(0, nullptr);

  if (!Launched) {
    BudgetFlag = Base.budgetExhausted();
    return R0; // Easy episode: the race never started.
  }

  ++PStats.Races;
  SolveResult Final = R0;
  int Winner = 0; // Strategy index credited with the episode.
  uint64_t CancelsSent = 0;

  if (R0 != SolveResult::Unknown) {
    // Member 0 answered on its own; every racer loses.
    Cancel.store(true, std::memory_order_relaxed);
    CancelsSent = NumHelpers;
    for (std::thread &T : Threads)
      T.join();
  } else {
    // Member 0 gave up. Adopt the lowest-index helper Unsat proof:
    // joining in index order and cancelling only higher indices makes
    // the choice independent of finish order.
    Winner = -1;
    for (size_t I = 0; I < NumHelpers; ++I) {
      Threads[I].join();
      if (Winner < 0 && Results[I] == SolveResult::Unsat) {
        Winner = static_cast<int>(I) + 1;
        Cancel.store(true, std::memory_order_relaxed);
        CancelsSent = NumHelpers - I - 1;
      }
    }
  }

  if (Winner > 0) {
    Final = SolveResult::Unsat;
    ++PStats.UnsatWins;
  }
  if (Winner >= 0)
    ++PStats.Wins[static_cast<size_t>(Winner)];
  PStats.Cancels += CancelsSent;
  BudgetFlag = Final == SolveResult::Unknown;

  if (Obs) {
    const char *WinnerName = Winner >= 0 ? Set[Winner].Name : "none";
    Obs->count("sat.strategy.races");
    if (CancelsSent)
      Obs->count("sat.strategy.cancels", CancelsSent);
    if (Winner > 0)
      Obs->count("sat.strategy.unsat_wins");
    if (Winner >= 0)
      Obs->count(std::string("sat.strategy.win.") + WinnerName);
    obs::ArgList Args;
    Args.add("winner", WinnerName);
    Args.add("result", Final == SolveResult::Sat     ? "sat"
                       : Final == SolveResult::Unsat ? "unsat"
                                                     : "unknown");
    Args.add("cancels", CancelsSent);
    Obs->instant("sat.strategy.race", "sat", Args);
  }
  return Final;
}

SolveResult Portfolio::solve(const std::vector<Lit> &Assumptions) {
  if (!Enabled)
    return solveSingle(Assumptions);
  return solveRace(Assumptions);
}
