//===--- Solver.h - CDCL SAT solver with cardinality constraints -*- C++ -*-===//
//
// Part of SyRust-CPP (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A conflict-driven clause-learning SAT solver with *native* Boolean
/// cardinality constraints (AtMost-k via counting propagation; AtLeast-k
/// is AtMost-(n-k) over the negated literals), standing in for Sat4J in
/// the original system. The synthesis encoder of
/// Section 4 / Appendix C emits both CNF clauses and the pseudo-Boolean
/// inequalities of Figure 14 directly to this interface.
///
/// Features: two-watched-literal propagation, first-UIP clause learning with
/// reason-based minimization, EVSIDS variable activities, phase saving, Luby
/// restarts, learned-clause reduction, assumption-based incremental solving,
/// and incremental clause addition between solve() calls.
///
/// Algorithm 1's solve-block-repeat loop enumerates without restarting
/// (Toda & Soh, "Implementing efficient all solutions SAT solvers", JEA
/// 2016): a Sat answer keeps its trail and assumptions, addBlockingClause()
/// adds the clause the model falsifies at the level it stands and
/// backjumps, and the next solve() under the same assumptions resumes from
/// there. Each model costs the re-decision of the blocked part only, not
/// a descent from the root.
///
//===----------------------------------------------------------------------===//

#ifndef SYRUST_SAT_SOLVER_H
#define SYRUST_SAT_SOLVER_H

#include "sat/SatTypes.h"

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

namespace syrust::obs {
class Recorder;
} // namespace syrust::obs

namespace syrust::sat {

struct SolverStrategy;

/// Aggregate search statistics, exposed for the micro benchmarks.
struct SolverStats {
  uint64_t Conflicts = 0;
  uint64_t Decisions = 0;
  uint64_t Propagations = 0;
  uint64_t Restarts = 0;
  uint64_t LearnedClauses = 0;
  uint64_t DeletedClauses = 0;
  uint64_t CardPropagations = 0;
};

/// CDCL solver. Not thread-safe; create one per synthesis task.
class Solver {
public:
  Solver();
  ~Solver();

  Solver(const Solver &) = delete;
  Solver &operator=(const Solver &) = delete;

  /// Creates a fresh variable and returns its index.
  Var newVar();

  /// Number of variables created so far.
  int numVars() const { return static_cast<int>(Assigns.size()); }

  /// Adds a clause (disjunction of \p Lits). Returns false if the solver
  /// became inconsistent at the root level (the clause, together with prior
  /// constraints, is unsatisfiable without search). Cancels the search to
  /// the root first.
  bool addClause(std::vector<Lit> Lits);

  /// Adds a clause every literal of which is false under the current
  /// assignment - in practice the clause that blocks the model of the last
  /// Sat answer - without leaving the current trail. When one literal sits
  /// on the clause's highest level the search backjumps to the next
  /// highest and asserts it; when several do, the clause is analyzed as a
  /// conflict and the search backjumps to the first-UIP level. Returns
  /// false, like addClause(), when every literal is false at the root: no
  /// model is left.
  bool addBlockingClause(std::vector<Lit> Lits);

  /// Convenience overloads; they build no vector.
  bool addClause(Lit A);
  bool addClause(Lit A, Lit B);
  bool addClause(Lit A, Lit B, Lit C);

  /// Adds the constraint "at most \p K of \p Lits are true".
  bool addAtMost(std::vector<Lit> Lits, int K);

  /// Detaches clauses satisfied at the root level (problem and learned)
  /// from the watch lists. Incremental clients that retire whole clause
  /// groups behind a selector literal (a unit clause satisfies every
  /// guarded clause at once) call this so the dead clauses stop taxing
  /// propagation.
  void simplify();

  /// Solves the current formula. Returns Sat and populates the model, or
  /// Unsat.
  SolveResult solve();

  /// Solves under the given assumptions (they act as temporary unit
  /// clauses). After Sat the solver keeps its trail and assumptions, so a
  /// following addBlockingClause() and solve() under the same assumptions
  /// resume the search where it stood; different assumptions, or any
  /// addClause(), addAtMost() or simplify(), cancel it to the root. Unsat
  /// and Unknown answers end at the root.
  SolveResult solve(const std::vector<Lit> &Assumptions);

  /// Value of \p V in the most recent satisfying model. Only valid after a
  /// Sat result.
  Value modelValue(Var V) const;

  /// Value of \p L in the most recent satisfying model.
  Value modelValue(Lit L) const;

  /// False once the formula has been proven unsatisfiable at the root.
  bool okay() const { return Ok; }

  /// Sets a per-solve conflict limit; 0 disables the limit. A solve that
  /// runs out of budget returns Unknown and sets budgetExhausted(); an
  /// Unknown is never an Unsat proof.
  void setConflictBudget(uint64_t Conflicts) { ConflictBudget = Conflicts; }

  /// True if the previous solve() stopped because of the conflict budget.
  /// The result of such a solve is Unknown, never Unsat.
  bool budgetExhausted() const { return BudgetHit; }

  const SolverStats &stats() const { return Stats; }

  /// Seeds the random tie-breaking used for a small fraction of decisions.
  /// Every seed gives its own search; a new solver starts at seed 1, the
  /// default of Portfolio and SynthOptions::SolverSeed too.
  void setRandomSeed(uint64_t Seed);

  /// Applies a search configuration (restart schedule, phase
  /// initialization, random-decision frequency). Call before adding
  /// variables: the phase default only affects variables created after.
  void applyStrategy(const SolverStrategy &S);

  /// Cooperative cancellation: while \p Flag (owned by the caller) reads
  /// true, any in-flight search() returns Unknown at the next decision
  /// boundary. Null (the default) disables the check. Used by the
  /// portfolio runner to cancel losing configurations.
  void setInterrupt(const std::atomic<bool> *Flag) { Interrupt = Flag; }

  /// Registers a one-shot callback fired from inside the next solve()
  /// once its episode accumulates \p ConflictThreshold conflicts. The
  /// trigger point is a deterministic property of the search (conflict
  /// counts do not depend on timing), so hook-launched work - the
  /// portfolio uses this to start helper racers only on hard episodes -
  /// starts at the same logical point on every run. Null clears it.
  void setProgressHook(uint64_t ConflictThreshold,
                       std::function<void()> Callback) {
    HookThreshold = ConflictThreshold;
    Hook = std::move(Callback);
  }

  /// Attaches the flight recorder; every solve() then emits a `sat.solve`
  /// trace event with its conflict/propagation/restart deltas and bumps
  /// the `sat.*` counters. Null (the default) disables instrumentation.
  void setRecorder(obs::Recorder *R) { Obs = R; }

private:
  // Clause storage: clauses live in a flat arena; a ClauseRef is an offset.
  using ClauseRef = uint32_t;
  static constexpr ClauseRef RefUndef = 0xffffffffu;

  struct ClauseHeader {
    uint32_t Size;
    uint32_t Learned : 1;
    uint32_t Mark : 1;
    float Activity;
  };

  struct Watcher {
    ClauseRef Ref;
    Lit Blocker;
  };

  /// Native cardinality constraint: at most K of Lits may be true.
  struct CardConstraint {
    std::vector<Lit> Lits;
    int K = 0;
    int TrueCount = 0; ///< Literals currently assigned true.
  };

  /// Why a variable was assigned.
  struct Reason {
    enum KindTy : uint8_t { None, ClauseKind, CardKind } Kind = None;
    uint32_t Index = 0;
  };

  struct VarData {
    Reason Why;
    int Level = 0;
    int TrailPos = 0;
  };

  // --- clause arena -------------------------------------------------------
  ClauseRef allocClause(const std::vector<Lit> &Lits, bool Learned);
  ClauseHeader &header(ClauseRef Ref);
  const ClauseHeader &header(ClauseRef Ref) const;
  Lit *lits(ClauseRef Ref);
  const Lit *lits(ClauseRef Ref) const;

  // --- assignment / propagation -------------------------------------------
  Value value(Var V) const { return Assigns[V]; }
  Value value(Lit L) const {
    Value V = Assigns[var(L)];
    return sign(L) ? !V : V;
  }
  int level(Var V) const { return VarInfo[V].Level; }
  int trailPos(Var V) const { return VarInfo[V].TrailPos; }
  int decisionLevel() const { return static_cast<int>(TrailLim.size()); }

  void enqueue(Lit P, Reason Why);
  /// Runs unit propagation; returns a conflicting constraint reason or a
  /// Reason with Kind==None when no conflict occurred.
  Reason propagate();
  bool propagateCard(uint32_t CardIdx, Reason &ConflictOut);
  void cancelUntil(int Level);

  // --- conflict analysis ---------------------------------------------------
  void analyze(Reason Conflict, std::vector<Lit> &Learned, int &BtLevel);
  bool litRedundant(Lit P);
  void collectReasonLits(Reason Why, Lit Implied, std::vector<Lit> &Out);

  // --- decisions ------------------------------------------------------------
  void varBumpActivity(Var V);
  void varDecayActivity();
  void claBumpActivity(ClauseRef Ref);
  void claDecayActivity();
  Lit pickBranchLit();

  // heap operations for the order heap keyed by activity
  void heapInsert(Var V);
  void heapUpdate(Var V);
  Var heapPop();
  bool heapEmpty() const { return Heap.empty(); }
  void heapPercolateUp(int Pos);
  void heapPercolateDown(int Pos);

  // --- top-level search ------------------------------------------------------
  SolveResult solveInner(const std::vector<Lit> &Assumps);
  SolveResult search();
  /// Learns the first-UIP clause of \p Conflict (at the current level),
  /// backjumps to its assertion level and asserts its UIP literal.
  void learnAndBackjump(Reason Conflict);
  void reduceDB();
  void attachClause(ClauseRef Ref);
  bool addClausePreprocessed(std::vector<Lit> &Lits);
  /// addClause() on \p Lits, which it may reorder and shrink.
  bool addClauseInPlace(std::vector<Lit> &Lits);
  static uint64_t luby(uint64_t I);

  // --- data -------------------------------------------------------------------
  bool Ok = true;
  std::vector<uint32_t> Arena; ///< Clause storage (headers + literals).
  std::vector<ClauseRef> LearnedRefs;
  std::vector<std::vector<Watcher>> Watches;   ///< Indexed by literal code.
  std::vector<CardConstraint> Cards;
  std::vector<std::vector<uint32_t>> CardOccs; ///< Literal code -> card ids.

  std::vector<Value> Assigns;
  std::vector<VarData> VarInfo;
  std::vector<Lit> Trail;
  std::vector<int> TrailLim;
  size_t QHead = 0;

  std::vector<double> Activity;
  std::vector<char> Polarity; ///< Saved phases (1 = last assigned false).
  std::vector<int> HeapPos;   ///< Var -> position in Heap, or -1.
  std::vector<Var> Heap;

  std::vector<char> Seen;
  // Conflict-analysis buffers, reused by every conflict.
  std::vector<Lit> LearnedBuf; ///< learnAndBackjump's learned clause.
  std::vector<Lit> ReasonBuf;  ///< The reason being read.
  std::vector<Lit> ClearBuf;   ///< analyze's Seen marks to undo.
  std::vector<Lit> ShortBuf;   ///< The short addClause overloads' clause.

  std::vector<Lit> Assumptions;
  std::vector<Value> Model;

  double VarInc = 1.0;
  double ClaInc = 1.0;
  uint64_t ConflictBudget = 0;
  bool BudgetHit = false;
  double MaxLearned = 0;
  uint64_t RandomState = 0; ///< xorshift state; see setRandomSeed().
  obs::Recorder *Obs = nullptr;

  // Strategy knobs (defaults reproduce the historical fixed constants).
  RestartPolicy RestartMode = RestartPolicy::Luby;
  uint64_t RestartUnit = 100;
  double RestartGrowth = 1.5; ///< Geometric schedule only.
  double RandomFreq = 0.02;
  char DefaultPhase = 1; ///< Initial saved phase of new vars (1 = false).

  const std::atomic<bool> *Interrupt = nullptr;
  uint64_t HookThreshold = 0;
  std::function<void()> Hook;
  bool HookFired = false;

  SolverStats Stats;
};

} // namespace syrust::sat

#endif // SYRUST_SAT_SOLVER_H
