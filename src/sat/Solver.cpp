//===--- Solver.cpp - CDCL SAT solver with cardinality constraints --------===//
//
// Part of SyRust-CPP (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//

#include "sat/Solver.h"

#include "obs/Recorder.h"
#include "sat/SolverStrategy.h"
#include "support/Rng.h"

#include <algorithm>
#include <cassert>
#include <cstring>

using namespace syrust::sat;

namespace {
// EVSIDS / clause-activity tuning constants (MiniSat defaults). The
// restart schedule and random-decision frequency are per-solver knobs
// (SolverStrategy); their defaults match the historical constants here.
constexpr double VarDecay = 0.95;
constexpr double ClaDecay = 0.999;
constexpr double RescaleLimit = 1e100;
} // namespace

Solver::Solver() { setRandomSeed(1); }
Solver::~Solver() = default;

//===----------------------------------------------------------------------===//
// Variable and constraint creation
//===----------------------------------------------------------------------===//

Var Solver::newVar() {
  Var V = numVars();
  Assigns.push_back(Value::Undef);
  VarInfo.push_back(VarData{});
  Activity.push_back(0.0);
  Polarity.push_back(DefaultPhase); // 1 = false (the MiniSat default).
  HeapPos.push_back(-1);
  Seen.push_back(0);
  Watches.emplace_back();
  Watches.emplace_back();
  CardOccs.emplace_back();
  CardOccs.emplace_back();
  heapInsert(V);
  return V;
}

Solver::ClauseRef Solver::allocClause(const std::vector<Lit> &Lits,
                                      bool Learned) {
  assert(Lits.size() >= 2 && "allocClause requires a non-unit clause");
  static_assert(sizeof(ClauseHeader) == 3 * sizeof(uint32_t),
                "arena layout assumes a 3-word header");
  ClauseRef Ref = static_cast<ClauseRef>(Arena.size());
  Arena.resize(Arena.size() + 3 + Lits.size());
  ClauseHeader &H = header(Ref);
  H.Size = static_cast<uint32_t>(Lits.size());
  H.Learned = Learned;
  H.Mark = 0;
  H.Activity = 0;
  std::memcpy(lits(Ref), Lits.data(), Lits.size() * sizeof(Lit));
  return Ref;
}

Solver::ClauseHeader &Solver::header(ClauseRef Ref) {
  return *reinterpret_cast<ClauseHeader *>(&Arena[Ref]);
}

const Solver::ClauseHeader &Solver::header(ClauseRef Ref) const {
  return *reinterpret_cast<const ClauseHeader *>(&Arena[Ref]);
}

Lit *Solver::lits(ClauseRef Ref) {
  return reinterpret_cast<Lit *>(&Arena[Ref + 3]);
}

const Lit *Solver::lits(ClauseRef Ref) const {
  return reinterpret_cast<const Lit *>(&Arena[Ref + 3]);
}

void Solver::attachClause(ClauseRef Ref) {
  const Lit *C = lits(Ref);
  Watches[C[0].Code].push_back(Watcher{Ref, C[1]});
  Watches[C[1].Code].push_back(Watcher{Ref, C[0]});
}

/// Normalizes \p Lits in place: sorts, removes duplicates and literals that
/// are false at the root, and detects tautologies / satisfied clauses.
/// Returns false if the clause is already satisfied or tautological (and
/// therefore should not be added).
bool Solver::addClausePreprocessed(std::vector<Lit> &Lits) {
  assert(decisionLevel() == 0 && "preprocess only at the root level");
  std::sort(Lits.begin(), Lits.end());
  Lit Prev = LitUndef;
  size_t Out = 0;
  for (Lit L : Lits) {
    assert(var(L) >= 0 && var(L) < numVars() && "literal over unknown var");
    if (value(L) == Value::True || L == ~Prev)
      return false; // Satisfied at root, or a tautology.
    if (value(L) == Value::False || L == Prev)
      continue; // Falsified at root, or duplicate.
    Lits[Out++] = Prev = L;
  }
  Lits.resize(Out);
  return true;
}

bool Solver::addClause(std::vector<Lit> Lits) {
  return addClauseInPlace(Lits);
}

bool Solver::addClauseInPlace(std::vector<Lit> &Lits) {
  if (!Ok)
    return false;
  if (decisionLevel() != 0)
    cancelUntil(0);
  if (!addClausePreprocessed(Lits))
    return true; // Trivially satisfied; nothing to add.
  if (Lits.empty()) {
    Ok = false;
    return false;
  }
  if (Lits.size() == 1) {
    enqueue(Lits[0], Reason{});
    if (propagate().Kind != Reason::None)
      Ok = false;
    return Ok;
  }
  ClauseRef Ref = allocClause(Lits, /*Learned=*/false);
  attachClause(Ref);
  return true;
}

bool Solver::addBlockingClause(std::vector<Lit> Lits) {
  if (!Ok)
    return false;
  // Root-false literals can never become true; drop them as addClause
  // does. Every other literal is false at some level of the kept trail.
  size_t Out = 0;
  for (Lit L : Lits) {
    assert(value(L) == Value::False &&
           "blocking clause must be false under the current assignment");
    if (level(var(L)) > 0)
      Lits[Out++] = L;
  }
  Lits.resize(Out);
  if (Lits.empty()) {
    // Every literal is root-false: no model is left.
    cancelUntil(0);
    Ok = false;
    return false;
  }
  // The highest-level literal goes first and the next highest second:
  // they are the clause's watches once the search backjumps below them.
  for (size_t W = 0; W < 2 && W < Lits.size(); ++W)
    for (size_t I = W + 1; I < Lits.size(); ++I)
      if (level(var(Lits[I])) > level(var(Lits[W])))
        std::swap(Lits[I], Lits[W]);
  if (Lits.size() == 1) {
    // A unit clause asserts its literal at the root.
    cancelUntil(0);
    enqueue(Lits[0], Reason{});
    return true;
  }
  const int Top = level(var(Lits[0]));
  const int Second = level(var(Lits[1]));
  cancelUntil(Top);
  ClauseRef Ref = allocClause(Lits, /*Learned=*/false);
  attachClause(Ref);
  if (Second == Top) {
    // Two or more literals share the top level: the clause is a conflict
    // there, and its first-UIP clause names the backjump level.
    learnAndBackjump(Reason{Reason::ClauseKind, Ref});
    return true;
  }
  // One literal on the top level: the clause asserts it at the next
  // highest level.
  cancelUntil(Second);
  enqueue(Lits[0], Reason{Reason::ClauseKind, Ref});
  return true;
}

bool Solver::addClause(Lit A) {
  ShortBuf.assign({A});
  return addClauseInPlace(ShortBuf);
}
bool Solver::addClause(Lit A, Lit B) {
  ShortBuf.assign({A, B});
  return addClauseInPlace(ShortBuf);
}
bool Solver::addClause(Lit A, Lit B, Lit C) {
  ShortBuf.assign({A, B, C});
  return addClauseInPlace(ShortBuf);
}

bool Solver::addAtMost(std::vector<Lit> Lits, int K) {
  if (!Ok)
    return false;
  if (decisionLevel() != 0)
    cancelUntil(0);

  // Fold in root-level assignments: true literals consume budget, false
  // literals can never contribute.
  size_t Out = 0;
  for (Lit L : Lits) {
    assert(var(L) >= 0 && var(L) < numVars() && "literal over unknown var");
    if (value(L) == Value::True) {
      --K;
      continue;
    }
    if (value(L) == Value::False)
      continue;
    Lits[Out++] = L;
  }
  Lits.resize(Out);

  if (K < 0) {
    Ok = false;
    return false;
  }
  if (static_cast<int>(Lits.size()) <= K)
    return true; // Trivially satisfied.
  if (K == 0) {
    // Degenerates to unit clauses.
    for (Lit L : Lits)
      if (!addClause(~L))
        return false;
    return Ok;
  }
  if (Lits.size() == static_cast<size_t>(K) + 1) {
    // AtMost(n-1 of n) is one clause over the negations.
    std::vector<Lit> Negated;
    Negated.reserve(Lits.size());
    for (Lit L : Lits)
      Negated.push_back(~L);
    return addClause(std::move(Negated));
  }

  uint32_t Idx = static_cast<uint32_t>(Cards.size());
  Cards.push_back(CardConstraint{std::move(Lits), K, 0});
  for (Lit L : Cards.back().Lits)
    CardOccs[L.Code].push_back(Idx);
  return true;
}

//===----------------------------------------------------------------------===//
// Assignment and propagation
//===----------------------------------------------------------------------===//

void Solver::enqueue(Lit P, Reason Why) {
  assert(value(P) == Value::Undef && "enqueue over assigned literal");
  Var V = var(P);
  Assigns[V] = sign(P) ? Value::False : Value::True;
  VarInfo[V] = VarData{Why, decisionLevel(), static_cast<int>(Trail.size())};
  // Cardinality counters track enqueued-true literals; symmetric decrement
  // happens in cancelUntil.
  for (uint32_t CardIdx : CardOccs[P.Code])
    ++Cards[CardIdx].TrueCount;
  Trail.push_back(P);
}

void Solver::cancelUntil(int Level) {
  if (decisionLevel() <= Level)
    return;
  int Bound = TrailLim[Level];
  for (int I = static_cast<int>(Trail.size()) - 1; I >= Bound; --I) {
    Lit P = Trail[I];
    Var V = var(P);
    for (uint32_t CardIdx : CardOccs[P.Code])
      --Cards[CardIdx].TrueCount;
    Assigns[V] = Value::Undef;
    Polarity[V] = static_cast<char>(sign(P)); // Phase saving.
    if (HeapPos[V] < 0)
      heapInsert(V);
  }
  Trail.resize(Bound);
  TrailLim.resize(Level);
  QHead = Trail.size();
}

bool Solver::propagateCard(uint32_t CardIdx, Reason &ConflictOut) {
  CardConstraint &Card = Cards[CardIdx];
  if (Card.TrueCount > Card.K) {
    ConflictOut = Reason{Reason::CardKind, CardIdx};
    return false;
  }
  if (Card.TrueCount < Card.K)
    return true;
  // Saturated: every remaining literal must be false.
  for (Lit L : Card.Lits) {
    if (value(L) == Value::Undef) {
      ++Stats.CardPropagations;
      enqueue(~L, Reason{Reason::CardKind, CardIdx});
    } else if (value(L) == Value::True && Card.TrueCount > Card.K) {
      // A concurrent enqueue pushed us over; report the conflict.
      ConflictOut = Reason{Reason::CardKind, CardIdx};
      return false;
    }
  }
  return true;
}

Solver::Reason Solver::propagate() {
  Reason Conflict;
  while (QHead < Trail.size()) {
    Lit P = Trail[QHead++];
    ++Stats.Propagations;

    // Cardinality constraints containing P just gained a true literal.
    for (uint32_t CardIdx : CardOccs[P.Code]) {
      if (!propagateCard(CardIdx, Conflict)) {
        QHead = Trail.size();
        return Conflict;
      }
    }

    // Clause propagation: ~P became false; visit clauses watching ~P.
    Lit FalseLit = ~P;
    std::vector<Watcher> &Ws = Watches[FalseLit.Code];
    size_t I = 0, J = 0;
    while (I < Ws.size()) {
      Watcher W = Ws[I++];
      if (value(W.Blocker) == Value::True) {
        Ws[J++] = W;
        continue;
      }
      ClauseRef Ref = W.Ref;
      Lit *C = lits(Ref);
      if (C[0] == FalseLit)
        std::swap(C[0], C[1]);
      assert(C[1] == FalseLit && "watched literal bookkeeping broken");
      if (value(C[0]) == Value::True) {
        Ws[J++] = Watcher{Ref, C[0]};
        continue;
      }
      // Look for a replacement watch.
      uint32_t Size = header(Ref).Size;
      bool Moved = false;
      for (uint32_t K = 2; K < Size; ++K) {
        if (value(C[K]) != Value::False) {
          std::swap(C[1], C[K]);
          Watches[C[1].Code].push_back(Watcher{Ref, C[0]});
          Moved = true;
          break;
        }
      }
      if (Moved)
        continue;
      // Unit or conflicting.
      Ws[J++] = Watcher{Ref, C[0]};
      if (value(C[0]) == Value::False) {
        // Conflict: flush the rest of the watch list and bail out.
        while (I < Ws.size())
          Ws[J++] = Ws[I++];
        Ws.resize(J);
        QHead = Trail.size();
        return Reason{Reason::ClauseKind, Ref};
      }
      enqueue(C[0], Reason{Reason::ClauseKind, Ref});
    }
    Ws.resize(J);
  }
  return Conflict;
}

//===----------------------------------------------------------------------===//
// Conflict analysis
//===----------------------------------------------------------------------===//

void Solver::collectReasonLits(Reason Why, Lit Implied,
                               std::vector<Lit> &Out) {
  Out.clear();
  if (Why.Kind == Reason::ClauseKind) {
    const Lit *C = lits(Why.Index);
    uint32_t Size = header(Why.Index).Size;
    for (uint32_t I = 0; I < Size; ++I)
      if (C[I] != Implied)
        Out.push_back(C[I]);
    if (header(Why.Index).Learned)
      claBumpActivity(Why.Index);
    return;
  }
  assert(Why.Kind == Reason::CardKind && "reason must exist");
  // For AtMost-K: the implied literal ~l (or a conflict) is explained by K
  // (respectively K+1) literals of the constraint that were true first.
  const CardConstraint &Card = Cards[Why.Index];
  int Needed = Card.K + (Implied == LitUndef ? 1 : 0);
  int ImpliedPos = Implied == LitUndef
                       ? static_cast<int>(Trail.size())
                       : trailPos(var(Implied));
  for (Lit L : Card.Lits) {
    if (value(L) == Value::True && trailPos(var(L)) < ImpliedPos)
      Out.push_back(~L);
  }
  std::sort(Out.begin(), Out.end(), [this](Lit A, Lit B) {
    return trailPos(var(A)) < trailPos(var(B));
  });
  assert(static_cast<int>(Out.size()) >= Needed &&
         "cardinality explanation underdetermined");
  Out.resize(Needed);
}

bool Solver::litRedundant(Lit P) {
  // Local (non-recursive) minimization, MiniSat's "basic" mode: P is
  // redundant iff every antecedent of its reason is already in the learned
  // clause (Seen) or fixed at the root level. Deeper recursive schemes must
  // undo marks on failure; the local check needs no extra marking and is
  // always sound. A clause reason is read where it is stored.
  Reason Why = VarInfo[var(P)].Why;
  auto Covered = [this](Lit Q) {
    return level(var(Q)) == 0 || Seen[var(Q)];
  };
  if (Why.Kind == Reason::None)
    return false;
  if (Why.Kind == Reason::CardKind) {
    collectReasonLits(Why, ~P, ReasonBuf);
    return std::all_of(ReasonBuf.begin(), ReasonBuf.end(), Covered);
  }
  // Reading a learned reason counts as a use, as in analyze().
  if (header(Why.Index).Learned)
    claBumpActivity(Why.Index);
  const Lit *C = lits(Why.Index);
  for (uint32_t I = 0, Size = header(Why.Index).Size; I < Size; ++I)
    if (C[I] != ~P && !Covered(C[I]))
      return false;
  return true;
}

void Solver::analyze(Reason Conflict, std::vector<Lit> &Learned,
                     int &BtLevel) {
  Learned.clear();
  Learned.push_back(LitUndef); // Slot for the asserting literal.
  int Counter = 0;
  Lit P = LitUndef;
  int Index = static_cast<int>(Trail.size()) - 1;

  for (;;) {
    collectReasonLits(Conflict, P, ReasonBuf);
    for (Lit Q : ReasonBuf) {
      Var V = var(Q);
      assert(value(Q) == Value::False && "antecedents must be falsified");
      if (Seen[V] || level(V) == 0)
        continue;
      Seen[V] = 1;
      varBumpActivity(V);
      if (level(V) >= decisionLevel())
        ++Counter;
      else
        Learned.push_back(Q);
    }
    // Walk the trail backwards to the next marked literal.
    while (!Seen[var(Trail[Index])])
      --Index;
    P = Trail[Index];
    --Index;
    Conflict = VarInfo[var(P)].Why;
    Seen[var(P)] = 0;
    if (--Counter <= 0)
      break;
  }
  Learned[0] = ~P;

  // Minimization: drop literals whose reasons are subsumed by the clause.
  // Seen marks must be cleared for *all* originally collected literals,
  // including the dropped ones, so snapshot before minimizing.
  ClearBuf.assign(Learned.begin() + 1, Learned.end());
  size_t Out = 1;
  for (size_t I = 1; I < Learned.size(); ++I) {
    if (!litRedundant(Learned[I]))
      Learned[Out++] = Learned[I];
  }
  Learned.resize(Out);

  // Compute the backtrack level (highest level below the current one) and
  // place a literal of that level at position 1 for watching.
  if (Learned.size() == 1) {
    BtLevel = 0;
  } else {
    size_t MaxIdx = 1;
    for (size_t I = 2; I < Learned.size(); ++I)
      if (level(var(Learned[I])) > level(var(Learned[MaxIdx])))
        MaxIdx = I;
    std::swap(Learned[1], Learned[MaxIdx]);
    BtLevel = level(var(Learned[1]));
  }

  // Clear the seen markers.
  Seen[var(Learned[0])] = 0;
  for (Lit L : ClearBuf)
    Seen[var(L)] = 0;
}

//===----------------------------------------------------------------------===//
// Activities and branching
//===----------------------------------------------------------------------===//

void Solver::varBumpActivity(Var V) {
  Activity[V] += VarInc;
  if (Activity[V] > RescaleLimit) {
    for (double &A : Activity)
      A *= 1e-100;
    VarInc *= 1e-100;
  }
  if (HeapPos[V] >= 0)
    heapUpdate(V);
}

void Solver::varDecayActivity() { VarInc /= VarDecay; }

void Solver::claBumpActivity(ClauseRef Ref) {
  ClauseHeader &H = header(Ref);
  H.Activity += static_cast<float>(ClaInc);
  if (H.Activity > 1e20f) {
    for (ClauseRef L : LearnedRefs)
      header(L).Activity *= 1e-20f;
    ClaInc *= 1e-20;
  }
}

void Solver::claDecayActivity() { ClaInc /= ClaDecay; }

void Solver::heapInsert(Var V) {
  HeapPos[V] = static_cast<int>(Heap.size());
  Heap.push_back(V);
  heapPercolateUp(HeapPos[V]);
}

void Solver::heapUpdate(Var V) { heapPercolateUp(HeapPos[V]); }

Var Solver::heapPop() {
  Var Top = Heap[0];
  HeapPos[Top] = -1;
  Heap[0] = Heap.back();
  Heap.pop_back();
  if (!Heap.empty()) {
    HeapPos[Heap[0]] = 0;
    heapPercolateDown(0);
  }
  return Top;
}

void Solver::heapPercolateUp(int Pos) {
  Var V = Heap[Pos];
  while (Pos > 0) {
    int Parent = (Pos - 1) >> 1;
    if (Activity[Heap[Parent]] >= Activity[V])
      break;
    Heap[Pos] = Heap[Parent];
    HeapPos[Heap[Pos]] = Pos;
    Pos = Parent;
  }
  Heap[Pos] = V;
  HeapPos[V] = Pos;
}

void Solver::heapPercolateDown(int Pos) {
  Var V = Heap[Pos];
  int Size = static_cast<int>(Heap.size());
  for (;;) {
    int Child = 2 * Pos + 1;
    if (Child >= Size)
      break;
    if (Child + 1 < Size &&
        Activity[Heap[Child + 1]] > Activity[Heap[Child]])
      ++Child;
    if (Activity[Heap[Child]] <= Activity[V])
      break;
    Heap[Pos] = Heap[Child];
    HeapPos[Heap[Pos]] = Pos;
    Pos = Child;
  }
  Heap[Pos] = V;
  HeapPos[V] = Pos;
}

void Solver::setRandomSeed(uint64_t Seed) {
  // SplitMix64 is a bijection, so distinct seeds give distinct searches.
  // The one seed it maps to zero, a state xorshift never leaves, gets a
  // fixed non-zero state instead.
  RandomState = splitMix64(Seed);
  if (RandomState == 0)
    RandomState = 0x9e3779b97f4a7c15ULL;
}

void Solver::applyStrategy(const SolverStrategy &S) {
  RestartMode = S.Restart;
  RestartUnit = S.RestartUnit;
  RestartGrowth = S.RestartGrowth;
  RandomFreq = S.RandomFreq;
  DefaultPhase = S.PositivePhase ? 0 : 1;
  for (char &P : Polarity)
    P = DefaultPhase;
}

Lit Solver::pickBranchLit() {
  // Occasional random decision for diversification.
  auto NextRandom = [this]() {
    RandomState ^= RandomState << 13;
    RandomState ^= RandomState >> 7;
    RandomState ^= RandomState << 17;
    return RandomState;
  };
  Var Next = VarUndef;
  if (!Heap.empty() &&
      (NextRandom() % 1000) < static_cast<uint64_t>(RandomFreq * 1000)) {
    Var Candidate = Heap[NextRandom() % Heap.size()];
    if (value(Candidate) == Value::Undef)
      Next = Candidate;
  }
  while (Next == VarUndef || value(Next) != Value::Undef) {
    if (heapEmpty())
      return LitUndef;
    Next = heapPop();
  }
  return mkLit(Next, Polarity[Next] != 0);
}

//===----------------------------------------------------------------------===//
// Learned clause management
//===----------------------------------------------------------------------===//

void Solver::reduceDB() {
  // Sort learned clauses by activity, keep the most active half, and never
  // delete clauses that are currently reasons.
  std::sort(LearnedRefs.begin(), LearnedRefs.end(),
            [this](ClauseRef A, ClauseRef B) {
              return header(A).Activity < header(B).Activity;
            });
  auto IsLocked = [this](ClauseRef Ref) {
    const Lit *C = lits(Ref);
    Var V = var(C[0]);
    return value(C[0]) == Value::True &&
           VarInfo[V].Why.Kind == Reason::ClauseKind &&
           VarInfo[V].Why.Index == Ref;
  };
  size_t Keep = LearnedRefs.size() / 2;
  size_t Out = 0;
  for (size_t I = 0; I < LearnedRefs.size(); ++I) {
    ClauseRef Ref = LearnedRefs[I];
    if (I < Keep && header(Ref).Size > 2 && !IsLocked(Ref)) {
      // Detach from watch lists; the arena slot is abandoned.
      for (int W = 0; W < 2; ++W) {
        std::vector<Watcher> &Ws = Watches[lits(Ref)[W].Code];
        for (size_t K = 0; K < Ws.size(); ++K) {
          if (Ws[K].Ref == Ref) {
            Ws[K] = Ws.back();
            Ws.pop_back();
            break;
          }
        }
      }
      header(Ref).Mark = 1;
      ++Stats.DeletedClauses;
      continue;
    }
    LearnedRefs[Out++] = Ref;
  }
  LearnedRefs.resize(Out);
}

void Solver::simplify() {
  if (!Ok)
    return;
  if (decisionLevel() != 0)
    cancelUntil(0);
  if (propagate().Kind != Reason::None) {
    Ok = false;
    return;
  }
  // Root assignments never backtrack, so their reasons are dead (conflict
  // analysis skips level-0 literals); drop them so detaching a clause that
  // served as a root reason leaves no dangling reference.
  for (Lit L : Trail)
    VarInfo[var(L)].Why = Reason{};
  // The arena stores clauses contiguously; walk it and detach every live
  // clause a root assignment satisfies.
  size_t At = 0;
  while (At < Arena.size()) {
    ClauseRef Ref = static_cast<ClauseRef>(At);
    ClauseHeader &H = header(Ref);
    At += 3 + H.Size;
    if (H.Mark)
      continue;
    const Lit *C = lits(Ref);
    bool Satisfied = false;
    for (uint32_t I = 0; I < H.Size && !Satisfied; ++I)
      Satisfied = value(C[I]) == Value::True;
    if (!Satisfied)
      continue;
    for (int W = 0; W < 2; ++W) {
      std::vector<Watcher> &Ws = Watches[C[W].Code];
      for (size_t K = 0; K < Ws.size(); ++K) {
        if (Ws[K].Ref == Ref) {
          Ws[K] = Ws.back();
          Ws.pop_back();
          break;
        }
      }
    }
    H.Mark = 1;
    ++Stats.DeletedClauses;
  }
  LearnedRefs.erase(std::remove_if(LearnedRefs.begin(), LearnedRefs.end(),
                                   [this](ClauseRef Ref) {
                                     return header(Ref).Mark != 0;
                                   }),
                    LearnedRefs.end());
}

//===----------------------------------------------------------------------===//
// Search
//===----------------------------------------------------------------------===//

uint64_t Solver::luby(uint64_t I) {
  // Finds the Luby sequence value for step I (1-based).
  uint64_t K = 1;
  while ((1ull << (K + 1)) - 1 <= I)
    ++K;
  while (I != (1ull << K) - 1) {
    I -= (1ull << K) - 1;
    K = 1;
    while ((1ull << (K + 1)) - 1 <= I)
      ++K;
  }
  return 1ull << (K - 1);
}

void Solver::learnAndBackjump(Reason Conflict) {
  std::vector<Lit> &Learned = LearnedBuf;
  int BtLevel = 0;
  analyze(Conflict, Learned, BtLevel);
  cancelUntil(BtLevel);
  if (Learned.size() == 1) {
    enqueue(Learned[0], Reason{});
  } else {
    ClauseRef Ref = allocClause(Learned, /*Learned=*/true);
    LearnedRefs.push_back(Ref);
    ++Stats.LearnedClauses;
    claBumpActivity(Ref);
    attachClause(Ref);
    enqueue(Learned[0], Reason{Reason::ClauseKind, Ref});
  }
  varDecayActivity();
  claDecayActivity();
}

SolveResult Solver::search() {
  uint64_t RestartNum = 0;
  uint64_t ConflictsAtStart = Stats.Conflicts;
  auto NextRestartLimit = [this, &RestartNum]() {
    ++RestartNum;
    if (RestartMode == RestartPolicy::Luby)
      return luby(RestartNum) * RestartUnit;
    double Limit = static_cast<double>(RestartUnit);
    for (uint64_t I = 1; I < RestartNum; ++I)
      Limit *= RestartGrowth;
    return static_cast<uint64_t>(Limit) + 1;
  };
  uint64_t ConflictsUntilRestart = NextRestartLimit();
  uint64_t ConflictsThisRestart = 0;

  for (;;) {
    if (Interrupt && Interrupt->load(std::memory_order_relaxed)) {
      cancelUntil(0);
      return SolveResult::Unknown;
    }
    Reason Conflict = propagate();
    if (Conflict.Kind != Reason::None) {
      ++Stats.Conflicts;
      ++ConflictsThisRestart;
      if (decisionLevel() == 0) {
        Ok = false;
        return SolveResult::Unsat;
      }
      learnAndBackjump(Conflict);
      if (Hook && !HookFired &&
          Stats.Conflicts - ConflictsAtStart >= HookThreshold) {
        HookFired = true;
        Hook();
      }
      if (ConflictBudget != 0 &&
          Stats.Conflicts - ConflictsAtStart >= ConflictBudget) {
        // Out of budget: no verdict. Returning Unsat here would let a
        // caller that forgets budgetExhausted() treat a timeout as a
        // proof and retire a still-live part of the search space.
        BudgetHit = true;
        cancelUntil(0);
        return SolveResult::Unknown;
      }
      continue;
    }

    if (ConflictsThisRestart >= ConflictsUntilRestart) {
      ++Stats.Restarts;
      ConflictsUntilRestart = NextRestartLimit();
      ConflictsThisRestart = 0;
      cancelUntil(0);
      continue;
    }

    if (MaxLearned > 0 &&
        static_cast<double>(LearnedRefs.size()) >
            MaxLearned + static_cast<double>(Trail.size())) {
      reduceDB();
      MaxLearned *= 1.05;
    }

    // Assumption handling, then a fresh decision.
    Lit Next = LitUndef;
    while (decisionLevel() < static_cast<int>(Assumptions.size())) {
      Lit A = Assumptions[decisionLevel()];
      if (value(A) == Value::True) {
        TrailLim.push_back(static_cast<int>(Trail.size()));
        continue;
      }
      if (value(A) == Value::False)
        return SolveResult::Unsat; // Assumptions conflict with the formula.
      Next = A;
      break;
    }
    if (Next == LitUndef) {
      Next = pickBranchLit();
      if (Next == LitUndef) {
        // All variables assigned: a model. The trail stays for the next
        // solve() to resume from.
        Model.assign(Assigns.begin(), Assigns.end());
        return SolveResult::Sat;
      }
      ++Stats.Decisions;
    }
    TrailLim.push_back(static_cast<int>(Trail.size()));
    enqueue(Next, Reason{});
  }
}

SolveResult Solver::solve() { return solve({}); }

SolveResult Solver::solve(const std::vector<Lit> &Assumps) {
  uint64_t Conflicts0 = Stats.Conflicts;
  uint64_t Propagations0 = Stats.Propagations;
  uint64_t Restarts0 = Stats.Restarts;
  SolveResult Result = solveInner(Assumps);
  if (Obs) {
    uint64_t Conflicts = Stats.Conflicts - Conflicts0;
    uint64_t Propagations = Stats.Propagations - Propagations0;
    uint64_t Restarts = Stats.Restarts - Restarts0;
    Obs->instant("sat.solve", "sat",
                 obs::ArgList()
                     .add("result", Result == SolveResult::Sat ? "sat"
                          : Result == SolveResult::Unsat ? "unsat"
                                                         : "unknown")
                     .add("conflicts", Conflicts)
                     .add("propagations", Propagations)
                     .add("restarts", Restarts)
                     .add("budget_hit", BudgetHit));
    Obs->count("sat.solve_calls");
    Obs->count("sat.conflicts", Conflicts);
    Obs->count("sat.propagations", Propagations);
    Obs->count("sat.restarts", Restarts);
    Obs->observe("sat.conflicts_per_solve",
                 static_cast<double>(Conflicts));
  }
  return Result;
}

SolveResult Solver::solveInner(const std::vector<Lit> &Assumps) {
  BudgetHit = false;
  HookFired = false;
  if (!Ok)
    return SolveResult::Unsat;
  // Under unchanged assumptions the search resumes from the trail the
  // last Sat answer kept, as a blocking clause's backjump left it.
  if (Assumps != Assumptions) {
    cancelUntil(0);
    Assumptions = Assumps;
  }
  if (MaxLearned == 0)
    MaxLearned = 4000;
  // Only a conflict at the root proves the formula Unsat; one at a kept
  // level is an ordinary search conflict.
  if (decisionLevel() == 0 && propagate().Kind != Reason::None) {
    Ok = false;
    return SolveResult::Unsat;
  }
  SolveResult Result = search();
  if (Result != SolveResult::Sat) {
    cancelUntil(0);
    Assumptions.clear();
  }
  return Result;
}

Value Solver::modelValue(Var V) const {
  // Out-of-range queries answer Undef rather than asserting: enumeration
  // clients may project over variables created after the model was found
  // (e.g. a fresh generation guard), and those have no recorded value.
  if (V < 0 || static_cast<size_t>(V) >= Model.size())
    return Value::Undef;
  return Model[V];
}

Value Solver::modelValue(Lit L) const {
  Value V = modelValue(var(L));
  return sign(L) ? !V : V;
}
