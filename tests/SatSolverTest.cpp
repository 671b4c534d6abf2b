//===--- SatSolverTest.cpp - Unit and property tests for the CDCL core ----===//
//
// Part of SyRust-CPP (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//

#include "sat/Portfolio.h"
#include "sat/Solver.h"
#include "sat/SolverStrategy.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

using namespace syrust;
using namespace syrust::sat;

namespace {

std::vector<Var> makeVars(Solver &S, int N) {
  std::vector<Var> Vars;
  for (int I = 0; I < N; ++I)
    Vars.push_back(S.newVar());
  return Vars;
}

/// \p Lits with every literal negated: AtLeast-k of n literals is
/// AtMost-(n-k) of their negations.
std::vector<Lit> negated(std::vector<Lit> Lits) {
  for (Lit &L : Lits)
    L = ~L;
  return Lits;
}

/// The clause that blocks the current model's values on \p Projection.
std::vector<Lit> blockingClause(const Solver &S,
                                const std::vector<Var> &Projection) {
  std::vector<Lit> Blocking;
  for (Var V : Projection)
    Blocking.push_back(mkLit(V, S.modelValue(V) == Value::True));
  return Blocking;
}

/// Algorithm 1's solve-and-block loop over a projection: calls \p OnModel
/// on each model, then blocks the model's values on \p Projection.
/// Returns the model count, stopping one past \p Limit so that a
/// blocking bug fails the count instead of looping forever.
template <typename OnModelFn>
int enumerateModels(Solver &S, const std::vector<Var> &Projection,
                    int Limit, OnModelFn OnModel,
                    const std::vector<Lit> &Assumptions = {}) {
  int Count = 0;
  while (Count <= Limit && S.solve(Assumptions) == SolveResult::Sat) {
    ++Count;
    OnModel();
    if (!S.addBlockingClause(blockingClause(S, Projection)))
      break;
  }
  return Count;
}

/// The current model's values on \p Vars as a bit mask.
uint32_t modelBits(const Solver &S, const std::vector<Var> &Vars) {
  uint32_t Bits = 0;
  for (size_t I = 0; I < Vars.size(); ++I)
    if (S.modelValue(Vars[I]) == Value::True)
      Bits |= 1u << I;
  return Bits;
}

//===----------------------------------------------------------------------===//
// Literal algebra
//===----------------------------------------------------------------------===//

TEST(LitTest, EncodingRoundTrip) {
  Lit P = mkLit(7, false);
  EXPECT_EQ(var(P), 7);
  EXPECT_FALSE(sign(P));
  EXPECT_EQ(var(~P), 7);
  EXPECT_TRUE(sign(~P));
  EXPECT_EQ(~~P, P);
  EXPECT_NE(~P, P);
}

TEST(LitTest, ValueNegation) {
  EXPECT_EQ(!Value::True, Value::False);
  EXPECT_EQ(!Value::False, Value::True);
  EXPECT_EQ(!Value::Undef, Value::Undef);
}

//===----------------------------------------------------------------------===//
// Basic clause solving
//===----------------------------------------------------------------------===//

TEST(SolverTest, EmptyFormulaIsSat) {
  Solver S;
  EXPECT_EQ(S.solve(), SolveResult::Sat);
}

TEST(SolverTest, SingleUnit) {
  Solver S;
  Var V = S.newVar();
  ASSERT_TRUE(S.addClause(mkLit(V)));
  EXPECT_EQ(S.solve(), SolveResult::Sat);
  EXPECT_EQ(S.modelValue(V), Value::True);
}

TEST(SolverTest, ContradictoryUnitsAreUnsat) {
  Solver S;
  Var V = S.newVar();
  ASSERT_TRUE(S.addClause(mkLit(V)));
  EXPECT_FALSE(S.addClause(mkLit(V, true)));
  EXPECT_EQ(S.solve(), SolveResult::Unsat);
  EXPECT_FALSE(S.okay());
}

TEST(SolverTest, ImplicationChainPropagates) {
  Solver S;
  auto Vars = makeVars(S, 5);
  for (int I = 0; I + 1 < 5; ++I)
    ASSERT_TRUE(S.addClause(mkLit(Vars[I], true), mkLit(Vars[I + 1])));
  ASSERT_TRUE(S.addClause(mkLit(Vars[0])));
  ASSERT_EQ(S.solve(), SolveResult::Sat);
  for (Var V : Vars)
    EXPECT_EQ(S.modelValue(V), Value::True);
}

TEST(SolverTest, TautologyIsIgnored) {
  Solver S;
  Var V = S.newVar();
  ASSERT_TRUE(S.addClause(std::vector<Lit>{mkLit(V), mkLit(V, true)}));
  EXPECT_EQ(S.solve(), SolveResult::Sat);
}

TEST(SolverTest, DuplicateLiteralsCollapse) {
  Solver S;
  Var V = S.newVar();
  Var W = S.newVar();
  ASSERT_TRUE(
      S.addClause(std::vector<Lit>{mkLit(V), mkLit(V), mkLit(W, true)}));
  ASSERT_TRUE(S.addClause(mkLit(W)));
  ASSERT_TRUE(S.addClause(mkLit(V, true), mkLit(W)));
  EXPECT_EQ(S.solve(), SolveResult::Sat);
  EXPECT_EQ(S.modelValue(W), Value::True);
}

TEST(SolverTest, XorChainUnsat) {
  // x1 xor x2, x2 xor x3, x1 = x3 forced unequal -> unsat for odd cycles.
  Solver S;
  auto V = makeVars(S, 3);
  auto AddXor = [&](Var A, Var B) {
    ASSERT_TRUE(S.addClause(mkLit(A), mkLit(B)));
    ASSERT_TRUE(S.addClause(mkLit(A, true), mkLit(B, true)));
  };
  AddXor(V[0], V[1]);
  AddXor(V[1], V[2]);
  AddXor(V[2], V[0]);
  EXPECT_EQ(S.solve(), SolveResult::Unsat);
}

TEST(SolverTest, PigeonholeUnsat) {
  // 4 pigeons into 3 holes: classic hard UNSAT instance exercising learning.
  constexpr int Pigeons = 4, Holes = 3;
  Solver S;
  Var P[Pigeons][Holes];
  for (auto &Row : P)
    for (Var &V : Row)
      V = S.newVar();
  for (auto &Row : P) {
    std::vector<Lit> AtLeastOne;
    for (Var V : Row)
      AtLeastOne.push_back(mkLit(V));
    ASSERT_TRUE(S.addClause(AtLeastOne));
  }
  for (int H = 0; H < Holes; ++H)
    for (int I = 0; I < Pigeons; ++I)
      for (int J = I + 1; J < Pigeons; ++J)
        ASSERT_TRUE(S.addClause(mkLit(P[I][H], true), mkLit(P[J][H], true)));
  EXPECT_EQ(S.solve(), SolveResult::Unsat);
  EXPECT_GT(S.stats().Conflicts, 0u);
}

TEST(SolverTest, PigeonholeViaCardinalityUnsat) {
  // Same instance but holes constrained with native AtMost-1.
  constexpr int Pigeons = 5, Holes = 4;
  Solver S;
  std::vector<std::vector<Var>> P(Pigeons, std::vector<Var>(Holes));
  for (auto &Row : P)
    for (Var &V : Row)
      V = S.newVar();
  for (auto &Row : P) {
    std::vector<Lit> AtLeastOne;
    for (Var V : Row)
      AtLeastOne.push_back(mkLit(V));
    ASSERT_TRUE(S.addClause(AtLeastOne));
  }
  for (int H = 0; H < Holes; ++H) {
    std::vector<Lit> Column;
    for (int I = 0; I < Pigeons; ++I)
      Column.push_back(mkLit(P[I][H]));
    ASSERT_TRUE(S.addAtMost(Column, 1));
  }
  EXPECT_EQ(S.solve(), SolveResult::Unsat);
}

//===----------------------------------------------------------------------===//
// Cardinality constraints
//===----------------------------------------------------------------------===//

TEST(CardinalityTest, AtMostZeroForcesAllFalse) {
  Solver S;
  auto Vars = makeVars(S, 4);
  std::vector<Lit> Lits;
  for (Var V : Vars)
    Lits.push_back(mkLit(V));
  ASSERT_TRUE(S.addAtMost(Lits, 0));
  ASSERT_EQ(S.solve(), SolveResult::Sat);
  for (Var V : Vars)
    EXPECT_EQ(S.modelValue(V), Value::False);
}

TEST(CardinalityTest, AtLeastAllForcesAllTrue) {
  Solver S;
  auto Vars = makeVars(S, 4);
  std::vector<Lit> Lits;
  for (Var V : Vars)
    Lits.push_back(mkLit(V));
  ASSERT_TRUE(S.addAtMost(negated(Lits), 0)); // At least 4 of 4.
  ASSERT_EQ(S.solve(), SolveResult::Sat);
  for (Var V : Vars)
    EXPECT_EQ(S.modelValue(V), Value::True);
}

TEST(CardinalityTest, ExactlyOnePropagatesNegations) {
  Solver S;
  auto Vars = makeVars(S, 5);
  std::vector<Lit> Lits;
  for (Var V : Vars)
    Lits.push_back(mkLit(V));
  ASSERT_TRUE(S.addAtMost(Lits, 1));
  ASSERT_TRUE(S.addAtMost(negated(Lits), 4)); // At least 1 of 5.
  ASSERT_TRUE(S.addClause(mkLit(Vars[2])));
  ASSERT_EQ(S.solve(), SolveResult::Sat);
  for (int I = 0; I < 5; ++I)
    EXPECT_EQ(S.modelValue(Vars[I]), I == 2 ? Value::True : Value::False);
}

TEST(CardinalityTest, OverfullAtMostConflictsAtRoot) {
  Solver S;
  auto Vars = makeVars(S, 3);
  for (Var V : Vars)
    ASSERT_TRUE(S.addClause(mkLit(V)));
  std::vector<Lit> Lits;
  for (Var V : Vars)
    Lits.push_back(mkLit(V));
  EXPECT_FALSE(S.addAtMost(Lits, 1));
  EXPECT_EQ(S.solve(), SolveResult::Unsat);
}

TEST(CardinalityTest, AtLeastMoreThanSizeIsUnsat) {
  Solver S;
  auto Vars = makeVars(S, 2);
  std::vector<Lit> Lits{mkLit(Vars[0]), mkLit(Vars[1])};
  EXPECT_FALSE(S.addAtMost(negated(Lits), -1)); // At least 3 of 2.
}

TEST(CardinalityTest, MixedPolarityAtMost) {
  // AtMost(x, ~y; 1) with x forced true forces y true.
  Solver S;
  Var X = S.newVar();
  Var Y = S.newVar();
  Var Z = S.newVar();
  ASSERT_TRUE(
      S.addAtMost(std::vector<Lit>{mkLit(X), mkLit(Y, true), mkLit(Z)}, 1));
  ASSERT_TRUE(S.addClause(mkLit(X)));
  ASSERT_EQ(S.solve(), SolveResult::Sat);
  EXPECT_EQ(S.modelValue(Y), Value::True);
  EXPECT_EQ(S.modelValue(Z), Value::False);
}

/// Property: for random cardinality instances, solver verdict and any model
/// agree with brute force over all 2^N assignments.
class CardinalityPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CardinalityPropertyTest, AgreesWithBruteForce) {
  Rng R(GetParam());
  constexpr int N = 8;
  for (int Round = 0; Round < 20; ++Round) {
    Solver S;
    auto Vars = makeVars(S, N);
    // Random mix of clauses and cardinality constraints.
    struct CardSpec {
      std::vector<Lit> Lits;
      int K;
      bool AtMostKind;
    };
    std::vector<std::vector<Lit>> Clauses;
    std::vector<CardSpec> CardSpecs;
    int NumClauses = 2 + static_cast<int>(R.below(10));
    int NumCards = 1 + static_cast<int>(R.below(4));
    bool AddOk = true;
    for (int C = 0; C < NumClauses; ++C) {
      std::vector<Lit> Cl;
      int Len = 1 + static_cast<int>(R.below(3));
      for (int L = 0; L < Len; ++L)
        Cl.push_back(mkLit(Vars[R.below(N)], R.chance(0.5)));
      Clauses.push_back(Cl);
      AddOk = S.addClause(Cl) && AddOk;
    }
    for (int C = 0; C < NumCards; ++C) {
      CardSpec Spec;
      int Len = 2 + static_cast<int>(R.below(static_cast<uint64_t>(N - 1)));
      std::set<Var> Used;
      for (int L = 0; L < Len; ++L) {
        Var V = Vars[R.below(N)];
        if (!Used.insert(V).second)
          continue;
        Spec.Lits.push_back(mkLit(V, R.chance(0.5)));
      }
      if (Spec.Lits.size() < 2)
        continue; // Too few distinct literals; skip this constraint.
      Spec.K = 1 + static_cast<int>(R.below(Spec.Lits.size()));
      Spec.AtMostKind = R.chance(0.5);
      CardSpecs.push_back(Spec);
      if (Spec.AtMostKind)
        AddOk = S.addAtMost(Spec.Lits, Spec.K) && AddOk;
      else
        AddOk = S.addAtMost(negated(Spec.Lits),
                            static_cast<int>(Spec.Lits.size()) - Spec.K) &&
                AddOk;
    }

    auto SatisfiedBy = [&](uint32_t Bits) {
      auto Val = [&](Lit L) {
        bool B = (Bits >> var(L)) & 1;
        return sign(L) ? !B : B;
      };
      for (const auto &Cl : Clauses) {
        bool Any = false;
        for (Lit L : Cl)
          Any = Any || Val(L);
        if (!Any)
          return false;
      }
      for (const auto &Spec : CardSpecs) {
        int Count = 0;
        for (Lit L : Spec.Lits)
          Count += Val(L) ? 1 : 0;
        if (Spec.AtMostKind ? Count > Spec.K : Count < Spec.K)
          return false;
      }
      return true;
    };

    bool BruteSat = false;
    for (uint32_t Bits = 0; Bits < (1u << N) && !BruteSat; ++Bits)
      BruteSat = SatisfiedBy(Bits);

    SolveResult Result = AddOk ? S.solve() : SolveResult::Unsat;
    if (!AddOk)
      Result = SolveResult::Unsat;
    EXPECT_EQ(Result == SolveResult::Sat, BruteSat)
        << "round " << Round << " seed " << GetParam();
    if (Result == SolveResult::Sat) {
      uint32_t Bits = 0;
      for (int I = 0; I < N; ++I)
        if (S.modelValue(Vars[I]) == Value::True)
          Bits |= 1u << I;
      EXPECT_TRUE(SatisfiedBy(Bits))
          << "model does not satisfy the instance";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CardinalityPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 17, 42, 99, 123,
                                           2026));

/// Property: random 3-SAT near the phase transition; verify models, and
/// verify UNSAT answers against brute force.
class Random3SatTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(Random3SatTest, VerdictMatchesBruteForce) {
  Rng R(GetParam() * 0x9e3779b9ULL + 7);
  constexpr int N = 12;
  int NumClauses = static_cast<int>(4.26 * N);
  Solver S;
  auto Vars = makeVars(S, N);
  std::vector<std::vector<Lit>> Clauses;
  bool AddOk = true;
  for (int C = 0; C < NumClauses; ++C) {
    std::set<Var> Used;
    std::vector<Lit> Cl;
    while (Cl.size() < 3) {
      Var V = Vars[R.below(N)];
      if (Used.insert(V).second)
        Cl.push_back(mkLit(V, R.chance(0.5)));
    }
    Clauses.push_back(Cl);
    AddOk = S.addClause(Cl) && AddOk;
  }
  auto SatisfiedBy = [&](uint32_t Bits) {
    for (const auto &Cl : Clauses) {
      bool Any = false;
      for (Lit L : Cl) {
        bool B = (Bits >> var(L)) & 1;
        Any = Any || (sign(L) ? !B : B);
      }
      if (!Any)
        return false;
    }
    return true;
  };
  bool BruteSat = false;
  for (uint32_t Bits = 0; Bits < (1u << N) && !BruteSat; ++Bits)
    BruteSat = SatisfiedBy(Bits);
  SolveResult Result = AddOk ? S.solve() : SolveResult::Unsat;
  EXPECT_EQ(Result == SolveResult::Sat, BruteSat);
  if (Result == SolveResult::Sat) {
    uint32_t Bits = 0;
    for (int I = 0; I < N; ++I)
      if (S.modelValue(Vars[I]) == Value::True)
        Bits |= 1u << I;
    EXPECT_TRUE(SatisfiedBy(Bits));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Random3SatTest,
                         ::testing::Range<uint64_t>(0, 25));

//===----------------------------------------------------------------------===//
// Incremental solving and enumeration
//===----------------------------------------------------------------------===//

TEST(IncrementalTest, AddClauseBetweenSolves) {
  Solver S;
  auto Vars = makeVars(S, 3);
  ASSERT_TRUE(S.addClause(mkLit(Vars[0]), mkLit(Vars[1])));
  ASSERT_EQ(S.solve(), SolveResult::Sat);
  ASSERT_TRUE(S.addClause(mkLit(Vars[0], true)));
  ASSERT_EQ(S.solve(), SolveResult::Sat);
  EXPECT_EQ(S.modelValue(Vars[1]), Value::True);
  // Adding ~v1 contradicts the forced v1 at the root: addClause reports the
  // inconsistency immediately and subsequent solves stay Unsat.
  EXPECT_FALSE(S.addClause(mkLit(Vars[1], true)));
  EXPECT_EQ(S.solve(), SolveResult::Unsat);
}

TEST(IncrementalTest, AssumptionsDoNotPersist) {
  Solver S;
  Var V = S.newVar();
  EXPECT_EQ(S.solve({mkLit(V, true)}), SolveResult::Sat);
  EXPECT_EQ(S.modelValue(V), Value::False);
  EXPECT_EQ(S.solve({mkLit(V)}), SolveResult::Sat);
  EXPECT_EQ(S.modelValue(V), Value::True);
}

TEST(IncrementalTest, ConflictingAssumptionsUnsatButRecoverable) {
  Solver S;
  Var V = S.newVar();
  ASSERT_TRUE(S.addClause(mkLit(V)));
  EXPECT_EQ(S.solve({mkLit(V, true)}), SolveResult::Unsat);
  EXPECT_TRUE(S.okay());
  EXPECT_EQ(S.solve(), SolveResult::Sat);
}

TEST(EnumerationTest, CountsAllProjectedModels) {
  // 4 free variables, no constraints: 16 models over the projection.
  Solver S;
  auto Vars = makeVars(S, 4);
  std::set<uint32_t> Distinct;
  int Count = enumerateModels(S, Vars, 16, [&] {
    uint32_t Bits = 0;
    for (int I = 0; I < 4; ++I)
      if (S.modelValue(Vars[I]) == Value::True)
        Bits |= 1u << I;
    EXPECT_TRUE(Distinct.insert(Bits).second) << "duplicate model";
  });
  EXPECT_EQ(Count, 16);
}

TEST(EnumerationTest, ExactlyOneYieldsNModels) {
  Solver S;
  auto Vars = makeVars(S, 6);
  std::vector<Lit> Lits;
  for (Var V : Vars)
    Lits.push_back(mkLit(V));
  ASSERT_TRUE(S.addAtMost(Lits, 1));
  ASSERT_TRUE(S.addAtMost(negated(Lits), 5)); // At least 1 of 6.
  EXPECT_EQ(enumerateModels(S, Vars, 6, [] {}), 6);
}

TEST(EnumerationTest, ProjectionCollapsesDontCares) {
  // y is unconstrained; projecting on {x} must yield exactly 2 models.
  Solver S;
  Var X = S.newVar();
  Var Y = S.newVar();
  (void)Y;
  EXPECT_EQ(enumerateModels(S, {X}, 2, [] {}), 2);
}

TEST(EnumerationTest, CardinalityChooseCount) {
  // Exactly 2 of 5: C(5,2) = 10 models.
  Solver S;
  auto Vars = makeVars(S, 5);
  std::vector<Lit> Lits;
  for (Var V : Vars)
    Lits.push_back(mkLit(V));
  ASSERT_TRUE(S.addAtMost(Lits, 2));
  ASSERT_TRUE(S.addAtMost(negated(Lits), 3)); // At least 2 of 5.
  int Count = enumerateModels(S, Vars, 10, [&] {
    int True = 0;
    for (Var V : Vars)
      True += S.modelValue(V) == Value::True ? 1 : 0;
    EXPECT_EQ(True, 2);
  });
  EXPECT_EQ(Count, 10);
}

/// Property: projected enumeration over all variables yields exactly the
/// brute-force model count for random clause+cardinality instances.
class EnumerationPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EnumerationPropertyTest, CountMatchesBruteForce) {
  Rng R(GetParam() * 1337 + 11);
  constexpr int N = 7;
  Solver S;
  auto Vars = makeVars(S, N);
  std::vector<std::vector<Lit>> Clauses;
  struct CardSpec {
    std::vector<Lit> Lits;
    int K;
  };
  std::vector<CardSpec> CardSpecs;
  bool AddOk = true;
  int NumClauses = static_cast<int>(R.below(6));
  for (int C = 0; C < NumClauses; ++C) {
    std::vector<Lit> Cl;
    int Len = 2 + static_cast<int>(R.below(3));
    for (int L = 0; L < Len; ++L)
      Cl.push_back(mkLit(Vars[R.below(N)], R.chance(0.5)));
    Clauses.push_back(Cl);
    AddOk = S.addClause(Cl) && AddOk;
  }
  int NumCards = 1 + static_cast<int>(R.below(2));
  for (int C = 0; C < NumCards; ++C) {
    CardSpec Spec;
    std::set<Var> Used;
    int Len = 3 + static_cast<int>(R.below(4));
    for (int L = 0; L < Len; ++L) {
      Var V = Vars[R.below(N)];
      if (Used.insert(V).second)
        Spec.Lits.push_back(mkLit(V, R.chance(0.5)));
    }
    if (Spec.Lits.size() < 2)
      continue;
    Spec.K = 1 + static_cast<int>(R.below(Spec.Lits.size() - 1));
    CardSpecs.push_back(Spec);
    AddOk = S.addAtMost(Spec.Lits, Spec.K) && AddOk;
  }
  auto SatisfiedBy = [&](uint32_t Bits) {
    auto Val = [&](Lit L) {
      bool B = (Bits >> var(L)) & 1;
      return sign(L) ? !B : B;
    };
    for (const auto &Cl : Clauses) {
      bool Any = false;
      for (Lit L : Cl)
        Any = Any || Val(L);
      if (!Any)
        return false;
    }
    for (const auto &Spec : CardSpecs) {
      int Count = 0;
      for (Lit L : Spec.Lits)
        Count += Val(L) ? 1 : 0;
      if (Count > Spec.K)
        return false;
    }
    return true;
  };
  int BruteCount = 0;
  for (uint32_t Bits = 0; Bits < (1u << N); ++Bits)
    BruteCount += SatisfiedBy(Bits) ? 1 : 0;
  // A tautological or root-satisfied clause may be dropped; AddOk==false
  // only when the instance is root-unsat, in which case BruteCount is 0.
  if (!AddOk) {
    EXPECT_EQ(BruteCount, 0);
    return;
  }
  std::set<uint32_t> Distinct;
  int Enumerated = enumerateModels(S, Vars, BruteCount, [&] {
    uint32_t Bits = 0;
    for (int I = 0; I < N; ++I)
      if (S.modelValue(Vars[I]) == Value::True)
        Bits |= 1u << I;
    EXPECT_TRUE(SatisfiedBy(Bits)) << "bogus model " << Bits;
    EXPECT_TRUE(Distinct.insert(Bits).second) << "duplicate model " << Bits;
  });
  EXPECT_EQ(Enumerated, BruteCount);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EnumerationPropertyTest,
                         ::testing::Range<uint64_t>(0, 30));

//===----------------------------------------------------------------------===//
// Enumeration without restarts: addBlockingClause against brute force
//===----------------------------------------------------------------------===//

/// Random clauses and AtMost-k constraints over variables 0..N-1, with a
/// brute-force model oracle.
struct RandomFormula {
  struct AtMost {
    std::vector<Lit> Lits;
    int K;
  };
  int N = 0;
  std::vector<std::vector<Lit>> Clauses;
  std::vector<AtMost> Cards;

  RandomFormula(Rng &R, int N) : N(N) {
    int NumClauses = 6 + static_cast<int>(R.below(14));
    for (int C = 0; C < NumClauses; ++C)
      Clauses.push_back(randomLits(R, 2 + static_cast<int>(R.below(3))));
    int NumCards = 1 + static_cast<int>(R.below(3));
    for (int C = 0; C < NumCards; ++C) {
      std::vector<Lit> Lits = randomLits(R, 3 + static_cast<int>(R.below(5)));
      int K = 1 + static_cast<int>(R.below(Lits.size() - 2));
      Cards.push_back(AtMost{std::move(Lits), K});
    }
  }

  /// \p Len literals over distinct variables.
  std::vector<Lit> randomLits(Rng &R, int Len) const {
    std::vector<Lit> Lits;
    std::set<Var> Used;
    while (static_cast<int>(Lits.size()) < Len) {
      Var V = static_cast<Var>(R.below(static_cast<uint64_t>(N)));
      if (Used.insert(V).second)
        Lits.push_back(mkLit(V, R.chance(0.5)));
    }
    return Lits;
  }

  static bool holds(uint32_t Bits, Lit L) {
    return (((Bits >> var(L)) & 1) != 0) != sign(L);
  }

  bool satisfiedBy(uint32_t Bits, bool WithClauses = true) const {
    auto Holds = [Bits](Lit L) { return holds(Bits, L); };
    if (WithClauses)
      for (const auto &Cl : Clauses)
        if (std::none_of(Cl.begin(), Cl.end(), Holds))
          return false;
    for (const AtMost &Card : Cards)
      if (std::count_if(Card.Lits.begin(), Card.Lits.end(), Holds) > Card.K)
        return false;
    return true;
  }

  std::set<uint32_t> models(bool WithClauses = true) const {
    std::set<uint32_t> Out;
    for (uint32_t Bits = 0; Bits < (1u << N); ++Bits)
      if (satisfiedBy(Bits, WithClauses))
        Out.insert(Bits);
    return Out;
  }

  /// Adds the formula to \p S, each clause guarded by \p Guard when given
  /// (the selector idiom of the encoder's generation guard). Returns false
  /// when the solver proves it root-inconsistent.
  bool addTo(Solver &S, Lit Guard = LitUndef) const {
    bool Ok = true;
    for (std::vector<Lit> Cl : Clauses) {
      if (Guard != LitUndef)
        Cl.push_back(~Guard);
      Ok = S.addClause(std::move(Cl)) && Ok;
    }
    for (const AtMost &Card : Cards)
      Ok = S.addAtMost(Card.Lits, Card.K) && Ok;
    return Ok;
  }
};

constexpr int kBlockingFormulaVars = 10;
constexpr uint64_t kBlockingSeeds = 40;

/// Solver over a formula's N variables plus two free variables outside
/// the projection: a blocking clause that leaked past the projection
/// would enumerate their values as duplicates.
std::vector<Var> makeProjectedVars(Solver &S, int N) {
  std::vector<Var> Vars = makeVars(S, N);
  makeVars(S, 2);
  return Vars;
}

TEST(BlockingClauseTest, EnumeratesUnderSelectorAssumption) {
  for (uint64_t Seed = 0; Seed < kBlockingSeeds; ++Seed) {
    Rng R(Seed * 7919 + 3);
    RandomFormula F(R, kBlockingFormulaVars);
    Solver S;
    std::vector<Var> Vars = makeProjectedVars(S, F.N);
    Lit Sel = mkLit(S.newVar());
    if (!F.addTo(S, Sel)) {
      EXPECT_TRUE(F.models(/*WithClauses=*/false).empty()) << Seed;
      continue;
    }
    // Under the selector: exactly the formula's models, each once.
    const std::set<uint32_t> Want = F.models();
    std::set<uint32_t> Got;
    int Count = enumerateModels(
        S, Vars, static_cast<int>(Want.size()),
        [&] {
          uint32_t Bits = modelBits(S, Vars);
          EXPECT_TRUE(F.satisfiedBy(Bits)) << Seed << ": bogus " << Bits;
          EXPECT_TRUE(Got.insert(Bits).second) << Seed << ": dup " << Bits;
        },
        {Sel});
    EXPECT_EQ(Count, static_cast<int>(Want.size())) << Seed;
    EXPECT_EQ(Got, Want) << Seed;
    EXPECT_EQ(S.solve({Sel}), SolveResult::Unsat) << Seed;
    // Without it, only the cardinality constraints bind, and the blocked
    // models stay blocked: whatever a backjump learned under the
    // assumption must not cut into the rest.
    std::set<uint32_t> Rest;
    for (uint32_t Bits : F.models(/*WithClauses=*/false))
      if (!Want.count(Bits))
        Rest.insert(Bits);
    std::set<uint32_t> GotRest;
    enumerateModels(
        S, Vars, static_cast<int>(Rest.size()),
        [&] {
          EXPECT_TRUE(GotRest.insert(modelBits(S, Vars)).second) << Seed;
        },
        {~Sel});
    EXPECT_EQ(GotRest, Rest) << Seed;
  }
}

TEST(BlockingClauseTest, ClauseAddedMidEnumerationRestartsFromRoot) {
  for (uint64_t Seed = 0; Seed < kBlockingSeeds; ++Seed) {
    Rng R(Seed * 104729 + 5);
    RandomFormula F(R, kBlockingFormulaVars);
    Solver S;
    std::vector<Var> Vars = makeProjectedVars(S, F.N);
    if (!F.addTo(S)) {
      EXPECT_TRUE(F.models().empty()) << Seed;
      continue;
    }
    const std::set<uint32_t> All = F.models();
    const std::vector<Lit> Extra = F.randomLits(R, 3);
    std::set<uint32_t> Got;
    bool Added = false;
    size_t Limit = All.size() + 1;
    while (Got.size() < Limit && S.solve() == SolveResult::Sat) {
      uint32_t Bits = modelBits(S, Vars);
      EXPECT_TRUE(F.satisfiedBy(Bits)) << Seed << ": bogus " << Bits;
      EXPECT_TRUE(!Added || std::any_of(Extra.begin(), Extra.end(),
                                        [&](Lit L) {
                                          return RandomFormula::holds(Bits,
                                                                      L);
                                        }))
          << Seed << ": model violates the added clause";
      EXPECT_TRUE(Got.insert(Bits).second) << Seed << ": dup " << Bits;
      if (!S.addBlockingClause(blockingClause(S, Vars)))
        break;
      if (!Added && Got.size() * 2 >= All.size()) {
        // Halfway: a new clause cancels the kept trail to the root.
        Added = true;
        if (!S.addClause(Extra))
          break;
      }
    }
    // The first half, then every model of the strengthened formula not
    // already emitted.
    std::set<uint32_t> Want;
    for (uint32_t Bits : All)
      if (Got.count(Bits) ||
          std::any_of(Extra.begin(), Extra.end(), [&](Lit L) {
            return RandomFormula::holds(Bits, L);
          }))
        Want.insert(Bits);
    EXPECT_EQ(Got, Want) << Seed;
    EXPECT_EQ(S.solve(), SolveResult::Unsat) << Seed;
  }
}

TEST(BlockingClauseTest, ResumesAfterBudgetUnknown) {
  int Unknowns = 0;
  for (uint64_t Seed = 0; Seed < kBlockingSeeds; ++Seed) {
    Rng R(Seed * 15485863 + 1);
    RandomFormula F(R, kBlockingFormulaVars);
    Solver S;
    std::vector<Var> Vars = makeProjectedVars(S, F.N);
    if (!F.addTo(S)) {
      EXPECT_TRUE(F.models().empty()) << Seed;
      continue;
    }
    const std::set<uint32_t> Want = F.models();
    std::set<uint32_t> Got;
    // One conflict per solve: any solve that needs search answers
    // Unknown, at the root, and the next one runs unlimited.
    S.setConflictBudget(1);
    while (Got.size() <= Want.size()) {
      SolveResult Res = S.solve();
      if (Res == SolveResult::Unknown) {
        ++Unknowns;
        EXPECT_TRUE(S.budgetExhausted()) << Seed;
        EXPECT_TRUE(S.okay()) << Seed;
        S.setConflictBudget(0);
        continue;
      }
      if (Res != SolveResult::Sat)
        break;
      uint32_t Bits = modelBits(S, Vars);
      EXPECT_TRUE(F.satisfiedBy(Bits)) << Seed << ": bogus " << Bits;
      EXPECT_TRUE(Got.insert(Bits).second) << Seed << ": dup " << Bits;
      S.setConflictBudget(1);
      if (!S.addBlockingClause(blockingClause(S, Vars)))
        break;
    }
    EXPECT_EQ(Got, Want) << Seed;
  }
  // The budget must actually have bitten for the resume to be tested.
  EXPECT_GT(Unknowns, 0);
}

TEST(BudgetTest, ConflictBudgetStopsSearch) {
  // A hard pigeonhole instance with a tiny budget must report exhaustion.
  constexpr int Pigeons = 9, Holes = 8;
  Solver S;
  std::vector<std::vector<Var>> P(Pigeons, std::vector<Var>(Holes));
  for (auto &Row : P)
    for (Var &V : Row)
      V = S.newVar();
  for (auto &Row : P) {
    std::vector<Lit> AtLeastOne;
    for (Var V : Row)
      AtLeastOne.push_back(mkLit(V));
    ASSERT_TRUE(S.addClause(AtLeastOne));
  }
  for (int H = 0; H < Holes; ++H) {
    std::vector<Lit> Column;
    for (int I = 0; I < Pigeons; ++I)
      Column.push_back(mkLit(P[I][H]));
    ASSERT_TRUE(S.addAtMost(Column, 1));
  }
  S.setConflictBudget(10);
  // Running out of budget is "gave up", not an UNSAT proof: the result
  // must be Unknown, and the flag must distinguish it from exhaustion.
  EXPECT_EQ(S.solve(), SolveResult::Unknown);
  EXPECT_TRUE(S.budgetExhausted());
  EXPECT_TRUE(S.okay());
  // Lifting the budget on the same solver still finds the real proof.
  S.setConflictBudget(0);
  EXPECT_EQ(S.solve(), SolveResult::Unsat);
  EXPECT_FALSE(S.budgetExhausted());
}

// Builds the pigeonhole instance used by the budget/strategy tests:
// Pigeons x Holes, unsatisfiable whenever Pigeons > Holes.
static void buildPigeonhole(Solver &S, int Pigeons, int Holes) {
  std::vector<std::vector<Var>> P(Pigeons, std::vector<Var>(Holes));
  for (auto &Row : P)
    for (Var &V : Row)
      V = S.newVar();
  for (auto &Row : P) {
    std::vector<Lit> AtLeastOne;
    for (Var V : Row)
      AtLeastOne.push_back(mkLit(V));
    ASSERT_TRUE(S.addClause(AtLeastOne));
  }
  for (int H = 0; H < Holes; ++H) {
    std::vector<Lit> Column;
    for (int I = 0; I < Pigeons; ++I)
      Column.push_back(mkLit(P[I][H]));
    ASSERT_TRUE(S.addAtMost(Column, 1));
  }
}

TEST(BudgetTest, AssumptionSolveAlsoReturnsUnknownOnBudget) {
  Solver S;
  buildPigeonhole(S, 9, 8);
  Var Guard = S.newVar();
  S.setConflictBudget(10);
  EXPECT_EQ(S.solve({mkLit(Guard)}), SolveResult::Unknown);
  EXPECT_TRUE(S.budgetExhausted());
  EXPECT_TRUE(S.okay());
}

TEST(BudgetTest, GenuineUnsatIsNotFlaggedAsBudget) {
  Solver S;
  Var X = S.newVar();
  ASSERT_TRUE(S.addClause(mkLit(X)));
  S.setConflictBudget(1);
  // The contradiction is found at the root, well within budget.
  EXPECT_EQ(S.solve({mkLit(X, true)}), SolveResult::Unsat);
  EXPECT_FALSE(S.budgetExhausted());
}

TEST(InterruptTest, InterruptReturnsUnknownAndSolverStaysUsable) {
  Solver S;
  buildPigeonhole(S, 9, 8);
  std::atomic<bool> Stop{true};
  S.setInterrupt(&Stop);
  EXPECT_EQ(S.solve(), SolveResult::Unknown);
  EXPECT_TRUE(S.okay());
  // Clearing the flag lets the same solver finish the proof.
  Stop.store(false);
  EXPECT_EQ(S.solve(), SolveResult::Unsat);
}

TEST(StatsTest, CountersAdvance) {
  Solver S;
  auto Vars = makeVars(S, 10);
  Rng R(3);
  for (int C = 0; C < 40; ++C) {
    std::vector<Lit> Cl;
    for (int L = 0; L < 3; ++L)
      Cl.push_back(mkLit(Vars[R.below(10)], R.chance(0.5)));
    S.addClause(Cl);
  }
  (void)S.solve();
  EXPECT_GT(S.stats().Propagations, 0u);
}

//===----------------------------------------------------------------------===//
// Strategy table and portfolio racing
//===----------------------------------------------------------------------===//

TEST(StrategyTest, TableHasBaselineFirstAndStrictLookup) {
  const std::vector<SolverStrategy> &Set = portfolioStrategies();
  ASSERT_GE(Set.size(), 2u);
  // Index 0 must be the exact historical defaults - that is what keeps
  // portfolio streams byte-identical.
  EXPECT_STREQ(Set[0].Name, "baseline");
  EXPECT_EQ(Set[0].Restart, RestartPolicy::Luby);
  EXPECT_EQ(Set[0].RestartUnit, 100u);
  EXPECT_EQ(Set[0].SeedXor, 0u);
  EXPECT_EQ(Set[0].BudgetFactor, 1u);
  EXPECT_FALSE(Set[0].Cegar);
  for (const SolverStrategy &S : Set)
    EXPECT_EQ(findStrategy(S.Name), &S);
  EXPECT_EQ(findStrategy("bogus"), nullptr);
  EXPECT_EQ(findStrategy(""), nullptr);
  EXPECT_NE(knownStrategyNames().find("baseline"), std::string::npos);
  EXPECT_NE(knownStrategyNames().find("cegar"), std::string::npos);
}

TEST(StrategyTest, EveryStrategyAgreesWithBaselineOnSatisfiability) {
  // Restart schedules, phases, and seeds steer the search, never the
  // answer: each named configuration must agree with the baseline on a
  // batch of random instances straddling the phase-transition density.
  Rng R(11);
  for (int Inst = 0; Inst < 12; ++Inst) {
    const int NumVars = 14;
    std::vector<std::vector<Lit>> Clauses;
    for (int C = 0; C < 60; ++C) {
      std::vector<Lit> Cl;
      for (int L = 0; L < 3; ++L)
        Cl.push_back(mkLit(static_cast<Var>(R.below(NumVars)),
                           R.chance(0.5)));
      Clauses.push_back(Cl);
    }
    Solver Base;
    makeVars(Base, NumVars);
    for (const auto &Cl : Clauses)
      if (!Base.addClause(Cl))
        break;
    SolveResult Expect = Base.solve();
    for (const SolverStrategy &Strat : portfolioStrategies()) {
      Portfolio P;
      P.configure(false, Strat.Name);
      for (int V = 0; V < NumVars; ++V)
        P.newVar();
      for (const auto &Cl : Clauses)
        if (!P.addClause(Cl))
          break;
      EXPECT_EQ(P.solve(), Expect)
          << "strategy " << Strat.Name << " instance " << Inst;
    }
  }
}

TEST(PortfolioTest, DisabledPathMatchesPlainSolver) {
  Solver S;
  Portfolio P;
  P.configure(false, "");
  buildPigeonhole(S, 5, 4);
  {
    // Same construction through the wrapper.
    std::vector<std::vector<Var>> Rows(5, std::vector<Var>(4));
    for (auto &Row : Rows)
      for (Var &V : Row)
        V = P.newVar();
    for (auto &Row : Rows) {
      std::vector<Lit> AtLeastOne;
      for (Var V : Row)
        AtLeastOne.push_back(mkLit(V));
      ASSERT_TRUE(P.addClause(AtLeastOne));
    }
    for (int H = 0; H < 4; ++H) {
      std::vector<Lit> Column;
      for (int I = 0; I < 5; ++I)
        Column.push_back(mkLit(Rows[I][H]));
      ASSERT_TRUE(P.addAtMost(Column, 1));
    }
  }
  EXPECT_EQ(P.numVars(), S.numVars());
  EXPECT_EQ(P.solve(), S.solve());
  EXPECT_EQ(P.stats().Conflicts, S.stats().Conflicts);
  EXPECT_EQ(P.portfolioStats().Races, 0u);
}

TEST(PortfolioTest, RaceUpgradesBudgetUnknownToUnsat) {
  // Complete CNF over three variables: unsatisfiable, provable in a
  // handful of conflicts. A starved baseline gives up (Unknown); the
  // racers, running at BudgetFactor x the budget, finish the proof, so
  // the portfolio answers Unsat - and budgetExhausted() must NOT claim
  // a budget stop for what is now a real proof.
  Portfolio P;
  P.configure(true, "");
  auto Vars = std::vector<Var>{P.newVar(), P.newVar(), P.newVar()};
  for (int Mask = 0; Mask < 8; ++Mask) {
    std::vector<Lit> Cl;
    for (int I = 0; I < 3; ++I)
      Cl.push_back(mkLit(Vars[static_cast<size_t>(I)], (Mask >> I) & 1));
    if (!P.addClause(Cl))
      break;
  }
  P.setConflictBudget(1);
  EXPECT_EQ(P.solve(), SolveResult::Unsat);
  EXPECT_FALSE(P.budgetExhausted());
  EXPECT_EQ(P.portfolioStats().Races, 1u);
  EXPECT_EQ(P.portfolioStats().UnsatWins, 1u);
}

TEST(PortfolioTest, UnlimitedBudgetNeverLaunchesRacers) {
  Portfolio P;
  P.configure(true, "");
  std::vector<std::vector<Var>> Rows(7, std::vector<Var>(6));
  for (auto &Row : Rows)
    for (Var &V : Row)
      V = P.newVar();
  for (auto &Row : Rows) {
    std::vector<Lit> AtLeastOne;
    for (Var V : Row)
      AtLeastOne.push_back(mkLit(V));
    ASSERT_TRUE(P.addClause(AtLeastOne));
  }
  for (int H = 0; H < 6; ++H) {
    std::vector<Lit> Column;
    for (int I = 0; I < 7; ++I)
      Column.push_back(mkLit(Rows[I][H]));
    ASSERT_TRUE(P.addAtMost(Column, 1));
  }
  // Budget 0 = unlimited: member 0 cannot answer Unknown, so helper
  // proofs could never be consumed and no race may start.
  EXPECT_EQ(P.solve(), SolveResult::Unsat);
  EXPECT_EQ(P.portfolioStats().Races, 0u);
}

TEST(PortfolioTest, CegarPrimaryMaterializesOnlyViolatedClauses) {
  // Relaxation without the lazy clause is Sat with x=y=true; the model
  // violates the deferred clause, which gets materialized, and the full
  // formula then forces x false.
  Portfolio P;
  P.configure(false, "cegar");
  Var X = P.newVar();
  Var Y = P.newVar();
  ASSERT_TRUE(P.addClause(mkLit(Y)));
  P.beginLazy();
  ASSERT_TRUE(P.addClause(mkLit(X, true)));
  P.endLazy();
  EXPECT_EQ(P.solve(), SolveResult::Sat);
  EXPECT_EQ(P.modelValue(X), Value::False);
  EXPECT_EQ(P.modelValue(Y), Value::True);
}

TEST(PortfolioTest, CegarPrimaryFindsUnsatViaMaterialization) {
  // The lazy clauses contradict the eager units; CEGAR must converge to
  // Unsat (not report the relaxation's Sat).
  Portfolio P;
  P.configure(false, "cegar");
  Var X = P.newVar();
  Var Y = P.newVar();
  ASSERT_TRUE(P.addClause(mkLit(X)));
  ASSERT_TRUE(P.addClause(mkLit(Y)));
  P.beginLazy();
  ASSERT_TRUE(P.addClause(mkLit(X, true), mkLit(Y, true)));
  P.endLazy();
  EXPECT_EQ(P.solve(), SolveResult::Unsat);
  EXPECT_FALSE(P.budgetExhausted());
}

} // namespace
