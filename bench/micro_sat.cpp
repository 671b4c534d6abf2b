//===--- micro_sat.cpp - google-benchmark microbenches for the solver -----===//
//
// Part of SyRust-CPP (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// Engineering benchmarks for the Sat4J-substitute CDCL solver, including
/// the DESIGN.md ablation: native counting-propagation cardinality
/// constraints vs. the naive pairwise CNF expansion of AtMostOne.
///
//===----------------------------------------------------------------------===//

#include "sat/Solver.h"
#include "support/Rng.h"

#include "MicroMain.h"

#include <benchmark/benchmark.h>

using namespace syrust;
using namespace syrust::sat;

namespace {

/// Random 3-SAT near the phase transition (ratio 4.26).
void buildRandom3Sat(Solver &S, int N, uint64_t Seed) {
  Rng R(Seed);
  std::vector<Var> Vars;
  for (int I = 0; I < N; ++I)
    Vars.push_back(S.newVar());
  int Clauses = static_cast<int>(N * 4.26);
  for (int C = 0; C < Clauses; ++C) {
    std::vector<Lit> Cl;
    while (Cl.size() < 3) {
      Var V = Vars[R.below(static_cast<uint64_t>(N))];
      bool Dup = false;
      for (Lit L : Cl)
        Dup = Dup || var(L) == V;
      if (!Dup)
        Cl.push_back(mkLit(V, R.chance(0.5)));
    }
    S.addClause(Cl);
  }
}

void BM_Random3SatPhaseTransition(benchmark::State &State) {
  uint64_t Seed = 1;
  for (auto _ : State) {
    Solver S;
    buildRandom3Sat(S, static_cast<int>(State.range(0)), Seed++);
    benchmark::DoNotOptimize(S.solve());
  }
}
BENCHMARK(BM_Random3SatPhaseTransition)->Arg(50)->Arg(100)->Arg(150);

void addPigeonhole(Solver &S, int Pigeons, int Holes, bool NativeCard) {
  std::vector<std::vector<Var>> P(static_cast<size_t>(Pigeons),
                                  std::vector<Var>(
                                      static_cast<size_t>(Holes)));
  for (auto &Row : P)
    for (Var &V : Row)
      V = S.newVar();
  for (auto &Row : P) {
    std::vector<Lit> AtLeastOne;
    for (Var V : Row)
      AtLeastOne.push_back(mkLit(V));
    S.addClause(AtLeastOne);
  }
  for (int H = 0; H < Holes; ++H) {
    std::vector<Lit> Column;
    for (int I = 0; I < Pigeons; ++I)
      Column.push_back(mkLit(P[static_cast<size_t>(I)]
                              [static_cast<size_t>(H)]));
    if (NativeCard) {
      S.addAtMost(Column, 1);
    } else {
      // Ablation: pairwise CNF expansion of AtMostOne.
      for (size_t A = 0; A < Column.size(); ++A)
        for (size_t B = A + 1; B < Column.size(); ++B)
          S.addClause(~Column[A], ~Column[B]);
    }
  }
}

void BM_PigeonholeNativeCardinality(benchmark::State &State) {
  for (auto _ : State) {
    Solver S;
    addPigeonhole(S, static_cast<int>(State.range(0)),
                  static_cast<int>(State.range(0)) - 1, true);
    benchmark::DoNotOptimize(S.solve());
  }
}
BENCHMARK(BM_PigeonholeNativeCardinality)->Arg(6)->Arg(7)->Arg(8);

void BM_PigeonholePairwiseCnf(benchmark::State &State) {
  for (auto _ : State) {
    Solver S;
    addPigeonhole(S, static_cast<int>(State.range(0)),
                  static_cast<int>(State.range(0)) - 1, false);
    benchmark::DoNotOptimize(S.solve());
  }
}
BENCHMARK(BM_PigeonholePairwiseCnf)->Arg(6)->Arg(7)->Arg(8);

void BM_IncrementalBlocking(benchmark::State &State) {
  // The Algorithm 1 pattern: solve, block the model at its own level,
  // re-solve from the backjump.
  for (auto _ : State) {
    Solver S;
    std::vector<Var> Vars;
    for (int I = 0; I < 60; ++I)
      Vars.push_back(S.newVar());
    buildRandom3Sat(S, 40, 7);
    int Rounds = 0;
    while (S.solve() == SolveResult::Sat && Rounds++ < 50) {
      std::vector<Lit> Block;
      for (int I = 0; I < 12; ++I)
        Block.push_back(mkLit(Vars[static_cast<size_t>(I)],
                              S.modelValue(Vars[static_cast<size_t>(I)]) ==
                                  Value::True));
      S.addBlockingClause(Block);
    }
    benchmark::DoNotOptimize(Rounds);
  }
}
BENCHMARK(BM_IncrementalBlocking);

} // namespace

SYRUST_BENCHMARK_MAIN("micro_sat")
