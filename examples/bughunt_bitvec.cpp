//===--- bughunt_bitvec.cpp - Reproduce the paper's flagship bug ----------===//
//
// Part of SyRust-CPP (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// Runs the full SyRust pipeline against the bitvec library model until
/// the use-after-free of Figure 8 is synthesized: a five-call chain
/// through ownership movement (`into_boxed_bitslice` consumes the vector)
/// that a loop-based fuzzing harness cannot express, which is exactly why
/// the paper argues for synthesis-driven testing.
///
//===----------------------------------------------------------------------===//

#include "core/Session.h"

#include <cstdio>

using namespace syrust;
using namespace syrust::core;
using namespace syrust::crates;

int main() {
  Session S;
  const CrateSpec *Bitvec = S.find("bitvec");
  std::printf("hunting in %s (%s), tested component %s\n",
              Bitvec->Info.Name.c_str(), Bitvec->Info.RevHash.c_str(),
              Bitvec->Info.Subcomponent.c_str());
  std::printf("expected: %s in >= %d lines\n\n",
              Bitvec->Bug->BugType.c_str(), Bitvec->Bug->MinLines);

  RunConfig Config;
  Config.BudgetSeconds = 8000; // Simulated seconds; ~2 s of real time.
  Config.StopOnFirstBug = true;
  RunResult R = S.runOne(*Bitvec, Config);

  std::printf("synthesized %llu test cases (%llu rejected), reached "
              "length %d\n",
              static_cast<unsigned long long>(R.Synthesized),
              static_cast<unsigned long long>(R.Rejected),
              R.MaxLenReached);
  if (!R.BugFound) {
    std::printf("no bug found within budget - raise "
                "Config.BudgetSeconds\n");
    return 1;
  }
  std::printf("\nfound after %.1f simulated seconds, %d lines:\n\n%s\n",
              R.TimeToBug, R.BugLines, R.BugProgram.c_str());
  std::printf("miri verdict: %s\n", R.FirstBug.Message.c_str());
  std::printf("\nNote the chain: the bitvector is created in-test, cast "
              "mutable, borrowed,\ngrown (forcing a reallocation), then "
              "converted - dropping the BitBox reads\nthrough the stale "
              "pre-growth pointer. Ownership moves out of the bitvector\n"
              "at the conversion, so no fuzz loop could re-run this body "
              "(Section 7.1).\n");
  return 0;
}
