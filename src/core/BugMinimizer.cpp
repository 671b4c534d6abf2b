//===--- BugMinimizer.cpp - Shrink bug-inducing test cases ----------------===//
//
// Part of SyRust-CPP (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/BugMinimizer.h"

#include "miri/Interpreter.h"
#include "rustsim/Checker.h"

using namespace syrust;
using namespace syrust::core;
using namespace syrust::crates;
using namespace syrust::miri;
using namespace syrust::program;

MinimizedBug syrust::core::minimizeBugProgram(CrateInstance &Inst,
                                              const Program &P,
                                              UbKind Kind,
                                              uint64_t Seed) {
  rustsim::Checker Check(Inst.Arena, Inst.Traits);
  auto Reproduces = [&](const Program &Candidate) {
    if (!Check.check(Candidate, Inst.Db).Success)
      return false;
    Interpreter Interp(Inst.Db, Inst.Traits, Inst.Registry, Inst.Init,
                       /*Cov=*/nullptr, Seed);
    ExecResult R = Interp.run(Candidate);
    return R.UbFound && R.Report.Kind == Kind;
  };

  MinimizedBug Result;
  // Statement drops only: Figure 7's minimized lengths are measured
  // with drops alone, and rewiring arguments could move them.
  Result.Program = shrink(P, Reproduces, /*Rewire=*/false);
  Result.Kind = Kind;
  Result.Lines = static_cast<int>(Result.Program.Stmts.size());
  return Result;
}
