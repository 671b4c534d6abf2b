//===--- custom_library.cpp - Test your own library model -----------------===//
//
// Part of SyRust-CPP (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// Shows the workflow a downstream user follows to point the framework at
/// their own library: describe the API surface with CrateBuilder (type
/// signatures, trait impls, a template, executable semantics), then run
/// it through a Session. The toy "ringbuf" crate below hides a double-free - its
/// `drain` destroys the buffer but the ring's drop glue frees it again -
/// which the pipeline finds automatically.
///
//===----------------------------------------------------------------------===//

#include "core/Session.h"
#include "crates/CrateBuilder.h"

#include <cstdio>

using namespace syrust;
using namespace syrust::core;
using namespace syrust::crates;
using namespace syrust::miri;

namespace {

void buildRingbuf(CrateInstance &I) {
  CrateBuilder B(I, {"T"});
  B.impl("Clone", "String");

  // Template: fn test(n: usize, s: String) { /* INSERT */ }
  B.scalarInput("n", "usize", 4);
  B.stringInput("s", "String", "elem");

  {
    ApiDecl D = decl("Ring::with_capacity", {"usize"}, "Ring<String>",
                     SemKind::AllocContainer);
    D.Pinned = true;
    B.api(D);
  }
  {
    ApiDecl D = decl("Ring::push", {"&mut Ring<String>", "String"}, "()",
                     SemKind::ContainerPush);
    B.api(D);
  }
  {
    ApiDecl D = decl("Ring::len", {"&Ring<String>"}, "usize",
                     SemKind::ContainerLen);
    B.api(D);
  }
  {
    // THE BUG: drain() frees the backing buffer but forgets to clear the
    // ring's pointer, so the ring's drop glue frees it a second time.
    ApiDecl D = decl("Ring::drain", {"&mut Ring<String>"}, "usize",
                     SemKind::Custom);
    D.Pinned = true;
    D.Unsafe = true;
    D.Custom = [](InterpCtx &Ctx) {
      Value &Ring = Ctx.deref(0);
      Value Out;
      Out.Ty = Ctx.outType();
      Out.Int = Ring.Len;
      Ring.Len = 0;
      if (Ring.Alloc >= 0)
        Ctx.heap().free(Ring.Alloc, Ctx.line());
      // Missing: Ring.Alloc = -1;  <- the double-free.
      return Out;
    };
    B.api(D);
  }
  B.finish(/*ComponentPadLines=*/8, /*ComponentPadBranches=*/2,
           /*LibraryExtraLines=*/20, /*LibraryExtraBranches=*/4,
           /*MaxLen=*/4);
}

} // namespace

int main() {
  CrateSpec Ringbuf;
  Ringbuf.Info = {"ringbuf-demo", "DS", 0, false, "ringbuf::Ring",
                  "local", true};
  Ringbuf.Build = buildRingbuf;

  RunConfig Config;
  Config.BudgetSeconds = 600;
  Config.NumApis = 4;
  Config.StopOnFirstBug = true;
  // Session::runOne takes any model, not only the registry's; the
  // model must outlive the Session, which keeps its analysis.
  Session S;
  RunResult R = S.runOne(Ringbuf, Config);

  std::printf("synthesized %llu tests (%llu rejected)\n",
              static_cast<unsigned long long>(R.Synthesized),
              static_cast<unsigned long long>(R.Rejected));
  if (!R.BugFound) {
    std::printf("no bug found - raise the budget\n");
    return 1;
  }
  std::printf("found a bug after %.1f simulated seconds:\n\n%s\n%s\n",
              R.TimeToBug, R.BugProgram.c_str(),
              R.FirstBug.Message.c_str());
  return 0;
}
