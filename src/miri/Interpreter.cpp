//===--- Interpreter.cpp - UB-detecting program interpreter ---------------===//
//
// Part of SyRust-CPP (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//

#include "miri/Interpreter.h"

#include "obs/Recorder.h"
#include "support/StringUtils.h"

#include <cassert>

using namespace syrust;
using namespace syrust::api;
using namespace syrust::miri;
using namespace syrust::program;
using namespace syrust::types;

Value &InterpCtx::deref(size_t I) {
  Value *V = Args[I];
  int Guard = 0;
  while (V->RefVar >= 0 && Guard++ < 16) {
    // References created by the borrow builtins point at the *variable*
    // (like &Vec pointing at the Vec header on the stack), so chasing them
    // is always valid even if the container's backing buffer relocated.
    // Borrow-stack validation applies only to references that semantics
    // callbacks explicitly tagged against an allocation.
    if (V->RefAlloc >= 0 && V->Tag != 0)
      Heap.useBorrow(V->RefAlloc, V->Tag, V->RefMut, Line);
    V = &(*Slots)[static_cast<size_t>(V->RefVar)];
  }
  return *V;
}

void Interpreter::dropValue(InterpCtx &Ctx, Value &V) {
  if (V.isReference())
    return; // References never own.
  // Custom drop glue by nominal type head.
  if (V.Ty && V.Ty->kind() == TypeKind::Named) {
    if (const DropSemantics *Drop = Registry.lookupDrop(V.Ty->name())) {
      (*Drop)(Ctx, V);
      return;
    }
  }
  // Default drop: free the backing allocation, then drop children.
  if (V.Alloc >= 0)
    Ctx.heap().free(V.Alloc, Ctx.line());
  for (Value &E : V.Elems)
    dropValue(Ctx, E);
}

ExecResult Interpreter::run(const Program &P) {
  AbstractHeap Heap;
  std::vector<Value> Slots(static_cast<size_t>(P.numVars()));
  std::vector<bool> Alive(static_cast<size_t>(P.numVars()), false);

  // Template inputs.
  std::vector<Value> Inputs = Init(Heap, Rand);
  assert(Inputs.size() == P.Inputs.size() &&
         "template init arity mismatch");
  for (size_t I = 0; I < Inputs.size(); ++I) {
    Slots[I] = std::move(Inputs[I]);
    Slots[I].Ty = P.Inputs[I].Ty;
    Alive[I] = true;
  }

  for (size_t LineNo = 0; LineNo < P.Stmts.size() && !Heap.hasUb();
       ++LineNo) {
    const Stmt &S = P.Stmts[LineNo];
    const ApiSig &Sig = Db.get(S.Api);
    int Line = static_cast<int>(LineNo);

    std::vector<Value *> Args;
    Args.reserve(S.Args.size());
    for (VarId A : S.Args)
      Args.push_back(&Slots[static_cast<size_t>(A)]);

    switch (Sig.Builtin) {
    case BuiltinKind::LetMut: {
      VarId Src = S.Args[0];
      Value &Out = Slots[static_cast<size_t>(S.Out)];
      const Type *SrcTy = Slots[static_cast<size_t>(Src)].Ty;
      if (Traits.isCopy(SrcTy)) {
        Out = Slots[static_cast<size_t>(Src)];
      } else {
        Out = std::move(Slots[static_cast<size_t>(Src)]);
        Alive[static_cast<size_t>(Src)] = false;
      }
      Alive[static_cast<size_t>(S.Out)] = true;
      continue;
    }
    case BuiltinKind::Borrow:
    case BuiltinKind::BorrowMut: {
      // A builtin borrow references the variable itself (not its backing
      // buffer, which may relocate on container growth); no allocation tag
      // is attached.
      bool Mut = Sig.Builtin == BuiltinKind::BorrowMut;
      VarId Target = S.Args[0];
      Value Ref;
      Ref.Ty = S.DeclType;
      Ref.RefVar = Target;
      Ref.RefMut = Mut;
      Slots[static_cast<size_t>(S.Out)] = std::move(Ref);
      Alive[static_cast<size_t>(S.Out)] = true;
      continue;
    }
    case BuiltinKind::None:
      break;
    }

    // Library API call.
    const ApiSemantics *Fn = Registry.lookupApi(Sig.SemanticsKey);
    InterpCtx Ctx(Heap, Cov, Rand, std::move(Args), S.Args, S.DeclType,
                  Line, &Slots);
    Value Out;
    if (Fn) {
      Out = (*Fn)(Ctx);
    } else {
      // Unmodeled API: produce an inert default of the declared type.
      Out.Ty = S.DeclType;
    }
    if (!Out.Ty)
      Out.Ty = S.DeclType;

    // Ownership effects mirror the checker: owned non-Copy arguments are
    // consumed. Whatever the callee did not explicitly take over (by
    // clearing Value::Alloc) is dropped inside the callee, exactly like a
    // by-value parameter going out of scope in Rust - including custom
    // drop glue, so passing a buggy-drop value into any API still
    // triggers its drop bug.
    for (VarId A : S.Args) {
      size_t Idx = static_cast<size_t>(A);
      const Type *ArgTy = Slots[Idx].Ty;
      if (!ArgTy || ArgTy->isRef() || Traits.isCopy(ArgTy))
        continue;
      if (!Alive[Idx])
        continue; // Already consumed (same var twice is checker-rejected).
      Alive[Idx] = false;
      std::vector<Value *> NoArgs;
      InterpCtx DropCtx(Heap, Cov, Rand, NoArgs, {}, nullptr, Line,
                        &Slots);
      dropValue(DropCtx, Slots[Idx]);
      Slots[Idx].Alloc = -1;
    }
    Slots[static_cast<size_t>(S.Out)] = std::move(Out);
    Alive[static_cast<size_t>(S.Out)] = true;
  }

  // End of scope: run drop glue in reverse declaration order, then the
  // leak check.
  if (!Heap.hasUb()) {
    for (int V = P.numVars() - 1; V >= 0; --V) {
      if (!Alive[static_cast<size_t>(V)])
        continue;
      std::vector<Value *> NoArgs;
      InterpCtx Ctx(Heap, Cov, Rand, NoArgs, {}, nullptr,
                    static_cast<int>(P.Stmts.size()), &Slots);
      dropValue(Ctx, Slots[static_cast<size_t>(V)]);
      if (Heap.hasUb())
        break;
    }
  }
  if (!Heap.hasUb())
    Heap.leakCheck();

  ExecResult R;
  R.UbFound = Heap.hasUb();
  R.Report = Heap.ub();
  if (Obs) {
    obs::ArgList Args;
    Args.add("ub", R.UbFound);
    if (R.UbFound) {
      Args.add("kind", ubKindName(R.Report.Kind));
      Args.add("line", R.Report.Line);
    }
    Obs->instant("exec.verdict", "miri", Args);
    Obs->count("exec.runs");
    if (R.UbFound)
      Obs->count("exec.ub");
  }
  return R;
}
