//===--- Checker.cpp - Semantic checker for synthesized programs ----------===//
//
// Part of SyRust-CPP (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//

#include "rustsim/Checker.h"

#include "obs/Recorder.h"
#include "support/StringUtils.h"

#include <cassert>
#include <cstring>
#include <set>

using namespace syrust;
using namespace syrust::api;
using namespace syrust::program;
using namespace syrust::rustsim;
using namespace syrust::types;

ErrorCategory syrust::rustsim::categoryOf(ErrorDetail Detail) {
  switch (Detail) {
  case ErrorDetail::TraitBound:
  case ErrorDetail::Polymorphism:
  case ErrorDetail::DefaultTypeParam:
  case ErrorDetail::TypeMismatch:
    return ErrorCategory::Type;
  case ErrorDetail::Ownership:
  case ErrorDetail::Borrowing:
  case ErrorDetail::AnonLifetime:
    return ErrorCategory::LifetimeOwnership;
  case ErrorDetail::Arity:
  case ErrorDetail::MethodNotFound:
  case ErrorDetail::None:
    return ErrorCategory::Misc;
  }
  return ErrorCategory::Misc;
}

const char *syrust::rustsim::categoryName(ErrorCategory C) {
  switch (C) {
  case ErrorCategory::Type:
    return "Type";
  case ErrorCategory::LifetimeOwnership:
    return "Lifetime&Ownership";
  case ErrorCategory::Misc:
    return "Misc";
  }
  return "?";
}

const char *syrust::rustsim::detailName(ErrorDetail D) {
  switch (D) {
  case ErrorDetail::None:
    return "none";
  case ErrorDetail::TraitBound:
    return "trait";
  case ErrorDetail::Polymorphism:
    return "polymorphism";
  case ErrorDetail::DefaultTypeParam:
    return "default-type-param";
  case ErrorDetail::TypeMismatch:
    return "type-mismatch";
  case ErrorDetail::Ownership:
    return "ownership";
  case ErrorDetail::Borrowing:
    return "borrowing";
  case ErrorDetail::AnonLifetime:
    return "anon-lifetime";
  case ErrorDetail::Arity:
    return "arity";
  case ErrorDetail::MethodNotFound:
    return "method-not-found";
  }
  return "?";
}

// The enumerators run from 0 up to the first value the name switch does
// not know, so walking the switch finds every name.
bool syrust::rustsim::categoryFromName(const std::string &Name,
                                       ErrorCategory &Out) {
  for (uint8_t I = 0;; ++I) {
    const char *Candidate = categoryName(ErrorCategory(I));
    if (std::strcmp(Candidate, "?") == 0)
      return false;
    if (Name == Candidate) {
      Out = ErrorCategory(I);
      return true;
    }
  }
}

bool syrust::rustsim::detailFromName(const std::string &Name,
                                     ErrorDetail &Out) {
  for (uint8_t I = 0;; ++I) {
    const char *Candidate = detailName(ErrorDetail(I));
    if (std::strcmp(Candidate, "?") == 0)
      return false;
    if (Name == Candidate) {
      Out = ErrorDetail(I);
      return true;
    }
  }
}

namespace {

/// Extends VarState with the exclusivity bookkeeping of Rules 8/9.
struct CheckState {
  VarState Base;
  /// Direct target of a builtin borrow; -1 otherwise.
  VarId DirectTarget = -1;
};

/// Kills \p Root and cascades to every live variable borrowing from it.
void killBorrowers(std::vector<CheckState> &Vars, VarId Root) {
  std::vector<VarId> Worklist{Root};
  while (!Worklist.empty()) {
    VarId Dead = Worklist.back();
    Worklist.pop_back();
    for (size_t W = 0; W < Vars.size(); ++W) {
      VarState &B = Vars[W].Base;
      if (!B.Live)
        continue;
      bool Derived = false;
      for (VarId R : B.BorrowRoots)
        Derived = Derived || R == Dead;
      if (Derived || Vars[W].DirectTarget == Dead) {
        B.Live = false; // Dead borrower, not moved-out.
        Worklist.push_back(static_cast<VarId>(W));
      }
    }
  }
}

Diagnostic makeDiag(ErrorDetail Detail, int Line, ApiId Api,
                    std::string Message) {
  Diagnostic D;
  D.Detail = Detail;
  D.Category = categoryOf(Detail);
  D.Line = Line;
  D.Api = Api;
  D.Message = std::move(Message);
  return D;
}

} // namespace

CompileResult Checker::check(const Program &P,
                             const ApiDatabase &Db) const {
  CompileResult R = checkImpl(P, Db);
  if (Obs) {
    obs::ArgList Args;
    Args.add("ok", R.Success);
    if (!R.Success) {
      Args.add("category", categoryName(R.Diag.Category));
      Args.add("detail", detailName(R.Diag.Detail));
      Args.add("line", R.Diag.Line);
    }
    Obs->instant("compile.verdict", "rustsim", Args);
    Obs->count("compile.checks");
    if (!R.Success) {
      Obs->count("compile.rejected");
      Obs->count(std::string("compile.rejected.") +
                 categoryName(R.Diag.Category));
    }
  }
  return R;
}

CompileResult Checker::checkImpl(const Program &P,
                                 const ApiDatabase &Db) const {
  std::vector<CheckState> Vars(static_cast<size_t>(P.numVars()));
  for (size_t I = 0; I < P.Inputs.size(); ++I) {
    Vars[I].Base.Ty = P.Inputs[I].Ty;
    Vars[I].Base.Live = true;
  }

  auto Fail = [](Diagnostic D) {
    CompileResult R;
    R.Success = false;
    R.Diag = std::move(D);
    return R;
  };

  for (size_t LineNo = 0; LineNo < P.Stmts.size(); ++LineNo) {
    const Stmt &S = P.Stmts[LineNo];
    const ApiSig &Sig = Db.get(S.Api);
    int Line = static_cast<int>(LineNo);

    // --- Collected-signature quirks that fail any call (Misc). -----------
    if (Sig.Quirks.SkewedArity)
      return Fail(makeDiag(
          ErrorDetail::Arity, Line, S.Api,
          format("this function takes %zu arguments but %zu were supplied",
                 Sig.Inputs.size() + 1, Sig.Inputs.size())));
    if (Sig.Quirks.MethodNotFound)
      return Fail(makeDiag(ErrorDetail::MethodNotFound, Line, S.Api,
                           format("no method named `%s` found",
                                  Sig.Name.c_str())));

    if (S.Args.size() != Sig.Inputs.size())
      return Fail(makeDiag(
          ErrorDetail::Arity, Line, S.Api,
          format("this function takes %zu arguments but %zu were supplied",
                 Sig.Inputs.size(), S.Args.size())));

    // --- Argument liveness (moves and dead borrowers). --------------------
    for (VarId A : S.Args) {
      assert(A >= 0 && A < P.numVars() && "argument out of range");
      const VarState &St = Vars[static_cast<size_t>(A)].Base;
      if (!St.Ty || static_cast<size_t>(A) >=
                        P.Inputs.size() + LineNo) // Declared later.
        return Fail(makeDiag(ErrorDetail::Arity, Line, S.Api,
                             format("cannot find value `%s` in this scope",
                                    P.varName(A).c_str())));
      if (St.MovedOut)
        return Fail(makeDiag(ErrorDetail::Ownership, Line, S.Api,
                             format("use of moved value: `%s`",
                                    P.varName(A).c_str())));
      if (!St.Live)
        return Fail(makeDiag(
            ErrorDetail::Borrowing, Line, S.Api,
            format("borrow of moved value: `%s` does not live long enough",
                   P.varName(A).c_str())));
      if (St.AnonLifetime)
        return Fail(makeDiag(
            ErrorDetail::AnonLifetime, Line, S.Api,
            format("lifetime of `%s` cannot be determined: anonymous "
                   "parameterized lifetime in the signature of `%s`",
                   P.varName(A).c_str(), Sig.Name.c_str())));
    }

    // --- Rule 4: one variable in several positions only if prim/&. -------
    for (size_t I = 0; I < S.Args.size(); ++I) {
      for (size_t J = I + 1; J < S.Args.size(); ++J) {
        if (S.Args[I] != S.Args[J])
          continue;
        const Type *Ty = Vars[static_cast<size_t>(S.Args[I])].Base.Ty;
        if (!Ty->isPrim() && !Ty->isSharedRef())
          return Fail(makeDiag(
              ErrorDetail::Ownership, Line, S.Api,
              format("use of moved value: `%s` used twice in one call",
                     P.varName(S.Args[I]).c_str())));
      }
    }

    CheckState &Out = Vars[static_cast<size_t>(S.Out)];

    // --- Builtins. --------------------------------------------------------
    if (Sig.Builtin != BuiltinKind::None) {
      assert(S.Args.size() == 1 && "builtins are unary");
      VarId Target = S.Args[0];
      CheckState &TargetState = Vars[static_cast<size_t>(Target)];
      const Type *TargetTy = TargetState.Base.Ty;

      switch (Sig.Builtin) {
      case BuiltinKind::LetMut: {
        if (S.DeclType && S.DeclType != TargetTy)
          return Fail(makeDiag(
              ErrorDetail::TypeMismatch, Line, S.Api,
              format("mismatched types: expected `%s`, found `%s`",
                     S.DeclType->str().c_str(), TargetTy->str().c_str())));
        if (!Traits.isCopy(TargetTy)) {
          TargetState.Base.MovedOut = true;
          TargetState.Base.Live = false;
          killBorrowers(Vars, Target);
        }
        Out.Base.Ty = TargetTy;
        Out.Base.Live = true;
        Out.Base.MutBinding = true;
        // A moved reference keeps referring to the same owner.
        Out.Base.BorrowRoots = TargetState.Base.BorrowRoots;
        Out.Base.BorrowIsMut = TargetState.Base.BorrowIsMut;
        continue;
      }
      case BuiltinKind::Borrow:
      case BuiltinKind::BorrowMut: {
        bool WantMut = Sig.Builtin == BuiltinKind::BorrowMut;
        // Binding-mode violation (rustc E0596): an ownership error - it
        // concerns how the owner was bound, not a borrow conflict.
        if (WantMut && !TargetState.Base.MutBinding)
          return Fail(makeDiag(
              ErrorDetail::Ownership, Line, S.Api,
              format("cannot borrow `%s` as mutable, as it is not declared "
                     "as mutable",
                     P.varName(Target).c_str())));
        // Rules 8/9: exclusivity against live borrows of the same target.
        for (size_t W = 0; W < Vars.size(); ++W) {
          const CheckState &Other = Vars[W];
          if (!Other.Base.Live || Other.DirectTarget != Target)
            continue;
          if (WantMut)
            return Fail(makeDiag(
                ErrorDetail::Borrowing, Line, S.Api,
                format("cannot borrow `%s` as mutable because it is also "
                       "borrowed as %s",
                       P.varName(Target).c_str(),
                       Other.Base.BorrowIsMut ? "mutable" : "immutable")));
          if (Other.Base.BorrowIsMut)
            return Fail(makeDiag(
                ErrorDetail::Borrowing, Line, S.Api,
                format("cannot borrow `%s` as immutable because it is also "
                       "borrowed as mutable",
                       P.varName(Target).c_str())));
        }
        const Type *RefTy = Arena.ref(TargetTy, WantMut);
        if (S.DeclType && S.DeclType != RefTy)
          return Fail(makeDiag(
              ErrorDetail::TypeMismatch, Line, S.Api,
              format("mismatched types: expected `%s`, found `%s`",
                     S.DeclType->str().c_str(), RefTy->str().c_str())));
        Out.Base.Ty = RefTy;
        Out.Base.Live = true;
        Out.Base.BorrowIsMut = WantMut;
        Out.DirectTarget = Target;
        // Root owners: the target itself if it owns, else its roots.
        if (TargetState.Base.BorrowRoots.empty())
          Out.Base.BorrowRoots = {Target};
        else
          Out.Base.BorrowRoots = TargetState.Base.BorrowRoots;
        continue;
      }
      case BuiltinKind::None:
        break;
      }
    }

    // --- Library API: typing. ---------------------------------------------
    std::vector<const Type *> Actuals;
    Actuals.reserve(S.Args.size());
    for (VarId A : S.Args)
      Actuals.push_back(Vars[static_cast<size_t>(A)].Base.Ty);

    Substitution Subst;
    if (!matchCall(Actuals, Sig.Inputs, Subst)) {
      bool Poly = Sig.isPolymorphic();
      Diagnostic D = makeDiag(
          Poly ? ErrorDetail::Polymorphism : ErrorDetail::TypeMismatch, Line,
          S.Api,
          format("mismatched types in call to `%s`", Sig.Name.c_str()));
      D.ActualInputs = Actuals;
      return Fail(D);
    }

    // --- Trait bounds (the dimension the encoder ignores, Section 5.2). ---
    // Resolved bounds come from refinement-instantiated signatures, whose
    // type variables are gone but whose trait obligations remain.
    for (const auto &[BoundTy, TraitName] : Sig.ResolvedBounds) {
      if (Traits.implements(BoundTy, TraitName))
        continue;
      Diagnostic D = makeDiag(
          ErrorDetail::TraitBound, Line, S.Api,
          format("the trait bound `%s: %s` is not satisfied",
                 BoundTy->str().c_str(), TraitName.c_str()));
      D.ActualInputs = Actuals;
      D.MissingTrait = TraitName;
      D.BadBinding = BoundTy;
      return Fail(D);
    }
    for (const auto &[VarName, TraitName] : Sig.Bounds) {
      const Type *Bound = Subst.lookup(VarName);
      if (!Bound || !Bound->isConcrete())
        continue; // Unresolved variables are reported below.
      if (!Traits.implements(Bound, TraitName)) {
        Diagnostic D = makeDiag(
            ErrorDetail::TraitBound, Line, S.Api,
            format("the trait bound `%s: %s` is not satisfied",
                   Bound->str().c_str(), TraitName.c_str()));
        D.ActualInputs = Actuals;
        D.BadTypeVar = VarName;
        D.MissingTrait = TraitName;
        D.BadBinding = Bound;
        return Fail(D);
      }
    }

    // --- Defaulted type parameters the collector dropped (petgraph). -----
    if (Sig.Quirks.NeedsDefaultTypeParam) {
      Diagnostic D = makeDiag(
          ErrorDetail::DefaultTypeParam, Line, S.Api,
          format("type annotations needed: cannot infer defaulted type "
                 "parameters of `%s`",
                 Sig.Name.c_str()));
      D.ActualInputs = Actuals;
      return Fail(D);
    }

    // --- Output resolution. -----------------------------------------------
    const Type *CorrectOut = applySubst(Arena, Sig.Output, Subst);
    if (!CorrectOut->isConcrete()) {
      Diagnostic D = makeDiag(
          ErrorDetail::Polymorphism, Line, S.Api,
          format("type annotations needed for `%s`",
                 CorrectOut->str().c_str()));
      D.ActualInputs = Actuals;
      return Fail(D);
    }
    if (S.DeclType && S.DeclType != CorrectOut) {
      Diagnostic D = makeDiag(
          ErrorDetail::Polymorphism, Line, S.Api,
          format("mismatched types: expected `%s`, found `%s`",
                 S.DeclType->str().c_str(), CorrectOut->str().c_str()));
      D.ActualInputs = Actuals;
      D.ExpectedOutput = CorrectOut;
      return Fail(D);
    }

    // --- Effects: moves and lifetime propagation. -------------------------
    // A reference is only reborrowed when the parameter it feeds is itself
    // declared as a reference; `&mut T` passed by value (e.g. to a bare
    // type-variable parameter) moves, because `&mut T` is not Copy.
    std::set<VarId> Consumed;
    for (size_t I = 0; I < S.Args.size(); ++I) {
      VarId A = S.Args[I];
      const Type *ArgTy = Vars[static_cast<size_t>(A)].Base.Ty;
      if (!movesOnUse(ArgTy, Sig.Inputs[I], Traits))
        continue;
      if (!Consumed.insert(A).second)
        continue;
      Vars[static_cast<size_t>(A)].Base.MovedOut = true;
      Vars[static_cast<size_t>(A)].Base.Live = false;
      killBorrowers(Vars, A);
    }

    Out.Base.Ty = CorrectOut;
    Out.Base.Live = true;
    Out.Base.FromLibraryApi = true;
    Out.Base.AnonLifetime = Sig.Quirks.AnonLifetime;
    // Roots are deduplicated: diamond-shaped borrow chains (two refs into
    // one owner rejoined by a propagating API) would otherwise accumulate
    // duplicate roots, growing state quadratically along ref chains.
    auto AddRoot = [&Out](VarId R) {
      for (VarId Existing : Out.Base.BorrowRoots)
        if (Existing == R)
          return;
      Out.Base.BorrowRoots.push_back(R);
    };
    for (int J : Sig.PropagatesFrom) {
      if (J < 0 || static_cast<size_t>(J) >= S.Args.size())
        continue;
      VarId A = S.Args[static_cast<size_t>(J)];
      const CheckState &ArgState = Vars[static_cast<size_t>(A)];
      if (ArgState.Base.BorrowRoots.empty()) {
        AddRoot(A);
      } else {
        for (VarId R : ArgState.Base.BorrowRoots)
          AddRoot(R);
      }
      Out.Base.BorrowIsMut =
          Out.Base.BorrowIsMut || ArgState.Base.BorrowIsMut;
    }
  }

  return CompileResult{};
}
