//===--- RefinementEngine.cpp - Hybrid polymorphic API refinement ---------===//
//
// Part of SyRust-CPP (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//

#include "refine/RefinementEngine.h"

#include "obs/Recorder.h"

#include <algorithm>
#include <set>

using namespace syrust;
using namespace syrust::api;
using namespace syrust::program;
using namespace syrust::refine;
using namespace syrust::rustsim;
using namespace syrust::types;

namespace {

/// Collects every concrete, non-reference, non-unit subterm of \p T in
/// first-occurrence order (pointer-order iteration would make eager
/// instantiation nondeterministic across processes).
void collectConcreteSubterms(const Type *T, std::set<const Type *> &Seen,
                             std::vector<const Type *> &Out) {
  if (T->isConcrete() && !T->isRef() && !T->isUnit() &&
      Seen.insert(T).second)
    Out.push_back(T);
  for (const Type *Arg : T->args())
    collectConcreteSubterms(Arg, Seen, Out);
}

/// True when an API has no inputs but a polymorphic output ("no input
/// polymorphism", Section 5.1). Constructors with concrete-only inputs and
/// a polymorphic output (e.g. with_capacity(usize) -> Vec<T>) are in the
/// same boat: nothing constrains the variable.
bool hasUnresolvableOutput(const ApiSig &Sig) {
  if (Sig.Output->isConcrete())
    return false;
  std::vector<std::string> OutVars;
  Sig.Output->collectVars(OutVars);
  std::vector<std::string> InVars;
  for (const Type *In : Sig.Inputs)
    In->collectVars(InVars);
  for (const std::string &V : OutVars)
    if (std::find(InVars.begin(), InVars.end(), V) == InVars.end())
      return true;
  return false;
}

} // namespace

std::vector<const Type *> syrust::refine::harvestConcreteTypes(
    const ApiDatabase &Db, const std::vector<TemplateInput> &Inputs) {
  std::set<const Type *> Seen;
  std::vector<const Type *> Found;
  for (const TemplateInput &In : Inputs)
    collectConcreteSubterms(In.Ty, Seen, Found);
  for (size_t I = 0; I < Db.size(); ++I) {
    const ApiSig &Sig = Db.get(static_cast<ApiId>(I));
    if (Sig.Builtin != BuiltinKind::None)
      continue;
    for (const Type *In : Sig.Inputs)
      collectConcreteSubterms(In, Seen, Found);
    collectConcreteSubterms(Sig.Output, Seen, Found);
  }
  return Found;
}

void RefinementEngine::initialize(
    const std::vector<TemplateInput> &Inputs) {
  Harvested = harvestConcreteTypes(Db, Inputs);
  if (Mode == RefinementMode::PurelyLazy)
    return; // No eager pass; constructors will simply never resolve.

  size_t InitialSize = Db.size();
  for (size_t I = 0; I < InitialSize; ++I) {
    ApiId Id = static_cast<ApiId>(I);
    const ApiSig &Sig = Db.get(Id);
    if (Sig.Builtin != BuiltinKind::None || !Sig.isPolymorphic())
      continue;
    if (Mode == RefinementMode::PurelyEager) {
      // SyPet-style: instantiate every type variable of every polymorphic
      // API up front; disable the polymorphic original.
      eagerlyConcretize(Id, /*AllVars=*/true);
      Db.ban(Id);
      ++Stats.Bans;
    } else if (hasUnresolvableOutput(Sig)) {
      // Hybrid: eager only where laziness cannot work (Section 5.1).
      eagerlyConcretize(Id, /*AllVars=*/true);
      Db.ban(Id);
      ++Stats.Bans;
    }
  }
}

void RefinementEngine::note(const char *Action,
                            const Diagnostic *Diag) {
  if (!Obs)
    return;
  obs::ArgList Args;
  Args.add("action", Action);
  if (Diag) {
    Args.add("detail", detailName(Diag->Detail));
    Args.add("api", static_cast<int64_t>(Diag->Api));
    Args.add("line", Diag->Line);
  }
  Obs->instant("refine.action", "refine", Args);
  Obs->count(std::string("refine.") + Action);
}

void RefinementEngine::eagerlyConcretize(ApiId Id, bool AllVars) {
  (void)AllVars;
  const ApiSig Orig = Db.get(Id); // Copy: Db mutates below.
  std::vector<std::string> Vars = Orig.typeVarNames();
  if (Vars.empty() || Harvested.empty())
    return;

  // Cartesian enumeration of harvested types over the variables, capped.
  size_t Total = 1;
  for (size_t V = 0; V < Vars.size(); ++V)
    Total *= Harvested.size();
  for (size_t N = 0; N < Total && N < EagerCap; ++N) {
    Substitution Subst;
    size_t Rem = N;
    for (const std::string &V : Vars) {
      Subst.bind(Arena.typeVar(V), Harvested[Rem % Harvested.size()]);
      Rem /= Harvested.size();
    }
    ApiSig Inst = Orig;
    Inst.RefinedFrom = Id;
    // Eager concretization IGNORES trait annotations (Section 5.1), but
    // rustc still checks them: carry the obligations in resolved form so
    // the checker can reject bad instantiations.
    Inst.Bounds.clear();
    for (const auto &[VarName, Trait] : Orig.Bounds)
      if (const Type *Bound = Subst.lookup(VarName))
        Inst.ResolvedBounds.emplace_back(Bound, Trait);
    for (const Type *&In : Inst.Inputs)
      In = applySubst(Arena, In, Subst);
    Inst.Output = applySubst(Arena, Inst.Output, Subst);
    if (!Inst.Output->isConcrete())
      continue;
    bool InputsConcrete = true;
    for (const Type *In : Inst.Inputs)
      InputsConcrete = InputsConcrete && In->isConcrete();
    if (!InputsConcrete)
      continue;
    if (Db.findDuplicate(Inst) != ApiIdInvalid)
      continue;
    Db.add(std::move(Inst));
    ++Stats.EagerConcretizations;
  }
}

bool RefinementEngine::duplicateWithConcreteTypes(
    ApiId Orig, std::vector<const Type *> Inputs, const Type *Output) {
  const ApiSig &OrigSig = Db.get(Orig);
  ApiSig Dup = OrigSig;
  Dup.Inputs = Inputs;
  Dup.Output = Output;
  Dup.RefinedFrom = Orig;
  // Resolve the trait obligations at the duplicated instantiation.
  Substitution Subst;
  if (matchCall(Inputs, OrigSig.Inputs, Subst)) {
    Dup.Bounds.clear();
    for (const auto &[VarName, Trait] : OrigSig.Bounds)
      if (const Type *Bound = Subst.lookup(VarName))
        Dup.ResolvedBounds.emplace_back(Bound, Trait);
  }
  if (Db.findDuplicate(Dup) != ApiIdInvalid)
    return false;
  Db.add(std::move(Dup));
  // Keep the duplicate disjoint from the original (Section 5.3).
  if (Db.blockCombo(Orig, std::move(Inputs)))
    ++Stats.ComboBlocks;
  ++Stats.OutputDuplications;
  return true;
}

bool RefinementEngine::blockCombo(const Diagnostic &Diag) {
  // The checker can report concrete inputs no encoder-level candidate
  // type matches, so the same combination recurs; re-blocking it changes
  // nothing.
  if (Diag.ActualInputs.empty() ||
      !Db.blockCombo(Diag.Api, Diag.ActualInputs))
    return false;
  ++Stats.ComboBlocks;
  note("combo_block", &Diag);
  return true;
}

bool RefinementEngine::onDiagnostic(const Diagnostic &Diag) {
  if (Mode == RefinementMode::PurelyEager)
    return false; // No feedback loop in the SyPet-style ablation.
  if (Diag.Api == ApiIdInvalid)
    return false;
  const ApiSig &Sig = Db.get(Diag.Api);

  switch (Diag.Detail) {
  case ErrorDetail::TraitBound: {
    if (Sig.RefinedFrom != ApiIdInvalid || !Sig.isPolymorphic()) {
      // A fully concrete (eagerly produced) API hit a trait error: remove
      // it outright (Section 5.1).
      Db.ban(Diag.Api);
      ++Stats.TraitRemovals;
      note("trait_removal", &Diag);
      return true;
    }
    // Polymorphic original (Section 5.2): never match this combination
    // again.
    return blockCombo(Diag);
  }
  case ErrorDetail::Polymorphism: {
    if (Diag.ExpectedOutput && !Diag.ActualInputs.empty()) {
      // "expected X, got Y": fix directly by duplicating with the
      // checker-confirmed output (Section 5.3).
      if (duplicateWithConcreteTypes(Diag.Api, Diag.ActualInputs,
                                     Diag.ExpectedOutput)) {
        ++Stats.DirectFixes;
        note("direct_fix", &Diag);
        return true;
      }
      return false;
    }
    if (hasUnresolvableOutput(Sig)) {
      if (Mode == RefinementMode::PurelyLazy)
        return false; // H+-style laziness has no eager move to make:
                      // constructors stay unresolved (Section 5.1's
                      // "purely lazy approaches cannot synthesize types
                      // for no input polymorphism").
      // A constructor added after initialize() (e.g. by refinement):
      // concretize it now.
      eagerlyConcretize(Diag.Api, /*AllVars=*/true);
      Db.ban(Diag.Api);
      ++Stats.Bans;
      note("eager_concretize", &Diag);
      return true;
    }
    return blockCombo(Diag);
  }
  case ErrorDetail::TypeMismatch:
    return blockCombo(Diag);
  case ErrorDetail::Arity: {
    // A skewed collected signature is unfixable; after a few strikes the
    // API is deemed unfixable and disabled (Section 3).
    if (++ArityStrikes[Diag.Api] >= 3) {
      Db.ban(Diag.Api);
      ++Stats.Bans;
      note("ban", &Diag);
      return true;
    }
    return false;
  }
  case ErrorDetail::MethodNotFound: {
    // Resolution failures are also unfixable, but the engine is slower to
    // give up on them because re-collection sometimes repairs them (the
    // paper's generic-array/hashbrown Misc floods stay bounded).
    if (++ArityStrikes[Diag.Api] >= 10) {
      Db.ban(Diag.Api);
      ++Stats.Bans;
      note("ban", &Diag);
      return true;
    }
    return false;
  }
  case ErrorDetail::DefaultTypeParam:
  case ErrorDetail::AnonLifetime:
    // The paper's unsupported corner cases: no refinement exists (Section
    // 7.1 leaves them to future work), so the errors keep recurring.
    return false;
  case ErrorDetail::Ownership:
  case ErrorDetail::Borrowing:
  case ErrorDetail::None:
    return false;
  }
  return false;
}

bool RefinementEngine::onSuccess(const Program &P) {
  if (Mode != RefinementMode::Hybrid)
    return false;
  bool Changed = false;

  // Reconstruct the concrete types of every variable from declarations.
  std::vector<const Type *> VarTy(static_cast<size_t>(P.numVars()));
  for (size_t I = 0; I < P.Inputs.size(); ++I)
    VarTy[I] = P.Inputs[I].Ty;
  for (const Stmt &S : P.Stmts)
    VarTy[static_cast<size_t>(S.Out)] = S.DeclType;

  for (const Stmt &S : P.Stmts) {
    const ApiSig &Sig = Db.get(S.Api);
    if (Sig.Builtin != BuiltinKind::None)
      continue;
    if (Sig.RefinedFrom != ApiIdInvalid)
      continue; // Already a refinement product.
    if (Sig.Output->isConcrete() || !Sig.isPolymorphic())
      continue; // Only category 5.3 needs duplication.
    std::vector<const Type *> Actuals;
    bool AllConcrete = true;
    for (VarId A : S.Args) {
      const Type *Ty = VarTy[static_cast<size_t>(A)];
      Actuals.push_back(Ty);
      AllConcrete = AllConcrete && Ty && Ty->isConcrete();
    }
    if (!AllConcrete || !S.DeclType || !S.DeclType->isConcrete())
      continue;
    if (duplicateWithConcreteTypes(S.Api, Actuals, S.DeclType)) {
      Changed = true;
      note("output_duplication", nullptr);
    }
  }
  return Changed;
}
