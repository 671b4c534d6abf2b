//===--- Subtyping.cpp - Subtype matching and substitutions ---------------===//
//
// Part of SyRust-CPP (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//

#include "types/Subtyping.h"

#include <cassert>

using namespace syrust::types;

namespace {

/// Structural match of \p Actual against \p Pattern. \p AllowCoercion
/// permits the top-level &mut-to-& subtyping step; inside generic arguments
/// Rust types are invariant, so recursion clears it.
bool matchImpl(const Type *Actual, const Type *Pattern, Substitution &Subst,
               bool AllowCoercion) {
  assert(Actual && Pattern && "match over null types");
  if (Actual == Pattern)
    return true;

  // A pattern variable matches anything (∀τ. τ ⊑ T), subject to consistency
  // with previous bindings of the same variable.
  if (Pattern->isVar())
    return Subst.bind(Pattern, Actual);

  if (Actual->kind() != Pattern->kind())
    return false;

  switch (Pattern->kind()) {
  case TypeKind::Prim:
    return Actual->name() == Pattern->name();
  case TypeKind::Var:
    return false; // Handled above; an actual Var never equals here.
  case TypeKind::Named: {
    if (Actual->name() != Pattern->name() ||
        Actual->args().size() != Pattern->args().size())
      return false;
    for (size_t I = 0; I < Actual->args().size(); ++I)
      if (!matchImpl(Actual->args()[I], Pattern->args()[I], Subst,
                     /*AllowCoercion=*/false))
        return false;
    return true;
  }
  case TypeKind::Ref: {
    // &mut τ ⊑ &τ at the top level only.
    if (Actual->isMutRef() != Pattern->isMutRef()) {
      if (!(AllowCoercion && Actual->isMutRef() && !Pattern->isMutRef()))
        return false;
    }
    return matchImpl(Actual->pointee(), Pattern->pointee(), Subst,
                     /*AllowCoercion=*/false);
  }
  case TypeKind::Tuple: {
    if (Actual->args().size() != Pattern->args().size())
      return false;
    for (size_t I = 0; I < Actual->args().size(); ++I)
      if (!matchImpl(Actual->args()[I], Pattern->args()[I], Subst,
                     /*AllowCoercion=*/false))
        return false;
    return true;
  }
  }
  return false;
}

} // namespace

bool syrust::types::isSubtype(const Type *Actual, const Type *Pattern,
                              Substitution &Subst) {
  return matchImpl(Actual, Pattern, Subst, /*AllowCoercion=*/true);
}

bool syrust::types::isSubtype(const Type *Actual, const Type *Pattern) {
  Substitution Subst;
  return isSubtype(Actual, Pattern, Subst);
}

bool syrust::types::matchCall(const std::vector<const Type *> &Actuals,
                              const std::vector<const Type *> &Patterns,
                              Substitution &SubstOut) {
  if (Actuals.size() != Patterns.size())
    return false;
  Substitution Subst;
  for (size_t I = 0; I < Actuals.size(); ++I)
    if (!isSubtype(Actuals[I], Patterns[I], Subst))
      return false;
  SubstOut = std::move(Subst);
  return true;
}

namespace {

bool unifyImpl(const Type *A, const Type *B, Substitution &Subst,
               bool AllowCoercion, int Depth) {
  if (Depth > 32)
    return false; // Defensive bound; the fragment has no infinite types.
  if (A == B)
    return true;
  // Resolve already-bound variables first.
  if (A->isVar()) {
    if (const Type *Bound = Subst.lookup(A))
      return Bound == A ||
             unifyImpl(Bound, B, Subst, AllowCoercion, Depth + 1);
    return Subst.bind(A, B);
  }
  if (B->isVar()) {
    if (const Type *Bound = Subst.lookup(B))
      return Bound == B ||
             unifyImpl(A, Bound, Subst, AllowCoercion, Depth + 1);
    return Subst.bind(B, A);
  }
  if (A->kind() != B->kind())
    return false;
  switch (A->kind()) {
  case TypeKind::Prim:
    return A->name() == B->name();
  case TypeKind::Var:
    return false; // Unreachable: handled above.
  case TypeKind::Named: {
    if (A->name() != B->name() || A->args().size() != B->args().size())
      return false;
    for (size_t I = 0; I < A->args().size(); ++I)
      if (!unifyImpl(A->args()[I], B->args()[I], Subst,
                     /*AllowCoercion=*/false, Depth + 1))
        return false;
    return true;
  }
  case TypeKind::Ref: {
    if (A->isMutRef() != B->isMutRef() &&
        !(AllowCoercion && A->isMutRef() && !B->isMutRef()))
      return false;
    return unifyImpl(A->pointee(), B->pointee(), Subst,
                     /*AllowCoercion=*/false, Depth + 1);
  }
  case TypeKind::Tuple: {
    if (A->args().size() != B->args().size())
      return false;
    for (size_t I = 0; I < A->args().size(); ++I)
      if (!unifyImpl(A->args()[I], B->args()[I], Subst,
                     /*AllowCoercion=*/false, Depth + 1))
        return false;
    return true;
  }
  }
  return false;
}

} // namespace

bool syrust::types::unifiable(const Type *A, const Type *B,
                              Substitution &Subst) {
  return unifyImpl(A, B, Subst, /*AllowCoercion=*/true, 0);
}

bool syrust::types::unifiableJoint(const Type *A1, const Type *P1,
                                   const Type *A2, const Type *P2) {
  Substitution Joint;
  return unifiable(A1, P1, Joint) && unifiable(A2, P2, Joint);
}

const Type *syrust::types::renameVars(TypeArena &Arena, const Type *T,
                                      const std::string &Suffix) {
  switch (T->kind()) {
  case TypeKind::Var:
    return Arena.typeVar(T->name() + "#" + Suffix);
  case TypeKind::Prim:
    return T;
  case TypeKind::Named: {
    if (T->isConcrete())
      return T;
    std::vector<const Type *> Args;
    Args.reserve(T->args().size());
    for (const Type *Arg : T->args())
      Args.push_back(renameVars(Arena, Arg, Suffix));
    return Arena.named(T->name(), std::move(Args));
  }
  case TypeKind::Ref:
    if (T->isConcrete())
      return T;
    return Arena.ref(renameVars(Arena, T->pointee(), Suffix),
                     T->isMutRef());
  case TypeKind::Tuple: {
    if (T->isConcrete())
      return T;
    std::vector<const Type *> Elems;
    Elems.reserve(T->args().size());
    for (const Type *E : T->args())
      Elems.push_back(renameVars(Arena, E, Suffix));
    return Arena.tuple(std::move(Elems));
  }
  }
  return T;
}

const Type *syrust::types::applySubst(TypeArena &Arena, const Type *T,
                                      const Substitution &Subst) {
  switch (T->kind()) {
  case TypeKind::Prim:
    return T;
  case TypeKind::Var: {
    const Type *Bound = Subst.lookup(T);
    return Bound ? Bound : T;
  }
  case TypeKind::Named: {
    if (T->isConcrete())
      return T;
    std::vector<const Type *> Args;
    Args.reserve(T->args().size());
    for (const Type *Arg : T->args())
      Args.push_back(applySubst(Arena, Arg, Subst));
    return Arena.named(T->name(), std::move(Args));
  }
  case TypeKind::Ref:
    if (T->isConcrete())
      return T;
    return Arena.ref(applySubst(Arena, T->pointee(), Subst), T->isMutRef());
  case TypeKind::Tuple: {
    if (T->isConcrete())
      return T;
    std::vector<const Type *> Elems;
    Elems.reserve(T->args().size());
    for (const Type *E : T->args())
      Elems.push_back(applySubst(Arena, E, Subst));
    return Arena.tuple(std::move(Elems));
  }
  }
  return T;
}
