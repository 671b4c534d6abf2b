//===--- Subtyping.h - Subtype matching and substitutions ------*- C++ -*-===//
//
// Part of SyRust-CPP (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Implements the subtype operator (⊑) of Definition 2 in the paper:
///
///   * reflexivity:              τ ⊑ τ
///   * reference mutability:     &mut τ ⊑ &τ       (top level only; generic
///                               parameters are invariant, as in Rust)
///   * polymorphism:             ∀τ. τ ⊑ T          (binding T := τ)
///
/// Matching an actual type against a (possibly polymorphic) signature type
/// produces a Substitution; the compatibleTypes check of Definition 2(3) is
/// "all arguments of one call match under a single joint substitution".
///
//===----------------------------------------------------------------------===//

#ifndef SYRUST_TYPES_SUBTYPING_H
#define SYRUST_TYPES_SUBTYPING_H

#include "types/Type.h"

#include <cassert>
#include <string>
#include <vector>

namespace syrust::types {

/// A binding of type variables to types. Stored as a small flat vector
/// keyed by the variables' dense per-arena indices (Type::varIndex()):
/// signatures bind a handful of variables at most, so a linear scan over
/// ints beats the name-keyed std::map this used to be - no tree walk, no
/// string hashing, no node allocation in the encoder's unifiability
/// probes, which run once per (candidate, slot) pair per encoding build.
class Substitution {
public:
  struct Entry {
    int Idx = -1;              ///< Var->varIndex(), the scan key.
    const Type *Var = nullptr; ///< The variable itself, for name lookups.
    const Type *Bound = nullptr;
  };

  /// Returns the binding of the interned variable \p Var, or nullptr when
  /// unbound. \p Var must come from the same arena chain as every other
  /// variable bound through this substitution.
  const Type *lookup(const Type *Var) const {
    assert(Var->isVar() && "substitution lookup on a non-variable");
    int Idx = Var->varIndex();
    for (const Entry &E : Entries)
      if (E.Idx == Idx)
        return E.Bound;
    return nullptr;
  }

  /// Name-keyed lookup for callers that only have the variable's spelling
  /// (trait-bound resolution, diagnostics). Cold path.
  const Type *lookup(const std::string &Name) const {
    for (const Entry &E : Entries)
      if (E.Var->name() == Name)
        return E.Bound;
    return nullptr;
  }

  /// Binds \p Var to \p T. Returns false - leaving the substitution
  /// unchanged - if \p Var is already bound to a different type. Bindings
  /// made before a failing bind always survive: isSubtype/unifiable extend
  /// one substitution across many slots and rely on this
  /// partial-extension-on-failure contract (callers copy when they need
  /// rollback).
  bool bind(const Type *Var, const Type *T) {
    assert(Var->isVar() && "substitution bind on a non-variable");
    int Idx = Var->varIndex();
    for (const Entry &E : Entries)
      if (E.Idx == Idx)
        return E.Bound == T;
    Entries.push_back(Entry{Idx, Var, T});
    return true;
  }

  bool empty() const { return Entries.empty(); }
  size_t size() const { return Entries.size(); }

  /// The bindings in first-bound order.
  const std::vector<Entry> &entries() const { return Entries; }

private:
  std::vector<Entry> Entries;
};

/// Checks Actual ⊑ Pattern, extending \p Subst with any type-variable
/// bindings required. On failure \p Subst may be partially extended; use a
/// copy if rollback matters.
bool isSubtype(const Type *Actual, const Type *Pattern, Substitution &Subst);

/// Convenience wrapper with a throwaway substitution.
bool isSubtype(const Type *Actual, const Type *Pattern);

/// Checks that a whole argument vector matches a signature's input vector
/// under one joint substitution (the compatibleTypes condition). Returns
/// the substitution through \p SubstOut on success.
bool matchCall(const std::vector<const Type *> &Actuals,
               const std::vector<const Type *> &Patterns,
               Substitution &SubstOut);

/// Applies \p Subst to \p T, interning results in \p Arena. Unbound type
/// variables are left in place.
const Type *applySubst(TypeArena &Arena, const Type *T,
                       const Substitution &Subst);

/// Two-sided unification: type variables on EITHER side may bind (a
/// variable binds to the other side's type; two variables bind by name).
/// Mutability coercion is permitted at the top level, like isSubtype. The
/// synthesis encoder uses this optimistic relation - "could these types
/// match under some instantiation" - and lets the compiler reject bad
/// instantiations, which is what drives the refinement loop (Section 5).
bool unifiable(const Type *A, const Type *B, Substitution &Subst);

/// The joint probe of Definition 2(3): whether \p A1 unifies with \p P1
/// and \p A2 with \p P2 under one shared substitution. Not two
/// independent unifiable() calls: the two slots may share renamed
/// signature variables, and a binding made for the first constrains the
/// second.
bool unifiableJoint(const Type *A1, const Type *P1, const Type *A2,
                    const Type *P2);

/// Renames every type variable "X" in \p T to "X#Suffix" so signatures
/// instantiated at different call sites cannot capture each other's
/// variables.
const Type *renameVars(TypeArena &Arena, const Type *T,
                       const std::string &Suffix);

} // namespace syrust::types

#endif // SYRUST_TYPES_SUBTYPING_H
