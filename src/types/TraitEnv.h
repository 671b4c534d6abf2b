//===--- TraitEnv.h - Trait implementation database ------------*- C++ -*-===//
//
// Part of SyRust-CPP (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Records which types implement which traits, including conditional
/// generic impls ("impl<T: Clone> Clone for Vec<T>"). The synthesis encoder
/// deliberately IGNORES trait bounds (Section 5.2 of the paper: "instead of
/// dealing with complex trait requirements, we use the compiler errors as
/// feedback"); this database is consulted by the rustsim checker, whose
/// trait-mismatch diagnostics drive the lazy refinement loop.
///
//===----------------------------------------------------------------------===//

#ifndef SYRUST_TYPES_TRAITENV_H
#define SYRUST_TYPES_TRAITENV_H

#include "types/Subtyping.h"
#include "types/Type.h"

#include <string>
#include <vector>

namespace syrust::types {

/// One impl rule: `Pattern` implements `Trait` provided each listed type
/// variable of the pattern implements its required traits.
struct ImplRule {
  std::string Trait;
  const Type *Pattern = nullptr;
  /// Conditions: (type-variable name in Pattern, required trait).
  std::vector<std::pair<std::string, std::string>> Where;
};

/// Database of trait implementations with conditional-impl resolution.
class TraitEnv {
public:
  explicit TraitEnv(TypeArena &Arena) : Arena(Arena) {}

  /// Rebinding copy: the same impl rules, but interning through
  /// \p NewArena. Used when a worker's copy-on-write instance overlays a
  /// shared base instance: the rules' Type pointers stay valid (they live
  /// in the base arena the overlay chains to), while implements() interns
  /// any instantiated obligations into the worker's own arena.
  TraitEnv(const TraitEnv &Other, TypeArena &NewArena)
      : Arena(NewArena), Rules(Other.Rules) {}

  /// Registers an unconditional impl for a concrete or generic pattern.
  void addImpl(const std::string &Trait, const Type *Pattern) {
    Rules.push_back(ImplRule{Trait, Pattern, {}});
  }

  /// Registers a conditional impl.
  void addImpl(const std::string &Trait, const Type *Pattern,
               std::vector<std::pair<std::string, std::string>> Where) {
    Rules.push_back(ImplRule{Trait, Pattern, std::move(Where)});
  }

  /// True if \p T implements \p Trait. Conditional impls recurse into the
  /// bound arguments; recursion depth is bounded to keep pathological rule
  /// sets terminating.
  bool implements(const Type *T, const std::string &Trait) const;

  /// Copy semantics: primitives, shared references, and tuples of Copy
  /// types are Copy; nominal types are Copy iff they implement the Copy
  /// trait. &mut T is never Copy.
  bool isCopy(const Type *T) const;

  /// Default primitive universe, convenient for tests and crate specs.
  void addDefaultPrimImpls();

  const std::vector<ImplRule> &rules() const { return Rules; }

private:
  bool implementsDepth(const Type *T, const std::string &Trait,
                       int Depth) const;

  TypeArena &Arena;
  std::vector<ImplRule> Rules;
};

/// Whether passing a value of type \p ArgTy to a parameter declared as
/// \p Pattern consumes (moves) the argument binding. Rust's rules, which
/// the encoder (synth/Encoding) and the checker (rustsim/Checker) must
/// agree on:
///
///   * Copy values (primitives, shared refs, Copy nominals) never move;
///   * any reference passed to a parameter whose declared type is itself
///     a reference is implicitly reborrowed, not moved;
///   * everything else — owned non-Copy values, and `&mut T` passed to a
///     by-value parameter such as a bare type variable — moves, killing
///     the binding (`&mut T` is not Copy).
///
/// \p ArgIsCopy is Traits.isCopy(ArgTy), for callers that memoize it.
inline bool movesOnUse(const Type *ArgTy, bool ArgIsCopy,
                       const Type *Pattern) {
  if (ArgIsCopy)
    return false;
  if (ArgTy->isRef() && Pattern && Pattern->isRef())
    return false; // Implicit reborrow.
  return true;
}

inline bool movesOnUse(const Type *ArgTy, const Type *Pattern,
                       const TraitEnv &Traits) {
  return movesOnUse(ArgTy, Traits.isCopy(ArgTy), Pattern);
}

} // namespace syrust::types

#endif // SYRUST_TYPES_TRAITENV_H
