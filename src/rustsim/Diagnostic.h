//===--- Diagnostic.h - Structured compiler diagnostics --------*- C++ -*-===//
//
// Part of SyRust-CPP (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Diagnostics in the shape the paper's pipeline consumes: the three
/// top-level categories of Figure 6 (Type, Lifetime & Ownership,
/// Miscellaneous) plus the finer subcategories Figures 9 and 10 break the
/// ablation results into (ownership vs. borrowing; trait vs. polymorphism
/// vs. misc). Each diagnostic also carries the machine-readable payload the
/// hybrid refinement engine (Section 5) needs: offending API, input types
/// at the call site, failing type variable/trait, and the checker-computed
/// correct output type when one exists ("expected String, got Vec<i32>").
///
//===----------------------------------------------------------------------===//

#ifndef SYRUST_RUSTSIM_DIAGNOSTIC_H
#define SYRUST_RUSTSIM_DIAGNOSTIC_H

#include "api/ApiSig.h"
#include "types/Type.h"

#include <string>
#include <vector>

namespace syrust::rustsim {

/// Top-level rejection categories (Figure 6 columns).
enum class ErrorCategory : uint8_t {
  Type,
  LifetimeOwnership,
  Misc,
};

/// Finer breakdown used by the ablation tables (Figures 9 and 10).
enum class ErrorDetail : uint8_t {
  None,
  // --- Type ---
  TraitBound,       ///< Type variable instantiated without a required trait.
  Polymorphism,     ///< Wrong/unresolved polymorphic instantiation.
  DefaultTypeParam, ///< Collected spec lost a defaulted type parameter.
  TypeMismatch,     ///< Plain concrete type mismatch.
  // --- Lifetime & Ownership ---
  Ownership,    ///< Use of a moved value.
  Borrowing,    ///< Conflicting borrows / dead borrower use.
  AnonLifetime, ///< Unsupported anonymous parameterized lifetime.
  // --- Misc ---
  Arity,          ///< "expected n arguments, found j".
  MethodNotFound, ///< "method not found" resolution failure.
};

/// Maps a detail to its category.
ErrorCategory categoryOf(ErrorDetail Detail);

/// One compiler diagnostic.
struct Diagnostic {
  ErrorCategory Category = ErrorCategory::Misc;
  ErrorDetail Detail = ErrorDetail::None;
  int Line = -1; ///< 0-based statement index.
  api::ApiId Api = api::ApiIdInvalid;
  std::string Message;

  /// Actual types of the call arguments (refinement duplicates the API with
  /// these, Section 5.3).
  std::vector<const types::Type *> ActualInputs;

  /// Checker-computed correct output type, when determinable; refinement
  /// "fixes directly" from it.
  const types::Type *ExpectedOutput = nullptr;

  /// For trait errors: which type variable failed which trait, and the type
  /// it was bound to.
  std::string BadTypeVar;
  std::string MissingTrait;
  const types::Type *BadBinding = nullptr;
};

/// Result of compiling one test case.
struct CompileResult {
  bool Success = true;
  /// First (rejection-driving) diagnostic; meaningful when !Success.
  Diagnostic Diag;
};

/// Human-readable names for table rendering.
const char *categoryName(ErrorCategory C);
const char *detailName(ErrorDetail D);

/// The inverses of categoryName and detailName, for documents and wire
/// messages that carry the names. False when \p Name names no value.
bool categoryFromName(const std::string &Name, ErrorCategory &Out);
bool detailFromName(const std::string &Name, ErrorDetail &Out);

} // namespace syrust::rustsim

#endif // SYRUST_RUSTSIM_DIAGNOSTIC_H
