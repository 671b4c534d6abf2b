//===--- RefinementEngine.h - Hybrid polymorphic API refinement -*- C++ -*-===//
//
// Part of SyRust-CPP (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Section 5's hybrid type-variable instantiation:
///
///   * No-input polymorphism (5.1): constructors like Vec::new cannot be
///     resolved lazily, so their outputs are EAGERLY concretized over the
///     concrete types mined from the API set and template - deliberately
///     ignoring trait bounds; trait-failing concretizations are removed
///     when the compiler complains.
///   * Polymorphic inputs, concrete output (5.2): handled by subtyping in
///     the encoder; trait mismatches reported by the compiler block that
///     input combination on the offending API.
///   * Polymorphic inputs, polymorphic output (5.3): on each successful
///     (or directly-fixable) use, the API is duplicated with fully
///     concrete inputs and the checker-confirmed output, and the original
///     is blocked on that combination so the pair stays disjoint.
///
/// Modes: Hybrid (the paper's contribution), PurelyEager (SyPet-style, the
/// RQ3 ablation: instantiate everything up front over mined types, no
/// feedback), PurelyLazy (H+-style; fails on constructors, included for
/// completeness and demonstrations).
///
//===----------------------------------------------------------------------===//

#ifndef SYRUST_REFINE_REFINEMENTENGINE_H
#define SYRUST_REFINE_REFINEMENTENGINE_H

#include "api/ApiDatabase.h"
#include "program/Program.h"
#include "rustsim/Diagnostic.h"
#include "types/Subtyping.h"
#include "types/TraitEnv.h"

#include <map>
#include <vector>

namespace syrust::obs {
class Recorder;
} // namespace syrust::obs

namespace syrust::refine {

/// Instantiation strategy.
enum class RefinementMode {
  Hybrid,      ///< The paper's approach (Section 5).
  PurelyEager, ///< SyPet-style full up-front instantiation (RQ3).
  PurelyLazy,  ///< H+-style; cannot synthesize constructors.
};

/// Counters exposed to the benches and EXPERIMENTS.md.
struct RefinementStats {
  uint64_t EagerConcretizations = 0;
  uint64_t TraitRemovals = 0;   ///< Concrete APIs removed on trait errors.
  uint64_t ComboBlocks = 0;     ///< Section 5.2/5.3 combinations newly
                                ///< blocked (a repeat is not counted).
  uint64_t OutputDuplications = 0; ///< Section 5.3 duplicate-and-block.
  uint64_t DirectFixes = 0;     ///< "expected X, got Y" direct fixes.
  uint64_t Bans = 0;            ///< Unfixable APIs disabled.
};

/// Mines concrete types (including concrete subterms) from the template
/// and API signatures; instantiation candidates for eager concretization.
std::vector<const types::Type *>
harvestConcreteTypes(const api::ApiDatabase &Db,
                     const std::vector<program::TemplateInput> &Inputs);

/// Drives API-database evolution from compiler feedback.
class RefinementEngine {
public:
  RefinementEngine(types::TypeArena &Arena, api::ApiDatabase &Db,
                   RefinementMode Mode = RefinementMode::Hybrid)
      : Arena(Arena), Db(Db), Mode(Mode) {}

  /// One-time setup before synthesis: eager concretization per the mode.
  void initialize(const std::vector<program::TemplateInput> &Inputs);

  /// Reacts to a rejection; returns true when the database changed (the
  /// synthesizer must rebuild its encoding).
  bool onDiagnostic(const rustsim::Diagnostic &Diag);

  /// Reacts to a successfully compiled program: Section 5.3 duplication
  /// of polymorphic-output APIs at their now-confirmed concrete types.
  /// Returns true when the database changed.
  bool onSuccess(const program::Program &P);

  const RefinementStats &stats() const { return Stats; }

  /// Maximum instantiations generated per API during eager passes.
  void setEagerCap(size_t Cap) { EagerCap = Cap; }

  /// Attaches the flight recorder; every database-mutating refinement
  /// action then emits a `refine.action` trace event carrying the
  /// triggering diagnostic and bumps a `refine.<action>` counter.
  void setRecorder(obs::Recorder *R) { Obs = R; }

private:
  /// Records one refinement action (null recorder: no-op).
  void note(const char *Action, const rustsim::Diagnostic *Diag);
  void eagerlyConcretize(api::ApiId Id, bool AllVars);
  bool duplicateWithConcreteTypes(api::ApiId Orig,
                                  std::vector<const types::Type *> Inputs,
                                  const types::Type *Output);
  /// Blocks the diagnostic's input combination on its API (Sections
  /// 5.2/5.3). Returns true only when the combination is newly blocked.
  bool blockCombo(const rustsim::Diagnostic &Diag);

  types::TypeArena &Arena;
  api::ApiDatabase &Db;
  RefinementMode Mode;
  RefinementStats Stats;
  std::vector<const types::Type *> Harvested;
  std::map<api::ApiId, int> ArityStrikes;
  size_t EagerCap = 64;
  obs::Recorder *Obs = nullptr;
};

} // namespace syrust::refine

#endif // SYRUST_REFINE_REFINEMENTENGINE_H
