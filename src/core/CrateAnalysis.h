//===--- CrateAnalysis.h - Shared per-crate analysis -----------*- C++ -*-===//
//
// Part of SyRust-CPP (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One immutable instantiation of a library model, computed once per
/// crate and shared read-only across every run and campaign worker that
/// targets it. A campaign matrix typically multiplies one crate by many
/// (seed, variant) jobs, and without it each job would re-run
/// CrateSpec::instantiate() and re-answer the encoder's per-slot
/// compatibility probes from scratch.
///
/// The analysis owns:
///   * the base CrateInstance (arena, trait rules, API database,
///     semantics), frozen after construction;
///   * the renamed per-API signatures the encoder will request
///     (api::renameSignature, as Encoding::sync renames), interned into
///     the base arena so every worker's renames resolve to identical
///     pointers;
///   * a precomputed CompatCache holding the per-slot matrix over the
///     initial signatures: "can a value of this cell type feed this
///     input", for every cell type and input slot;
///   * the dependency graph, read off that matrix.
///
/// The joint two-slot probes of Definition 2(3) are not precomputed:
/// the encoder asks only about the candidate pairs each sync adds, a
/// small fraction of every (slot pair, cell-type pair) a crate has, so
/// it computes them directly (types::unifiableJoint).
///
/// Workers call makeWorkerInstance() for a private copy-on-write overlay
/// (chained arena, copied database/traits/semantics) and chain a private
/// CompatCache onto baseCache(): probes over base types hit the shared
/// matrix; probes involving refinement-added instances are computed and
/// stored per worker. Determinism: the base is immutable at run time and
/// each worker's probe sequence depends only on its own (crate, seed,
/// variant) job, so per-job cache counters - and therefore the summed
/// campaign aggregates - are byte-identical for any --jobs count.
///
//===----------------------------------------------------------------------===//

#ifndef SYRUST_CORE_CRATEANALYSIS_H
#define SYRUST_CORE_CRATEANALYSIS_H

#include "api/DependencyGraph.h"
#include "crates/CrateSpec.h"
#include "types/CompatCache.h"

#include <memory>

namespace syrust::core {

/// Immutable shared analysis for one crate. See file comment.
class CrateAnalysis {
public:
  /// Instantiates \p Spec once and precomputes the per-slot matrix.
  /// The spec must outlive the analysis (it holds no reference, but the
  /// semantics lambdas may).
  explicit CrateAnalysis(const crates::CrateSpec &Spec);

  CrateAnalysis(const CrateAnalysis &) = delete;
  CrateAnalysis &operator=(const CrateAnalysis &) = delete;

  /// The frozen base instance. Never hand this to a driver directly -
  /// runs mutate their instance (API bans, refinement); use
  /// makeWorkerInstance().
  const crates::CrateInstance &base() const { return *Base; }

  /// The precomputed per-slot matrix. Chain a per-run CompatCache onto
  /// this; never write to it.
  const types::CompatCache &baseCache() const { return BaseCache; }

  /// A private copy-on-write overlay instance for one run: chained
  /// arena, copied API database / trait rules / semantics. Cheap next to
  /// instantiate() - no model rebuild, no re-interning.
  std::unique_ptr<crates::CrateInstance> makeWorkerInstance() const;

  /// Entries in the per-slot matrix (observability and tests).
  size_t matrixEntries() const { return BaseCache.size(); }

  /// The frozen producer/consumer graph over the base database, derived
  /// from the per-slot matrix (the probes are pure cache hits - zero
  /// extra unification work). Shared read-only by every worker's
  /// coverage::ApiPairCoverage.
  const api::DependencyGraph &graph() const { return Graph; }

private:
  std::unique_ptr<crates::CrateInstance> Base;
  types::CompatCache BaseCache;
  api::DependencyGraph Graph;
};

} // namespace syrust::core

#endif // SYRUST_CORE_CRATEANALYSIS_H
