//===--- CrateAnalysis.cpp - Shared per-crate analysis --------------------===//
//
// Part of SyRust-CPP (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/CrateAnalysis.h"

#include <set>

using namespace syrust;
using namespace syrust::api;
using namespace syrust::core;
using namespace syrust::crates;
using namespace syrust::types;

CrateAnalysis::CrateAnalysis(const CrateSpec &Spec)
    : Base(Spec.instantiate()) {
  TypeArena &Arena = Base->Arena;
  const ApiDatabase &Db = Base->Db;

  // Rename every API's signature exactly as Encoding::sync will
  // (api::renameSignature), interning into the base arena: workers'
  // overlay arenas resolve the same renames to these pointers, so their
  // probes hit the matrix computed below. All APIs are covered, not just
  // one run's 15-API selection - the matrix is selection-independent.
  std::vector<RenamedSig> Ren;
  Ren.reserve(Db.size());
  for (size_t K = 0; K < Db.size(); ++K)
    Ren.push_back(renameSignature(Arena, Db.get(static_cast<ApiId>(K)),
                                  static_cast<ApiId>(K)));

  // The encoder-level cell-type universe: template input types, renamed
  // API outputs, and the builtin-derived types (&T and &mut T of every
  // non-reference cell type; let-mut copies the type itself). This is
  // the closure of Encoding::buildTypeUniverse over any line count -
  // builtins act on non-refs only, so one derivation round suffices.
  std::vector<const Type *> Cells;
  std::set<const Type *> Seen;
  auto AddCell = [&](const Type *Ty) {
    if (Seen.insert(Ty).second)
      Cells.push_back(Ty);
  };
  for (const auto &In : Base->Inputs)
    AddCell(In.Ty);
  for (size_t K = 0; K < Db.size(); ++K)
    if (Db.get(static_cast<ApiId>(K)).Builtin == BuiltinKind::None)
      AddCell(Ren[K].Output);
  for (size_t I = Cells.size(); I-- > 0;) {
    const Type *Ty = Cells[I];
    if (Ty->isRef())
      continue;
    AddCell(Arena.ref(Ty, /*Mutable=*/false));
    AddCell(Arena.ref(Ty, /*Mutable=*/true));
  }

  // Per-slot matrix: every (cell type, renamed input pattern) pair the
  // call-site builder can probe.
  for (size_t K = 0; K < Db.size(); ++K)
    for (const Type *Pattern : Ren[K].Inputs)
      for (const Type *Ty : Cells)
        BaseCache.unifiable2(Ty, Pattern);

  // Producer/consumer graph over the same renamed signatures. Every
  // probe it makes is (renamed output, Pattern) - a subset of the loop
  // above, so this is pure cache hits: zero extra unification work.
  Graph = api::buildDependencyGraph(Db, Arena, BaseCache);
}

std::unique_ptr<CrateInstance> CrateAnalysis::makeWorkerInstance() const {
  return std::make_unique<CrateInstance>(*Base, types::Overlay);
}
