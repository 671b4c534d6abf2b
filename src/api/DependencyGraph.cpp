//===--- DependencyGraph.cpp - Producer/consumer API graph ----------------===//
//
// Part of SyRust-CPP (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//

#include "api/DependencyGraph.h"

#include "types/Subtyping.h"

using namespace syrust;
using namespace syrust::api;
using namespace syrust::types;

RenamedSig syrust::api::renameSignature(TypeArena &Arena, const ApiSig &Sig,
                                        ApiId Id) {
  const std::string Suffix = "a" + std::to_string(Id);
  RenamedSig R;
  for (const Type *In : Sig.Inputs)
    R.Inputs.push_back(renameVars(Arena, In, Suffix));
  R.Output = renameVars(Arena, Sig.Output, Suffix);
  return R;
}

DependencyGraph syrust::api::buildDependencyGraph(const ApiDatabase &Db,
                                                  TypeArena &Arena,
                                                  CompatCache &Cache) {
  DependencyGraph G;
  G.NumNodes = Db.size();

  G.SlotBase.resize(Db.size() + 1, 0);
  for (size_t K = 0; K < Db.size(); ++K)
    G.SlotBase[K + 1] =
        G.SlotBase[K] +
        static_cast<uint32_t>(Db.get(static_cast<ApiId>(K)).Inputs.size());
  G.EdgeAt.assign(static_cast<size_t>(G.SlotBase[Db.size()]) * Db.size(),
                  -1);

  // The renames CrateAnalysis and Encoding::sync make too, so the probe
  // keys below are the interned pointers the precomputed matrix holds.
  std::vector<RenamedSig> Ren;
  Ren.reserve(Db.size());
  for (size_t K = 0; K < Db.size(); ++K)
    Ren.push_back(renameSignature(Arena, Db.get(static_cast<ApiId>(K)),
                                  static_cast<ApiId>(K)));

  // Producer-major enumeration yields the sorted (Producer, Consumer,
  // Slot) edge order directly - no post-sort, and the dense edge index
  // is its append position.
  for (size_t A = 0; A < Db.size(); ++A) {
    for (size_t B = 0; B < Db.size(); ++B) {
      for (size_t J = 0; J < Ren[B].Inputs.size(); ++J) {
        const Type *Pattern = Ren[B].Inputs[J];
        if (!Cache.unifiable2(Ren[A].Output, Pattern))
          continue;
        DependencyEdge E;
        E.Producer = static_cast<ApiId>(A);
        E.Consumer = static_cast<ApiId>(B);
        E.Slot = static_cast<int>(J);
        E.ByRef = Pattern->isRef();
        E.Generic = !Ren[A].Output->isConcrete() || !Pattern->isConcrete();
        G.EdgeAt[G.row(E.Consumer, E.Slot) + A] =
            static_cast<int>(G.Edges.size());
        G.Edges.push_back(E);
      }
    }
  }
  return G;
}

std::string DependencyGraph::describe(const ApiDatabase &Db) const {
  std::string Out;
  Out += "nodes " + std::to_string(NumNodes) + " edges " +
         std::to_string(Edges.size()) + "\n";
  for (const DependencyEdge &E : Edges) {
    const ApiSig &P = Db.get(E.Producer);
    const ApiSig &C = Db.get(E.Consumer);
    Out += P.Name + " -> " + C.Name + "#" + std::to_string(E.Slot) + " [" +
           (P.Output ? P.Output->str() : "()") + " => " +
           C.Inputs[static_cast<size_t>(E.Slot)]->str() +
           (E.ByRef ? ", by-ref" : ", by-value") +
           (E.Generic ? ", generic" : "") + "]\n";
  }
  return Out;
}
