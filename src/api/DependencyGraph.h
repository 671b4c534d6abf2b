//===--- DependencyGraph.h - Producer/consumer API graph -------*- C++ -*-===//
//
// Part of SyRust-CPP (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The API dependency graph: nodes are the API signatures of one crate's
/// database and a directed edge (A, B, j) says "the output of A unifies
/// into input slot j of B" - the producer/consumer relation RULF uses as
/// its coverage unit for library fuzzing. The edge set is derived from
/// exactly the slot-pairwise compatibility probes core::CrateAnalysis
/// already precomputes (renamed output type vs renamed input pattern
/// under two-sided unification), so building the graph alongside the
/// matrix costs zero extra probes.
///
/// The graph is frozen per crate: it covers every signature of the base
/// database (bans and run-local refinement never change it), edges are
/// sorted by (producer, consumer, slot), and edge truth is a pure
/// function of interned type pointers - so two builds over the same
/// database are byte-identical regardless of seed, worker count, or
/// whether a shared analysis or a private instantiation supplied the
/// types. coverage::ApiPairCoverage marks bitsets over these nodes and
/// edges as the synthesizer emits programs.
///
//===----------------------------------------------------------------------===//

#ifndef SYRUST_API_DEPENDENCYGRAPH_H
#define SYRUST_API_DEPENDENCYGRAPH_H

#include "api/ApiDatabase.h"
#include "types/CompatCache.h"

#include <cstdint>
#include <string>
#include <vector>

namespace syrust::api {

/// One producer -> consumer edge: the output of \c Producer can feed
/// input slot \c Slot of \c Consumer.
struct DependencyEdge {
  ApiId Producer = ApiIdInvalid;
  ApiId Consumer = ApiIdInvalid;
  /// Input-slot index on the consumer (the receiver is slot 0).
  int Slot = 0;
  /// The consumer slot takes a reference (&T / &mut T) rather than
  /// consuming the value.
  bool ByRef = false;
  /// The connection involves an uninstantiated type variable on either
  /// endpoint (producer output or consumer slot pattern), i.e. it only
  /// exists under some generic instantiation.
  bool Generic = false;
};

/// Frozen producer/consumer graph over one API database. See file
/// comment for the determinism contract.
class DependencyGraph {
public:
  DependencyGraph() = default;

  /// Nodes are ApiIds [0, numNodes()), mirroring the database the graph
  /// was built from (builtins included).
  size_t numNodes() const { return NumNodes; }
  size_t numEdges() const { return Edges.size(); }

  /// Edges sorted by (Producer, Consumer, Slot) - the deterministic
  /// bitset order coverage tracking and serialization rely on.
  const std::vector<DependencyEdge> &edges() const { return Edges; }

  /// Dense index of edge (Producer, Consumer, Slot) into edges(), or -1
  /// when the graph has no such edge. Ids past numNodes() (APIs that
  /// refinement added after the graph froze) and slots the consumer
  /// does not have also give -1.
  int edgeIndex(ApiId Producer, ApiId Consumer, int Slot) const {
    if (Producer < 0 || Consumer < 0 ||
        static_cast<size_t>(Producer) >= NumNodes ||
        static_cast<size_t>(Consumer) >= NumNodes || Slot < 0 ||
        static_cast<size_t>(Slot) >=
            SlotBase[static_cast<size_t>(Consumer) + 1] -
                SlotBase[static_cast<size_t>(Consumer)])
      return -1;
    return EdgeAt[row(Consumer, Slot) + static_cast<size_t>(Producer)];
  }

  /// The encoder's pruning probe. By construction (the edge set is
  /// exactly the probe-success set) the answer equals
  /// Cache.unifiable2(renamed output of Producer, renamed slot pattern).
  bool hasEdge(ApiId Producer, ApiId Consumer, int Slot) const {
    return edgeIndex(Producer, Consumer, Slot) >= 0;
  }

  /// Canonical one-line-per-edge rendering (golden tests): endpoint
  /// names and types from \p Db plus the edge metadata.
  std::string describe(const ApiDatabase &Db) const;

private:
  friend DependencyGraph buildDependencyGraph(const ApiDatabase &Db,
                                              types::TypeArena &Arena,
                                              types::CompatCache &Cache);

  /// Start of the (Consumer, Slot) row in EdgeAt.
  size_t row(ApiId Consumer, int Slot) const {
    return (static_cast<size_t>(SlotBase[static_cast<size_t>(Consumer)]) +
            static_cast<size_t>(Slot)) *
           NumNodes;
  }

  size_t NumNodes = 0;
  std::vector<DependencyEdge> Edges;

  /// Adjacency: row r = SlotBase[Consumer] + Slot holds, per producer
  /// id, that edge's index into Edges or -1. SlotBase is the prefix sum
  /// of input counts over consumer ids (one trailing total entry), so
  /// rows for all (consumer, slot) pairs pack densely.
  std::vector<uint32_t> SlotBase;
  std::vector<int> EdgeAt;
};

/// An API signature with its type variables renamed apart by the suffix
/// "a<ApiId>".
struct RenamedSig {
  std::vector<const types::Type *> Inputs;
  const types::Type *Output = nullptr;
};

/// Renames signature \p Id of a database, interning into \p Arena. The
/// graph builder, core::CrateAnalysis and Encoding::sync all rename
/// through this one function, so over one arena they agree on every
/// renamed type pointer: that is what makes a graph edge exactly a
/// successful encoder probe (DESIGN.md 5g).
RenamedSig renameSignature(types::TypeArena &Arena, const ApiSig &Sig,
                           ApiId Id);

/// Builds the graph over every signature of \p Db. Signatures are
/// renamed with renameSignature (interned into \p Arena, so inside
/// core::CrateAnalysis the renames resolve to the already-interned
/// pointers) and each candidate edge is one
/// \c unifiable2(renamed output, renamed slot pattern) probe through
/// \p Cache - the exact probes of the precomputed per-slot matrix, so a
/// build over a populated base cache adds no new entries.
DependencyGraph buildDependencyGraph(const ApiDatabase &Db,
                                     types::TypeArena &Arena,
                                     types::CompatCache &Cache);

} // namespace syrust::api

#endif // SYRUST_API_DEPENDENCYGRAPH_H
