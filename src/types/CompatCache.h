//===--- CompatCache.h - Memoized type-compatibility kernel ----*- C++ -*-===//
//
// Part of SyRust-CPP (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Memo tables for the boolean type-compatibility probes the SAT encoder
/// asks during every build (Section 4, Definition 2): "is Actual
/// unifiable with Pattern" per (candidate, slot) and "do two candidates
/// unify with their two slots under one joint substitution" per candidate
/// pair. Types are interned, so a probe's answer is a pure function of
/// the participating Type pointers; after the first computation every
/// repeat - across lines, program lengths, and refinement re-syncs, where
/// the same (type, pattern) pairs recur thousands of times - is a single
/// hash lookup.
///
/// Caches chain: a per-run (or per-campaign-worker) cache can point at an
/// immutable base cache holding the crate's precomputed slot-pairwise
/// matrix (core::CrateAnalysis). Lookups consult local entries, then the
/// base chain read-only, then compute and store locally; the base is
/// never written after construction, so any number of workers can share
/// it without synchronization and per-worker hit/miss counts stay
/// deterministic regardless of scheduling.
///
//===----------------------------------------------------------------------===//

#ifndef SYRUST_TYPES_COMPATCACHE_H
#define SYRUST_TYPES_COMPATCACHE_H

#include "types/Subtyping.h"

#include <cstdint>
#include <unordered_map>

namespace syrust::types {

/// Memoized unifiable probes over interned types. See file
/// comment for the chaining and thread-safety contract.
class CompatCache {
public:
  CompatCache() = default;

  /// Chains onto \p Base: probes the base's tables (read-only) before
  /// computing. \p Base must outlive this cache and must not be written
  /// to while chained caches are live.
  explicit CompatCache(const CompatCache *Base) : Base(Base) {}

  /// Memoized `unifiable(A, B)` under a fresh substitution - the
  /// buildCallSites gate "could this value feed this slot".
  bool unifiable2(const Type *A, const Type *B);

  /// Memoized joint probe: `unifiable(A1, P1, S) && unifiable(A2, P2, S)`
  /// under one shared substitution S - the pairwise compatibleTypes check
  /// of Definition 2(3). Not decomposable into two unifiable2 calls: the
  /// slots may share renamed signature variables.
  bool unifiableJoint(const Type *A1, const Type *P1, const Type *A2,
                      const Type *P2);

  struct Stats {
    uint64_t Hits = 0;     ///< Answered from this cache's own tables.
    uint64_t BaseHits = 0; ///< Answered from the chained base cache.
    uint64_t Misses = 0;   ///< Computed fresh (and stored locally).
  };
  const Stats &stats() const { return S; }

  /// Entries stored in this cache alone (excludes the base chain).
  size_t size() const { return PairMap.size() + QuadMap.size(); }

private:
  struct PairKey {
    const Type *A;
    const Type *B;
    bool operator==(const PairKey &) const = default;
  };
  struct QuadKey {
    const Type *A1;
    const Type *P1;
    const Type *A2;
    const Type *P2;
    bool operator==(const QuadKey &) const = default;
  };
  struct PairHash {
    size_t operator()(const PairKey &K) const;
  };
  struct QuadHash {
    size_t operator()(const QuadKey &K) const;
  };
  template <typename Map, typename Key, typename Compute>
  bool memo(Map CompatCache::*M, const Key &K, Compute &&Fn);

  const CompatCache *Base = nullptr;
  std::unordered_map<PairKey, bool, PairHash> PairMap;
  std::unordered_map<QuadKey, bool, QuadHash> QuadMap;
  Stats S;
};

} // namespace syrust::types

#endif // SYRUST_TYPES_COMPATCACHE_H
