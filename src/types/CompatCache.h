//===--- CompatCache.h - Memoized type-compatibility kernel ----*- C++ -*-===//
//
// Part of SyRust-CPP (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A memo table for the pair probe the SAT encoder asks during every
/// build (Section 4, Definition 2): "is Actual unifiable with Pattern"
/// per (candidate, slot). Types are interned, so a probe's answer is a
/// pure function of the two Type pointers; after the first computation
/// every repeat - across lines, program lengths, and refinement re-syncs,
/// where the same (type, pattern) pairs recur thousands of times - is a
/// single hash lookup. The joint two-slot probe of Definition 2(3) is not
/// memoized: the encoder asks types::unifiableJoint directly, only for
/// the candidate pairs a sync adds.
///
/// A per-run (or per-campaign-worker) cache can point at one immutable
/// base cache holding the crate's precomputed per-slot matrix
/// (core::CrateAnalysis). Lookups consult local entries, then the base
/// read-only, then compute and store locally; the base is never written
/// after construction, so any number of workers can share it without
/// synchronization and per-worker hit/miss counts stay deterministic
/// regardless of scheduling.
///
//===----------------------------------------------------------------------===//

#ifndef SYRUST_TYPES_COMPATCACHE_H
#define SYRUST_TYPES_COMPATCACHE_H

#include "types/Subtyping.h"

#include <cstdint>
#include <unordered_map>

namespace syrust::types {

/// Memoized unifiable probes over interned types. See file
/// comment for the base and thread-safety contract.
class CompatCache {
public:
  CompatCache() = default;

  /// Reads \p Base (read-only) before computing. \p Base must outlive
  /// this cache and must not be written to while it is in use.
  explicit CompatCache(const CompatCache *Base) : Base(Base) {}

  /// Memoized `unifiable(A, B)` under a fresh substitution - the
  /// buildCallSites gate "could this value feed this slot".
  bool unifiable2(const Type *A, const Type *B);

  struct Stats {
    uint64_t Hits = 0;     ///< Answered from this cache's own table.
    uint64_t BaseHits = 0; ///< Answered from the base cache.
    uint64_t Misses = 0;   ///< Computed fresh (and stored locally).
  };
  const Stats &stats() const { return S; }

  /// Entries stored in this cache alone (excludes the base).
  size_t size() const { return Pairs.size(); }

private:
  struct PairKey {
    const Type *A;
    const Type *B;
    bool operator==(const PairKey &) const = default;
  };
  struct PairHash {
    size_t operator()(const PairKey &K) const;
  };

  const CompatCache *Base = nullptr;
  std::unordered_map<PairKey, bool, PairHash> Pairs;
  Stats S;
};

} // namespace syrust::types

#endif // SYRUST_TYPES_COMPATCACHE_H
