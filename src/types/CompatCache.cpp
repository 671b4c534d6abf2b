//===--- CompatCache.cpp - Memoized type-compatibility kernel -------------===//
//
// Part of SyRust-CPP (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//

#include "types/CompatCache.h"

using namespace syrust::types;

namespace {

/// Pointer mixing in the spirit of boost::hash_combine; interned Type
/// pointers are stable for the arena's lifetime, which is all a hash
/// needs (the map is never iterated, so pointer-order nondeterminism
/// cannot leak into results).
size_t mix(size_t H, const void *P) {
  auto V = reinterpret_cast<uintptr_t>(P);
  return H ^ (static_cast<size_t>(V) + 0x9e3779b97f4a7c15ULL + (H << 6) +
              (H >> 2));
}

} // namespace

size_t CompatCache::PairHash::operator()(const PairKey &K) const {
  return mix(mix(0, K.A), K.B);
}

bool CompatCache::unifiable2(const Type *A, const Type *B) {
  const PairKey K{A, B};
  if (auto It = Pairs.find(K); It != Pairs.end()) {
    ++S.Hits;
    return It->second;
  }
  if (Base)
    if (auto It = Base->Pairs.find(K); It != Base->Pairs.end()) {
      ++S.BaseHits;
      return It->second;
    }
  Substitution Probe;
  bool Result = unifiable(A, B, Probe);
  Pairs.emplace(K, Result);
  ++S.Misses;
  return Result;
}
