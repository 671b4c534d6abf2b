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
/// needs (the maps are never iterated, so pointer-order nondeterminism
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

size_t CompatCache::QuadHash::operator()(const QuadKey &K) const {
  return mix(mix(mix(mix(0, K.A1), K.P1), K.A2), K.P2);
}

template <typename Map, typename Key, typename Compute>
bool CompatCache::memo(Map CompatCache::*M, const Key &K, Compute &&Fn) {
  auto &Local = this->*M;
  if (auto It = Local.find(K); It != Local.end()) {
    ++S.Hits;
    return It->second;
  }
  for (const CompatCache *C = Base; C; C = C->Base) {
    const auto &Chained = C->*M;
    if (auto It = Chained.find(K); It != Chained.end()) {
      ++S.BaseHits;
      return It->second;
    }
  }
  bool Result = Fn();
  Local.emplace(K, Result);
  ++S.Misses;
  return Result;
}

bool CompatCache::unifiable2(const Type *A, const Type *B) {
  return memo(&CompatCache::PairMap, PairKey{A, B}, [&] {
    Substitution Probe;
    return unifiable(A, B, Probe);
  });
}

bool CompatCache::unifiableJoint(const Type *A1, const Type *P1,
                                 const Type *A2, const Type *P2) {
  return memo(&CompatCache::QuadMap, QuadKey{A1, P1, A2, P2}, [&] {
    Substitution Joint;
    return unifiable(A1, P1, Joint) && unifiable(A2, P2, Joint);
  });
}
