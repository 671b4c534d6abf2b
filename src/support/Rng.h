//===--- Rng.h - Deterministic pseudo-random number generation -*- C++ -*-===//
//
// Part of SyRust-CPP, a reproduction of "SyRust: Automatic Testing of Rust
// Libraries with Semantic-Aware Program Synthesis" (PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small, deterministic xoshiro256** generator and the SplitMix64 mix that
/// seeds it. Every randomized choice in the system (weighted API selection,
/// the SAT solver's tie-breaking seed) goes through this header so that
/// experiment tables are reproducible bit-for-bit.
///
//===----------------------------------------------------------------------===//

#ifndef SYRUST_SUPPORT_RNG_H
#define SYRUST_SUPPORT_RNG_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace syrust {

/// SplitMix64 (Steele, Lea & Flood): the output for generator state
/// \p Z, i.e. the state advanced by one golden-ratio step and put
/// through a bijective full-avalanche mix, so every input bit flips
/// about half of the output bits. Iterating the state by
/// 0x9e3779b97f4a7c15 yields the SplitMix64 stream; one call alone is a
/// seed scrambler and a hash-combine step.
inline uint64_t splitMix64(uint64_t Z) {
  Z += 0x9e3779b97f4a7c15ULL;
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

/// Deterministic xoshiro256** PRNG seeded through SplitMix64.
class Rng {
public:
  explicit Rng(uint64_t Seed = 0x5eed5eed5eedULL) { reseed(Seed); }

  /// Re-initializes the full state from a single 64-bit seed.
  void reseed(uint64_t Seed) {
    // The SplitMix64 stream spreads low-entropy seeds over the full state.
    for (uint64_t &Word : State) {
      Word = splitMix64(Seed);
      Seed += 0x9e3779b97f4a7c15ULL;
    }
  }

  /// Next raw 64-bit value.
  uint64_t next() {
    uint64_t Result = rotl(State[1] * 5, 7) * 9;
    uint64_t T = State[1] << 17;
    State[2] ^= State[0];
    State[3] ^= State[1];
    State[1] ^= State[2];
    State[0] ^= State[3];
    State[2] ^= T;
    State[3] = rotl(State[3], 45);
    return Result;
  }

  /// Uniform value in [0, Bound). \p Bound must be nonzero.
  uint64_t below(uint64_t Bound) {
    assert(Bound != 0 && "below() requires a nonzero bound");
    // Rejection sampling to avoid modulo bias.
    uint64_t Threshold = -Bound % Bound;
    for (;;) {
      uint64_t R = next();
      if (R >= Threshold)
        return R % Bound;
    }
  }

  /// Uniform double in [0, 1).
  double unit() { return (next() >> 11) * 0x1.0p-53; }

  /// True with probability \p P.
  bool chance(double P) { return unit() < P; }

  /// Picks an index in [0, Weights.size()) proportionally to Weights.
  /// All weights must be non-negative and at least one must be positive.
  std::size_t pickWeighted(const std::vector<double> &Weights) {
    double Total = 0;
    for (double W : Weights)
      Total += W;
    assert(Total > 0 && "pickWeighted requires positive total weight");
    double Roll = unit() * Total;
    for (std::size_t I = 0; I < Weights.size(); ++I) {
      Roll -= Weights[I];
      if (Roll < 0)
        return I;
    }
    return Weights.size() - 1;
  }

  /// Fisher-Yates shuffle.
  template <typename T> void shuffle(std::vector<T> &Items) {
    for (std::size_t I = Items.size(); I > 1; --I)
      std::swap(Items[I - 1], Items[below(I)]);
  }

private:
  static uint64_t rotl(uint64_t X, int K) {
    return (X << K) | (X >> (64 - K));
  }

  uint64_t State[4];
};

} // namespace syrust

#endif // SYRUST_SUPPORT_RNG_H
