//===--- SeenPrograms.h - Collision-checked duplicate net ------*- C++ -*-===//
//
// Part of SyRust-CPP (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The synthesizer's last-resort duplicate net. A bare 64-bit
/// structural-hash set silently drops a *distinct* program whenever two
/// programs collide; over campaign-scale enumeration that is a real (if
/// rare) coverage hole, and it is invisible. This net verifies every
/// hash hit against the stored canonical keys of the bucket: a key match
/// is a genuine duplicate, a mismatch is a true collision - the program
/// is still emitted and the collision is counted
/// (SynthStats::HashCollisions, `synth.hash_collisions`).
///
//===----------------------------------------------------------------------===//

#ifndef SYRUST_SYNTH_SEENPROGRAMS_H
#define SYRUST_SYNTH_SEENPROGRAMS_H

#include "program/Program.h"

#include <charconv>
#include <string>
#include <unordered_map>
#include <vector>

namespace syrust::synth {

enum class SeenOutcome {
  Fresh,     ///< Never seen: recorded, emit the program.
  Duplicate, ///< Same canonical key already recorded: skip.
  Collision, ///< Hash hit but distinct key: recorded, emit, count.
};

class SeenPrograms {
public:
  /// Canonical structural key, covering exactly what Program::hash()
  /// covers (API ids, argument wiring, statement count) so a key match
  /// is precisely "the hash told the truth".
  static std::string canonicalKey(const program::Program &P) {
    std::string Key;
    auto Append = [&Key](int N) {
      char Buf[12];
      Key.append(Buf, std::to_chars(Buf, Buf + sizeof(Buf), N).ptr);
    };
    for (const program::Stmt &S : P.Stmts) {
      Append(S.Api);
      Key += '(';
      for (size_t J = 0; J < S.Args.size(); ++J) {
        if (J)
          Key += ',';
        Append(S.Args[J]);
      }
      Key += ')';
    }
    return Key;
  }

  SeenOutcome note(const program::Program &P) {
    return noteKeyed(P.hash(), canonicalKey(P));
  }

  /// Test seam: feed a forced hash with an arbitrary key to exercise the
  /// collision path without manufacturing a real 64-bit collision.
  SeenOutcome noteKeyed(uint64_t Hash, std::string Key) {
    auto [It, Inserted] = Buckets.try_emplace(Hash);
    std::vector<std::string> &Bucket = It->second;
    if (Inserted) {
      Bucket.push_back(std::move(Key));
      return SeenOutcome::Fresh;
    }
    for (const std::string &Existing : Bucket)
      if (Existing == Key)
        return SeenOutcome::Duplicate;
    Bucket.push_back(std::move(Key));
    return SeenOutcome::Collision;
  }

private:
  /// Hash -> canonical keys of every distinct program seen with it.
  /// Unordered on purpose: membership is all that is ever asked.
  std::unordered_map<uint64_t, std::vector<std::string>> Buckets;
};

} // namespace syrust::synth

#endif // SYRUST_SYNTH_SEENPROGRAMS_H
