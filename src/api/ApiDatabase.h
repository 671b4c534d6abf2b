//===--- ApiDatabase.h - Mutable API specification set ---------*- C++ -*-===//
//
// Part of SyRust-CPP (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The evolving set of API specifications Algorithm 1 synthesizes against.
/// Refinement (Section 5) mutates it: eager concretizations and duplicated
/// refined APIs are added, unfixable APIs are banned, and original
/// polymorphic APIs accumulate blocked input-type combinations so the
/// duplicated refinement stays disjoint from the original (Section 5.3).
///
//===----------------------------------------------------------------------===//

#ifndef SYRUST_API_APIDATABASE_H
#define SYRUST_API_APIDATABASE_H

#include "api/ApiSig.h"

#include <map>
#include <set>
#include <vector>

namespace syrust::api {

/// Owns the API signatures and their refinement state.
class ApiDatabase {
public:
  /// Adds a signature and returns its id. Ids are stable for the lifetime
  /// of the database.
  ApiId add(ApiSig Sig) {
    Apis.push_back(std::move(Sig));
    Banned.push_back(false);
    return static_cast<ApiId>(Apis.size() - 1);
  }

  const ApiSig &get(ApiId Id) const { return Apis[static_cast<size_t>(Id)]; }
  size_t size() const { return Apis.size(); }

  /// Prevents the synthesizer from using an API deemed unfixable
  /// (Section 3: "APIs deemed unfixable will be prevented from being used").
  void ban(ApiId Id) { Banned[static_cast<size_t>(Id)] = true; }
  bool isBanned(ApiId Id) const { return Banned[static_cast<size_t>(Id)]; }

  /// Blocks an input-type combination on a polymorphic original after its
  /// refinement was duplicated (Section 5.3: "we block combinations rather
  /// than individual input types"). Returns false when the combination
  /// was blocked already, so the database did not change.
  bool blockCombo(ApiId Id, std::vector<const types::Type *> Combo) {
    return BlockedCombos[Id].insert(std::move(Combo)).second;
  }

  bool isComboBlocked(ApiId Id,
                      const std::vector<const types::Type *> &Combo) const {
    auto It = BlockedCombos.find(Id);
    return It != BlockedCombos.end() && It->second.count(Combo) != 0;
  }

  /// True when some input-type combination of \p Id is blocked.
  bool hasBlockedCombos(ApiId Id) const {
    return BlockedCombos.count(Id) != 0;
  }

  /// Ids of APIs the synthesizer may use.
  std::vector<ApiId> activeIds() const {
    std::vector<ApiId> Ids;
    for (size_t I = 0; I < Apis.size(); ++I)
      if (!Banned[I])
        Ids.push_back(static_cast<ApiId>(I));
    return Ids;
  }

  /// Finds an existing signature with identical name, inputs, and output
  /// (used to avoid duplicate refinements). Returns ApiIdInvalid if none.
  ApiId findDuplicate(const ApiSig &Sig) const {
    for (size_t I = 0; I < Apis.size(); ++I) {
      const ApiSig &A = Apis[I];
      if (A.Name == Sig.Name && A.Inputs == Sig.Inputs &&
          A.Output == Sig.Output)
        return static_cast<ApiId>(I);
    }
    return ApiIdInvalid;
  }

private:
  std::vector<ApiSig> Apis;
  std::vector<bool> Banned;
  std::map<ApiId, std::set<std::vector<const types::Type *>>> BlockedCombos;
};

/// Appends the three built-in operations of Section 6.2 (let-mut and the
/// two borrows) to \p Db, using a fresh type variable from \p Arena.
/// Returns their ids in {LetMut, Borrow, BorrowMut} order.
std::vector<ApiId> addBuiltinApis(ApiDatabase &Db, types::TypeArena &Arena);

} // namespace syrust::api

#endif // SYRUST_API_APIDATABASE_H
