//===--- Program.cpp - Straight-line synthesized test programs ------------===//
//
// Part of SyRust-CPP (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//

#include "program/Program.h"

#include "support/Rng.h"
#include "support/StringUtils.h"

using namespace syrust;
using namespace syrust::api;
using namespace syrust::program;

std::string Program::varName(VarId V) const {
  if (V < static_cast<VarId>(Inputs.size()))
    return Inputs[static_cast<size_t>(V)].Name;
  return format("v%d", V - static_cast<VarId>(Inputs.size()) + 1);
}

std::string Program::render(const ApiDatabase &Db) const {
  std::string Out;
  for (const Stmt &S : Stmts) {
    const ApiSig &Sig = Db.get(S.Api);
    std::string Rhs;
    switch (Sig.Builtin) {
    case BuiltinKind::LetMut:
      Rhs = varName(S.Args[0]);
      Out += format("let mut %s = %s;\n", varName(S.Out).c_str(),
                    Rhs.c_str());
      continue;
    case BuiltinKind::Borrow:
      Out += format("let %s = &%s;\n", varName(S.Out).c_str(),
                    varName(S.Args[0]).c_str());
      continue;
    case BuiltinKind::BorrowMut:
      Out += format("let %s = &mut %s;\n", varName(S.Out).c_str(),
                    varName(S.Args[0]).c_str());
      continue;
    case BuiltinKind::None:
      break;
    }
    std::vector<std::string> Args;
    Args.reserve(S.Args.size());
    for (VarId A : S.Args)
      Args.push_back(varName(A));
    Rhs = format("%s(%s)", Sig.Name.c_str(), join(Args, ", ").c_str());
    if (S.DeclType && S.DeclType->isUnit()) {
      Out += Rhs + ";\n";
    } else {
      Out += format("let %s : %s = %s;\n", varName(S.Out).c_str(),
                    S.DeclType ? S.DeclType->str().c_str() : "_",
                    Rhs.c_str());
    }
  }
  return Out;
}

uint64_t Program::hash() const {
  // Every element is folded in through a full-avalanche mix. A
  // shift-and-add combine is too weak for these small, similar integer
  // sequences: it collided on real enumeration streams.
  uint64_t H = 0xcbf29ce484222325ULL;
  auto Mix = [&H](uint64_t V) { H = splitMix64(H ^ V); };
  for (const Stmt &S : Stmts) {
    Mix(static_cast<uint64_t>(S.Api));
    for (VarId A : S.Args)
      Mix(static_cast<uint64_t>(A) + 0x1000);
  }
  Mix(Stmts.size());
  return H;
}

bool syrust::program::removeStatement(const Program &P, size_t Drop,
                                      Program &Out) {
  VarId Removed = P.Stmts[Drop].Out;
  Out.Inputs = P.Inputs;
  Out.Stmts.clear();
  for (size_t I = 0; I < P.Stmts.size(); ++I) {
    if (I == Drop)
      continue;
    Stmt S = P.Stmts[I];
    for (VarId &A : S.Args) {
      if (A == Removed)
        return false;
      if (A > Removed)
        --A;
    }
    if (S.Out > Removed)
      --S.Out;
    Out.Stmts.push_back(std::move(S));
  }
  return true;
}

const types::Type *syrust::program::declaredType(const Program &P, VarId V) {
  size_t Idx = static_cast<size_t>(V);
  if (Idx < P.Inputs.size())
    return P.Inputs[Idx].Ty;
  return P.Stmts[Idx - P.Inputs.size()].DeclType;
}

Program syrust::program::shrink(
    const Program &P, const std::function<bool(const Program &)> &Keep,
    bool Rewire) {
  Program Min = P;
  bool Progress = true;
  while (Progress) {
    Progress = false;
    // Drop a statement, back to front: later lines are the likeliest
    // padding. Restart after each kept drop, since indices shifted.
    for (size_t I = Min.Stmts.size(); I-- > 0;) {
      Program Smaller;
      if (!removeStatement(Min, I, Smaller) || !Keep(Smaller))
        continue;
      Min = std::move(Smaller);
      Progress = true;
      break;
    }
    if (Progress || !Rewire)
      continue;
    // Rewire an argument to an earlier variable of the same declared
    // type.
    for (size_t I = 0; I < Min.Stmts.size() && !Progress; ++I) {
      for (size_t J = 0; J < Min.Stmts[I].Args.size() && !Progress; ++J) {
        const VarId Arg = Min.Stmts[I].Args[J];
        const types::Type *Want = declaredType(Min, Arg);
        for (VarId B = 0; B < Arg; ++B) {
          if (declaredType(Min, B) != Want)
            continue;
          Program Rewired = Min;
          Rewired.Stmts[I].Args[J] = B;
          if (Keep(Rewired)) {
            Min = std::move(Rewired);
            Progress = true;
            break;
          }
        }
      }
    }
  }
  return Min;
}
