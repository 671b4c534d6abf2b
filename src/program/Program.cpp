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
