//===--- Program.h - Straight-line synthesized test programs ---*- C++ -*-===//
//
// Part of SyRust-CPP (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The program fragment SyRust synthesizes (Section 4.2):
///
///   Program := Line | Line; Program
///   Line    := f(Vars) | let v : t = f(Vars)
///   Vars    := v1, ..., vk
///
/// Variables are numbered densely: template inputs first, then one output
/// variable per line. Rendering produces the Rust source the paper's test
/// executor would compile.
///
//===----------------------------------------------------------------------===//

#ifndef SYRUST_PROGRAM_PROGRAM_H
#define SYRUST_PROGRAM_PROGRAM_H

#include "api/ApiDatabase.h"
#include "types/Type.h"

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace syrust::program {

/// Dense variable index: [0, numTemplateInputs) are template-provided,
/// numTemplateInputs + i is the output of line i.
using VarId = int;

/// One synthesized line: `let vOut : DeclType = Api(Args...)`.
struct Stmt {
  api::ApiId Api = api::ApiIdInvalid;
  std::vector<VarId> Args;
  VarId Out = -1;
  /// Declared type of the output variable as predicted by the synthesizer
  /// (the instantiated API output).
  const types::Type *DeclType = nullptr;
};

/// A template-provided input variable.
struct TemplateInput {
  std::string Name;
  const types::Type *Ty = nullptr;
};

/// A complete straight-line test case.
struct Program {
  std::vector<TemplateInput> Inputs;
  std::vector<Stmt> Stmts;

  int numVars() const {
    return static_cast<int>(Inputs.size() + Stmts.size());
  }

  /// Display name of variable \p V ("s", "v", or "v3" for synthesized).
  std::string varName(VarId V) const;

  /// Renders the body of the test function as Rust source.
  std::string render(const api::ApiDatabase &Db) const;

  /// Structural hash over APIs and argument wiring (synth::SeenPrograms
  /// buckets by it; result database records carry it).
  uint64_t hash() const;
};

/// Builds \p P without statement \p Drop into \p Out, renumbering later
/// output variables. Returns false when a later statement uses the
/// dropped output (removal impossible).
bool removeStatement(const Program &P, size_t Drop, Program &Out);

/// Declared type of \p V in \p P: the template input type or the
/// synthesizer-predicted output type of its defining line.
const types::Type *declaredType(const Program &P, VarId V);

/// The delta-debugging loop of both minimizers (core::minimizeBugProgram,
/// oracle::minimizeDisagreement): shrinks \p P while \p Keep accepts the
/// smaller program. Moves, iterated to a fixpoint: drop a statement,
/// back to front (removeStatement); with \p Rewire, when no drop is
/// kept, substitute an argument with an earlier variable of the same
/// declared type, which unpins dependency chains so a later drop can
/// remove the now-unused producer line. Every kept move strictly
/// shrinks the program (line count, then argument indices), so the loop
/// terminates. \p Keep is called once per candidate, in a deterministic
/// order.
Program shrink(const Program &P,
               const std::function<bool(const Program &)> &Keep,
               bool Rewire);

} // namespace syrust::program

#endif // SYRUST_PROGRAM_PROGRAM_H
