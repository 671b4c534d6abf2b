//===--- Encoding.cpp - SAT encoding of the synthesis space ---------------===//
//
// Part of SyRust-CPP (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// Liveness discipline (refining Figure 14 into a deterministic model):
///
///   * owned non-Copy values: V_{i+1} <=> V_i AND not-consumed-at-i, via
///     the Rule 5/appendix-rule-10 cardinality (consumption kills) plus a
///     persistence clause (nothing else kills);
///   * Copy values and template-provided references: persist to the end;
///   * borrow-created and propagation-created references: alive exactly
///     while their immediate source is alive (Rule 6 both directions);
///     paths through owned wrappers are checked post-hoc (Rule 7).
///
/// Forcing persistence matters for soundness: if availability could be
/// dropped spuriously, the solver could "forget" an active &mut borrow and
/// slip past the Rule 8/9 exclusivity clauses.
///
/// Incremental sync discipline: the initial build and every extension
/// that adds APIs run the same sync() path. Every candidate, call site
/// and (variable, type) pair carries the number of the sync that added
/// it, so each build function can ask isNew() of the facts it walks (the
/// first sync finds all of them new). Each constraint falls into one of
/// three classes:
///
///   * additive - per-candidate/per-pair clauses whose meaning never
///     changes as the database grows (U=>A, U=>V, incompatibility pairs,
///     Rule 6 ties, Rules 8/9, redundancy 1): emitted once, only for the
///     candidates/pairs introduced by this sync;
///   * monotone - cardinalities over growing literal sets (exactly-one's
///     at-most half, per-slot at-most-one, consumption-kills, redundancy
///     2): re-emitted over the full grown set; the retired smaller card
///     is implied by the larger one and stays harmlessly behind;
///   * closure-sensitive - clauses asserting "one of the currently known
///     options holds" which would wrongly constrain a grown space
///     (exactly-one's at-least half, slot at-least, output V=>triggers,
///     owned-value persistence, redundancy 3): these carry the negated
///     generation guard and are re-emitted under a fresh guard each
///     sync; solving assumes the current guard, and a unit clause
///     retires the previous generation.
///
/// Bans and combo blocks only shrink the space. A banned API keeps its
/// place in the encoded list and its materialized sites get root units
/// ~A; a combo block adds its own clauses. Neither touches the guarded
/// layer, so a change that adds no API keeps the current generation.
///
/// Dead-site elimination (DESIGN.md 5g): a call site whose required
/// input slot has zero candidates can never be chosen, so instead of
/// allocating its A-variable and asserting guarded ~A (the historical
/// empty-slot clause), the site is simply not materialized - no A, no
/// U-variables, no per-slot clauses, no joint cross-products. This is a
/// structural decision taken identically in both GraphPrune modes (probe
/// answers are arm-independent), so the solver-visible formula - and
/// therefore the CDCL decision sequence and the program stream - cannot
/// depend on the prune flag. A later sync re-probes dead sites from
/// scratch and materializes the ones a refinement made fillable; every
/// clause that references a possibly-dead site either skips it (its A is
/// structurally false) or, where the site's absence must actively forbid
/// something (a mutable borrow whose let_mut site is dead), asserts the
/// guarded negation so revival can retract it.
///
//===----------------------------------------------------------------------===//

#include "synth/Encoding.h"

#include <algorithm>
#include <cassert>

using namespace syrust;
using namespace syrust::api;
using namespace syrust::program;
using namespace syrust::sat;
using namespace syrust::synth;
using namespace syrust::types;

Encoding::Encoding(TypeArena &Arena, const TraitEnv &Traits,
                   const ApiDatabase &Db,
                   const std::vector<TemplateInput> &Inputs, int NumLines,
                   const SynthOptions &Opts)
    : Arena(Arena), Traits(Traits), Db(Db), Inputs(Inputs),
      NumLines(NumLines), Opts(Opts) {
  // Mode selection must precede everything else: the portfolio's op log
  // has to see every variable and clause.
  Solver.configure(Opts.Portfolio, Opts.Strategy);
  Solver.setRandomSeed(Opts.SolverSeed);
  Solver.setRecorder(Opts.Obs);
  sync();
}

uint32_t Encoding::typeId(const Type *Ty) {
  auto [It, Inserted] =
      TypeIds.try_emplace(Ty, static_cast<uint32_t>(Types.size()));
  if (Inserted) {
    TypeFacts F;
    F.Ty = Ty;
    F.RowOf.assign(Inputs.size() + static_cast<size_t>(NumLines), NoIndex);
    Types.push_back(std::move(F));
  }
  return It->second;
}

uint32_t Encoding::rowOf(VarId X, const Type *Ty) {
  uint32_t Row = Types[typeId(Ty)].RowOf[static_cast<size_t>(X)];
  assert(Row != NoIndex && "pair outside the type universe");
  return Row;
}

sat::Var Encoding::getV(uint32_t Row, int Line) {
  sat::Var &V = VTable[static_cast<size_t>(Row) *
                           (static_cast<size_t>(NumLines) + 1) +
                       static_cast<size_t>(Line)];
  if (V == sat::VarUndef)
    V = Solver.newVar();
  return V;
}

bool Encoding::isCopy(uint32_t Id) {
  if (Types[Id].Copy < 0)
    Types[Id].Copy = Traits.isCopy(Types[Id].Ty) ? 1 : 0;
  return Types[Id].Copy != 0;
}

bool Encoding::isEncoded(ApiId Id) const {
  size_t Idx = static_cast<size_t>(Id);
  return Idx < IsEncoded.size() && IsEncoded[Idx];
}

const Type *Encoding::builtinOutput(BuiltinKind B, const Type *Arg) const {
  switch (B) {
  case BuiltinKind::LetMut:
    return Arg;
  case BuiltinKind::Borrow:
    return Arena.ref(Arg, /*Mutable=*/false);
  case BuiltinKind::BorrowMut:
    return Arena.ref(Arg, /*Mutable=*/true);
  case BuiltinKind::None:
    break;
  }
  return nullptr;
}

uint32_t Encoding::builtinOutput(BuiltinKind B, uint32_t ArgId) {
  assert(B != BuiltinKind::None && "library APIs derive no output");
  if (B == BuiltinKind::LetMut)
    return ArgId;
  auto Memo = [&]() -> uint32_t & {
    return B == BuiltinKind::BorrowMut ? Types[ArgId].MutRef
                                       : Types[ArgId].SharedRef;
  };
  if (Memo() == NoIndex) {
    // typeId can grow Types, so the memo is looked up again after it.
    uint32_t Out = typeId(builtinOutput(B, Types[ArgId].Ty));
    Memo() = Out;
  }
  return Memo();
}

bool Encoding::probeUnifiable2(const Type *Ty, const Type *Pattern) const {
  if (Opts.Compat)
    return Opts.Compat->unifiable2(Ty, Pattern);
  Substitution Probe;
  return unifiable(Ty, Pattern, Probe);
}

bool Encoding::probeFeeds(ApiId Producer, const Type *Ty, size_t Kk,
                          size_t J) {
  // Third probe arm: the frozen dependency graph holds the precomputed
  // answer for (base producer, base consumer, slot) triples - one table
  // read instead of a cache lookup. Producer-less types (template
  // inputs, builtin-derived) and refinement-added APIs (ids past the
  // graph's node set - the run-local overlay the frozen graph does not
  // cover) fall back to the cache/direct arm. All arms agree by
  // construction: the graph's edge set is exactly the probe-success set
  // over the same "a<ApiId>" renaming (DESIGN.md 5g), so this split
  // cannot change which candidates exist.
  if (Opts.GraphPrune && Opts.Graph && Producer != ApiIdInvalid &&
      static_cast<size_t>(Producer) < Opts.Graph->numNodes() &&
      static_cast<size_t>(Active[Kk]) < Opts.Graph->numNodes()) {
    ++Prune.GraphProbes;
    return Opts.Graph->hasEdge(Producer, Active[Kk],
                               static_cast<int>(J));
  }
  ++Prune.FallbackProbes;
  return probeUnifiable2(Ty, RenIn[Kk][J]);
}

void Encoding::addGuarded(std::vector<Lit> Lits) {
  if (Gen != sat::VarUndef)
    Lits.push_back(mkLit(Gen, true));
  Solver.addClause(std::move(Lits));
}

bool Encoding::extendForDatabaseChange() {
  if (!Opts.IncrementalRefinement)
    return false;
  // Flush the pending model before any new variables exist: blockCurrent
  // reads model values, and the saved model only covers current vars.
  if (HasModel)
    blockCurrent();
  std::vector<ApiId> Now = Db.activeIds();
  if (std::any_of(Now.begin(), Now.end(),
                  [&](ApiId Id) { return !isEncoded(Id); })) {
    sync();
    return true;
  }
  // Types, candidates and sites come only from APIs, so no closure-
  // sensitive clause gains a member: the current generation stays valid
  // and the change only excludes (bans and combo blocks). Advancing the
  // sync number is all it takes to leave nothing new for the combo
  // wiring.
  ++Sync;
  buildBans();
  buildBlockedCombos();
  return true;
}

void Encoding::buildBans() {
  // Bans only shrink the space, so they need no guard: a permanent root
  // unit per materialized site. Dead sites have no A to forbid, and
  // buildCallSites never revives a banned one.
  for (size_t Kk = 0; Kk < Active.size(); ++Kk) {
    if (Banned[Kk] || !Db.isBanned(Active[Kk]))
      continue;
    Banned[Kk] = 1;
    for (std::vector<CallSite> &LineSites : Sites)
      if (LineSites[Kk].A != sat::VarUndef)
        Solver.addClause(mkLit(LineSites[Kk].A, true));
  }
}

void Encoding::sync() {
  ++Sync;
  buildBans();

  // Turn the generation over: retire the previous guard's clauses and
  // open a fresh one.
  if (Opts.IncrementalRefinement) {
    if (Gen != sat::VarUndef) {
      Solver.addClause(mkLit(Gen, true));
      // The unit just satisfied every clause of the retired generation;
      // detach them so they stop taxing propagation.
      Solver.simplify();
    }
    Gen = Solver.newVar();
  }

  // Append the active APIs not encoded yet, in database order; renamed
  // signatures only append with them.
  IsEncoded.resize(Db.size(), 0);
  for (ApiId Id : Db.activeIds()) {
    if (isEncoded(Id))
      continue;
    IsEncoded[static_cast<size_t>(Id)] = 1;
    Active.push_back(Id);
    Banned.push_back(0);
    RenamedSig Ren = renameSignature(Arena, Db.get(Id), Id);
    RenIn.push_back(std::move(Ren.Inputs));
    RenOut.push_back(Ren.Output);
  }

  buildTypeUniverse();
  buildCallSites();
  buildContextConstraints();
  if (Opts.SemanticAware) {
    const UseIndex Index = indexUses();
    // The ownership/borrow clauses are the CEGAR strategy's lazy tier: it
    // solves without them and materializes only the ones a candidate
    // model violates, with the model acting as the counterexample.
    Solver.beginLazy();
    buildSemanticConstraints(Index);
    Solver.endLazy();
    buildRedundancyConstraints(Index);
  }
  buildBlockedCombos();
  if (Opts.Obs)
    Opts.Obs->instant("synth.sync", "synth",
                      obs::ArgList()
                          .add("length", NumLines)
                          .add("active_apis",
                               static_cast<uint64_t>(Active.size()))
                          .add("sat_vars",
                               static_cast<uint64_t>(numSatVars()))
                          .add("candidates",
                               static_cast<uint64_t>(TotalCandidates)));
}

void Encoding::buildTypeUniverse() {
  // NOTE: all collections here iterate in *insertion* order - never in
  // pointer order - so encodings (and therefore enumeration order and
  // every experiment table) are reproducible across processes. The
  // recompute is total; newly producible types may interleave among old
  // ones, which is why each pair's birth sync lives in its row.
  int K = static_cast<int>(Inputs.size());
  VarTypes.resize(static_cast<size_t>(K + NumLines));
  for (std::vector<VarType> &Listed : VarTypes)
    Listed.clear();
  // Lists (X, Types[TyId]) once per sync, opening its row on first
  // sight. The row's Listed stamp is the dedup: the first producer
  // listed is kept, which is enough - equal interned outputs give equal
  // probe answers whichever producer keys the graph row.
  auto AddType = [&](VarId X, uint32_t TyId, ApiId Producer) {
    uint32_t &Row = Types[TyId].RowOf[static_cast<size_t>(X)];
    if (Row == NoIndex) {
      Row = static_cast<uint32_t>(Rows.size());
      Rows.push_back(TypeRow{TyId, Sync});
      VTable.resize(VTable.size() + static_cast<size_t>(NumLines) + 1,
                    sat::VarUndef);
    }
    TypeRow &R = Rows[Row];
    if (R.Listed == Sync)
      return;
    std::vector<VarType> &Listed = VarTypes[static_cast<size_t>(X)];
    R.Listed = Sync;
    R.Pos = static_cast<uint32_t>(Listed.size());
    Listed.push_back(VarType{Types[TyId].Ty, Producer, Row});
  };
  for (int X = 0; X < K; ++X)
    AddType(X, typeId(Inputs[static_cast<size_t>(X)].Ty), ApiIdInvalid);

  // Types available strictly before each line, grown monotonically and
  // deduplicated by this pass's mark.
  std::vector<uint32_t> Avail;
  const unsigned Epoch = ++MarkEpoch;
  auto AddAvail = [&](uint32_t TyId) {
    if (Types[TyId].Mark == Epoch)
      return;
    Types[TyId].Mark = Epoch;
    Avail.push_back(TyId);
  };
  for (int X = 0; X < K; ++X)
    AddAvail(typeId(Inputs[static_cast<size_t>(X)].Ty));

  for (int I = 0; I < NumLines; ++I) {
    for (size_t Kk = 0; Kk < Active.size(); ++Kk) {
      const ApiSig &Sig = Db.get(Active[Kk]);
      if (Sig.Builtin == BuiltinKind::None) {
        AddType(K + I, typeId(RenOut[Kk]), Active[Kk]);
        continue;
      }
      // Builtins derive their output from the chosen argument type;
      // those types have no frozen-graph producer and take the
      // fallback probe arm.
      for (uint32_t TyId : Avail)
        if (!Types[TyId].Ty->isRef()) // Builtins act on non-refs.
          AddType(K + I, builtinOutput(Sig.Builtin, TyId), ApiIdInvalid);
    }
    for (const VarType &VT : VarTypes[static_cast<size_t>(K + I)])
      AddAvail(Rows[VT.Row].TyId);
  }
}

void Encoding::buildCallSites() {
  int K = static_cast<int>(Inputs.size());
  if (Sites.empty())
    Sites.assign(static_cast<size_t>(NumLines), {});
  // The (variable, type) pairs this sync added, in (variable, position)
  // order: the only ones a live site probes.
  std::vector<std::pair<VarId, const VarType *>> NewPairs;
  for (int X = 0; X < K + NumLines; ++X)
    for (const VarType &VT : VarTypes[static_cast<size_t>(X)])
      if (isNew(VT))
        NewPairs.emplace_back(X, &VT);
  size_t NewBefore = 0; // NewPairs of variables declared before line I.
  for (int I = 0; I < NumLines; ++I) {
    while (NewBefore < NewPairs.size() && NewPairs[NewBefore].first < K + I)
      ++NewBefore;
    std::vector<CallSite> &LineSites = Sites[static_cast<size_t>(I)];
    LineSites.resize(Active.size());
    for (size_t Kk = 0; Kk < Active.size(); ++Kk) {
      if (Banned[Kk])
        continue; // Never grown or revived: its A is false at the root.
      const ApiSig &Sig = Db.get(Active[Kk]);
      CallSite &Site = LineSites[Kk];

      // Appends the candidate (X, VT) of slot J, U unallocated, if it
      // can feed the slot.
      auto Probe = [&](VarId X, const VarType &VT, size_t J,
                       std::vector<Candidate> &Out) {
        if (Sig.Builtin != BuiltinKind::None && VT.Ty->isRef())
          return; // Builtins act on non-reference values.
        if (Opts.SemanticAware && Sig.Builtin == BuiltinKind::BorrowMut &&
            X < K)
          return; // Template bindings are immutable (no `mut`).
        if (!probeFeeds(VT.Producer, VT.Ty, Kk, J))
          return;
        Candidate C;
        C.Var = X;
        C.Row = VT.Row;
        C.Ty = VT.Ty;
        if (Sig.Builtin != BuiltinKind::None) {
          const TypeFacts &Out =
              Types[builtinOutput(Sig.Builtin, Rows[VT.Row].TyId)];
          C.Out = Out.Ty;
          C.OutRow = Out.RowOf[static_cast<size_t>(K + I)];
        }
        C.Born = Sync;
        Out.push_back(C);
      };

      if (Site.A != sat::VarUndef) {
        // Live site: append the candidates of the pairs this sync
        // introduced, in the canonical (X, Ty) order.
        for (size_t J = 0; J < Sig.Inputs.size(); ++J) {
          std::vector<Candidate> &Slot = Site.Slots[J];
          size_t Old = Slot.size();
          for (size_t P = 0; P < NewBefore; ++P)
            Probe(NewPairs[P].first, *NewPairs[P].second, J, Slot);
          for (size_t C = Old; C < Slot.size(); ++C) {
            Slot[C].U = Solver.newVar();
            ++TotalCandidates;
          }
        }
        continue;
      }

      // Fresh site (new API, or dead on every sync so far): probe every
      // slot into temporaries first, bailing at the first unfillable
      // one. An API with an empty input slot can never be called, so
      // materializing it would only grow the formula with always-false
      // structure - skip the A-variable, the U-variables, and every
      // downstream clause (dead-site elimination; identical in both
      // prune modes, see the file comment).
      std::vector<std::vector<Candidate>> Tmp(Sig.Inputs.size());
      bool Alive = true;
      size_t ProbedSlots = 0;
      for (size_t J = 0; J < Sig.Inputs.size() && Alive; ++J) {
        for (int X = 0; X < K + I; ++X)
          for (const VarType &VT : VarTypes[static_cast<size_t>(X)])
            Probe(X, VT, J, Tmp[J]);
        ++ProbedSlots;
        if (Tmp[J].empty())
          Alive = false;
      }
      if (!Alive) {
        size_t Cands = 0;
        for (const std::vector<Candidate> &T : Tmp)
          Cands += T.size();
        ++Prune.DeadSites;
        Prune.VarsAvoided += 1 + Cands;
        Prune.ClausesAvoided += 2 * Cands + 2 * ProbedSlots;
        continue; // Site stays dead; the next sync re-probes it.
      }
      // Materialize in the historical order: A first, then the slot-
      // major U sequence.
      Site.A = Solver.newVar();
      Site.Born = Sync;
      Site.Slots = std::move(Tmp);
      for (std::vector<Candidate> &Slot : Site.Slots) {
        for (Candidate &C : Slot) {
          C.U = Solver.newVar();
          ++TotalCandidates;
        }
      }
    }
  }
}

Encoding::UseIndex Encoding::indexUses() const {
  UseIndex Index;
  Index.NumVars = Inputs.size() + static_cast<size_t>(NumLines);
  auto ForEachUse = [&](auto &&Visit) {
    for (int I = 0; I < NumLines; ++I) {
      const std::vector<CallSite> &LineSites = Sites[static_cast<size_t>(I)];
      for (size_t Kk = 0; Kk < LineSites.size(); ++Kk) {
        const CallSite &Site = LineSites[Kk];
        for (size_t J = 0; J < Site.Slots.size(); ++J)
          for (const Candidate &C : Site.Slots[J])
            Visit(Use{I, static_cast<uint32_t>(Kk), static_cast<uint32_t>(J),
                      &C});
      }
    }
  };
  auto VarKey = [&](const Use &Us) {
    return static_cast<size_t>(Us.Line) * Index.NumVars +
           static_cast<size_t>(Us.C->Var);
  };
  // Count each group, lay the groups out in key order, then fill them in
  // walk order.
  Index.ByVar.Start.assign(static_cast<size_t>(NumLines) * Index.NumVars + 1,
                           0);
  Index.ByRow.Start.assign(Rows.size() + 1, 0);
  ForEachUse([&](const Use &Us) {
    ++Index.ByVar.Start[VarKey(Us) + 1];
    ++Index.ByRow.Start[Us.C->Row + 1];
  });
  for (UseGroups *G : {&Index.ByVar, &Index.ByRow}) {
    for (size_t K = 1; K < G->Start.size(); ++K)
      G->Start[K] += G->Start[K - 1];
    G->All.resize(G->Start.back());
  }
  std::vector<uint32_t> VarNext(Index.ByVar.Start);
  std::vector<uint32_t> RowNext(Index.ByRow.Start);
  ForEachUse([&](const Use &Us) {
    Index.ByVar.All[VarNext[VarKey(Us)]++] = Us;
    Index.ByRow.All[RowNext[Us.C->Row]++] = Us;
  });
  return Index;
}

void Encoding::buildContextConstraints() {
  int K = static_cast<int>(Inputs.size());

  // Template availability at line 0 plus V-propagation for all variables.
  // Both are per-(var, type) facts: emitted once, when the pair appears.
  for (int X = 0; X < K; ++X) {
    const VarType &VT = VarTypes[static_cast<size_t>(X)].front();
    if (!isNew(VT))
      continue;
    Solver.addClause(mkLit(getV(VT.Row, 0)));
    for (int I = 1; I <= NumLines; ++I)
      Solver.addClause(mkLit(getV(VT.Row, I), true),
                       mkLit(getV(VT.Row, I - 1)));
  }
  for (int J = 0; J < NumLines; ++J) {
    for (const VarType &VT : VarTypes[static_cast<size_t>(K + J)]) {
      if (!isNew(VT))
        continue;
      for (int I = J + 2; I <= NumLines; ++I)
        Solver.addClause(mkLit(getV(VT.Row, I), true),
                         mkLit(getV(VT.Row, I - 1)));
    }
  }

  // Output-creation triggers of each type of the line's output, by the
  // type's position in VarTypes, with whether this sync added them.
  std::vector<std::vector<std::pair<Lit, bool>>> Triggers;
  for (int I = 0; I < NumLines; ++I) {
    std::vector<CallSite> &LineSites = Sites[static_cast<size_t>(I)];

    // Exactly one API per line, over the *live* sites only - dead-
    // eliminated sites have no A-variable, and their absence is exactly
    // what shrinks the formula. The at-most half is monotone (re-emit
    // when this line's live set grew); the at-least half is closure-
    // sensitive and rides the generation guard. A line with zero live
    // sites yields the empty guarded clause: the length is impossible
    // this generation, the same verdict the historical per-site
    // forced-false As produced.
    std::vector<Lit> ALits;
    bool LiveGrew = false;
    for (const CallSite &Site : LineSites) {
      if (Site.A == sat::VarUndef)
        continue;
      ALits.push_back(mkLit(Site.A));
      LiveGrew |= isNew(Site);
    }
    if (LiveGrew)
      Solver.addAtMost(ALits, 1);
    addGuarded(std::move(ALits));

    // Use-variable wiring. Materialization guarantees every slot of a
    // live site has at least one candidate (the historical empty-slot
    // guarded ~A became dead-site elimination).
    for (size_t Kk = 0; Kk < LineSites.size(); ++Kk) {
      CallSite &Site = LineSites[Kk];
      if (Site.A == sat::VarUndef)
        continue; // Dead-eliminated: no variables, no clauses.
      // Per slot, the first candidate this sync added: they are the
      // slot's suffix.
      std::vector<size_t> FirstNew(Site.Slots.size());
      for (size_t J = 0; J < Site.Slots.size(); ++J) {
        const std::vector<Candidate> &Slot = Site.Slots[J];
        std::vector<Lit> AtLeast{mkLit(Site.A, true)};
        std::vector<Lit> ULits;
        FirstNew[J] = Slot.size();
        for (size_t Ci = 0; Ci < Slot.size(); ++Ci) {
          const Candidate &C = Slot[Ci];
          if (isNew(C)) {
            Solver.addClause(mkLit(C.U, true), mkLit(Site.A)); // U => A
            Solver.addClause(mkLit(C.U, true),
                             mkLit(getV(C.Row, I))); // U => V
            FirstNew[J] = std::min(FirstNew[J], Ci);
          }
          AtLeast.push_back(mkLit(C.U));
          ULits.push_back(mkLit(C.U));
        }
        addGuarded(std::move(AtLeast)); // A => some candidate used.
        if (FirstNew[J] < Slot.size())
          Solver.addAtMost(std::move(ULits), 1); // At most one per slot.
      }

      // Pairwise compatibility across slots (Definition 2(3) + Rule 4).
      // Additive: only pairs involving a candidate new this sync - all
      // of J2 for a new C1, J2's new suffix for an old one.
      for (size_t J1 = 0; J1 < Site.Slots.size(); ++J1) {
        for (size_t J2 = J1 + 1; J2 < Site.Slots.size(); ++J2) {
          const std::vector<Candidate> &S2 = Site.Slots[J2];
          for (const Candidate &C1 : Site.Slots[J1]) {
            for (size_t C2i = isNew(C1) ? 0 : FirstNew[J2]; C2i < S2.size();
                 ++C2i) {
              const Candidate &C2 = S2[C2i];
              if (!isNew(C1) && !isNew(C2))
                continue;
              bool Compatible = true;
              if (C1.Var == C2.Var && !C1.Ty->isPrim() &&
                  !C1.Ty->isSharedRef()) {
                Compatible = false; // Rule 4: no owned/mut aliasing.
              } else {
                Compatible = unifiableJoint(C1.Ty, RenIn[Kk][J1], C2.Ty,
                                            RenIn[Kk][J2]);
              }
              if (!Compatible)
                Solver.addClause(mkLit(C1.U, true), mkLit(C2.U, true));
            }
          }
        }
      }
    }

    // Output creation: V(o_i, tau, i+1) <=> OR(triggers). The forward
    // trigger=>V implications are additive; the V=>triggers closure is
    // guarded (a later sync can add triggers for this type). One pass
    // over the line's sites files each trigger under its type, in
    // (site, candidate) order.
    VarId Out = K + I;
    const std::vector<VarType> &OutTypes = VarTypes[static_cast<size_t>(Out)];
    Triggers.resize(std::max(Triggers.size(), OutTypes.size()));
    for (size_t P = 0; P < OutTypes.size(); ++P)
      Triggers[P].clear();
    for (size_t Kk = 0; Kk < LineSites.size(); ++Kk) {
      const CallSite &Site = LineSites[Kk];
      if (Site.A == sat::VarUndef)
        continue; // Dead site: no candidates, no triggers.
      if (Db.get(Active[Kk]).Builtin == BuiltinKind::None) {
        Triggers[Rows[rowOf(Out, RenOut[Kk])].Pos].emplace_back(
            mkLit(Site.A), isNew(Site));
        continue;
      }
      for (const Candidate &C : Site.Slots[0]) {
        assert(Rows[C.OutRow].Listed == Sync && "output type left the line");
        Triggers[Rows[C.OutRow].Pos].emplace_back(mkLit(C.U), isNew(C));
      }
    }
    for (size_t P = 0; P < OutTypes.size(); ++P) {
      sat::Var V = getV(OutTypes[P].Row, I + 1);
      if (Triggers[P].empty()) {
        addGuarded({mkLit(V, true)});
        continue;
      }
      std::vector<Lit> VImplies{mkLit(V, true)};
      for (auto [T, New] : Triggers[P]) {
        if (New)
          Solver.addClause(~T, mkLit(V)); // trigger => V
        VImplies.push_back(T);
      }
      addGuarded(std::move(VImplies)); // V => some trigger.
    }
  }
}

void Encoding::buildSemanticConstraints(const UseIndex &Index) {
  int K = static_cast<int>(Inputs.size());
  int NumVars = K + NumLines;

  // Per-line consuming uses of every mutable-reference (var, type) pair,
  // by row, shared with the Rule 6 ties below: a &mut moved into a
  // by-value parameter stops persisting, exactly as the checker kills
  // the binding.
  std::vector<std::vector<std::vector<Lit>>> MutConsuming(Rows.size());

  // Classify each (var, type) pair and collect its use variables per line.
  std::vector<Lit> Consuming;
  for (int X = 0; X < NumVars; ++X) {
    int FirstLine = X < K ? 0 : X - K + 1;
    for (const VarType &VT : VarTypes[static_cast<size_t>(X)]) {
      const Type *Ty = VT.Ty;
      bool PairNew = isNew(VT);
      bool Copy = isCopy(Rows[VT.Row].TyId);
      bool OwnedNonCopy = !Ty->isRef() && !Copy;
      // `&mut T` is not Copy: like owned non-Copy values it moves when
      // passed by value (a non-ref parameter pattern, e.g. a bare type
      // variable). Uses feeding ref-typed parameters reborrow instead.
      bool Consumable = OwnedNonCopy || Ty->isMutRef();
      bool TieHandled = Ty->isRef() && X >= K; // Output refs get ties.
      // The pair's uses in line order; X is read only after the line
      // that declares it, so they start at FirstLine.
      const std::span<const Use> OfRow = Index.ofRow(VT.Row);
      auto Next = OfRow.begin();
      for (int I = FirstLine; I < NumLines; ++I) {
        // Consuming uses of (X, Ty) on line I, noting whether this sync
        // added one.
        Consuming.clear();
        bool ConsumingGrew = false;
        if (Consumable) {
          for (; Next != OfRow.end() && Next->Line == I; ++Next) {
            const Use &Us = *Next;
            BuiltinKind B = Db.get(Active[Us.Kk]).Builtin;
            if (B == BuiltinKind::Borrow || B == BuiltinKind::BorrowMut)
              continue;
            if (!movesOnUse(Ty, Copy, RenIn[Us.Kk][Us.J]))
              continue; // Ref-typed parameter: reborrow, not a move.
            Consuming.push_back(mkLit(Us.C->U));
            ConsumingGrew |= isNew(*Us.C);
          }
        }
        if (Consumable) {
          sat::Var VNow = getV(VT.Row, I);
          sat::Var VNext = getV(VT.Row, I + 1);
          // Consumption kills (Rule 5): uses + persistence <= 1.
          // Monotone: re-emit when the consuming set grew.
          // WeakenConsumptionKills is the oracle's injected-bug canary
          // hook (tests only): dropping this cardinality lets consumed
          // values stay available, so the encoder emits use-after-move
          // programs the checker rejects with Ownership errors.
          if (!Opts.WeakenConsumptionKills && !Consuming.empty() &&
              (PairNew || ConsumingGrew)) {
            std::vector<Lit> Card = Consuming;
            Card.push_back(mkLit(VNext));
            Solver.addAtMost(std::move(Card), 1);
          }
          if (!TieHandled) {
            // Nothing else kills: V_i => V_{i+1} OR consumed. The
            // consumed-by list is closure-sensitive, so guarded. Output
            // refs get the equivalent persistence from their Rule 6 tie.
            std::vector<Lit> Persist{mkLit(VNow, true), mkLit(VNext)};
            Persist.insert(Persist.end(), Consuming.begin(), Consuming.end());
            addGuarded(std::move(Persist));
          }
          if (Ty->isMutRef()) {
            std::vector<std::vector<Lit>> &PerLine = MutConsuming[VT.Row];
            PerLine.resize(static_cast<size_t>(NumLines));
            PerLine[static_cast<size_t>(I)] = Consuming;
          }
        } else if (!TieHandled && PairNew) {
          // Copy values (including shared refs) persist.
          Solver.addClause(mkLit(getV(VT.Row, I), true),
                           mkLit(getV(VT.Row, I + 1)));
        }
      }
    }
  }

  // Positions of the let_mut builtin in Active (one, in practice).
  std::vector<size_t> LetMuts;
  for (size_t Kk = 0; Kk < Active.size(); ++Kk)
    if (Db.get(Active[Kk]).Builtin == BuiltinKind::LetMut)
      LetMuts.push_back(Kk);

  for (int I = 0; I < NumLines; ++I) {
    std::vector<CallSite> &LineSites = Sites[static_cast<size_t>(I)];
    VarId Out = K + I;
    for (size_t Kk = 0; Kk < LineSites.size(); ++Kk) {
      const ApiSig &Sig = Db.get(Active[Kk]);
      CallSite &Site = LineSites[Kk];
      if (Site.A == sat::VarUndef)
        continue; // Dead-eliminated: no candidates to tie.

      // Mutable borrows require a `let mut` binding (Section 6.2's
      // assignment-to-mutable builtin exists exactly to enable this).
      // Additive per (candidate, let_mut site) pair - but the defining
      // line's let_mut site may itself be dead-eliminated, and a later
      // refinement can revive it. While it is dead the borrow is
      // impossible (guarded ~U, re-asserted each sync so revival can
      // retract it); once both ends exist, the implication is emitted
      // exactly once, when the later of the two appeared.
      if (Sig.Builtin == BuiltinKind::BorrowMut) {
        for (const Candidate &C : Site.Slots[0]) {
          if (C.Var < K)
            continue; // Filtered at candidate creation.
          int DefLine = C.Var - K;
          // Find the let_mut site of the defining line.
          for (size_t K2 : LetMuts) {
            const CallSite &Def = Sites[static_cast<size_t>(DefLine)][K2];
            if (Def.A == sat::VarUndef)
              addGuarded({mkLit(C.U, true)});
            else if (isNew(C) || isNew(Def))
              Solver.addClause(mkLit(C.U, true), mkLit(Def.A));
          }
        }
      }

      // Rule 6 ties: borrow-created references live exactly while their
      // source lives. Shared refs get both directions, additive per
      // candidate. For mutable refs the "source alive => ref alive"
      // direction only holds until a consuming use moves the &mut out
      // (it is not Copy); the consuming-use list is closure-sensitive,
      // so those clauses are guarded and re-emitted over all candidates
      // each sync. RefRow is the row of (Out, the reference's type).
      auto AddTie = [&](const Candidate &C, uint32_t RefRow) {
        bool NewCand = isNew(C);
        bool MutRef = Types[Rows[RefRow].TyId].Ty->isMutRef();
        const std::vector<std::vector<Lit>> &ConsumedBy = MutConsuming[RefRow];
        for (int M = I + 2; M <= NumLines; ++M) {
          sat::Var VRef = getV(RefRow, M);
          sat::Var VSrc = getV(C.Row, M);
          // U and ref alive => source alive.
          if (NewCand)
            Solver.addClause(mkLit(C.U, true), mkLit(VRef, true),
                             mkLit(VSrc));
          if (!MutRef) {
            // U and source alive => ref alive (maximal persistence).
            if (NewCand)
              Solver.addClause(mkLit(C.U, true), mkLit(VSrc, true),
                               mkLit(VRef));
            continue;
          }
          // U and source alive => ref alive OR consumed earlier.
          std::vector<Lit> Persist{mkLit(C.U, true), mkLit(VSrc, true),
                                   mkLit(VRef)};
          if (!ConsumedBy.empty())
            for (int L = I + 1; L < M; ++L)
              for (Lit CL : ConsumedBy[static_cast<size_t>(L)])
                Persist.push_back(CL);
          addGuarded(std::move(Persist));
        }
      };
      if (Sig.Builtin == BuiltinKind::Borrow ||
          Sig.Builtin == BuiltinKind::BorrowMut) {
        bool Mut = Sig.Builtin == BuiltinKind::BorrowMut;
        for (const Candidate &C : Site.Slots[0])
          if (Mut || isNew(C))
            AddTie(C, C.OutRow);
      } else if (!Sig.PropagatesFrom.empty() && RenOut[Kk]->isRef()) {
        bool MutOut = RenOut[Kk]->isMutRef();
        uint32_t OutRow = rowOf(Out, RenOut[Kk]);
        for (int J : Sig.PropagatesFrom) {
          if (J < 0 || static_cast<size_t>(J) >= Site.Slots.size())
            continue;
          for (const Candidate &C : Site.Slots[static_cast<size_t>(J)])
            if ((MutOut || isNew(C)) && C.Ty->isRef())
              AddTie(C, OutRow);
        }
      }
    }
  }

  // Rules 8/9: borrow exclusivity. For each (owner, type): a live &mut
  // forbids later borrows; a live & forbids later &mut. Additive per
  // (first, second) borrow pair: emit when either end is new.
  struct BorrowUse {
    int Line;
    const Candidate *C;
    bool Mut;
  };
  std::vector<BorrowUse> Borrows;
  for (int X = 0; X < NumVars; ++X) {
    for (const VarType &VT : VarTypes[static_cast<size_t>(X)]) {
      if (VT.Ty->isRef())
        continue;
      // Collect per-line borrow uses of (X, Ty).
      Borrows.clear();
      for (const Use &Us : Index.ofRow(VT.Row)) {
        BuiltinKind B = Db.get(Active[Us.Kk]).Builtin;
        if (B == BuiltinKind::Borrow || B == BuiltinKind::BorrowMut)
          Borrows.push_back(
              BorrowUse{Us.Line, Us.C, B == BuiltinKind::BorrowMut});
      }
      for (const BorrowUse &First : Borrows) {
        for (const BorrowUse &Second : Borrows) {
          if (Second.Line <= First.Line)
            continue;
          // Rule 8 (mut blocks all) / Rule 9 (shared blocks mut).
          if (!First.Mut && !Second.Mut)
            continue; // Shared borrows coexist.
          if (!isNew(*First.C) && !isNew(*Second.C))
            continue; // Pair already constrained.
          sat::Var RefAlive = getV(First.C->OutRow, Second.Line + 1);
          Solver.addClause(mkLit(First.C->U, true), mkLit(RefAlive, true),
                           mkLit(Second.C->U, true));
        }
      }
    }
  }
}

void Encoding::buildRedundancyConstraints(const UseIndex &Index) {
  int K = static_cast<int>(Inputs.size());

  // Indices of builtin APIs in Active.
  int LetMutIdx = -1;
  std::vector<size_t> BorrowIdxs;
  for (size_t Kk = 0; Kk < Active.size(); ++Kk) {
    BuiltinKind B = Db.get(Active[Kk]).Builtin;
    if (B == BuiltinKind::LetMut)
      LetMutIdx = static_cast<int>(Kk);
    else if (B == BuiltinKind::Borrow || B == BuiltinKind::BorrowMut)
      BorrowIdxs.push_back(Kk);
  }

  // (1) No move-to-mutable of an already-mutable variable. Additive per
  // (candidate, defining-line let_mut site) pair; while the defining
  // line's let_mut site is dead-eliminated the clause is vacuous (that
  // A is structurally false), so it is emitted when a revival
  // materializes the site.
  if (LetMutIdx >= 0) {
    for (int I = 0; I < NumLines; ++I) {
      CallSite &Mover =
          Sites[static_cast<size_t>(I)][static_cast<size_t>(LetMutIdx)];
      if (Mover.A == sat::VarUndef)
        continue; // Dead-eliminated on this line.
      for (const Candidate &C : Mover.Slots[0]) {
        if (C.Var < K)
          continue;
        int DefLine = C.Var - K;
        const CallSite &Def = Sites[static_cast<size_t>(DefLine)]
                                   [static_cast<size_t>(LetMutIdx)];
        if (Def.A == sat::VarUndef)
          continue; // A dead let_mut can never be chosen there.
        if (isNew(C) || isNew(Def))
          Solver.addClause(mkLit(C.U, true), mkLit(Def.A, true));
      }
    }
  }

  // (2) At most one mutable borrow of any variable, program-wide.
  // Monotone: re-emit when the list grew past one.
  int NumVarsAll = K + NumLines;
  for (int X = 0; X < NumVarsAll; ++X) {
    for (const VarType &VT : VarTypes[static_cast<size_t>(X)]) {
      std::vector<Lit> MutBorrows;
      bool Grew = false;
      for (const Use &Us : Index.ofRow(VT.Row)) {
        if (Db.get(Active[Us.Kk]).Builtin == BuiltinKind::BorrowMut) {
          MutBorrows.push_back(mkLit(Us.C->U));
          Grew |= isNew(*Us.C);
        }
      }
      if (MutBorrows.size() > 1 && Grew)
        Solver.addAtMost(std::move(MutBorrows), 1);
    }
  }

  // (3) Every created reference must be used at least once. The use list
  // is closure-sensitive (later refinements add consumers): guarded.
  for (int I = 0; I < NumLines; ++I) {
    for (size_t Kk : BorrowIdxs) {
      if (Sites[static_cast<size_t>(I)][Kk].A == sat::VarUndef)
        continue; // Dead borrow site: nothing is created to use.
      std::vector<Lit> Clause{
          mkLit(Sites[static_cast<size_t>(I)][Kk].A, true)};
      VarId Out = K + I;
      for (int M = I + 1; M < NumLines; ++M)
        for (const Use &Us : Index.ofVar(M, Out))
          Clause.push_back(mkLit(Us.C->U));
      addGuarded(std::move(Clause));
    }
  }
}

void Encoding::buildBlockedCombos() {
  // Only APIs with a blocked combination can need a clause. (ApiDatabase
  // exposes membership tests only, so each site's candidate type tuples
  // are tested one by one below, bounded by the slots' distinct-type
  // counts.)
  std::vector<size_t> Blocking;
  for (size_t Kk = 0; Kk < Active.size(); ++Kk)
    if (!Banned[Kk] && Db.hasBlockedCombos(Active[Kk]))
      Blocking.push_back(Kk);
  std::vector<std::vector<const Type *>> SlotTypes;
  std::vector<const Type *> Combo;
  for (int I = 0; I < NumLines; ++I) {
    for (size_t Kk : Blocking) {
      CallSite &Site = Sites[static_cast<size_t>(I)][Kk];
      if (Site.Slots.empty())
        continue;
      // Each slot's distinct candidate types, in insertion order.
      SlotTypes.assign(Site.Slots.size(), {});
      for (size_t J = 0; J < Site.Slots.size(); ++J) {
        const unsigned Epoch = ++MarkEpoch;
        for (const Candidate &C : Site.Slots[J]) {
          TypeFacts &F = Types[Rows[C.Row].TyId];
          if (F.Mark == Epoch)
            continue;
          F.Mark = Epoch;
          SlotTypes[J].push_back(C.Ty);
        }
      }
      // Enumerate type tuples (bounded: used only for small slot counts).
      size_t Total = 1;
      for (auto &Ts : SlotTypes)
        Total *= std::max<size_t>(Ts.size(), 1);
      // Pathological products get no combo clauses at all, so the site's
      // blocked combinations stay possible: nothing re-checks them later.
      if (Total > 4096)
        continue;
      for (size_t N = 0; N < Total; ++N) {
        Combo.clear();
        size_t Rem = N;
        bool Valid = true;
        for (size_t J = 0; J < SlotTypes.size(); ++J) {
          if (SlotTypes[J].empty()) {
            Valid = false;
            break;
          }
          Combo.push_back(SlotTypes[J][Rem % SlotTypes[J].size()]);
          Rem /= SlotTypes[J].size();
        }
        if (!Valid || !Db.isComboBlocked(Active[Kk], Combo))
          continue;
        auto Key = std::make_tuple(I, Active[Kk], Combo);
        auto Existing = ComboAux.find(Key);
        if (Existing != ComboAux.end()) {
          // Already blocked: wire candidates new this sync into the
          // existing aux vars so the block stays complete as slots grow.
          for (size_t J = 0; J < Site.Slots.size(); ++J)
            for (const Candidate &C : Site.Slots[J])
              if (isNew(C) && C.Ty == Combo[J])
                Solver.addClause(mkLit(C.U, true),
                                 mkLit(Existing->second[J]));
          continue;
        }
        // Block: not all slots may simultaneously use these types.
        std::vector<Lit> Clause{mkLit(Site.A, true)};
        std::vector<sat::Var> Aux;
        for (size_t J = 0; J < SlotTypes.size(); ++J) {
          // Aux var S: some candidate of slot J with type Combo[J] used.
          sat::Var S = Solver.newVar();
          for (Candidate &C : Site.Slots[J])
            if (C.Ty == Combo[J])
              Solver.addClause(mkLit(C.U, true), mkLit(S));
          Clause.push_back(mkLit(S, true));
          Aux.push_back(S);
        }
        Solver.addClause(std::move(Clause));
        ComboAux.emplace(std::move(Key), std::move(Aux));
      }
    }
  }
}

bool Encoding::nextModel() {
  if (HasModel)
    blockCurrent();
  Solver.setConflictBudget(Opts.SolveConflictBudget);
  if (Gen != sat::VarUndef)
    HasModel = Solver.solve({mkLit(Gen)}) == SolveResult::Sat;
  else
    HasModel = Solver.solve() == SolveResult::Sat;
  return HasModel;
}

void Encoding::blockCurrent() {
  assert(HasModel && "no model to block");
  // Exactly one A is true per line and U => A holds, so the chosen site
  // holds every true literal of its line: the clause is that site's ~A,
  // then its ~U literals in slot and candidate order.
  std::vector<Lit> Blocking;
  for (const std::vector<CallSite> &LineSites : Sites) {
    const CallSite &Site = LineSites[chosenSite(LineSites)];
    Blocking.push_back(mkLit(Site.A, true));
    for (const std::vector<Candidate> &Slot : Site.Slots)
      for (const Candidate &C : Slot)
        if (Solver.modelValue(C.U) == Value::True)
          Blocking.push_back(mkLit(C.U, true));
  }
  Solver.addBlockingClause(std::move(Blocking));
  HasModel = false;
}

size_t Encoding::chosenSite(const std::vector<CallSite> &LineSites) const {
  for (size_t Kk = 0; Kk < LineSites.size(); ++Kk)
    if (Solver.modelValue(LineSites[Kk].A) == Value::True)
      return Kk;
  assert(false && "model must select an API per line");
  return 0;
}

Program Encoding::decode() const {
  assert(HasModel && "decode requires a current model");
  int K = static_cast<int>(Inputs.size());
  Program P;
  P.Inputs = Inputs;

  // Predicted types per variable (the codeGen prediction of Section 5.3).
  std::vector<const Type *> Predicted(static_cast<size_t>(K + NumLines),
                                      nullptr);
  for (int X = 0; X < K; ++X)
    Predicted[static_cast<size_t>(X)] = Inputs[static_cast<size_t>(X)].Ty;

  for (int I = 0; I < NumLines; ++I) {
    const std::vector<CallSite> &LineSites = Sites[static_cast<size_t>(I)];
    size_t Chosen = chosenSite(LineSites);
    const CallSite &Site = LineSites[Chosen];
    const ApiSig &Sig = Db.get(Active[Chosen]);

    Stmt S;
    S.Api = Active[Chosen];
    S.Out = K + I;
    for (const auto &Slot : Site.Slots) {
      for (const Candidate &C : Slot) {
        if (Solver.modelValue(C.U) == Value::True) {
          S.Args.push_back(C.Var);
          break;
        }
      }
    }
    assert(S.Args.size() == Sig.Inputs.size() &&
           "every slot must be filled");

    // Predict the declared output type from predicted argument types.
    const Type *Decl = nullptr;
    if (Sig.Builtin != BuiltinKind::None) {
      Decl = builtinOutput(Sig.Builtin,
                           Predicted[static_cast<size_t>(S.Args[0])]);
    } else {
      // Deliberately not routed through the probe helpers: this is the
      // one unification that needs the accumulated substitution (each
      // argument extends Pred toward the output prediction), not a
      // boolean compatibility answer.
      Substitution Pred;
      for (size_t J = 0; J < S.Args.size(); ++J) {
        const Type *ArgTy = Predicted[static_cast<size_t>(S.Args[J])];
        Substitution Attempt = Pred;
        if (unifiable(ArgTy, RenIn[Chosen][J], Attempt))
          Pred = Attempt;
      }
      Decl = applySubst(Arena, RenOut[Chosen], Pred);
    }
    Predicted[static_cast<size_t>(S.Out)] = Decl;
    S.DeclType = Decl;
    P.Stmts.push_back(std::move(S));
  }
  return P;
}

bool Encoding::pathCheckOk(const Program &P, const ApiDatabase &Db,
                           const TraitEnv &Traits) {
  int NumVars = P.numVars();
  std::vector<bool> Consumed(static_cast<size_t>(NumVars), false);
  std::vector<std::vector<VarId>> Roots(static_cast<size_t>(NumVars));

  for (const Stmt &S : P.Stmts) {
    const ApiSig &Sig = Db.get(S.Api);
    // Rule 7: no argument may ride on a consumed root.
    for (VarId A : S.Args) {
      for (VarId R : Roots[static_cast<size_t>(A)])
        if (Consumed[static_cast<size_t>(R)])
          return false;
    }
    bool IsBorrow = Sig.Builtin == BuiltinKind::Borrow ||
                    Sig.Builtin == BuiltinKind::BorrowMut;
    if (!IsBorrow) {
      for (size_t J = 0; J < S.Args.size(); ++J) {
        VarId A = S.Args[J];
        const Type *Ty = nullptr;
        if (A < static_cast<VarId>(P.Inputs.size()))
          Ty = P.Inputs[static_cast<size_t>(A)].Ty;
        else
          Ty = P.Stmts[static_cast<size_t>(A) - P.Inputs.size()].DeclType;
        // Same move discipline as the checker: owned non-Copy values and
        // `&mut` passed by value consume; ref-pattern uses reborrow.
        if (Ty && J < Sig.Inputs.size() &&
            movesOnUse(Ty, Sig.Inputs[J], Traits))
          Consumed[static_cast<size_t>(A)] = true;
      }
    }
    // Root propagation.
    auto RootsOf = [&](VarId A) -> std::vector<VarId> {
      if (Roots[static_cast<size_t>(A)].empty())
        return {A};
      return Roots[static_cast<size_t>(A)];
    };
    if (IsBorrow) {
      Roots[static_cast<size_t>(S.Out)] = RootsOf(S.Args[0]);
    } else {
      // Dedup: diamond-shaped borrow chains would otherwise accumulate
      // duplicate roots (mirrors the checker's AddRoot).
      std::vector<VarId> &OutRoots = Roots[static_cast<size_t>(S.Out)];
      for (int J : Sig.PropagatesFrom) {
        if (J < 0 || static_cast<size_t>(J) >= S.Args.size())
          continue;
        for (VarId R : RootsOf(S.Args[static_cast<size_t>(J)]))
          if (std::find(OutRoots.begin(), OutRoots.end(), R) ==
              OutRoots.end())
            OutRoots.push_back(R);
      }
    }
  }
  return true;
}
