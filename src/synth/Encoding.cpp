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
#include <set>

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

bool Encoding::isOwnedNonCopy(const Type *Ty) const {
  return !Ty->isRef() && !Traits.isCopy(Ty);
}

sat::Var Encoding::getV(VarId X, const Type *Ty, int Line) {
  auto Key = std::make_tuple(X, Ty, Line);
  auto It = VMap.find(Key);
  if (It != VMap.end())
    return It->second;
  sat::Var V = Solver.newVar();
  VMap.emplace(Key, V);
  return V;
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

bool Encoding::probeUnifiable2(const Type *Ty, const Type *Pattern) const {
  if (Opts.Compat)
    return Opts.Compat->unifiable2(Ty, Pattern);
  Substitution Probe;
  return unifiable(Ty, Pattern, Probe);
}

bool Encoding::probeJoint(const Type *T1, const Type *P1, const Type *T2,
                          const Type *P2) const {
  if (Opts.Compat)
    return Opts.Compat->unifiableJoint(T1, P1, T2, P2);
  Substitution Joint;
  return unifiable(T1, P1, Joint) && unifiable(T2, P2, Joint);
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
    // The ownership/borrow clauses are the CEGAR strategy's lazy tier: it
    // solves without them and materializes only the ones a candidate
    // model violates, with the model acting as the counterexample.
    Solver.beginLazy();
    buildSemanticConstraints();
    Solver.endLazy();
    buildRedundancyConstraints();
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
  // ones, which is why each pair's birth sync comes from TypeBorn.
  int K = static_cast<int>(Inputs.size());
  VarTypes.assign(static_cast<size_t>(K + NumLines), {});
  auto AddType = [&](VarId X, const Type *Ty, ApiId Producer) {
    unsigned Born = TypeBorn.try_emplace({X, Ty}, Sync).first->second;
    VarTypes[static_cast<size_t>(X)].push_back(VarType{Ty, Producer, Born});
  };
  for (int X = 0; X < K; ++X)
    AddType(X, Inputs[static_cast<size_t>(X)].Ty, ApiIdInvalid);

  // Types available strictly before each line, grown monotonically.
  std::vector<const Type *> Avail;
  std::set<const Type *> AvailSeen;
  auto AddAvail = [&](const Type *Ty) {
    if (AvailSeen.insert(Ty).second)
      Avail.push_back(Ty);
  };
  for (int X = 0; X < K; ++X)
    AddAvail(Inputs[static_cast<size_t>(X)].Ty);

  for (int I = 0; I < NumLines; ++I) {
    std::set<const Type *> OutSeen;
    // Producer recorded per type at zero probe cost; the dedup keeps
    // the first producer, which is enough - equal interned outputs give
    // equal probe answers whichever producer keys the graph row.
    auto AddOut = [&](const Type *Ty, ApiId Producer) {
      if (OutSeen.insert(Ty).second)
        AddType(K + I, Ty, Producer);
    };
    for (size_t Kk = 0; Kk < Active.size(); ++Kk) {
      const ApiSig &Sig = Db.get(Active[Kk]);
      if (Sig.Builtin == BuiltinKind::None) {
        AddOut(RenOut[Kk], Active[Kk]);
        continue;
      }
      // Builtins derive their output from the chosen argument type;
      // those types have no frozen-graph producer and take the
      // fallback probe arm.
      for (const Type *Ty : Avail)
        if (!Ty->isRef()) // Encoder restriction: builtins act on non-refs.
          AddOut(builtinOutput(Sig.Builtin, Ty), ApiIdInvalid);
    }
    for (const VarType &VT : VarTypes[static_cast<size_t>(K + I)])
      AddAvail(VT.Ty);
  }
}

void Encoding::buildCallSites() {
  int K = static_cast<int>(Inputs.size());
  if (Sites.empty())
    Sites.assign(static_cast<size_t>(NumLines), {});
  for (int I = 0; I < NumLines; ++I) {
    std::vector<CallSite> &LineSites = Sites[static_cast<size_t>(I)];
    LineSites.resize(Active.size());
    for (size_t Kk = 0; Kk < Active.size(); ++Kk) {
      if (Banned[Kk])
        continue; // Never grown or revived: its A is false at the root.
      const ApiSig &Sig = Db.get(Active[Kk]);
      CallSite &Site = LineSites[Kk];

      // Candidates of slot J not yet encoded, in the canonical (X, Ty)
      // order, with U unallocated. NewOnly restricts to (var, type)
      // pairs new this sync - the live-site incremental append.
      auto Probe = [&](size_t J, bool NewOnly,
                       std::vector<Candidate> &Out) {
        for (int X = 0; X < K + I; ++X) {
          for (const VarType &VT : VarTypes[static_cast<size_t>(X)]) {
            if (NewOnly && !isNew(VT))
              continue; // Candidate already encoded.
            if (Sig.Builtin != BuiltinKind::None && VT.Ty->isRef())
              continue; // Builtins act on non-reference values.
            if (Opts.SemanticAware &&
                Sig.Builtin == BuiltinKind::BorrowMut && X < K)
              continue; // Template bindings are immutable (no `mut`).
            if (!probeFeeds(VT.Producer, VT.Ty, Kk, J))
              continue;
            Candidate C;
            C.Var = X;
            C.Ty = VT.Ty;
            C.Out = builtinOutput(Sig.Builtin, VT.Ty);
            C.Born = Sync;
            Out.push_back(C);
          }
        }
      };

      if (Site.A != sat::VarUndef) {
        // Live site: append the candidates this sync introduced.
        for (size_t J = 0; J < Sig.Inputs.size(); ++J) {
          std::vector<Candidate> Added;
          Probe(J, /*NewOnly=*/true, Added);
          for (Candidate &C : Added) {
            C.U = Solver.newVar();
            Site.Slots[J].push_back(C);
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
        Probe(J, /*NewOnly=*/false, Tmp[J]);
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
      Site.Slots.assign(Sig.Inputs.size(), {});
      for (size_t J = 0; J < Sig.Inputs.size(); ++J) {
        for (Candidate &C : Tmp[J]) {
          C.U = Solver.newVar();
          Site.Slots[J].push_back(C);
          ++TotalCandidates;
        }
      }
    }
  }
}

void Encoding::buildContextConstraints() {
  int K = static_cast<int>(Inputs.size());

  // Template availability at line 0 plus V-propagation for all variables.
  // Both are per-(var, type) facts: emitted once, when the pair appears.
  for (int X = 0; X < K; ++X) {
    const VarType &VT = VarTypes[static_cast<size_t>(X)].front();
    if (!isNew(VT))
      continue;
    Solver.addClause(mkLit(getV(X, VT.Ty, 0)));
    for (int I = 1; I <= NumLines; ++I)
      Solver.addClause(mkLit(getV(X, VT.Ty, I), true),
                       mkLit(getV(X, VT.Ty, I - 1)));
  }
  for (int J = 0; J < NumLines; ++J) {
    for (const VarType &VT : VarTypes[static_cast<size_t>(K + J)]) {
      if (!isNew(VT))
        continue;
      for (int I = J + 2; I <= NumLines; ++I)
        Solver.addClause(mkLit(getV(K + J, VT.Ty, I), true),
                         mkLit(getV(K + J, VT.Ty, I - 1)));
    }
  }

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
    addGuarded(ALits);

    // Use-variable wiring. Materialization guarantees every slot of a
    // live site has at least one candidate (the historical empty-slot
    // guarded ~A became dead-site elimination).
    for (size_t Kk = 0; Kk < LineSites.size(); ++Kk) {
      CallSite &Site = LineSites[Kk];
      if (Site.A == sat::VarUndef)
        continue; // Dead-eliminated: no variables, no clauses.
      for (const std::vector<Candidate> &Slot : Site.Slots) {
        std::vector<Lit> AtLeast{mkLit(Site.A, true)};
        std::vector<Lit> ULits;
        bool SlotGrew = false;
        for (const Candidate &C : Slot) {
          if (isNew(C)) {
            Solver.addClause(mkLit(C.U, true), mkLit(Site.A)); // U => A
            Solver.addClause(mkLit(C.U, true),
                             mkLit(getV(C.Var, C.Ty, I))); // U => V
            SlotGrew = true;
          }
          AtLeast.push_back(mkLit(C.U));
          ULits.push_back(mkLit(C.U));
        }
        addGuarded(AtLeast);            // A => some candidate used.
        if (SlotGrew)
          Solver.addAtMost(ULits, 1);   // At most one per slot.
      }

      // Pairwise compatibility across slots (Definition 2(3) + Rule 4).
      // Additive: only pairs involving a candidate new this sync.
      for (size_t J1 = 0; J1 < Site.Slots.size(); ++J1) {
        for (size_t J2 = J1 + 1; J2 < Site.Slots.size(); ++J2) {
          for (const Candidate &C1 : Site.Slots[J1]) {
            for (const Candidate &C2 : Site.Slots[J2]) {
              if (!isNew(C1) && !isNew(C2))
                continue;
              bool Compatible = true;
              if (C1.Var == C2.Var && !C1.Ty->isPrim() &&
                  !C1.Ty->isSharedRef()) {
                Compatible = false; // Rule 4: no owned/mut aliasing.
              } else {
                Compatible = probeJoint(C1.Ty, RenIn[Kk][J1], C2.Ty,
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
    // guarded (a later sync can add triggers for this type).
    VarId Out = K + I;
    for (const VarType &VT : VarTypes[static_cast<size_t>(Out)]) {
      const Type *Ty = VT.Ty;
      std::vector<Lit> Triggers;
      std::vector<Lit> NewTriggers;
      for (size_t Kk = 0; Kk < LineSites.size(); ++Kk) {
        const CallSite &Site = LineSites[Kk];
        if (Site.A == sat::VarUndef)
          continue; // Dead site: no candidates, no triggers.
        if (Db.get(Active[Kk]).Builtin == BuiltinKind::None) {
          if (RenOut[Kk] == Ty) {
            Triggers.push_back(mkLit(Site.A));
            if (isNew(Site))
              NewTriggers.push_back(mkLit(Site.A));
          }
          continue;
        }
        for (const Candidate &C : Site.Slots[0]) {
          if (C.Out != Ty)
            continue;
          Triggers.push_back(mkLit(C.U));
          if (isNew(C))
            NewTriggers.push_back(mkLit(C.U));
        }
      }
      sat::Var V = getV(Out, Ty, I + 1);
      if (Triggers.empty()) {
        addGuarded({mkLit(V, true)});
        continue;
      }
      for (Lit T : NewTriggers)
        Solver.addClause(~T, mkLit(V)); // trigger => V
      std::vector<Lit> VImplies{mkLit(V, true)};
      for (Lit T : Triggers)
        VImplies.push_back(T);
      addGuarded(VImplies); // V => some trigger.
    }
  }
}

void Encoding::buildSemanticConstraints() {
  int K = static_cast<int>(Inputs.size());
  int NumVars = K + NumLines;

  // Per-line consuming uses of every mutable-reference (var, type) pair,
  // shared with the Rule 6 ties below: a &mut moved into a by-value
  // parameter stops persisting, exactly as the checker kills the binding.
  std::map<std::pair<VarId, const Type *>,
           std::vector<std::vector<Lit>>>
      MutConsuming;

  // Classify each (var, type) pair and collect its use variables per line.
  for (int X = 0; X < NumVars; ++X) {
    int FirstLine = X < K ? 0 : X - K + 1;
    for (const VarType &VT : VarTypes[static_cast<size_t>(X)]) {
      const Type *Ty = VT.Ty;
      bool PairNew = isNew(VT);
      bool OwnedNonCopy = isOwnedNonCopy(Ty);
      // `&mut T` is not Copy: like owned non-Copy values it moves when
      // passed by value (a non-ref parameter pattern, e.g. a bare type
      // variable). Uses feeding ref-typed parameters reborrow instead.
      bool Consumable = OwnedNonCopy || Ty->isMutRef();
      bool TieHandled = Ty->isRef() && X >= K; // Output refs get ties.
      for (int I = FirstLine; I < NumLines; ++I) {
        // Consuming uses of (X, Ty) on line I, noting whether this sync
        // added one.
        std::vector<Lit> Consuming;
        bool ConsumingGrew = false;
        if (Consumable) {
          for (size_t Kk = 0; Kk < Active.size(); ++Kk) {
            const ApiSig &Sig = Db.get(Active[Kk]);
            if (Sig.Builtin == BuiltinKind::Borrow ||
                Sig.Builtin == BuiltinKind::BorrowMut)
              continue;
            CallSite &Site = Sites[static_cast<size_t>(I)][Kk];
            for (size_t J = 0; J < Site.Slots.size(); ++J) {
              if (!movesOnUse(Ty, RenIn[Kk][J], Traits))
                continue; // Ref-typed parameter: reborrow, not a move.
              for (const Candidate &C : Site.Slots[J]) {
                if (C.Var == X && C.Ty == Ty) {
                  Consuming.push_back(mkLit(C.U));
                  ConsumingGrew |= isNew(C);
                }
              }
            }
          }
        }
        if (Consumable) {
          sat::Var VNow = getV(X, Ty, I);
          sat::Var VNext = getV(X, Ty, I + 1);
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
            Solver.addAtMost(Card, 1);
          }
          if (!TieHandled) {
            // Nothing else kills: V_i => V_{i+1} OR consumed. The
            // consumed-by list is closure-sensitive, so guarded. Output
            // refs get the equivalent persistence from their Rule 6 tie.
            std::vector<Lit> Persist{mkLit(VNow, true), mkLit(VNext)};
            for (Lit C : Consuming)
              Persist.push_back(C);
            addGuarded(Persist);
          }
          if (Ty->isMutRef()) {
            auto &PerLine = MutConsuming[{X, Ty}];
            PerLine.resize(static_cast<size_t>(NumLines));
            PerLine[static_cast<size_t>(I)] = Consuming;
          }
        } else if (!TieHandled && PairNew) {
          // Copy values (including shared refs) persist.
          Solver.addClause(mkLit(getV(X, Ty, I), true),
                           mkLit(getV(X, Ty, I + 1)));
        }
      }
    }
  }

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
          for (size_t K2 = 0; K2 < Active.size(); ++K2) {
            if (Db.get(Active[K2]).Builtin != BuiltinKind::LetMut)
              continue;
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
      // each sync.
      auto AddTie = [&](const Candidate &C, const Type *RefTy) {
        bool NewCand = isNew(C);
        bool MutRef = RefTy->isMutRef();
        const std::vector<std::vector<Lit>> *ConsumedBy = nullptr;
        if (MutRef) {
          auto It = MutConsuming.find({Out, RefTy});
          if (It != MutConsuming.end())
            ConsumedBy = &It->second;
        }
        for (int M = I + 2; M <= NumLines; ++M) {
          sat::Var VRef = getV(Out, RefTy, M);
          sat::Var VSrc = getV(C.Var, C.Ty, M);
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
          if (ConsumedBy)
            for (int L = I + 1; L < M; ++L)
              for (Lit CL : (*ConsumedBy)[static_cast<size_t>(L)])
                Persist.push_back(CL);
          addGuarded(Persist);
        }
      };
      if (Sig.Builtin == BuiltinKind::Borrow ||
          Sig.Builtin == BuiltinKind::BorrowMut) {
        bool Mut = Sig.Builtin == BuiltinKind::BorrowMut;
        for (const Candidate &C : Site.Slots[0])
          if (Mut || isNew(C))
            AddTie(C, C.Out);
      } else if (!Sig.PropagatesFrom.empty() && RenOut[Kk]->isRef()) {
        bool MutOut = RenOut[Kk]->isMutRef();
        for (int J : Sig.PropagatesFrom) {
          if (J < 0 || static_cast<size_t>(J) >= Site.Slots.size())
            continue;
          for (const Candidate &C : Site.Slots[static_cast<size_t>(J)])
            if ((MutOut || isNew(C)) && C.Ty->isRef())
              AddTie(C, RenOut[Kk]);
        }
      }
    }
  }

  // Rules 8/9: borrow exclusivity. For each (owner, type): a live &mut
  // forbids later borrows; a live & forbids later &mut. Additive per
  // (first, second) borrow pair: emit when either end is new.
  int NumVarsAll = K + NumLines;
  for (int X = 0; X < NumVarsAll; ++X) {
    for (const VarType &VT : VarTypes[static_cast<size_t>(X)]) {
      if (VT.Ty->isRef())
        continue;
      // Collect per-line borrow uses of (X, Ty).
      struct BorrowUse {
        int Line;
        const Candidate *C;
        bool Mut;
      };
      std::vector<BorrowUse> Borrows;
      for (int I = 0; I < NumLines; ++I) {
        for (size_t Kk = 0; Kk < Active.size(); ++Kk) {
          const ApiSig &Sig = Db.get(Active[Kk]);
          if (Sig.Builtin != BuiltinKind::Borrow &&
              Sig.Builtin != BuiltinKind::BorrowMut)
            continue;
          if (Sites[static_cast<size_t>(I)][Kk].A == sat::VarUndef)
            continue; // Dead-eliminated on this line.
          bool Mut = Sig.Builtin == BuiltinKind::BorrowMut;
          for (const Candidate &C :
               Sites[static_cast<size_t>(I)][Kk].Slots[0])
            if (C.Var == X && C.Ty == VT.Ty)
              Borrows.push_back(BorrowUse{I, &C, Mut});
        }
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
          sat::Var RefAlive =
              getV(K + First.Line, First.C->Out, Second.Line + 1);
          Solver.addClause(std::vector<Lit>{
              mkLit(First.C->U, true), mkLit(RefAlive, true),
              mkLit(Second.C->U, true)});
        }
      }
    }
  }
}

void Encoding::buildRedundancyConstraints() {
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
      for (int I = 0; I < NumLines; ++I) {
        for (size_t Kk : BorrowIdxs) {
          if (Db.get(Active[Kk]).Builtin != BuiltinKind::BorrowMut)
            continue;
          if (Sites[static_cast<size_t>(I)][Kk].A == sat::VarUndef)
            continue; // Dead-eliminated on this line.
          for (const Candidate &C :
               Sites[static_cast<size_t>(I)][Kk].Slots[0])
            if (C.Var == X && C.Ty == VT.Ty) {
              MutBorrows.push_back(mkLit(C.U));
              Grew |= isNew(C);
            }
        }
      }
      if (MutBorrows.size() > 1 && Grew)
        Solver.addAtMost(MutBorrows, 1);
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
      for (int M = I + 1; M < NumLines; ++M) {
        for (size_t K2 = 0; K2 < Active.size(); ++K2) {
          for (auto &Slot : Sites[static_cast<size_t>(M)][K2].Slots)
            for (Candidate &C : Slot)
              if (C.Var == Out)
                Clause.push_back(mkLit(C.U));
        }
      }
      addGuarded(Clause);
    }
  }
}

void Encoding::buildBlockedCombos() {
  for (int I = 0; I < NumLines; ++I) {
    for (size_t Kk = 0; Kk < Active.size(); ++Kk) {
      CallSite &Site = Sites[static_cast<size_t>(I)][Kk];
      // Collect the combos blocked for this API.
      // (Iterate via probe: ApiDatabase exposes membership tests only, so
      // the synthesizer's combos come through isComboBlocked on candidate
      // type tuples. To keep the encoding closed-form we instead intersect
      // per-slot candidate types and test each cross-product lazily below,
      // bounded by slots' distinct-type counts.)
      if (Site.Slots.empty() || Banned[Kk])
        continue;
      std::vector<std::vector<const Type *>> SlotTypes(Site.Slots.size());
      for (size_t J = 0; J < Site.Slots.size(); ++J) {
        std::set<const Type *> Seen;
        for (Candidate &C : Site.Slots[J])
          if (Seen.insert(C.Ty).second)
            SlotTypes[J].push_back(C.Ty); // Insertion order.
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
        std::vector<const Type *> Combo;
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
        Solver.addClause(Clause);
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
