//===--- Synthesizer.cpp - Test-case enumeration driver -------------------===//
//
// Part of SyRust-CPP (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//

#include "synth/Synthesizer.h"

#include <algorithm>
#include <chrono>

using namespace syrust;
using namespace syrust::program;
using namespace syrust::synth;

namespace {
double secondsSince(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       T0)
      .count();
}

/// Simulated-time cadence on which --bias-coverage halves the
/// per-length yield weights, so stale hot streaks fade.
constexpr double kBiasDecayInterval = 30.0;
} // namespace

Synthesizer::Synthesizer(types::TypeArena &Arena,
                         const types::TraitEnv &Traits,
                         const api::ApiDatabase &Db,
                         std::vector<TemplateInput> Inputs, int MaxLines,
                         SynthOptions Opts)
    : Arena(Arena), Traits(Traits), Db(Db), Inputs(std::move(Inputs)),
      MaxLines(MaxLines), Opts(Opts) {
  // Long runs push hundreds of thousands of hashes through the duplicate
  // net; reserving up front keeps the hot insert path rehash-free until
  // well past typical run sizes.
  Seen.reserve(1 << 16);
  Stats.CurrentLength = 1;
  if (Opts.BiasCoverage) {
    LengthYield.assign(static_cast<size_t>(MaxLines), 0);
    BiasRng.reseed(Opts.BiasSeed);
    BiasNextDecay = kBiasDecayInterval;
  }
  if (Opts.InterleaveLengths) {
    LengthEncs.resize(static_cast<size_t>(MaxLines));
    LengthLive.assign(static_cast<size_t>(MaxLines), 1);
    LengthUnknown.assign(static_cast<size_t>(MaxLines), 0);
    for (int L = 1; L <= MaxLines; ++L)
      LengthEncs[static_cast<size_t>(L - 1)] = makeEncoding(L);
  } else {
    Enc = makeEncoding(1);
  }
  snapshotDb();
}

void Synthesizer::snapshotDb() {
  ActiveSnapshot = Db.activeIds();
  DbSizeSnapshot = Db.size();
}

std::unique_ptr<Encoding> Synthesizer::makeEncoding(int Length) {
  auto T0 = std::chrono::steady_clock::now();
  size_t Reblocked = 0;
  auto E =
      std::make_unique<Encoding>(Arena, Traits, Db, Inputs, Length, Opts);
  ++Stats.Rebuilds;
  if (Opts.IncrementalRefinement) {
    auto It = RetiredSigs.find(Length);
    if (It != RetiredSigs.end()) {
      Reblocked = E->seedBlockedModels(It->second);
      Stats.ModelsReblocked += Reblocked;
    }
  }
  Stats.BuildSeconds += secondsSince(T0);
  if (Opts.Obs) {
    Opts.Obs->instant("synth.build", "synth",
                      obs::ArgList()
                          .add("length", Length)
                          .add("reblocked",
                               static_cast<uint64_t>(Reblocked)));
    Opts.Obs->count("synth.builds");
  }
  return E;
}

void Synthesizer::retireEncoding(std::unique_ptr<Encoding> &E) {
  if (!E)
    return;
  RetiredConflicts += E->solverStats().Conflicts;
  RetiredPropagations += E->solverStats().Propagations;
  RetiredRaces += E->portfolioStats().Races;
  RetiredUnsatWins += E->portfolioStats().UnsatWins;
  RetiredCancels += E->portfolioStats().Cancels;
  const PruneStats &P = E->pruneStats();
  RetiredPrune.GraphProbes += P.GraphProbes;
  RetiredPrune.FallbackProbes += P.FallbackProbes;
  RetiredPrune.DeadSites += P.DeadSites;
  RetiredPrune.VarsAvoided += P.VarsAvoided;
  RetiredPrune.ClausesAvoided += P.ClausesAvoided;
  if (Opts.IncrementalRefinement) {
    // Successor encodings replay these; signatures that stop mapping
    // (their API got banned) are unreachable and dropped on replay.
    RetiredSigs[E->numLines()] = E->takeBlockedModels();
  }
  E.reset();
}

void Synthesizer::refreshSolverStats() {
  uint64_t Conflicts = RetiredConflicts;
  uint64_t Propagations = RetiredPropagations;
  uint64_t Races = RetiredRaces;
  uint64_t UnsatWins = RetiredUnsatWins;
  uint64_t Cancels = RetiredCancels;
  PruneStats Prune = RetiredPrune;
  auto Absorb = [&](const Encoding &E) {
    Conflicts += E.solverStats().Conflicts;
    Propagations += E.solverStats().Propagations;
    Races += E.portfolioStats().Races;
    UnsatWins += E.portfolioStats().UnsatWins;
    Cancels += E.portfolioStats().Cancels;
    Prune.GraphProbes += E.pruneStats().GraphProbes;
    Prune.FallbackProbes += E.pruneStats().FallbackProbes;
    Prune.DeadSites += E.pruneStats().DeadSites;
    Prune.VarsAvoided += E.pruneStats().VarsAvoided;
    Prune.ClausesAvoided += E.pruneStats().ClausesAvoided;
  };
  if (Enc)
    Absorb(*Enc);
  for (const auto &E : LengthEncs)
    if (E)
      Absorb(*E);
  Stats.SolverConflicts = Conflicts;
  Stats.SolverPropagations = Propagations;
  Stats.PortfolioRaces = Races;
  Stats.PortfolioUnsatWins = UnsatWins;
  Stats.PortfolioCancels = Cancels;
  Stats.PruneGraphProbes = Prune.GraphProbes;
  Stats.PruneFallbackProbes = Prune.FallbackProbes;
  Stats.PruneDeadSites = Prune.DeadSites;
  Stats.PruneVarsAvoided = Prune.VarsAvoided;
  Stats.PruneClausesAvoided = Prune.ClausesAvoided;
}

bool Synthesizer::solveNext(Encoding &E) {
  auto T0 = std::chrono::steady_clock::now();
  bool Sat = E.nextModel();
  Stats.SolveSeconds += secondsSince(T0);
  ++Stats.SolveCalls;
  refreshSolverStats();
  return Sat;
}

void Synthesizer::notifyDatabaseChanged() {
  std::vector<api::ApiId> NewActive = Db.activeIds();
  // Adding instances appends to the database with stable ids, so an
  // add-only change leaves the previous active list as a prefix.
  bool AddOnly = NewActive.size() >= ActiveSnapshot.size() &&
                 std::equal(ActiveSnapshot.begin(), ActiveSnapshot.end(),
                            NewActive.begin());
  bool Additions = Db.size() > DbSizeSnapshot;

  if (!Opts.InterleaveLengths) {
    // Sequential mode follows Algorithm 1: once every length is proven
    // exhausted the run is over; lengths already walked are not revisited.
    if (!Done && Enc) {
      bool Extended = false;
      if (AddOnly) {
        auto T0 = std::chrono::steady_clock::now();
        Extended = Enc->extendForDatabaseChange();
        Stats.BuildSeconds += secondsSince(T0);
      }
      if (Extended) {
        ++Stats.IncrementalExtends;
        if (Opts.Obs) {
          Opts.Obs->instant("synth.extend", "synth",
                            obs::ArgList().add("length",
                                               Stats.CurrentLength));
          Opts.Obs->count("synth.extends");
        }
      } else {
        retireEncoding(Enc);
        Enc = makeEncoding(Stats.CurrentLength);
      }
    }
    snapshotDb();
    return;
  }

  for (size_t Idx = 0; Idx < LengthEncs.size(); ++Idx) {
    bool Live = LengthLive[Idx] != 0;
    // A length proven UNSAT stays dead unless the database actually grew:
    // bans and combo blocks only shrink the space, so the proof stands.
    // A length that went dormant on a budget stop (Unknown) has no such
    // proof - it must get another chance on *any* change, destructive
    // ones included.
    if (!Live && !Additions && !LengthUnknown[Idx])
      continue;
    auto &Slot = LengthEncs[Idx];
    bool Extended = false;
    if (Slot && AddOnly) {
      auto T0 = std::chrono::steady_clock::now();
      Extended = Slot->extendForDatabaseChange();
      Stats.BuildSeconds += secondsSince(T0);
    }
    if (Extended) {
      ++Stats.IncrementalExtends;
      if (Opts.Obs) {
        Opts.Obs->instant("synth.extend", "synth",
                          obs::ArgList().add("length",
                                             static_cast<int>(Idx) + 1));
        Opts.Obs->count("synth.extends");
      }
    } else {
      retireEncoding(Slot);
      Slot = makeEncoding(static_cast<int>(Idx) + 1);
    }
    if (!Live) {
      LengthLive[Idx] = 1;
      LengthUnknown[Idx] = 0;
      ++Stats.DeadLengthRevivals;
      Done = false;
      if (Opts.Obs) {
        Opts.Obs->instant("synth.revive", "synth",
                          obs::ArgList().add("length",
                                             static_cast<int>(Idx) + 1));
        Opts.Obs->count("synth.revivals");
      }
    }
  }
  snapshotDb();
}

bool Synthesizer::advanceLength() {
  if (Stats.CurrentLength >= MaxLines) {
    Done = true;
    return false;
  }
  retireEncoding(Enc);
  ++Stats.CurrentLength;
  Enc = makeEncoding(Stats.CurrentLength);
  return true;
}

bool Synthesizer::acceptProgram(Program &P) {
  if (Opts.SemanticAware && !Encoding::pathCheckOk(P, Db, Traits)) {
    ++Stats.PathFiltered;
    if (Opts.Obs)
      Opts.Obs->count("synth.path_filtered");
    if (Opts.OnPathFiltered)
      Opts.OnPathFiltered(P); // Oracle replays the filter's rejects.
    return false; // Model auto-blocked on the next nextModel() call.
  }
  SeenOutcome Outcome = Seen.note(P);
  if (Outcome == SeenOutcome::Duplicate) {
    ++Stats.DuplicatesSkipped;
    if (Opts.Obs)
      Opts.Obs->count("synth.duplicates_skipped");
    return false; // Re-emitted after a rebuild; skip.
  }
  if (Outcome == SeenOutcome::Collision) {
    // A bare hash set would have dropped this distinct program.
    ++Stats.HashCollisions;
    if (Opts.Obs)
      Opts.Obs->count("synth.hash_collisions");
  }
  ++Stats.Emitted;
  if (Opts.Obs) {
    Opts.Obs->instant("synth.emit", "synth",
                      obs::ArgList().add(
                          "length",
                          static_cast<uint64_t>(P.Stmts.size())));
    Opts.Obs->count("synth.emitted");
    Opts.Obs->gaugeSet("synth.current_length", Stats.CurrentLength);
  }
  return true;
}

std::optional<Program> Synthesizer::nextSequential() {
  while (!Done) {
    if (!solveNext(*Enc)) {
      if (Enc->budgetExhausted())
        BudgetStop = true;
      if (!advanceLength())
        return std::nullopt;
      continue;
    }
    Program P = Enc->decode();
    if (acceptProgram(P))
      return P;
  }
  return std::nullopt;
}

void Synthesizer::noteCoverage(int Length, uint64_t NewEdges,
                               double NowSeconds) {
  if (!Opts.BiasCoverage)
    return;
  // Decay on the simulated clock, not per call: halving every fixed
  // interval keeps the weights a pure function of (seed, emission
  // sequence, sim time), so replays are byte-identical.
  while (NowSeconds >= BiasNextDecay) {
    for (uint64_t &Y : LengthYield)
      Y /= 2;
    BiasNextDecay += kBiasDecayInterval;
    ++Stats.BiasDecays;
  }
  Stats.BiasNewEdges += NewEdges;
  if (Length >= 1 && static_cast<size_t>(Length) <= LengthYield.size())
    LengthYield[static_cast<size_t>(Length - 1)] += NewEdges;
}

std::optional<size_t> Synthesizer::pickLength() {
  if (std::find(LengthLive.begin(), LengthLive.end(), 1) == LengthLive.end())
    return std::nullopt;
  if (Opts.BiasCoverage) {
    std::vector<size_t> LiveIdx;
    std::vector<double> Weights;
    uint64_t TotalYield = 0;
    for (size_t I = 0; I < LengthEncs.size(); ++I) {
      if (!LengthLive[I])
        continue;
      LiveIdx.push_back(I);
      TotalYield += LengthYield[I];
      // Integer-valued doubles only: exact on every platform, so the
      // draw cannot diverge across compilers or libm versions. The
      // yield is capped at 8:1 over a cold length - an unbounded weight
      // concentrates nearly every draw on one length, which
      // re-enumerates duplicates there while starving the rest.
      uint64_t Y = LengthYield[I] > 7 ? 7 : LengthYield[I];
      Weights.push_back(1.0 + static_cast<double>(Y));
    }
    // Draw only while there is signal to follow. With every live yield
    // at zero (cold start, or a long dry spell decayed the counters
    // away) a weighted draw is just a noisier round-robin, so fall
    // through to the rotation until coverage speaks again.
    if (TotalYield > 0) {
      ++Stats.BiasPicks;
      return LiveIdx[BiasRng.pickWeighted(Weights)];
    }
  }
  while (true) {
    size_t Idx = Rotation++ % LengthEncs.size();
    if (LengthLive[Idx])
      return Idx;
  }
}

std::optional<Program> Synthesizer::nextInterleaved() {
  // Round-robin across live lengths; a length that proves UNSAT goes
  // dormant but keeps its encoding, so a later database addition can
  // revive it. The rotation pointer persists across calls, so each call
  // samples the "next" length. With --bias-coverage and any live
  // yield signal, the rotation is replaced by a weighted draw over the
  // live lengths: weight 1 plus the length's decayed never-covered-
  // edge yield, so lengths that recently opened new dependency-graph
  // territory get solved more often while cold lengths still get a
  // floor of attention.
  while (!Done) {
    std::optional<size_t> Idx = pickLength();
    if (!Idx) {
      Done = true;
      return std::nullopt;
    }
    Encoding *E = LengthEncs[*Idx].get();
    if (!solveNext(*E)) {
      // Budget stops (Unknown) are not exhaustion proofs: mark the
      // dormancy as revivable-on-any-change.
      if (E->budgetExhausted()) {
        BudgetStop = true;
        LengthUnknown[*Idx] = 1;
      }
      LengthLive[*Idx] = 0;
      continue;
    }
    Stats.CurrentLength = E->numLines();
    Program P = E->decode();
    if (acceptProgram(P))
      return P;
    // Rejected by the path check or a duplicate: the next pick gets its
    // turn.
  }
  return std::nullopt;
}

std::optional<Program> Synthesizer::next() {
  return Opts.InterleaveLengths ? nextInterleaved() : nextSequential();
}
