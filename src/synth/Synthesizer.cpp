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

/// Adds one encoding's solver, portfolio and prune counters to \p S.
void addEncodingCounters(SynthStats &S, const Encoding &E) {
  S.SolverConflicts += E.solverStats().Conflicts;
  S.SolverPropagations += E.solverStats().Propagations;
  S.PortfolioRaces += E.portfolioStats().Races;
  S.PortfolioUnsatWins += E.portfolioStats().UnsatWins;
  S.PortfolioCancels += E.portfolioStats().Cancels;
  const PruneStats &P = E.pruneStats();
  S.PruneGraphProbes += P.GraphProbes;
  S.PruneFallbackProbes += P.FallbackProbes;
  S.PruneDeadSites += P.DeadSites;
  S.PruneVarsAvoided += P.VarsAvoided;
  S.PruneClausesAvoided += P.ClausesAvoided;
}
} // namespace

Synthesizer::Synthesizer(types::TypeArena &Arena,
                         const types::TraitEnv &Traits,
                         const api::ApiDatabase &Db,
                         std::vector<TemplateInput> Inputs, int MaxLines,
                         SynthOptions Opts)
    : Arena(Arena), Traits(Traits), Db(Db), Inputs(std::move(Inputs)),
      Opts(Opts) {
  if (Opts.BiasCoverage) {
    LengthYield.assign(static_cast<size_t>(MaxLines), 0);
    BiasRng.reseed(Opts.BiasSeed);
    BiasNextDecay = kBiasDecayInterval;
  }
  LengthEncs.resize(static_cast<size_t>(MaxLines));
  LengthLive.assign(static_cast<size_t>(MaxLines), 1);
  LengthUnknown.assign(static_cast<size_t>(MaxLines), 0);
  // Sequential mode builds only length 1 here; next() builds each later
  // length when pickLength() first reaches it.
  const int Upfront =
      Opts.InterleaveLengths ? MaxLines : std::min(MaxLines, 1);
  for (int L = 1; L <= Upfront; ++L)
    LengthEncs[static_cast<size_t>(L - 1)] = makeEncoding(L);
  DbSizeSnapshot = Db.size();
}

std::unique_ptr<Encoding> Synthesizer::makeEncoding(int Length) {
  auto T0 = std::chrono::steady_clock::now();
  auto E =
      std::make_unique<Encoding>(Arena, Traits, Db, Inputs, Length, Opts);
  ++Stats.Rebuilds;
  Stats.BuildSeconds += secondsSince(T0);
  if (Opts.Obs) {
    Opts.Obs->instant("synth.build", "synth",
                      obs::ArgList().add("length", Length));
    Opts.Obs->count("synth.builds");
  }
  return E;
}

void Synthesizer::retire(std::unique_ptr<Encoding> &E) {
  addEncodingCounters(Stats, *E);
  E.reset();
}

SynthStats Synthesizer::stats() const {
  SynthStats S = Stats;
  for (const auto &E : LengthEncs)
    if (E)
      addEncodingCounters(S, *E);
  return S;
}

void Synthesizer::notifyDatabaseChanged() {
  bool Additions = Db.size() > DbSizeSnapshot;

  // Unbuilt slots need nothing: sequential mode builds a length from the
  // database of the moment it is reached and drops the ones it exhausted.
  for (size_t Idx = 0; Idx < LengthEncs.size(); ++Idx) {
    auto &Slot = LengthEncs[Idx];
    if (!Slot)
      continue;
    const int Length = static_cast<int>(Idx) + 1;
    bool Live = LengthLive[Idx] != 0;
    // A length proven UNSAT stays dead unless the database actually grew:
    // bans and combo blocks only shrink the space, so the proof stands.
    // A length that went dormant on a budget stop (Unknown) has no such
    // proof - it must get another chance on *any* change, bans and combo
    // blocks included.
    if (!Live && !Additions && !LengthUnknown[Idx])
      continue;
    auto T0 = std::chrono::steady_clock::now();
    bool Extended = Slot->extendForDatabaseChange();
    Stats.BuildSeconds += secondsSince(T0);
    if (Extended) {
      ++Stats.IncrementalExtends;
      if (Opts.Obs) {
        Opts.Obs->instant("synth.extend", "synth",
                          obs::ArgList().add("length", Length));
        Opts.Obs->count("synth.extends");
      }
    } else {
      retire(Slot);
      Slot = makeEncoding(Length);
    }
    if (!Live) {
      LengthLive[Idx] = 1;
      LengthUnknown[Idx] = 0;
      ++Stats.DeadLengthRevivals;
      if (Opts.Obs) {
        Opts.Obs->instant("synth.revive", "synth",
                          obs::ArgList().add("length", Length));
        Opts.Obs->count("synth.revivals");
      }
    }
  }
  DbSizeSnapshot = Db.size();
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
    return false; // Re-emitted after a --no-incremental rebuild; skip.
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
    Opts.Obs->gaugeSet("synth.current_length",
                       static_cast<double>(P.Stmts.size()));
  }
  return true;
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
  auto Shortest = std::find(LengthLive.begin(), LengthLive.end(), 1);
  if (Shortest == LengthLive.end())
    return std::nullopt;
  if (!Opts.InterleaveLengths)
    return static_cast<size_t>(Shortest - LengthLive.begin());
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

std::optional<Program> Synthesizer::next() {
  // pickLength() chooses each solve's length. A length that proves UNSAT
  // goes dormant: interleaved mode keeps its encoding so that a later
  // database addition can revive it, and sequential mode destroys it.
  while (std::optional<size_t> Idx = pickLength()) {
    std::unique_ptr<Encoding> &E = LengthEncs[*Idx];
    if (!E)
      E = makeEncoding(static_cast<int>(*Idx) + 1);
    auto T0 = std::chrono::steady_clock::now();
    bool Sat = E->nextModel();
    Stats.SolveSeconds += secondsSince(T0);
    ++Stats.SolveCalls;
    if (!Sat) {
      // Budget stops (Unknown) are not exhaustion proofs: mark the
      // dormancy as revivable-on-any-change.
      if (E->budgetExhausted()) {
        BudgetStop = true;
        LengthUnknown[*Idx] = 1;
      }
      LengthLive[*Idx] = 0;
      if (!Opts.InterleaveLengths)
        retire(E); // Algorithm 1 never returns to a shorter length.
      continue;
    }
    Program P = E->decode();
    if (acceptProgram(P))
      return P;
    // Rejected by the path check or a duplicate: the next pick gets its
    // turn.
  }
  return std::nullopt;
}
