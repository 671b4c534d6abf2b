//===--- Encoding.h - SAT encoding of the synthesis space ------*- C++ -*-===//
//
// Part of SyRust-CPP (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Builds the SAT formula of Section 4 / Appendix C for programs of one
/// fixed length over the current API database, and decodes models back to
/// programs.
///
/// Variable families (Figure 14):
///   A[f,i]      - API f is called on line i;
///   V[x,tau,i]  - variable x with encoder-level type tau is available in
///                 the synthesis type context of line i;
///   U[x,tau,i,j,f] - x:tau is used as the j-th input of f on line i.
///
/// Encoder-level types keep each API's type variables (renamed apart per
/// API), and slot matching uses the optimistic `unifiable` relation: the
/// encoder deliberately over-approximates (no trait bounds, no default
/// type parameters) and lets compiler diagnostics drive refinement
/// (Section 5). The Section 4.4 ownership/borrow constraints and the
/// Section 4.7 redundancy suppressions are emitted only when
/// SemanticAware is on - turning them off is exactly the RQ2 ablation.
///
/// Model blocking exploits the exactly-one structure: the true A- and
/// U-variables uniquely determine a program, so blocking the conjunction
/// of those (a ~20-literal clause) blocks exactly that program.
///
/// Incremental refinement (update(phi, A) without rebuild-the-world):
/// extendForDatabaseChange() absorbs every database change into the
/// *live* solver, so learned clauses and every emitted-model blocking
/// clause survive. The encoding keeps its own list of encoded APIs and
/// only ever appends to it; a banned API stays in the list and each of
/// its materialized call sites gets a permanent root unit ~A. A change
/// that adds APIs adds their call-site variables and clauses. Constraints
/// whose clause sets are closure-sensitive ("A implies some candidate",
/// "V implies some trigger", exactly-one's at-least half, owned-value
/// persistence, created-refs-must-be-used) are guarded by a
/// per-generation selector variable: such a sync retires the previous
/// generation with a unit clause and re-emits those constraints over the
/// grown sets under a fresh guard, and solving assumes the current guard.
/// Types, candidates and call sites come only from APIs, so a change that
/// adds none (bans, combo blocks) keeps the current generation and adds
/// only its ban units and combo clauses. Every candidate, call site and
/// (variable, type) pair carries the number of the sync that added it,
/// which is how a sync tells the facts it adds from the ones already
/// encoded.
///
/// A sync costs about what it emits. The (variable, type) pairs form one
/// dense table whose rows hold the pair's birth sync and its V variable
/// per line; every VarType and Candidate names its row. Each
/// semantic-aware sync indexes its candidate uses by variable and by
/// row, so the Rule 5, Rule 8/9 and redundancy clauses read the uses of
/// a pair instead of scanning every site. A slot's new candidates are
/// its suffix, each interned type's Copy answer and borrow outputs are
/// computed once, and the combo pass visits only APIs with a blocked
/// combination. What stays proportional to the whole encoding is the
/// re-emitted guarded layer and the probes of dead sites.
///
//===----------------------------------------------------------------------===//

#ifndef SYRUST_SYNTH_ENCODING_H
#define SYRUST_SYNTH_ENCODING_H

#include "api/ApiDatabase.h"
#include "api/DependencyGraph.h"
#include "obs/Recorder.h"
#include "program/Program.h"
#include "sat/Portfolio.h"
#include "sat/Solver.h"
#include "types/CompatCache.h"
#include "types/Subtyping.h"
#include "types/TraitEnv.h"

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

namespace syrust::synth {

/// Feature toggles and tuning for the encoder/synthesizer.
struct SynthOptions {
  /// Section 4.4 + 4.7 constraints (ownership, lifetimes, borrows,
  /// redundancy). Off = the RQ2 ablation variant.
  bool SemanticAware = true;
  /// Test-scheduling extension (the paper's Section 7.4.3 future work):
  /// instead of exhausting each program length before moving to the
  /// next, round-robin across all lengths so deep call chains are
  /// reached early. Off reproduces Algorithm 1's strict length order.
  bool InterleaveLengths = false;
  /// Every database refinement extends the live encodings in place
  /// (generation-guarded clauses + assumption solving; bans become root
  /// units), so blocking clauses persist and no encoding is rebuilt
  /// after it is built. Off = the historical rebuild-the-world path,
  /// kept selectable for A/B comparisons; it emits bit-identical
  /// formulas to the pre-incremental encoder.
  bool IncrementalRefinement = true;
  /// Conflict budget per solve (0 = unlimited).
  uint64_t SolveConflictBudget = 200000;
  uint64_t SolverSeed = 1;
  /// Race the fixed strategy portfolio (sat/SolverStrategy.h) on every
  /// solve episode that proves hard. Emitted programs are byte-identical
  /// with the portfolio on or off: member 0 is the unmodified baseline
  /// solver and helper racers only contribute Unsat proofs for episodes
  /// the baseline abandons at its conflict budget.
  bool Portfolio = false;
  /// Run one named solver configuration instead of the baseline (must be
  /// a name sat::findStrategy knows; validate before constructing the
  /// encoder). Unlike Portfolio this *does* change the program stream -
  /// it is an explicit opt-in. Ignored when Portfolio is set.
  std::string Strategy;
  /// Flight recorder for trace events and metrics; null (the default)
  /// disables instrumentation at the cost of one pointer check.
  obs::Recorder *Obs = nullptr;
  /// Memoized compatibility kernel consulted for the encoder's pair
  /// probes; null computes every probe directly (encoders built outside
  /// a driver, as in unit tests and micro benches). Every driver run
  /// chains a per-run cache onto the crate's shared per-slot matrix
  /// (core::CrateAnalysis). Cached and direct answers
  /// are identical by construction, so enumeration order does not depend
  /// on this setting.
  types::CompatCache *Compat = nullptr;
  /// Frozen per-crate API dependency graph consulted for producer ->
  /// consumer slot probes when GraphPrune is on; null always takes the
  /// Compat/direct fallback. The graph's edge set is by construction
  /// exactly the set of (producer, consumer, slot) triples whose
  /// unifiable2 probe succeeds (DESIGN.md 5g), so the graph and
  /// fallback arms return identical answers and enumeration order does
  /// not depend on this setting.
  const api::DependencyGraph *Graph = nullptr;
  /// Answer candidate probes with Graph's O(1) edge table instead of
  /// CompatCache lookups (--no-graph-prune is the escape hatch). Only
  /// the probe *mechanism* switches: program streams are byte-identical
  /// on/off; only throughput and the prune.* probe-split counters
  /// change. Dead-site elimination is structural and applies in both
  /// modes.
  bool GraphPrune = true;
  /// Coverage-guided episode bias (--bias-coverage): in interleaved mode
  /// the synthesizer replaces the round-robin length rotation with a
  /// weighted draw from its own deterministic Rng, weighting each live
  /// length by the new-edge yield the driver feeds back through
  /// Synthesizer::noteCoverage(). Unlike GraphPrune this deliberately
  /// *changes* the emitted stream; it stays deterministic per (seed,
  /// crate) because the bias Rng and the yield decay run on the
  /// simulated clock, never on host time or scheduling.
  bool BiasCoverage = false;
  /// Seed for the bias Rng (the driver passes the run seed). Separate
  /// from SolverSeed so biased scheduling never perturbs solver
  /// tie-breaking.
  uint64_t BiasSeed = 1;
  /// Invoked for every model the Rule 7 path post-check rejects (the
  /// encoder's final verdict on such programs is "reject"). The oracle
  /// replays these through the checker to audit the agreement of the
  /// filter itself; null skips the callback.
  std::function<void(const program::Program &)> OnPathFiltered;
  /// TESTING ONLY - the oracle's injected-bug canary: deliberately drop
  /// the Rule 5 consumption-kill cardinalities so the encoder emits
  /// use-after-move programs. The agreement oracle must catch and
  /// minimize the resulting Ownership disagreements.
  bool WeakenConsumptionKills = false;
};

/// Encoding-build pruning counters. Deterministic: pure functions of
/// the database snapshot and sync sequence, so campaign aggregation can
/// sum them in matrix order. The graph/fallback probe split depends on
/// the GraphPrune setting (that is the point of the A/B); the dead-site
/// numbers do not - elimination runs in both modes.
struct PruneStats {
  /// Probes answered by the dependency graph's edge table - each one a
  /// CompatCache lookup avoided.
  uint64_t GraphProbes = 0;
  /// Probes answered by the CompatCache / direct-unification fallback
  /// (graph off, no frozen producer, or a refinement-added API outside
  /// the frozen graph's node set).
  uint64_t FallbackProbes = 0;
  /// Call sites never materialized because an input slot had zero
  /// candidates (dead-API elimination).
  uint64_t DeadSites = 0;
  /// SAT variables (the A plus every probed U) dead sites would have
  /// allocated.
  uint64_t VarsAvoided = 0;
  /// Lower bound of clauses dead sites would have emitted (U=>A and
  /// U=>V per candidate plus per-slot cardinalities; joint-compat
  /// cross-products and semantic clauses are not counted).
  uint64_t ClausesAvoided = 0;
};

/// SAT encoding for one (API database snapshot, program length) pair.
class Encoding {
public:
  Encoding(types::TypeArena &Arena, const types::TraitEnv &Traits,
           const api::ApiDatabase &Db,
           const std::vector<program::TemplateInput> &Inputs, int NumLines,
           const SynthOptions &Opts);

  /// Finds the next not-yet-blocked model. Returns false when the space is
  /// exhausted (or the budget was hit; see budgetExhausted()).
  bool nextModel();

  /// True when the last nextModel() failure was a solver budget stop, not
  /// a real UNSAT.
  bool budgetExhausted() const { return Solver.budgetExhausted(); }

  /// Decodes the current model into a program with predicted declared
  /// types (the codeGen step of Algorithm 1).
  program::Program decode() const;

  /// Blocks the current model's program so enumeration advances.
  void blockCurrent();

  /// Absorbs a database refinement into the live encoding, blocking a
  /// still-pending current model first. Newly banned APIs get root units
  /// on their call sites; newly active APIs are appended and synced under
  /// a fresh generation; a change that adds no API adds only its ban
  /// units and combo clauses. Returns false - leaving the encoding
  /// untouched - only when incremental refinement is disabled; the caller
  /// must then rebuild from scratch.
  bool extendForDatabaseChange();

  /// Rule 7 path check, run as post-processing (Section 4.4.3): verifies
  /// no variable is used after a root owner on its lifetime path has been
  /// consumed. Exposed statically so tests can target it directly.
  static bool pathCheckOk(const program::Program &P,
                          const api::ApiDatabase &Db,
                          const types::TraitEnv &Traits);

  size_t numSatVars() const { return static_cast<size_t>(Solver.numVars()); }
  const sat::SolverStats &solverStats() const { return Solver.stats(); }
  /// Deterministic portfolio race counters (all zero when the portfolio
  /// is off).
  const sat::PortfolioStats &portfolioStats() const {
    return Solver.portfolioStats();
  }
  /// Pruning counters accumulated over every sync of this encoding.
  const PruneStats &pruneStats() const { return Prune; }

private:
  /// Index sentinel: no row or type index (yet).
  static constexpr uint32_t NoIndex = UINT32_MAX;

  /// One (variable, encoder-type) candidate for an input slot.
  struct Candidate {
    program::VarId Var;
    /// The row of (Var, Ty) in the (variable, type) table.
    uint32_t Row;
    const types::Type *Ty;
    /// At a builtin site, the output type this argument yields
    /// (builtinOutput) and the row of (line output, Out); null and NoIndex
    /// at a library API's site.
    const types::Type *Out = nullptr;
    uint32_t OutRow = NoIndex;
    sat::Var U = sat::VarUndef;
    /// The sync that added the candidate.
    unsigned Born = 0;
  };

  /// Per (line, api) call-site encoding. A stays VarUndef - and Slots
  /// stays empty - for a *dead* site: one whose required input slot had
  /// zero candidates at every sync so far, eliminated before any of its
  /// variables or clauses reach the solver. A later sync that makes
  /// every slot fillable materializes it from scratch.
  struct CallSite {
    sat::Var A = sat::VarUndef;
    /// The sync that materialized the site (meaningless while dead).
    unsigned Born = 0;
    /// Candidates per input slot. A sync appends the candidates it adds,
    /// so the new ones of a slot are its suffix.
    std::vector<std::vector<Candidate>> Slots;
  };

  /// One possible encoder-level type of a variable, as listed by the
  /// current sync's type universe.
  struct VarType {
    const types::Type *Ty;
    /// The non-builtin API whose renamed output the type is (the first
    /// producer when several share an interned output - any of them
    /// keys the same graph row answer), or ApiIdInvalid for template
    /// inputs and builtin-derived types, which take the fallback probe
    /// arm.
    api::ApiId Producer;
    /// The pair's row in the (variable, type) table.
    uint32_t Row;
  };

  /// Facts about one interned encoder-level type, computed once per
  /// encoding. Reached through TypeIds, which is never iterated.
  struct TypeFacts {
    const types::Type *Ty;
    /// Traits.isCopy(Ty) once known (-1 before): the move semantics of
    /// every use of the type.
    int8_t Copy = -1;
    /// The indices of &Ty and &mut Ty (the borrow builtins' outputs), or
    /// NoIndex before first use.
    uint32_t SharedRef = NoIndex;
    uint32_t MutRef = NoIndex;
    /// The last dedup pass (MarkEpoch) that listed the type.
    unsigned Mark = 0;
    /// Per variable, the row of (variable, Ty), or NoIndex.
    std::vector<uint32_t> RowOf;
  };

  /// One (variable, type) pair the type universe has ever listed. Rows
  /// only append: a pair never leaves the universe.
  struct TypeRow {
    /// Index into Types.
    uint32_t TyId;
    /// The sync that first made the pair possible.
    unsigned Born;
    /// The last sync whose type universe listed the pair, and where in
    /// VarTypes[variable] it put it.
    unsigned Listed = 0;
    uint32_t Pos = 0;
  };

  /// One use of a variable: candidate C of slot J at the site of
  /// Active[Kk] on line Line.
  struct Use {
    int Line;
    uint32_t Kk;
    uint32_t J;
    const Candidate *C;
  };

  /// Uses grouped by a dense key, each group in the order the call sites
  /// are walked: (line, site, slot, candidate).
  struct UseGroups {
    std::vector<Use> All;
    /// Group K is All[Start[K] .. Start[K + 1]).
    std::vector<uint32_t> Start;
    std::span<const Use> operator[](size_t K) const {
      return {All.data() + Start[K], All.data() + Start[K + 1]};
    }
  };

  /// The index of one sync's candidate uses, built once its call sites
  /// are final and dropped when it ends. The build functions read the
  /// uses of a variable or of a (variable, type) here instead of scanning
  /// every site.
  struct UseIndex {
    size_t NumVars = 0;
    /// Key Line * NumVars + Var.
    UseGroups ByVar;
    /// Key: the (variable, type) row.
    UseGroups ByRow;
    /// Line \p I's uses of variable \p X, in (site, slot, candidate)
    /// order.
    std::span<const Use> ofVar(int I, program::VarId X) const {
      return ByVar[static_cast<size_t>(I) * NumVars + static_cast<size_t>(X)];
    }
    /// Row \p R's uses, in (line, site, slot, candidate) order.
    std::span<const Use> ofRow(uint32_t R) const { return ByRow[R]; }
  };

  /// The index of the site the current model chooses on a line: the one
  /// whose A is true (exactly one is).
  size_t chosenSite(const std::vector<CallSite> &LineSites) const;
  /// The V variable of \p Row on \p Line, allocated on first request.
  sat::Var getV(uint32_t Row, int Line);
  /// The index of \p Ty in Types, registered on first request.
  uint32_t typeId(const types::Type *Ty);
  /// The row of (\p X, \p Ty), which the type universe listed.
  uint32_t rowOf(program::VarId X, const types::Type *Ty);
  bool isEncoded(api::ApiId Id) const;

  /// True when the candidate, call site or (variable, type) row was added
  /// by the current sync.
  template <typename Fact> bool isNew(const Fact &F) const {
    return F.Born == Sync;
  }
  bool isNew(const VarType &VT) const { return isNew(Rows[VT.Row]); }
  /// The output type a builtin derives from its argument type (null for
  /// library APIs): the type universe, candidate creation and decode
  /// all derive it here.
  const types::Type *builtinOutput(api::BuiltinKind B,
                                   const types::Type *Arg) const;
  /// builtinOutput on type indices (B is a builtin), memoized in the
  /// argument's facts: the arena renders and hashes each borrow output
  /// once per encoding, not once per line and sync.
  uint32_t builtinOutput(api::BuiltinKind B, uint32_t ArgId);
  /// Traits.isCopy of Types[Id], asked once per encoding.
  bool isCopy(uint32_t Id);
  /// The two probe arms behind one face (identical answers each):
  /// pair compatibility via cache or direct unification...
  bool probeUnifiable2(const types::Type *Ty,
                       const types::Type *Pattern) const;
  /// ...and the candidate probe "can (X typed Ty, produced by Producer)
  /// feed slot J of site Kk", answered by the dependency graph's edge
  /// table when GraphPrune covers the triple and by probeUnifiable2 otherwise.
  bool probeFeeds(api::ApiId Producer, const types::Type *Ty, size_t Kk,
                  size_t J);
  /// Adds a closure-sensitive clause under the current generation guard
  /// (plain clause when guards are off).
  void addGuarded(std::vector<sat::Lit> Lits);

  /// Unified build/extend: the initial build and every extension that
  /// adds APIs run the same sync, which emits the clauses its new facts
  /// need (the first sync finds every fact new).
  void sync();
  /// Root units ~A on every materialized site of each encoded API the
  /// database banned since the last call.
  void buildBans();
  void buildTypeUniverse();
  void buildCallSites();
  /// Indexes the candidate uses of the current call sites.
  UseIndex indexUses() const;
  void buildContextConstraints();
  void buildSemanticConstraints(const UseIndex &Index);
  void buildRedundancyConstraints(const UseIndex &Index);
  void buildBlockedCombos();

  types::TypeArena &Arena;
  const types::TraitEnv &Traits;
  const api::ApiDatabase &Db;
  std::vector<program::TemplateInput> Inputs;
  int NumLines;
  SynthOptions Opts;

  /// The encoded APIs, in encoding order: every API active at some sync,
  /// banned ones included. Syncs only append, so positions are stable.
  std::vector<api::ApiId> Active;
  /// Per ApiId: nonzero once the API is in Active.
  std::vector<char> IsEncoded;
  /// Per position in Active: nonzero once the API's ban units are in.
  /// A banned site never grows or revives.
  std::vector<char> Banned;
  /// Renamed signatures indexed by position in Active.
  std::vector<std::vector<const types::Type *>> RenIn;
  std::vector<const types::Type *> RenOut;

  /// Every encoder-level type seen so far, and its index in Types.
  std::vector<TypeFacts> Types;
  std::unordered_map<const types::Type *, uint32_t> TypeIds;
  /// Advanced by each dedup pass over types (TypeFacts::Mark).
  unsigned MarkEpoch = 0;

  /// The (variable, type) table: one row per pair, and per row the V
  /// variable of each line 0..NumLines at VTable[Row * (NumLines + 1) +
  /// Line], VarUndef until first requested.
  std::vector<TypeRow> Rows;
  std::vector<sat::Var> VTable;

  /// Possible encoder-level types of each variable, listed again by every
  /// sync. Template variables have exactly one; line outputs one per
  /// producible type. A new type can land among old ones, so a pair's
  /// birth is read off its row, never off its position.
  std::vector<std::vector<VarType>> VarTypes;

  /// CallSites[i][k] for line i, Active[k].
  std::vector<std::vector<CallSite>> Sites;

  /// Number of the current sync. Each sync() and each ban- or
  /// combo-only extend advances it, so nothing older counts as new.
  unsigned Sync = 0;

  /// Generation guard: closure-sensitive clauses carry ~Gen, solving
  /// assumes Gen. VarUndef when incremental refinement is off.
  sat::Var Gen = sat::VarUndef;

  /// Aux vars of already-emitted blocked-combo clauses, keyed by (line,
  /// api, type tuple), so extensions can wire new candidates into the
  /// existing clause instead of under-blocking.
  std::map<std::tuple<int, api::ApiId, std::vector<const types::Type *>>,
           std::vector<sat::Var>>
      ComboAux;

  mutable sat::Portfolio Solver;
  size_t TotalCandidates = 0;
  PruneStats Prune;
  bool HasModel = false;
};

} // namespace syrust::synth

#endif // SYRUST_SYNTH_ENCODING_H
