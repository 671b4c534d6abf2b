//===--- Oracle.h - Encoder/checker agreement oracle -----------*- C++ -*-===//
//
// Part of SyRust-CPP (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The differential agreement oracle behind `syrust audit`. Figure 6's
/// headline claim - semantic-aware synthesis keeps the compiler-rejection
/// rate under 1%, with the residue concentrated in categories the
/// refinement loop is *designed* to learn from - is only trustworthy if
/// the SAT encoding and the semantic checker agree about Rust. This
/// module turns that agreement into a checkable invariant, Csmith-style:
/// replay every model the encoder emits AND every model its Rule-7 path
/// filter rejects through rustsim::Checker, classify each outcome, and
/// delta-debug every unexpected disagreement down to a minimal repro.
///
/// The disagreement taxonomy (see DESIGN.md "The agreement oracle"):
///
///   * agree_pass - emitted, checker accepts. The common case.
///   * agree_reject - path-filtered, checker rejects. The filter did its
///     job.
///   * expected - emitted, checker rejects with a detail the encoder
///     cannot see by design (trait bounds, polymorphism resolution,
///     defaulted type parameters, anonymous lifetimes, collector skew:
///     arity / method resolution). These are the paper's refinement
///     feedback diet, not bugs.
///   * UNEXPECTED - emitted, checker rejects with Ownership, Borrowing,
///     or TypeMismatch. Rules 1-9 claim to encode exactly these, so any
///     such rejection is an encoder or checker bug. The oracle shrinks
///     each one to a minimal program and `syrust audit` exits nonzero.
///   * filtered_compilable - path-filtered, checker accepts.
///     Informational: the filter was too strict (lost coverage, not
///     unsoundness), counted but never fatal.
///
/// Audits replay a run's exact enumeration: an OracleConfig holds the
/// core::RunConfig of the run it audits, and the audit builds from it
/// the same core::RunSetup Session::runOne builds (same RNG seeding, same
/// API subset, same refinement engine) and feeds refinement back the
/// same way, so the streams examined are the streams real runs emit -
/// capped by model count, not simulated time, so a report is
/// byte-identical for any scheduling.
///
//===----------------------------------------------------------------------===//

#ifndef SYRUST_ORACLE_ORACLE_H
#define SYRUST_ORACLE_ORACLE_H

#include "core/Session.h"
#include "coverage/ApiPairCoverage.h"
#include "program/Program.h"
#include "rustsim/Diagnostic.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace syrust::oracle {

/// Configuration for one (crate, seed) audit: the run it replays and what
/// an audit adds. Audits have no simulated clock, no execution stage and
/// no line/branch coverage - only enumeration and checking (API-pair
/// coverage over the dependency graph is tracked, since it needs only
/// the emitted stream) - so of Run only the settings core::RunSetup reads
/// matter, and each means what it means for a run.
struct OracleConfig {
  /// The run whose enumeration the audit replays (AuditJob overrides
  /// Run.Seed per cell).
  core::RunConfig Run;
  /// The audit's length cap and its canary, passed to core::RunSetup.
  core::AuditOptions Audit;
  /// Models replayed per audit (emitted + path-filtered). The cap is on
  /// examined models, never on host time, so reports are deterministic.
  uint64_t MaxModels = 2000;

  /// Run.validate() plus one specific message per invalid audit field;
  /// empty when runnable.
  std::vector<std::string> validate() const;
};

/// How one replayed model relates the encoder's verdict to the checker's.
enum class AgreementClass : uint8_t {
  AgreePass,
  AgreeReject,
  Expected,
  Unexpected,
  FilteredCompilable,
};

/// True for checker rejections of *emitted* programs the encoder cannot
/// see by design (the refinement feedback diet); false for the
/// Ownership/Borrowing/TypeMismatch details Rules 1-9 claim to encode.
bool isExpectedDetail(rustsim::ErrorDetail Detail);

/// One unexpected disagreement, with its delta-debugged minimal repro.
struct Disagreement {
  rustsim::ErrorDetail Detail = rustsim::ErrorDetail::None;
  std::string Message; ///< Checker message on the original program.
  int Lines = 0;
  std::string Source; ///< Rendered original program.
  int MinimizedLines = 0;
  std::string MinimizedSource;
  uint64_t MinimizerSteps = 0; ///< Candidate checks the shrink cost.
};

/// The classification counts of one audit, or of a whole matrix
/// (AuditRunResult::Totals sums its jobs with +=).
struct AuditCounts {
  uint64_t ModelsReplayed = 0;
  uint64_t AgreePass = 0;
  uint64_t AgreeReject = 0;
  uint64_t ExpectedTotal = 0;
  uint64_t UnexpectedTotal = 0;
  uint64_t FilteredCompilable = 0;
  uint64_t MinimizerSteps = 0;
  /// Expected disagreements by checker detail (the refinement diet's
  /// composition; std::map so serialization order is deterministic).
  std::map<rustsim::ErrorDetail, uint64_t> Expected;

  AuditCounts &operator+=(const AuditCounts &Other);
};

/// Everything one (crate, seed) audit produces. Deliberately free of
/// host wall time and scheduling artifacts.
struct AuditResult : AuditCounts {
  std::string Crate;
  uint64_t Seed = 0;
  bool Supported = true;
  /// Minimized repro per unexpected disagreement, in emission order.
  std::vector<Disagreement> Unexpected;
  /// API-pair coverage of the audited (emitted) stream over the crate's
  /// dependency graph. No simulated clock here, so no snapshots and no
  /// saturation - bitsets and totals only.
  coverage::ApiCoverageData ApiCoverage;
};

/// Outcome of shrinking one disagreeing program.
struct MinimizedDisagreement {
  program::Program Program;
  uint64_t Steps = 0; ///< Candidate checks performed.
};

/// Delta-debugs \p P down to a minimal program that still makes the
/// checker reject with exactly \p Detail: program::shrink with both of
/// its moves, statement drops and argument rewiring. Precondition: the
/// checker rejects \p P with \p Detail.
MinimizedDisagreement minimizeDisagreement(types::TypeArena &Arena,
                                           const types::TraitEnv &Traits,
                                           const api::ApiDatabase &Db,
                                           const program::Program &P,
                                           rustsim::ErrorDetail Detail);

/// Replays one (crate, seed) enumeration through the checker. Builds the
/// core::RunSetup Session::runOne builds - same RNG seeding, same API
/// subset selection, same refinement engine, synthesizer and checker -
/// and feeds refinement back the same way, so the audited stream is the
/// stream a real run emits.
/// \p Obs, when set, receives the `oracle.*` counters and per-model
/// trace events.
AuditResult auditOne(const core::Session &S, const std::string &CrateName,
                     const OracleConfig &Config,
                     obs::Recorder *Obs = nullptr);

} // namespace syrust::oracle

#endif // SYRUST_ORACLE_ORACLE_H
