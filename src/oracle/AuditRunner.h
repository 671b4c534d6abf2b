//===--- AuditRunner.h - Campaign-style audit fan-out ----------*- C++ -*-===//
//
// Part of SyRust-CPP (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Fans an agreement-oracle matrix - every named crate × every seed in
/// an inclusive range - across the campaign engine's work-stealing pool
/// (campaign::runJobPool in campaign/CampaignRunner.h), with the same
/// matrix checks and the same matrix-order merges, so the aggregate
/// audit document is byte-identical for any `--jobs` count. Audit
/// workers record counters only; nothing reads a trace of an audit. The
/// document (schema_version 5, kind "audit") carries per-job
/// classification counts, every minimized repro, per-crate api_coverage,
/// and the jobs' `oracle.*` counters summed in matrix order - and
/// deliberately nothing scheduling-dependent.
///
//===----------------------------------------------------------------------===//

#ifndef SYRUST_ORACLE_AUDITRUNNER_H
#define SYRUST_ORACLE_AUDITRUNNER_H

#include "campaign/Campaign.h"
#include "oracle/Oracle.h"
#include "support/Json.h"

#include <functional>
#include <map>
#include <string>
#include <vector>

namespace syrust::oracle {

/// The audit matrix: every cell of the MatrixSpec, all sharing one base
/// OracleConfig (each job overrides `Run.Seed`).
struct AuditSpec : campaign::MatrixSpec {
  /// Configuration every job starts from.
  OracleConfig Base;

  /// Checks the matrix against \p S and the base config against its
  /// domains. Returns one specific message per problem; empty =
  /// runnable.
  std::vector<std::string> validate(const core::Session &S) const;
};

/// One cell of the matrix, fully resolved.
struct AuditJob {
  size_t Index = 0; ///< Position in matrix order (the merge key).
  std::string Crate;
  uint64_t Seed = 0;
  OracleConfig Config;
};

/// A finished cell.
struct AuditJobResult {
  AuditJob Job;
  AuditResult Result;
  /// The metric counters this job registered, by name.
  std::map<std::string, uint64_t> Counters;
};

/// Everything an audit run produces.
struct AuditRunResult {
  std::vector<AuditJobResult> Jobs; ///< Matrix order.
  /// Audit-wide sums, accumulated in matrix order.
  AuditCounts Totals;
  /// Every job's metric counters summed in matrix order, so these
  /// totals are identical for any worker count.
  std::map<std::string, uint64_t> MergedCounters;
  /// Per-crate API-pair coverage of the audited streams, OR-merged
  /// across seeds in matrix order. One entry per AuditSpec::Crates name.
  campaign::CrateCoverage ApiCoverage;

  /// The audit's pass/fail verdict: any unexpected disagreement
  /// anywhere in the matrix fails (`syrust audit` exits nonzero).
  bool clean() const { return Totals.UnexpectedTotal == 0; }
};

/// Lays out the matrix in deterministic order: crates outermost (in the
/// given order), then seeds ascending.
std::vector<AuditJob> expandAuditMatrix(const AuditSpec &Spec);

/// Runs the matrix across \p Spec.Jobs workers. \p OnJobDone, when set,
/// fires under a lock as each job finishes (progress reporting; the
/// callback order is scheduling-dependent, the returned result is not).
/// Precondition: Spec.validate(S) is empty.
AuditRunResult
runAudit(const core::Session &S, const AuditSpec &Spec,
         std::function<void(const AuditJobResult &)> OnJobDone = nullptr);

/// The aggregate audit document (schema_version 5, kind "audit").
/// Matrix, per-job classification counts and minimized repros in matrix
/// order, totals, per-crate api_coverage, and the merged `oracle.*`
/// counters - and nothing scheduling-dependent, so the document is
/// byte-identical for any worker count.
json::Value auditToJson(const AuditSpec &Spec, const AuditRunResult &R);

} // namespace syrust::oracle

#endif // SYRUST_ORACLE_AUDITRUNNER_H
