//===--- Campaign.h - Multi-run campaign specification ---------*- C++ -*-===//
//
// Part of SyRust-CPP (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper evaluated SyRust with 10-hour campaigns per library fanned
/// across a 64-container cluster (Section 6.2). This module reproduces
/// that shape on one machine: a CampaignSpec names a matrix of
/// `(crate, seed, variant)` jobs, expandMatrix() lays them out in a
/// deterministic order, and CampaignRunner (CampaignRunner.h) fans them
/// across a work-stealing thread pool.
///
/// Everything downstream of the matrix order is deterministic: jobs are
/// merged, totalled, and serialized in matrix order regardless of which
/// worker finished them first, so the aggregate JSON is byte-identical
/// for any `--jobs` count.
///
//===----------------------------------------------------------------------===//

#ifndef SYRUST_CAMPAIGN_CAMPAIGN_H
#define SYRUST_CAMPAIGN_CAMPAIGN_H

#include "core/Session.h"
#include "coverage/ApiPairCoverage.h"
#include "support/Json.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace syrust::campaign {

/// The job matrix: every named crate × every seed in [SeedBegin,
/// SeedEnd] × every named variant, all sharing one base RunConfig.
struct CampaignSpec {
  /// Crate names (the CLI's `--crates`; Session::supportedCrates() is
  /// the `all` expansion).
  std::vector<std::string> Crates;

  /// Inclusive seed range (`--seeds N..M`; a single seed is N..N).
  uint64_t SeedBegin = 2021;
  uint64_t SeedEnd = 2021;

  /// Named RunConfig transformations; see applyVariant() for the
  /// vocabulary. "base" is the identity.
  std::vector<std::string> Variants = {"base"};

  /// Configuration every job starts from (each job then overrides Seed
  /// and applies its variant).
  core::RunConfig Base;

  /// Pool width (`--jobs`). 1 runs the whole matrix on the calling
  /// thread — through the same code path, so results are identical.
  int Jobs = 1;

  /// Record per-worker flight-recorder traces and merge them into one
  /// multi-lane Chrome trace (CampaignResult::MergedTraceJson).
  bool Trace = false;

  /// Checks the matrix against \p S and the base config against its
  /// domains. Returns one specific message per problem; empty = runnable.
  std::vector<std::string> validate(const core::Session &S) const;
};

/// One cell of the matrix, fully resolved.
struct CampaignJob {
  size_t Index = 0; ///< Position in matrix order (the merge key).
  std::string Crate;
  uint64_t Seed = 0;
  std::string Variant;
  core::RunConfig Config;
};

/// A finished cell.
struct CampaignJobResult {
  CampaignJob Job;
  core::RunResult Result;
  /// Which pool worker ran it. Diagnostic only — never serialized into
  /// the aggregate document, which must not depend on scheduling.
  int Worker = -1;
};

/// Campaign-wide sums, accumulated in matrix order.
struct CampaignTotals {
  uint64_t Synthesized = 0;
  uint64_t Rejected = 0;
  uint64_t Executed = 0;
  uint64_t UbCount = 0;
  uint64_t BugsFound = 0;
  double SimSeconds = 0;
  std::map<rustsim::ErrorCategory, uint64_t> ByCategory;
};

/// Everything a campaign produces.
struct CampaignResult {
  std::vector<CampaignJobResult> Jobs; ///< Matrix order.
  CampaignTotals Totals;
  /// Final per-worker metric counters summed across the pool. Integer
  /// sums commute, so these per-stage totals are identical for any
  /// worker count.
  std::map<std::string, uint64_t> MergedCounters;
  /// Multi-lane Chrome trace (one `tid` per worker, lanes named
  /// "worker-N"); empty unless CampaignSpec::Trace.
  std::string MergedTraceJson;
  /// Per-crate API-pair coverage, OR-merged across the crate's jobs in
  /// matrix order (bitset OR commutes, so this too is identical for any
  /// worker count). One entry per CampaignSpec::Crates name, same order.
  std::vector<std::pair<std::string, coverage::ApiCoverageData>> ApiCoverage;
  /// Workers the pool actually spawned (diagnostic only).
  int Workers = 0;
};

/// Applies a named variant to \p Config. Vocabulary: "base" (identity),
/// "no-semantic", "eager", "lazy", "interleave", "mutate-inputs",
/// "no-incremental", "portfolio", "no-graph-prune", "coverage-bias"
/// (forces InterleaveLengths; the only variant that changes the emitted
/// program stream by design).
/// Returns false for an unknown name.
bool applyVariant(const std::string &Name, core::RunConfig &Config);

/// Lays out the matrix in deterministic order: crates outermost (in the
/// given order), then seeds ascending, then variants in the given order.
std::vector<CampaignJob> expandMatrix(const CampaignSpec &Spec);

/// The aggregate campaign document (schema_version 5, kind "campaign").
/// Contains the matrix, every per-job result in matrix order, campaign
/// totals, per-crate api_coverage, and the merged per-stage metric
/// counters — and deliberately nothing scheduling-dependent, so the
/// document is byte-identical for any worker count.
json::Value campaignToJson(const CampaignSpec &Spec,
                           const CampaignResult &R);

/// Merges per-worker tracers into one Chrome trace-event document with a
/// named lane per worker, in worker-id order.
std::string mergeWorkerTraces(const std::vector<const obs::Tracer *> &Lanes);

} // namespace syrust::campaign

#endif // SYRUST_CAMPAIGN_CAMPAIGN_H
