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

/// The (crate × seed) matrix shape campaigns and audits share: every
/// named crate × every seed in [SeedBegin, SeedEnd], fanned across Jobs
/// workers of runJobPool (CampaignRunner.h).
struct MatrixSpec {
  /// Crate names (the CLI's `--crates`; Session::supportedCrates() is
  /// the `all` expansion).
  std::vector<std::string> Crates;

  /// Inclusive seed range (`--seeds N..M`; a single seed is N..N).
  uint64_t SeedBegin = 2021;
  uint64_t SeedEnd = 2021;

  /// Pool width (`--jobs`). 1 runs the whole matrix on the calling
  /// thread — through the same code path, so results are identical.
  int Jobs = 1;

  /// The most cells one matrix may hold (a campaign's cell is one (crate,
  /// seed, variant) job): each is laid out, and its result kept, until
  /// the aggregate is written. `campaign --crates all --jobs 1` peaked at
  /// 180-200 KB a finished cell (103.5 MB for 560 cells and 303.8 MB for
  /// 1,680 at `--budget 60`), so the cap keeps a matrix near 1.6 GB, a
  /// tenth of a 16 GB host, at 41 times CI's largest matrix (196 cells).
  static constexpr uint64_t MaxCells = 8192;

  /// Every crate × every seed × \p PerCell (a campaign's variants),
  /// counted without expanding anything; saturates at UINT64_MAX.
  uint64_t cellCount(uint64_t PerCell = 1) const;

  /// Checks the crates against \p S, the seed range, the pool width and
  /// cellCount(\p PerCell) against MaxCells. Returns one specific message
  /// per problem, each naming \p Owner (the spec type, e.g.
  /// "CampaignSpec"); empty = runnable.
  std::vector<std::string> validateMatrix(const core::Session &S,
                                          const std::string &Owner,
                                          uint64_t PerCell = 1) const;

  /// Calls \p Cell(Crate, Seed) for every cell in matrix order: crates
  /// outermost (in the given order), then seeds ascending.
  template <typename Fn> void forEachCell(Fn &&Cell) const {
    for (const std::string &Crate : Crates)
      for (uint64_t Seed = SeedBegin; Seed <= SeedEnd; ++Seed) {
        Cell(Crate, Seed);
        if (Seed == UINT64_MAX)
          break; // Seed + 1 would wrap.
      }
  }
};

/// The job matrix: every cell of the MatrixSpec × every named variant,
/// all sharing one base RunConfig.
struct CampaignSpec : MatrixSpec {
  /// Named RunConfig transformations; see applyVariant() for the
  /// vocabulary. "base" is the identity.
  std::vector<std::string> Variants = {"base"};

  /// Configuration every job starts from (each job then overrides Seed
  /// and applies its variant).
  core::RunConfig Base;

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
  /// The metric counters this job registered, by name: its share of the
  /// aggregate's `metrics` section and what its checkpoint line records.
  std::map<std::string, uint64_t> Counters;
  /// Which pool worker ran it (-1 for a cell preloaded from a
  /// checkpoint). Diagnostic only — never serialized into the aggregate
  /// document, which must not depend on scheduling.
  int Worker = -1;
};

/// Per-crate API-pair coverage of a matrix: one entry per MatrixSpec::Crates
/// name, same order.
using CrateCoverage =
    std::vector<std::pair<std::string, coverage::ApiCoverageData>>;

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
  /// Every job's metric counters summed in matrix order (addJobCounters),
  /// so these per-stage totals are identical for any worker count and
  /// wherever a resume split the matrix.
  std::map<std::string, uint64_t> MergedCounters;
  /// Multi-lane Chrome trace (one `tid` per worker, lanes named
  /// "worker-N"); empty unless CampaignSpec::Trace.
  std::string MergedTraceJson;
  /// Per-crate API-pair coverage, OR-merged across the crate's jobs in
  /// matrix order (bitset OR commutes, so this too is identical for any
  /// worker count). One entry per CampaignSpec::Crates name, same order.
  CrateCoverage ApiCoverage;
  /// Workers the pool actually spawned (diagnostic only).
  int Workers = 0;
};

/// Applies a named variant to \p Config. The vocabulary is one table in
/// Campaign.cpp, which the unknown-variant message of
/// CampaignSpec::validate() lists too. Returns false for an unknown
/// name.
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

/// OR-merges the API-pair coverage of finished matrix jobs (anything with
/// `Job.Crate` and `Result.ApiCoverage`) into one slot per name in
/// \p Crates, walking \p Jobs in matrix order. A merge that discards
/// covered bits (ApiCoverageData::mergeFrom) counts in
/// `coverage.api.merge_conflicts` of \p Counters, added only when
/// nonzero so clean aggregates keep their exact key set.
template <typename JobResult>
CrateCoverage mergeApiCoverage(const std::vector<std::string> &Crates,
                               const std::vector<JobResult> &Jobs,
                               std::map<std::string, uint64_t> &Counters) {
  CrateCoverage Merged;
  for (const std::string &Crate : Crates)
    Merged.emplace_back(Crate, coverage::ApiCoverageData());
  uint64_t Conflicts = 0;
  for (const JobResult &JR : Jobs)
    for (auto &[Crate, Data] : Merged)
      if (Crate == JR.Job.Crate) {
        if (Data.mergeFrom(JR.Result.ApiCoverage))
          ++Conflicts;
        break;
      }
  if (Conflicts)
    Counters["coverage.api.merge_conflicts"] += Conflicts;
  return Merged;
}

/// Adds the counters of every finished matrix job (anything with a
/// `Counters` map) into \p Into, walking \p Jobs in matrix order. A key
/// appears when some job registered it, even at zero.
template <typename JobResult>
void addJobCounters(const std::vector<JobResult> &Jobs,
                    std::map<std::string, uint64_t> &Into) {
  for (const JobResult &JR : Jobs)
    for (const auto &[Name, N] : JR.Counters)
      Into[Name] += N;
}

/// Sets the two sections every aggregate document ends with: the
/// per-crate `api_coverage` array and the merged `metrics` counters
/// (std::map: sorted, deterministic).
void setMergedSections(json::Value &Root, const CrateCoverage &ApiCoverage,
                       const std::map<std::string, uint64_t> &Counters);

} // namespace syrust::campaign

#endif // SYRUST_CAMPAIGN_CAMPAIGN_H
