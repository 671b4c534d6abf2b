//===--- Campaign.cpp - Multi-run campaign specification ------------------===//
//
// Part of SyRust-CPP (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//

#include "campaign/Campaign.h"

#include "core/ResultJson.h"

#include <set>

using namespace syrust;
using namespace syrust::campaign;
using namespace syrust::core;
using namespace syrust::json;

namespace {

using refine::RefinementMode;

/// The campaign variant vocabulary, in the order the unknown-variant
/// message lists it. no-semantic is RQ2, eager RQ3, interleave Section
/// 7.4.3 and mutate-inputs 7.4.2; coverage-bias changes the emitted
/// stream by design (DESIGN.md 5h) and forces interleaving, the only
/// mode its biased leg exists in.
const struct {
  const char *Name;
  void (*Apply)(RunConfig &);
} VariantTable[] = {
    {"base", [](RunConfig &) {}},
    {"no-semantic", [](RunConfig &C) { C.SemanticAware = false; }},
    {"eager", [](RunConfig &C) { C.Mode = RefinementMode::PurelyEager; }},
    {"lazy", [](RunConfig &C) { C.Mode = RefinementMode::PurelyLazy; }},
    {"interleave", [](RunConfig &C) { C.InterleaveLengths = true; }},
    {"mutate-inputs", [](RunConfig &C) { C.MutateInputs = true; }},
    {"no-incremental", [](RunConfig &C) { C.IncrementalRefinement = false; }},
    {"portfolio", [](RunConfig &C) { C.Portfolio = true; }},
    {"no-graph-prune", [](RunConfig &C) { C.GraphPrune = false; }},
    {"coverage-bias",
     [](RunConfig &C) { C.BiasCoverage = C.InterleaveLengths = true; }},
};

} // namespace

bool syrust::campaign::applyVariant(const std::string &Name,
                                    RunConfig &Config) {
  for (const auto &V : VariantTable)
    if (Name == V.Name) {
      V.Apply(Config);
      return true;
    }
  return false;
}

uint64_t MatrixSpec::cellCount(uint64_t PerCell) const {
  if (SeedEnd < SeedBegin)
    return 0;
  // The full 64-bit range has one seed more than a uint64_t holds.
  uint64_t Seeds = SeedEnd - SeedBegin, Cells;
  if (Seeds == UINT64_MAX ||
      __builtin_mul_overflow(Crates.size(), Seeds + 1, &Cells) ||
      __builtin_mul_overflow(Cells, PerCell, &Cells))
    return UINT64_MAX;
  return Cells;
}

std::vector<std::string>
MatrixSpec::validateMatrix(const Session &S, const std::string &Owner,
                           uint64_t PerCell) const {
  std::vector<std::string> Errors;
  if (Crates.empty())
    Errors.push_back(Owner + ".Crates must name at least one crate");
  std::set<std::string> Seen;
  for (const std::string &Name : Crates) {
    if (!Seen.insert(Name).second)
      Errors.push_back(Owner + ".Crates lists '" + Name +
                       "' more than once");
    else if (!S.find(Name))
      Errors.push_back(Owner + ".Crates names unknown crate '" + Name +
                       "'; try `syrust list`");
  }
  if (SeedEnd < SeedBegin)
    Errors.push_back(Owner + " seed range is empty: SeedEnd " +
                     std::to_string(SeedEnd) + " < SeedBegin " +
                     std::to_string(SeedBegin));
  if (Jobs < 1)
    Errors.push_back(Owner + ".Jobs must be at least 1, got " +
                     std::to_string(Jobs));
  const uint64_t N = cellCount(PerCell);
  if (N > MaxCells)
    Errors.push_back(Owner + " matrix has " + std::to_string(N) +
                     " cells, more than the cap of " +
                     std::to_string(MaxCells));
  return Errors;
}

std::vector<std::string>
CampaignSpec::validate(const Session &S) const {
  std::vector<std::string> Errors =
      validateMatrix(S, "CampaignSpec", Variants.size());
  if (Variants.empty())
    Errors.push_back(
        "CampaignSpec.Variants must name at least one variant");
  std::string Known;
  for (const auto &V : VariantTable)
    Known += (Known.empty() ? "" : ", ") + std::string(V.Name);
  std::set<std::string> Seen;
  for (const std::string &V : Variants) {
    RunConfig Probe;
    if (!Seen.insert(V).second)
      Errors.push_back("CampaignSpec.Variants lists '" + V +
                       "' more than once");
    else if (!applyVariant(V, Probe))
      Errors.push_back("CampaignSpec.Variants names unknown variant '" +
                       V + "'; known: " + Known);
  }
  std::vector<std::string> BaseErrors = Base.validate();
  Errors.insert(Errors.end(), BaseErrors.begin(), BaseErrors.end());
  return Errors;
}

std::vector<CampaignJob>
syrust::campaign::expandMatrix(const CampaignSpec &Spec) {
  std::vector<CampaignJob> Jobs;
  Spec.forEachCell([&](const std::string &Crate, uint64_t Seed) {
    for (const std::string &Variant : Spec.Variants) {
      CampaignJob Job;
      Job.Index = Jobs.size();
      Job.Crate = Crate;
      Job.Seed = Seed;
      Job.Variant = Variant;
      Job.Config = Spec.Base;
      Job.Config.Seed = Seed;
      applyVariant(Variant, Job.Config);
      Jobs.push_back(std::move(Job));
    }
  });
  return Jobs;
}

json::Value syrust::campaign::campaignToJson(const CampaignSpec &Spec,
                                             const CampaignResult &R) {
  Value Root = Value::object();
  // Version 5 across every document kind (see ResultJson.cpp for the
  // history): this aggregate gained the per-crate api_coverage section.
  // Nothing in this document may depend on scheduling (worker ids, pool
  // width, wall time): byte-identical output for any --jobs count is
  // the contract.
  Root.set("schema_version", Value::integer(5));
  Root.set("kind", Value::string("campaign"));

  Value Matrix = Value::object();
  Value CrateList = Value::array();
  for (const std::string &Name : Spec.Crates)
    CrateList.push(Value::string(Name));
  Matrix.set("crates", std::move(CrateList));
  Matrix.set("seed_begin",
             Value::integer(static_cast<int64_t>(Spec.SeedBegin)));
  Matrix.set("seed_end",
             Value::integer(static_cast<int64_t>(Spec.SeedEnd)));
  Value VariantList = Value::array();
  for (const std::string &V : Spec.Variants)
    VariantList.push(Value::string(V));
  Matrix.set("variants", std::move(VariantList));
  Matrix.set("jobs_total",
             Value::integer(static_cast<int64_t>(R.Jobs.size())));
  Root.set("matrix", std::move(Matrix));

  Value Jobs = Value::array();
  for (const CampaignJobResult &JR : R.Jobs) {
    Value Job = Value::object();
    Job.set("crate", Value::string(JR.Job.Crate));
    Job.set("seed", Value::integer(static_cast<int64_t>(JR.Job.Seed)));
    Job.set("variant", Value::string(JR.Job.Variant));
    // Host wall-time fields vary with machine load and worker scheduling;
    // the aggregate excludes them so the document is byte-identical for
    // any pool width (per-job files written by the CLI keep them).
    core::ResultJsonOptions JobOpts;
    JobOpts.HostWallTime = false;
    Job.set("result", resultToJson(JR.Result, JobOpts));
    Jobs.push(std::move(Job));
  }
  Root.set("jobs", std::move(Jobs));

  Value Totals = Value::object();
  Totals.set("synthesized",
             Value::integer(static_cast<int64_t>(R.Totals.Synthesized)));
  Totals.set("rejected",
             Value::integer(static_cast<int64_t>(R.Totals.Rejected)));
  Totals.set("executed",
             Value::integer(static_cast<int64_t>(R.Totals.Executed)));
  Totals.set("ub", Value::integer(static_cast<int64_t>(R.Totals.UbCount)));
  Totals.set("bugs_found",
             Value::integer(static_cast<int64_t>(R.Totals.BugsFound)));
  Totals.set("sim_seconds", Value::number(R.Totals.SimSeconds));
  Value ByCategory = Value::object();
  for (const auto &[Cat, N] : R.Totals.ByCategory)
    ByCategory.set(rustsim::categoryName(Cat),
                   Value::integer(static_cast<int64_t>(N)));
  Totals.set("by_category", std::move(ByCategory));
  Root.set("totals", std::move(Totals));
  setMergedSections(Root, R.ApiCoverage, R.MergedCounters);
  return Root;
}

void syrust::campaign::setMergedSections(
    Value &Root, const CrateCoverage &ApiCoverage,
    const std::map<std::string, uint64_t> &Counters) {
  Value ApiCov = Value::array();
  for (const auto &[Crate, Data] : ApiCoverage) {
    Value E = Value::object();
    E.set("crate", Value::string(Crate));
    E.set("api_coverage", coverage::apiCoverageToJson(Data));
    ApiCov.push(std::move(E));
  }
  Root.set("api_coverage", std::move(ApiCov));
  Value Metrics = Value::object();
  for (const auto &[Name, N] : Counters)
    Metrics.set(Name, Value::integer(static_cast<int64_t>(N)));
  Root.set("metrics", std::move(Metrics));
}
