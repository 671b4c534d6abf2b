//===--- AuditRunner.cpp - Campaign-style audit fan-out -------------------===//
//
// Part of SyRust-CPP (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//

#include "oracle/AuditRunner.h"

#include "campaign/CampaignRunner.h"

#include <cassert>
#include <mutex>
#include <numeric>
#include <utility>

using namespace syrust;
using namespace syrust::core;
using namespace syrust::json;
using namespace syrust::oracle;
using namespace syrust::rustsim;

std::vector<std::string> AuditSpec::validate(const Session &S) const {
  std::vector<std::string> Errors = validateMatrix(S, "AuditSpec");
  std::vector<std::string> BaseErrors = Base.validate();
  Errors.insert(Errors.end(), BaseErrors.begin(), BaseErrors.end());
  return Errors;
}

std::vector<AuditJob>
syrust::oracle::expandAuditMatrix(const AuditSpec &Spec) {
  std::vector<AuditJob> Jobs;
  Spec.forEachCell([&](const std::string &Crate, uint64_t Seed) {
    AuditJob Job;
    Job.Index = Jobs.size();
    Job.Crate = Crate;
    Job.Seed = Seed;
    Job.Config = Spec.Base;
    Job.Config.Run.Seed = Seed;
    Jobs.push_back(std::move(Job));
  });
  return Jobs;
}

AuditRunResult syrust::oracle::runAudit(
    const Session &S, const AuditSpec &Spec,
    std::function<void(const AuditJobResult &)> OnJobDone) {
  assert(Spec.validate(S).empty() &&
         "invalid AuditSpec; validate() before running");
  std::vector<AuditJob> Jobs = expandAuditMatrix(Spec);

  AuditRunResult Result;
  Result.Jobs.resize(Jobs.size());
  std::vector<size_t> Live(Jobs.size());
  std::iota(Live.begin(), Live.end(), size_t(0));
  std::mutex JobDoneMu;
  campaign::runJobPool(
      Live, Spec.Jobs, /*Trace=*/false,
      [&](size_t Index, int, obs::Recorder &Rec) {
        AuditJobResult &Slot = Result.Jobs[Index];
        Slot.Job = Jobs[Index];
        Slot.Result = auditOne(S, Slot.Job.Crate, Slot.Job.Config, &Rec);
        Slot.Counters = Rec.metrics().counterValues();
        if (OnJobDone) {
          std::lock_guard<std::mutex> Lock(JobDoneMu);
          OnJobDone(Slot);
        }
      });

  // Merge in matrix order - completion order must never leak into the
  // aggregate.
  for (const AuditJobResult &JR : Result.Jobs)
    Result.Totals += JR.Result;
  campaign::addJobCounters(Result.Jobs, Result.MergedCounters);
  Result.ApiCoverage = campaign::mergeApiCoverage(Spec.Crates, Result.Jobs,
                                                  Result.MergedCounters);
  return Result;
}

namespace {

/// The count keys of each job's result and of the totals.
const std::pair<const char *, uint64_t AuditCounts::*> CountKeys[] = {
    {"models_replayed", &AuditCounts::ModelsReplayed},
    {"agree_pass", &AuditCounts::AgreePass},
    {"agree_reject", &AuditCounts::AgreeReject},
    {"expected_total", &AuditCounts::ExpectedTotal},
    {"unexpected_total", &AuditCounts::UnexpectedTotal},
    {"filtered_compilable", &AuditCounts::FilteredCompilable},
    {"minimizer_steps", &AuditCounts::MinimizerSteps},
};

json::Value countsToJson(const AuditCounts &C) {
  Value Doc = Value::object();
  for (const auto &[Key, Field] : CountKeys)
    Doc.set(Key, Value::integer(static_cast<int64_t>(C.*Field)));
  Value Expected = Value::object();
  for (const auto &[Det, N] : C.Expected)
    Expected.set(detailName(Det), Value::integer(static_cast<int64_t>(N)));
  Doc.set("expected_by_detail", std::move(Expected));
  return Doc;
}

json::Value auditResultToJson(const AuditResult &R) {
  Value Doc = countsToJson(R);
  Doc.set("supported", Value::boolean(R.Supported));
  Value Unexpected = Value::array();
  for (const Disagreement &D : R.Unexpected) {
    Value Repro = Value::object();
    Repro.set("detail", Value::string(detailName(D.Detail)));
    Repro.set("message", Value::string(D.Message));
    Repro.set("lines", Value::integer(D.Lines));
    Repro.set("source", Value::string(D.Source));
    Repro.set("minimized_lines", Value::integer(D.MinimizedLines));
    Repro.set("minimized_source", Value::string(D.MinimizedSource));
    Repro.set("minimizer_steps",
              Value::integer(static_cast<int64_t>(D.MinimizerSteps)));
    Unexpected.push(std::move(Repro));
  }
  Doc.set("unexpected", std::move(Unexpected));
  Doc.set("api_coverage", coverage::apiCoverageToJson(R.ApiCoverage));
  return Doc;
}

} // namespace

json::Value syrust::oracle::auditToJson(const AuditSpec &Spec,
                                        const AuditRunResult &R) {
  Value Root = Value::object();
  // Version 5 across every document kind (see ResultJson.cpp for the
  // history): this document gained per-job and per-crate api_coverage.
  // Nothing in it may depend on scheduling (worker ids, pool width,
  // wall time): byte-identical output for any --jobs count is the
  // contract.
  Root.set("schema_version", Value::integer(5));
  Root.set("kind", Value::string("audit"));
  Root.set("clean", Value::boolean(R.clean()));

  Value Matrix = Value::object();
  Value CrateList = Value::array();
  for (const std::string &Name : Spec.Crates)
    CrateList.push(Value::string(Name));
  Matrix.set("crates", std::move(CrateList));
  Matrix.set("seed_begin",
             Value::integer(static_cast<int64_t>(Spec.SeedBegin)));
  Matrix.set("seed_end",
             Value::integer(static_cast<int64_t>(Spec.SeedEnd)));
  Matrix.set("max_models",
             Value::integer(static_cast<int64_t>(Spec.Base.MaxModels)));
  Matrix.set("max_lines", Value::integer(Spec.Base.Audit.MaxLines));
  Matrix.set("num_apis", Value::integer(Spec.Base.Run.NumApis));
  Matrix.set("jobs_total",
             Value::integer(static_cast<int64_t>(R.Jobs.size())));
  Root.set("matrix", std::move(Matrix));

  Value Jobs = Value::array();
  for (const AuditJobResult &JR : R.Jobs) {
    Value Job = Value::object();
    Job.set("crate", Value::string(JR.Job.Crate));
    Job.set("seed", Value::integer(static_cast<int64_t>(JR.Job.Seed)));
    Job.set("result", auditResultToJson(JR.Result));
    Jobs.push(std::move(Job));
  }
  Root.set("jobs", std::move(Jobs));

  Root.set("totals", countsToJson(R.Totals));
  campaign::setMergedSections(Root, R.ApiCoverage, R.MergedCounters);
  return Root;
}
