//===--- CampaignRunner.cpp - Work-stealing campaign pool -----------------===//
//
// Part of SyRust-CPP (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//

#include "campaign/CampaignRunner.h"

#include <cassert>
#include <deque>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

using namespace syrust;
using namespace syrust::campaign;
using namespace syrust::core;

namespace {

/// One worker's job queue. A plain mutex-guarded deque rather than a
/// lock-free Chase-Lev: jobs here run for milliseconds to minutes, so
/// queue operations are nowhere near the critical path, and the simple
/// version is trivially ThreadSanitizer-clean.
struct WorkerQueue {
  std::mutex Mu;
  std::deque<size_t> Q;

  void push(size_t Job) {
    std::lock_guard<std::mutex> Lock(Mu);
    Q.push_back(Job);
  }
  /// Owner end: newest first.
  std::optional<size_t> popBack() {
    std::lock_guard<std::mutex> Lock(Mu);
    if (Q.empty())
      return std::nullopt;
    size_t Job = Q.back();
    Q.pop_back();
    return Job;
  }
  /// Thief end: oldest first.
  std::optional<size_t> stealFront() {
    std::lock_guard<std::mutex> Lock(Mu);
    if (Q.empty())
      return std::nullopt;
    size_t Job = Q.front();
    Q.pop_front();
    return Job;
  }
};

} // namespace

std::vector<obs::Recorder> syrust::campaign::runJobPool(
    const std::vector<size_t> &Live, int Jobs, bool Trace,
    const std::function<void(size_t, int, obs::Recorder &)> &Work) {
  // Never spawn more workers than live jobs: an idle worker is pure
  // overhead and its empty trace lane is noise.
  int Workers = Jobs;
  if (static_cast<size_t>(Workers) > Live.size())
    Workers = static_cast<int>(Live.empty() ? 1 : Live.size());

  // Deal the matrix round-robin so every worker starts with a fair
  // slice; stealing rebalances when job durations diverge (a dashmap
  // run costs ~2x a slab run of the same budget).
  std::vector<WorkerQueue> Queues(Workers);
  for (size_t I : Live)
    Queues[I % Workers].push(I);

  // One recorder per worker, wired into each of that worker's jobs in
  // turn. Lane = worker id, so a merged trace shows one named track per
  // worker. Its trace spans the worker's jobs; its metrics are reset per
  // job.
  std::vector<obs::Recorder> Recorders;
  Recorders.reserve(Workers);
  for (int W = 0; W < Workers; ++W) {
    obs::Recorder::Options Opts;
    Opts.Trace = Trace;
    Opts.Metrics = true;
    Opts.Lane = W;
    Recorders.emplace_back(Opts);
  }

  auto WorkerLoop = [&](int Me) {
    for (;;) {
      std::optional<size_t> JobIdx = Queues[Me].popBack();
      for (int Off = 1; !JobIdx && Off < Workers; ++Off)
        JobIdx = Queues[(Me + Off) % Workers].stealFront();
      if (!JobIdx)
        return; // Every deque empty: no work will ever appear again.
      Recorders[Me].metrics() = obs::MetricsRegistry();
      Work(*JobIdx, Me, Recorders[Me]);
    }
  };

  if (Workers <= 1) {
    WorkerLoop(0); // Same code path, no thread: --jobs 1 is the oracle.
  } else {
    std::vector<std::thread> Pool;
    Pool.reserve(Workers);
    for (int W = 0; W < Workers; ++W)
      Pool.emplace_back(WorkerLoop, W);
    for (std::thread &T : Pool)
      T.join();
  }
  return Recorders;
}

CampaignRunner::CampaignRunner(const Session &S, CampaignSpec Spec)
    : S(S), Spec(std::move(Spec)) {
  assert(this->Spec.validate(S).empty() &&
         "invalid CampaignSpec; validate() before constructing");
}

void CampaignRunner::onJobDone(
    std::function<void(const CampaignJobResult &)> Fn) {
  JobDone = std::move(Fn);
}

void CampaignRunner::preload(std::map<size_t, CampaignJobResult> Cells) {
  Preloaded = std::move(Cells);
}

CampaignResult CampaignRunner::run() {
  std::vector<CampaignJob> Jobs = expandMatrix(Spec);

  CampaignResult Result;
  Result.Jobs.resize(Jobs.size());

  // Resume: finished cells slot straight into their matrix positions and
  // never reach the pool.
  std::vector<size_t> Live;
  for (size_t I = 0; I < Jobs.size(); ++I) {
    auto It = Preloaded.find(I);
    if (It == Preloaded.end()) {
      Live.push_back(I);
      continue;
    }
    Result.Jobs[I] = It->second;
    Result.Jobs[I].Job = Jobs[I];
    Result.Jobs[I].Worker = -1;
  }

  std::mutex JobDoneMu;
  std::vector<obs::Recorder> Recorders = runJobPool(
      Live, Spec.Jobs, Spec.Trace,
      [&](size_t Index, int Me, obs::Recorder &Rec) {
        CampaignJobResult &Slot = Result.Jobs[Index];
        Slot.Job = Jobs[Index];
        Slot.Worker = Me;
        Slot.Result = S.runOne(Slot.Job.Crate, Slot.Job.Config, &Rec);
        Slot.Counters = Rec.metrics().counterValues();
        if (JobDone) {
          std::lock_guard<std::mutex> Lock(JobDoneMu);
          JobDone(Slot);
        }
      });
  Result.Workers = static_cast<int>(Recorders.size());

  // Merge in matrix order — completion order must never leak into the
  // aggregate.
  for (const CampaignJobResult &JR : Result.Jobs) {
    const RunResult &R = JR.Result;
    Result.Totals.Synthesized += R.Synthesized;
    Result.Totals.Rejected += R.Rejected;
    Result.Totals.Executed += R.Executed;
    Result.Totals.UbCount += R.UbCount;
    Result.Totals.BugsFound += R.BugFound ? 1 : 0;
    Result.Totals.SimSeconds += R.ElapsedSeconds;
    for (const auto &[Cat, N] : R.ByCategory)
      Result.Totals.ByCategory[Cat] += N;
  }
  addJobCounters(Result.Jobs, Result.MergedCounters);
  Result.ApiCoverage =
      mergeApiCoverage(Spec.Crates, Result.Jobs, Result.MergedCounters);

  if (Spec.Trace) {
    std::vector<const obs::Tracer *> Lanes;
    for (obs::Recorder &Rec : Recorders)
      Lanes.push_back(&Rec.tracer());
    Result.MergedTraceJson = obs::chromeTraceJson(Lanes, /*NameLanes=*/true);
  }
  return Result;
}
