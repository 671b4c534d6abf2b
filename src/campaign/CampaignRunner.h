//===--- CampaignRunner.h - Work-stealing campaign pool --------*- C++ -*-===//
//
// Part of SyRust-CPP (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one work-stealing pool that fans a matrix of jobs across threads
/// (runJobPool), and the campaign runner built on it. `syrust audit`
/// (oracle/AuditRunner.h) runs its matrix on the same pool.
///
/// Scheduling: jobs are dealt round-robin onto per-worker deques; a
/// worker pops its own deque from the back (LIFO, cache-warm) and, when
/// empty, steals from other workers' fronts (FIFO, the oldest — and
/// typically largest remaining — work). No new jobs appear after start,
/// so a worker that finds every deque empty can retire.
///
/// Determinism: scheduling affects only *when* a job runs, never what it
/// computes — each job owns its CrateInstance, Rng, and SimClock, and
/// workers share nothing mutable. Results land in a pre-sized slot per
/// job index and every merge (totals, counters, aggregate JSON) walks
/// them in matrix order, so output is byte-identical for any pool width,
/// including Jobs = 1 (which runs the same worker loop inline).
///
//===----------------------------------------------------------------------===//

#ifndef SYRUST_CAMPAIGN_CAMPAIGNRUNNER_H
#define SYRUST_CAMPAIGN_CAMPAIGNRUNNER_H

#include "campaign/Campaign.h"

#include <functional>
#include <map>

namespace syrust::campaign {

/// Calls \p Work(Index, Worker, Rec) once for every matrix index in
/// \p Live (ascending) on max(1, min(\p Jobs, |Live|)) workers: index I
/// is dealt to worker I % workers, which pops its own deque from the
/// back and steals from the front of the others; a single worker runs
/// inline on the calling thread. Each worker owns one recorder (metrics
/// on, tracing only when \p Trace, lane = worker id), passed as Rec to
/// each of its jobs and returned in worker order for merging.
std::vector<obs::Recorder> runJobPool(
    const std::vector<size_t> &Live, int Jobs, bool Trace,
    const std::function<void(size_t, int, obs::Recorder &)> &Work);

/// Adds every worker's final counters into \p Into. Integer sums
/// commute, so the totals cannot depend on which worker ran what.
void addWorkerCounters(std::vector<obs::Recorder> &Recorders,
                       std::map<std::string, uint64_t> &Into);

/// One finished cell recovered from a checkpoint (Checkpoint.h): the
/// cell's result plus the per-stage counter increments it contributed.
struct PreloadedCell {
  core::RunResult Result;
  std::map<std::string, uint64_t> CounterDeltas;
};

/// Runs one campaign. See file comment for the scheduling and
/// determinism contract.
class CampaignRunner {
public:
  /// \p S must outlive the runner. Precondition: Spec.validate(S) is
  /// empty (the CLI and benches check before constructing).
  CampaignRunner(const core::Session &S, CampaignSpec Spec);

  /// Optional progress callback, fired from worker threads after each
  /// finished job (guarded by an internal mutex, so the callback itself
  /// need not be thread-safe). For CLI progress lines; keep it cheap.
  void onJobDone(std::function<void(const CampaignJobResult &)> Fn);

  /// Marks matrix cells as already finished (resume): their results slot
  /// straight into the aggregate, their counter deltas seed the merged
  /// counters, and only the remaining cells are dealt to the pool.
  /// Indexes beyond the matrix are ignored. The merge still walks matrix
  /// order, so a resumed aggregate is byte-identical to an uninterrupted
  /// one.
  void preload(std::map<size_t, PreloadedCell> Cells);

  /// Optional checkpoint sink, fired (under the same mutex as onJobDone)
  /// after each *live* job with that job's per-stage counter deltas —
  /// what CheckpointWriter::append persists. Never fired for preloaded
  /// cells. Setting a sink makes workers snapshot their counters around
  /// every job; jobs run serially per worker, so the deltas are exact.
  using CheckpointSink = std::function<void(
      const CampaignJobResult &, const std::map<std::string, uint64_t> &)>;
  void onJobCheckpoint(CheckpointSink Fn);

  /// Expands the matrix, runs every job, merges in matrix order.
  CampaignResult run();

private:
  const core::Session &S;
  CampaignSpec Spec;
  std::function<void(const CampaignJobResult &)> JobDone;
  CheckpointSink Checkpoint;
  std::map<size_t, PreloadedCell> Preloaded;
};

} // namespace syrust::campaign

#endif // SYRUST_CAMPAIGN_CAMPAIGNRUNNER_H
