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
/// computes — each job owns its CrateInstance, Rng, SimClock and metric
/// counters, and workers share nothing mutable. Results land in a
/// pre-sized slot per job index and every merge (totals, counters,
/// aggregate JSON) walks them in matrix order, so output is
/// byte-identical for any pool width, including Jobs = 1 (which runs the
/// same worker loop inline).
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
/// each of its jobs with its metrics reset first, so a job finds only
/// its own counters there. The recorders are returned in worker order
/// for merging their traces.
std::vector<obs::Recorder> runJobPool(
    const std::vector<size_t> &Live, int Jobs, bool Trace,
    const std::function<void(size_t, int, obs::Recorder &)> &Work);

/// Runs one campaign. See file comment for the scheduling and
/// determinism contract.
class CampaignRunner {
public:
  /// \p S must outlive the runner. Precondition: Spec.validate(S) is
  /// empty (the CLI and benches check before constructing).
  CampaignRunner(const core::Session &S, CampaignSpec Spec);

  /// Optional callback, fired from worker threads after each live job
  /// (never for a preloaded cell) with the job's result and counters,
  /// under an internal mutex, so the callback itself need not be
  /// thread-safe. For progress lines and the checkpoint append
  /// (CheckpointWriter::append); keep it cheap.
  void onJobDone(std::function<void(const CampaignJobResult &)> Fn);

  /// Marks matrix cells as already finished (resume): each cell's result
  /// and counters slot straight into its matrix position, and only the
  /// remaining cells are dealt to the pool. Indexes beyond the matrix are
  /// ignored. The merge still walks matrix order, so a resumed aggregate
  /// is byte-identical to an uninterrupted one.
  void preload(std::map<size_t, CampaignJobResult> Cells);

  /// Expands the matrix, runs every job, merges in matrix order.
  CampaignResult run();

private:
  const core::Session &S;
  CampaignSpec Spec;
  std::function<void(const CampaignJobResult &)> JobDone;
  std::map<size_t, CampaignJobResult> Preloaded;
};

} // namespace syrust::campaign

#endif // SYRUST_CAMPAIGN_CAMPAIGNRUNNER_H
