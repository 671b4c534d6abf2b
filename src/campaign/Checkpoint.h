//===--- Checkpoint.h - Campaign checkpoint/resume -------------*- C++ -*-===//
//
// Part of SyRust-CPP (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Cell-granular campaign checkpointing: a JSONL file whose header names
/// the spec (by canonical fingerprint) and whose every further line is
/// one finished `(crate, seed, variant)` cell — its full result document
/// plus the metric counters that cell registered. A
/// killed campaign (SIGKILL included) resumes by preloading the finished
/// cells into CampaignRunner and running only the remainder; the resumed
/// aggregate is byte-identical to an uninterrupted run's.
///
/// Why cell granularity is sound: each cell is internally deterministic —
/// its RNG and its solvers are seeded from the cell's own seed and it
/// runs on the simulated clock — so an *unfinished* cell can simply be
/// re-run from scratch and will reproduce the identical result.
/// The frontier therefore needs no mid-cell RNG or solver state: the set
/// of finished indexes IS the checkpoint. Each cell's own counters ride
/// along because the aggregate's `metrics` section sums every job's
/// counters in matrix order, preloaded and live alike, so a resumed
/// total equals the uninterrupted one exactly.
///
/// Crash safety: cells are appended and flushed one line at a time, so a
/// SIGKILL can tear at most the final line. The loader stops at the
/// first malformed line and reports how many cells survived; the torn
/// cell is simply re-run, and the writer cuts the torn bytes off before
/// its first append.
///
//===----------------------------------------------------------------------===//

#ifndef SYRUST_CAMPAIGN_CHECKPOINT_H
#define SYRUST_CAMPAIGN_CHECKPOINT_H

#include "campaign/CampaignRunner.h"

#include <cstdio>
#include <map>
#include <string>

namespace syrust::campaign {

/// Canonical fingerprint of everything that determines a campaign's
/// results: crates, seed range, variants, and the full base RunConfig
/// (via core::runConfigToJson). Jobs and Trace are deliberately excluded
/// — pool width never affects results (the byte-identity contract), so a
/// checkpoint taken at `--jobs 8` resumes fine at `--jobs 1`. FNV-1a
/// over the canonical JSON rendering, as 16 hex digits.
std::string specFingerprint(const CampaignSpec &Spec);

/// Everything loadCheckpoint() recovers from a checkpoint file.
struct CheckpointData {
  /// The header's fingerprint; compare against specFingerprint() of the
  /// resuming spec before preloading.
  std::string Fingerprint;
  /// Finished cells by matrix index (result and counters), ready for
  /// CampaignRunner::preload.
  std::map<size_t, CampaignJobResult> Cells;
  /// Non-empty when the file ended in a torn line (SIGKILL mid-append);
  /// purely informational — the torn cell re-runs.
  std::string TornTail;
  /// Non-empty when a line was refused: a complete cell line with a
  /// result field or counter missing or of the wrong JSON kind, or any
  /// line nested deeper than json::MaxDepth. The reader's error, naming
  /// the line and the field or offset. Loading stops there. Such a line
  /// was not torn, so the file is not what this campaign wrote; resuming
  /// refuses it.
  std::string Refused;
};

/// Loads \p Path. Returns false with \p Err set when the file cannot be
/// read or its header is malformed; a torn *cell* line is not an error
/// (loading stops there and TornTail records it), nor is a refused one
/// (Refused). A missing file is an error — callers distinguish "fresh
/// start" by checking existence.
bool loadCheckpoint(const std::string &Path, CheckpointData &Out,
                    std::string &Err);

/// Appends finished cells to a checkpoint file, one flushed JSONL line
/// per cell, writing the header first when the file starts empty. Call
/// append() from the CampaignRunner's onJobDone callback.
class CheckpointWriter {
public:
  CheckpointWriter() = default;
  ~CheckpointWriter() { close(); }
  CheckpointWriter(const CheckpointWriter &) = delete;
  CheckpointWriter &operator=(const CheckpointWriter &) = delete;

  /// Opens \p Path for append (creating it if needed), cuts a torn tail
  /// back to the last newline, and writes the header line if nothing is
  /// left. Returns false with \p Err set on I/O failure.
  bool open(const std::string &Path, const CampaignSpec &Spec,
            std::string &Err);

  /// Appends one finished cell (its result and counters) and flushes,
  /// so the line survives a kill that lands right after the job.
  void append(const CampaignJobResult &JR);

  void close();

private:
  std::FILE *F = nullptr;
};

} // namespace syrust::campaign

#endif // SYRUST_CAMPAIGN_CHECKPOINT_H
