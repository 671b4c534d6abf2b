//===--- Session.h - Driver-layer facade -----------------------*- C++ -*-===//
//
// Part of SyRust-CPP (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The public entry point to the driver layer. A Session owns the shared
/// immutable state every run consumes — today the crate registry, forced
/// to initialize eagerly so worker threads never race its lazy
/// construction — and its `runOne()` is the one way to run a crate, for
/// the CLI, every bench, the campaign workers, the tests and the examples
/// alike. A single entry point means single-run and campaign paths cannot
/// drift: both validate the RunConfig the same way and run the same loop
/// over a core::RunSetup (SyRustDriver.h).
///
/// Sessions are cheap (the registry is process-global and const) and
/// safe to share across threads: every method is const and all mutable
/// run state lives inside the per-call RunSetup.
///
/// The Session additionally owns the lazily-built shared per-crate
/// analyses (one immutable instantiation + precomputed compatibility
/// matrix per crate, see CrateAnalysis.h): the first run against a crate
/// builds its analysis under a lock, every later run - including all
/// campaign workers, which share one Session - reuses it read-only
/// through a copy-on-write overlay instance.
///
//===----------------------------------------------------------------------===//

#ifndef SYRUST_CORE_SESSION_H
#define SYRUST_CORE_SESSION_H

#include "core/SyRustDriver.h"
#include "crates/CrateRegistry.h"

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace syrust::core {

/// Facade over the crate registry and the run loop. See file comment.
class Session {
public:
  /// Snapshots the registry (completing its thread-safe lazy init on
  /// this thread, before any worker can touch it).
  Session();

  /// All library models, in Figure 12 order.
  const std::vector<crates::CrateSpec> &crates() const { return *Crates; }

  /// Finds a model by crate name; nullptr when unknown.
  const crates::CrateSpec *find(const std::string &Name) const;

  /// Names of every model that supports synthesis (the `--crates all`
  /// expansion), in Figure 12 order.
  std::vector<std::string> supportedCrates() const;

  /// Validates \p Config and runs the full pipeline for \p Spec,
  /// threading the optional flight recorder through every layer: the
  /// loop of Algorithm 1 over a RunSetup, defined beside it in
  /// SyRustDriver.cpp. An invalid configuration is reported on stderr
  /// and yields an unsupported RunResult instead of a silently
  /// misbehaving run; call RunConfig::validate() first to handle errors
  /// yourself. \p Spec need not come from the registry (docs/MODELS.md's
  /// custom models), but it must outlive the Session, which keeps its
  /// analysis.
  RunResult runOne(const crates::CrateSpec &Spec, RunConfig Config,
                   obs::Recorder *Obs = nullptr) const;

  /// Name-keyed convenience overload; an unknown crate is reported on
  /// stderr and yields an unsupported RunResult.
  RunResult runOne(const std::string &CrateName, RunConfig Config,
                   obs::Recorder *Obs = nullptr) const;

  /// The shared analysis for \p Spec, built on first request (thread
  /// safe; later requests reuse it). runOne() calls this for every run
  /// of a synthesizable crate; exposed so tests and benches can inspect
  /// the shared state directly.
  std::shared_ptr<const CrateAnalysis>
  analysisFor(const crates::CrateSpec &Spec) const;

  /// Warm-analysis accounting: how many analysisFor() calls paid the
  /// one-off instantiation + matrix precompute (Builds) versus reused a
  /// live one (Hits). The serve daemon's whole value proposition is
  /// driving Hits/(Hits+Builds) toward 1 across requests; it exports
  /// these as the serve.warm.* gauges (docs/OBSERVABILITY.md).
  struct AnalysisStats {
    uint64_t Builds = 0;
    uint64_t Hits = 0;
  };
  AnalysisStats analysisStats() const;

private:
  const std::vector<crates::CrateSpec> *Crates;
  /// Lazily-built per-crate analyses, keyed by spec identity (the
  /// registry is process-global and immutable, so spec pointers are
  /// stable). Guarded by AnalysesMu; the analyses themselves are
  /// immutable once constructed and shared read-only.
  mutable std::mutex AnalysesMu;
  mutable std::map<const crates::CrateSpec *,
                   std::shared_ptr<const CrateAnalysis>>
      Analyses;
  /// Guarded by AnalysesMu (analysisFor holds it anyway).
  mutable AnalysisStats Stats;
};

} // namespace syrust::core

#endif // SYRUST_CORE_SESSION_H
