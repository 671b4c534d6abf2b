//===--- micro_bias.cpp - Coverage-guided enumeration bias A/B bench ------===//
//
// Part of SyRust-CPP (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// A/B benchmark for --bias-coverage: at an equal simulated budget, do
/// biased runs reach more API-dependency-graph edge coverage than the
/// unbiased baseline?
///
/// Both sides run interleaved (the biased episode leg replaces the
/// round-robin length rotation, which only exists in interleaved mode),
/// so the one knob under test is RunConfig::BiasCoverage: coverage-
/// weighted API selection at run start plus yield-weighted length draws
/// during enumeration. Per crate and side, the bench reports the union
/// of edge coverage over a seed sweep (what a campaign over those seeds
/// covers, ApiCoverageData::mergeFrom) and the per-seed mean; it fails
/// unless the biased union is strictly higher on at least two crates
/// and higher in total. It also replays one biased cell to verify the
/// per-cell determinism contract (a fixed (crate, seed) is
/// byte-identical run to run).
///
/// Writes BENCH_bias.json. Scale with SYRUST_BUDGET (simulated seconds
/// per run, default 120) and SYRUST_SEEDS (seeds per crate, default 3).
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "core/ResultJson.h"
#include "core/Session.h"
#include "report/Table.h"
#include "support/StringUtils.h"

#include <cinttypes>
#include <string>
#include <vector>

using namespace syrust;
using namespace syrust::bench;
using namespace syrust::core;
using namespace syrust::report;

int main() {
  Session S;
  double Budget = envBudget("SYRUST_BUDGET", 120.0);
  int Seeds = static_cast<int>(envBudget("SYRUST_SEEDS", 3));
  banner("micro_bias",
         "coverage-guided enumeration bias: --bias-coverage vs baseline");
  std::printf("%.0f simulated seconds per run, %d seeds per crate, both "
              "sides interleaved\n\n",
              Budget, Seeds);

  BenchJson J("bias");
  J.meta("budget_sim_seconds", json::Value::number(Budget));
  J.meta("seeds_per_crate", json::Value::integer(Seeds));
  J.meta("num_apis", json::Value::integer(10));

  const char *Crates[] = {"slab", "smallvec", "hashbrown", "bytes"};
  Table T({"Library", "Edges total", "Union (biased)", "Union (base)",
           "Delta", "Mean/seed (biased)", "Mean/seed (base)",
           "Bias picks"});

  int CratesWon = 0, CratesLost = 0;
  bool Deterministic = true;
  uint64_t TotalBiased = 0, TotalBase = 0;
  json::Value PerCrate = json::Value::array();

  for (const char *Crate : Crates) {
    coverage::ApiCoverageData UnionBiased, UnionBase;
    uint64_t SumBiased = 0, SumBase = 0, Picks = 0;
    for (int I = 0; I < Seeds; ++I) {
      RunConfig BaseC;
      BaseC.BudgetSeconds = Budget;
      BaseC.Seed = 2021 + static_cast<uint64_t>(I);
      BaseC.InterleaveLengths = true;
      // A selective API budget on BOTH sides: the crate models carry
      // 12-18 APIs, so at the paper's default of 15 nearly everything
      // is selected and the selection leg can only shuffle which one
      // or two APIs drop. At 10 the subset choice genuinely matters -
      // a uniform draw regularly strands a type family with no
      // producer, which is exactly what the connectivity bias
      // prevents.
      BaseC.NumApis = 10;
      RunConfig BiasC = BaseC;
      BiasC.BiasCoverage = true;

      WallTimer WBias;
      RunResult RBias = S.runOne(Crate, BiasC);
      double HostBias = WBias.seconds();
      WallTimer WBase;
      RunResult RBase = S.runOne(Crate, BaseC);
      double HostBase = WBase.seconds();

      if (I == 0) {
        // Per-cell determinism: the same biased cell replays
        // byte-identically (document form, wall times stripped).
        RunResult Again = S.runOne(Crate, BiasC);
        if (resultToJson(RBias, {false}).dump() !=
            resultToJson(Again, {false}).dump()) {
          Deterministic = false;
          std::fprintf(stderr,
                       "FAIL: %s biased replay diverged (seed %" PRIu64
                       ")\n",
                       Crate, BiasC.Seed);
        }
      }

      // One Session, one frozen graph per crate: merges never conflict
      // (mergeFrom would warn on stderr if they did).
      UnionBiased.mergeFrom(RBias.ApiCoverage);
      UnionBase.mergeFrom(RBase.ApiCoverage);
      SumBiased += RBias.ApiCoverage.edgesCovered();
      SumBase += RBase.ApiCoverage.edgesCovered();
      Picks += RBias.Synth.BiasPicks;

      std::string Label =
          std::string(Crate) + "/seed" + std::to_string(2021 + I);
      J.addRun(Label + "/biased", RBias, HostBias);
      J.addRun(Label + "/base", RBase, HostBase);
    }
    const uint64_t Biased = UnionBiased.edgesCovered();
    const uint64_t Base = UnionBase.edgesCovered();
    const double MeanBiased = static_cast<double>(SumBiased) / Seeds;
    const double MeanBase = static_cast<double>(SumBase) / Seeds;
    TotalBiased += Biased;
    TotalBase += Base;
    if (Biased > Base)
      ++CratesWon;
    else if (Biased < Base)
      ++CratesLost;
    T.addRow({Crate, format("%" PRIu64, UnionBiased.EdgesTotal),
              format("%" PRIu64, Biased), format("%" PRIu64, Base),
              format("%+" PRId64, static_cast<int64_t>(Biased) -
                                      static_cast<int64_t>(Base)),
              format("%.1f", MeanBiased), format("%.1f", MeanBase),
              format("%" PRIu64, Picks)});
    json::Value E = json::Value::object();
    E.set("crate", json::Value::string(Crate));
    E.set("edges_total",
          json::Value::integer(static_cast<int64_t>(UnionBiased.EdgesTotal)));
    E.set("edges_union_biased",
          json::Value::integer(static_cast<int64_t>(Biased)));
    E.set("edges_union_base", json::Value::integer(static_cast<int64_t>(Base)));
    E.set("edges_mean_biased", json::Value::number(MeanBiased));
    E.set("edges_mean_base", json::Value::number(MeanBase));
    E.set("bias_picks", json::Value::integer(static_cast<int64_t>(Picks)));
    PerCrate.push(std::move(E));
  }

  J.meta("per_crate_edge_coverage", std::move(PerCrate));
  J.meta("edges_union_biased_total",
         json::Value::integer(static_cast<int64_t>(TotalBiased)));
  J.meta("edges_union_base_total",
         json::Value::integer(static_cast<int64_t>(TotalBase)));
  J.meta("crates_biased_strictly_higher", json::Value::integer(CratesWon));
  J.meta("crates_biased_strictly_lower", json::Value::integer(CratesLost));
  J.meta("deterministic_replay", json::Value::boolean(Deterministic));

  std::printf("%s\n", T.render().c_str());
  std::printf("edge coverage at equal budget: %" PRIu64 " biased vs %" PRIu64
              " base (per-crate union over seeds, summed over crates)\n",
              TotalBiased, TotalBase);
  std::printf("crates strictly higher with bias: %d of %zu (lost %d)\n",
              CratesWon, sizeof(Crates) / sizeof(Crates[0]), CratesLost);
  std::printf("biased replay deterministic: %s\n",
              Deterministic ? "yes" : "NO - BUG");
  J.write();

  // The acceptance bar: strictly higher union edge coverage on >= 2
  // crates, higher in total, and deterministic replay.
  bool Pass = Deterministic && CratesWon >= 2 && TotalBiased > TotalBase;
  if (!Pass)
    std::fprintf(stderr, "FAIL: bias did not clear the acceptance bar\n");
  return Pass ? 0 : 1;
}
