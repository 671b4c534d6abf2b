//===--- micro_serve.cpp - Serve-daemon overhead microbench ---------------===//
//
// Part of SyRust-CPP (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// A/B benchmark for the `syrust serve` daemon (serve/Server.h), in two
/// parts.
///
/// Part 1 (the headline number) measures warm-session amortization: the
/// daemon's whole value proposition is paying each crate's analysis
/// build (spec parsing, signature instantiation, compat-matrix
/// precompute) once per process instead of once per invocation. The
/// cold side simulates the offline CLI by constructing a fresh
/// core::Session for every request and running one synthesis pass; the
/// warm side runs the identical request sequence against one shared
/// Session, exactly as the daemon's executor does. Both sides run the
/// same crates, seeds, and simulated budgets; the spread is pure
/// per-invocation startup cost, and it grows with the number of
/// requests while the warm side's build count stays pinned at the
/// number of distinct crates (Session::analysisStats()).
///
/// Part 2 measures the wire itself. A real daemon is started on a
/// scratch AF_UNIX socket and three numbers are taken: ping round-trip
/// time (the floor: framing + socket + queue handoff, no work), a
/// campaign submitted over the socket versus the same campaign through
/// cli::execute in-process (the marginal cost of the process boundary
/// on a real verb), and a byte-comparison of the two campaigns'
/// aggregate.json — the serve contract says the daemon's response IS
/// the offline response, and this bench fails (exit 1) if they differ.
///
/// Writes BENCH_serve.json. Scale with SYRUST_BUDGET (simulated seconds
/// per synthesis pass, default 10) and SYRUST_ROUNDS (amortization
/// rounds over the crate list, default 4).
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "cli/Execute.h"
#include "cli/RequestSpec.h"
#include "core/Session.h"
#include "report/Table.h"
#include "serve/Client.h"
#include "serve/Server.h"
#include "support/StringUtils.h"

#include <cinttypes>
#include <cstdint>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace syrust;
using namespace syrust::bench;
using namespace syrust::core;
using namespace syrust::report;

namespace {

/// The amortization request mix: three cheap-to-synthesize crates so
/// the analysis build is a visible fraction of each request.
const char *kCrates[] = {"slab", "bytes", "smallvec"};

struct AmortSide {
  double WallSeconds = 0;
  uint64_t Builds = 0;
  uint64_t Hits = 0;
  int Requests = 0;
};

/// Cold side: a fresh Session per request, the way one offline CLI
/// invocation pays for it. Every request is a build, never a hit.
AmortSide runCold(double Budget, int Rounds) {
  AmortSide Out;
  WallTimer W;
  for (int R = 0; R < Rounds; ++R)
    for (const char *Crate : kCrates) {
      Session Cold;
      RunConfig C;
      C.BudgetSeconds = Budget;
      C.Seed = 2021 + static_cast<uint64_t>(R);
      Cold.runOne(Crate, C);
      Out.Builds += Cold.analysisStats().Builds;
      Out.Hits += Cold.analysisStats().Hits;
      ++Out.Requests;
    }
  Out.WallSeconds = W.seconds();
  return Out;
}

/// Warm side: the identical request sequence against one shared
/// Session — the daemon's executor loop without the socket.
AmortSide runWarm(Session &S, BenchJson &J, double Budget, int Rounds) {
  AmortSide Out;
  WallTimer W;
  for (int R = 0; R < Rounds; ++R)
    for (const char *Crate : kCrates) {
      RunConfig C;
      C.BudgetSeconds = Budget;
      C.Seed = 2021 + static_cast<uint64_t>(R);
      WallTimer WRun;
      RunResult Res = S.runOne(Crate, C);
      J.addRun(std::string("warm/") + Crate + "/seed" +
                   std::to_string(2021 + R),
               Res, WRun.seconds());
      ++Out.Requests;
    }
  Out.WallSeconds = W.seconds();
  Out.Builds = S.analysisStats().Builds;
  Out.Hits = S.analysisStats().Hits;
  return Out;
}

/// The campaign both sides of part 2 run: small enough to finish in
/// seconds, big enough that the wire cost is measured against real work.
bool campaignSpec(double Budget, cli::RequestSpec &Spec,
                  std::string &Err) {
  const char *Argv[] = {"--crates", "slab,bytes", "--seeds",
                        "2021..2022", "--budget", nullptr,
                        "--out", "bench-serve-out"};
  std::string BudgetStr = std::to_string(Budget);
  Argv[5] = BudgetStr.c_str();
  std::vector<std::string> Errors;
  if (!cli::parseArgv(cli::Verb::Campaign,
                      static_cast<int>(sizeof(Argv) / sizeof(Argv[0])),
                      Argv, Spec, Errors)) {
    Err = Errors.empty() ? "parse failed" : Errors.front();
    return false;
  }
  return true;
}

/// aggregate.json out of a Response's carried files; empty if absent.
std::string aggregateOf(const cli::Response &R) {
  for (const auto &[Path, Content] : R.Files)
    if (Path.size() >= 14 &&
        Path.compare(Path.size() - 14, 14, "aggregate.json") == 0)
      return Content;
  return std::string();
}

} // namespace

int main() {
  double Budget = envBudget("SYRUST_BUDGET", 10.0);
  int Rounds = static_cast<int>(envBudget("SYRUST_ROUNDS", 4));
  banner("micro_serve",
         "serve daemon: warm-session amortization and wire overhead");

  BenchJson J("serve");
  J.meta("budget_sim_seconds", json::Value::number(Budget));
  J.meta("rounds", json::Value::integer(Rounds));

  // --- Part 1: warm-session amortization (headline). --------------------
  int Requests = Rounds * static_cast<int>(sizeof(kCrates) /
                                           sizeof(kCrates[0]));
  std::printf("amortization: %d requests (%d rounds over %zu crates), "
              "%.0f simulated seconds each\n\n",
              Requests, Rounds, sizeof(kCrates) / sizeof(kCrates[0]),
              Budget);

  Session Warm;
  AmortSide Cold = runCold(Budget, Rounds);
  AmortSide WarmSide = runWarm(Warm, J, Budget, Rounds);

  Table TA({"Side", "Requests", "Wall s", "Analyses built", "Warm hits"});
  TA.addRow({"cold: Session per request", std::to_string(Cold.Requests),
             format("%.4f", Cold.WallSeconds),
             format("%" PRIu64, Cold.Builds),
             format("%" PRIu64, Cold.Hits)});
  TA.addRow({"warm: one shared Session",
             std::to_string(WarmSide.Requests),
             format("%.4f", WarmSide.WallSeconds),
             format("%" PRIu64, WarmSide.Builds),
             format("%" PRIu64, WarmSide.Hits)});
  std::printf("%s\n", TA.render().c_str());

  double Speedup = WarmSide.WallSeconds > 0
                       ? Cold.WallSeconds / WarmSide.WallSeconds
                       : 0;
  std::printf("cold %.4f s vs warm %.4f s -> x%.2f; warm side built "
              "%" PRIu64 " analyses for %d requests (%" PRIu64
              " hits), cold side rebuilt every time\n\n",
              Cold.WallSeconds, WarmSide.WallSeconds, Speedup,
              WarmSide.Builds, WarmSide.Requests, WarmSide.Hits);

  J.meta("amortization_wall_seconds_cold",
         json::Value::number(Cold.WallSeconds));
  J.meta("amortization_wall_seconds_warm",
         json::Value::number(WarmSide.WallSeconds));
  J.meta("amortization_speedup", json::Value::number(Speedup));
  J.meta("amortization_requests", json::Value::integer(Requests));
  J.meta("analyses_built_cold",
         json::Value::integer(static_cast<int64_t>(Cold.Builds)));
  J.meta("analyses_built_warm",
         json::Value::integer(static_cast<int64_t>(WarmSide.Builds)));
  J.meta("warm_hits",
         json::Value::integer(static_cast<int64_t>(WarmSide.Hits)));

  // --- Part 2: the wire. Daemon on a scratch socket, served by the
  // already-warm Session so both sides of the A/B start warm. ----------
  cli::ServeRequest Opts;
  Opts.SocketPath = "/tmp/syrust_microserve_" +
                    std::to_string(::getpid()) + ".sock";
  serve::Server Srv(Warm, Opts);
  std::string Err;
  if (!Srv.start(Err)) {
    std::fprintf(stderr, "FAIL: cannot start daemon: %s\n", Err.c_str());
    return 1;
  }
  int ServerExit = -1;
  std::thread ServerThread([&] { ServerExit = Srv.run(); });

  serve::Client C;
  if (!C.connect(Opts.SocketPath, Err)) {
    std::fprintf(stderr, "FAIL: cannot connect: %s\n", Err.c_str());
    Srv.requestStop();
    ServerThread.join();
    return 1;
  }

  // Ping floor: framing + socket + queue handoff, no work at all.
  constexpr int kPings = 256;
  json::Value Ping = json::Value::object();
  Ping.set("verb", json::Value::string("ping"));
  double PingMin = 1e9;
  WallTimer WPing;
  for (int I = 0; I < kPings; ++I) {
    WallTimer W1;
    json::Value Resp;
    if (!C.call(Ping, Resp, Err)) {
      std::fprintf(stderr, "FAIL: ping: %s\n", Err.c_str());
      Srv.requestStop();
      ServerThread.join();
      return 1;
    }
    double S1 = W1.seconds();
    if (S1 < PingMin)
      PingMin = S1;
  }
  double PingMean = WPing.seconds() / kPings;

  // The same campaign in-process and over the socket. The daemon runs
  // the identical cli::execute against the identical warm Session, so
  // the wall difference is the process boundary and the aggregates
  // must match byte for byte.
  cli::RequestSpec Spec;
  if (!campaignSpec(Budget, Spec, Err)) {
    std::fprintf(stderr, "FAIL: campaign spec: %s\n", Err.c_str());
    Srv.requestStop();
    ServerThread.join();
    return 1;
  }
  std::vector<std::string> FinalizeErrs = cli::finalize(Warm, Spec);
  if (!FinalizeErrs.empty()) {
    std::fprintf(stderr, "FAIL: finalize: %s\n",
                 FinalizeErrs.front().c_str());
    Srv.requestStop();
    ServerThread.join();
    return 1;
  }

  WallTimer WLocal;
  cli::Response Local = cli::execute(Warm, Spec);
  double LocalWall = WLocal.seconds();

  json::Value WireReq;
  {
    const char *Argv[] = {"--crates", "slab,bytes", "--seeds",
                          "2021..2022", "--budget", nullptr,
                          "--out", "bench-serve-out"};
    std::string BudgetStr = std::to_string(Budget);
    Argv[5] = BudgetStr.c_str();
    std::vector<std::string> Errors;
    if (!cli::argvToRequestJson(
            cli::Verb::Campaign,
            static_cast<int>(sizeof(Argv) / sizeof(Argv[0])), Argv,
            WireReq, Errors)) {
      std::fprintf(stderr, "FAIL: request encode\n");
      Srv.requestStop();
      ServerThread.join();
      return 1;
    }
  }
  WallTimer WWire;
  json::Value WireRespDoc;
  cli::Response Wire;
  bool WireOk = C.call(WireReq, WireRespDoc, Err) &&
                serve::responseFromJson(WireRespDoc, Wire, Err);
  double WireWall = WWire.seconds();
  if (!WireOk) {
    std::fprintf(stderr, "FAIL: wire campaign: %s\n", Err.c_str());
    Srv.requestStop();
    ServerThread.join();
    return 1;
  }

  bool AggIdentical = aggregateOf(Local) == aggregateOf(Wire) &&
                      !aggregateOf(Local).empty() &&
                      Local.ExitCode == Wire.ExitCode;
  if (!AggIdentical)
    std::fprintf(stderr, "FAIL: socket campaign diverged from the "
                         "in-process campaign\n");

  C.close();
  Srv.requestStop();
  ServerThread.join();
  ::unlink(Opts.SocketPath.c_str());

  Table TW({"Measurement", "Value"});
  TW.addRow({"ping round trip, mean", format("%.1f us", PingMean * 1e6)});
  TW.addRow({"ping round trip, min", format("%.1f us", PingMin * 1e6)});
  TW.addRow({"campaign in-process", format("%.4f s", LocalWall)});
  TW.addRow({"campaign over socket", format("%.4f s", WireWall)});
  TW.addRow({"wire overhead", format("%.4f s", WireWall - LocalWall)});
  TW.addRow({"aggregate bytes", AggIdentical ? "identical" : "DIVERGED"});
  std::printf("%s\n", TW.render().c_str());

  J.meta("ping_count", json::Value::integer(kPings));
  J.meta("ping_rtt_mean_seconds", json::Value::number(PingMean));
  J.meta("ping_rtt_min_seconds", json::Value::number(PingMin));
  J.meta("campaign_wall_seconds_inprocess",
         json::Value::number(LocalWall));
  J.meta("campaign_wall_seconds_wire", json::Value::number(WireWall));
  J.meta("wire_overhead_seconds",
         json::Value::number(WireWall - LocalWall));
  J.meta("aggregate_identical", json::Value::boolean(AggIdentical));
  J.meta("server_exit_code", json::Value::integer(ServerExit));

  std::printf("amortization: x%.2f over %d requests; wire overhead "
              "%.1f ms on a %.1f s campaign (ping floor %.1f us)\n",
              Speedup, Requests, (WireWall - LocalWall) * 1e3, LocalWall,
              PingMin * 1e6);
  J.write();
  return AggIdentical && ServerExit == cli::ExitOk ? 0 : 1;
}
