//===--- ServeTest.cpp - syrust serve daemon tests ------------------------===//
//
// Part of SyRust-CPP (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
//
// End-to-end daemon tests over a real AF_UNIX socket: the byte-identity
// contract (a campaign submitted over the wire answers with the same
// document offline execution produces), the control verbs, and the
// hostility suite — a client sending garbage must never take the daemon
// away from the clients behaving themselves.
//
//===----------------------------------------------------------------------===//

#include "serve/Server.h"

#include "cli/Execute.h"
#include "core/Session.h"
#include "serve/Client.h"

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <thread>

using namespace syrust;
using namespace syrust::serve;

namespace {

/// One live daemon on a socket in the test temp dir, served from a
/// background thread. The fixture session is shared — analyses stay
/// warm across every test in the binary, daemon-style.
class ServeTest : public testing::Test {
protected:
  void SetUp() override {
    // Per-process socket name: ctest runs each test of this binary as
    // its own process, often in parallel, and two daemons on one path
    // would unlink each other's sockets. Short names too: sun_path is
    // ~108 bytes and TempDir can be deep, so fall back to /tmp.
    const std::string Name =
        "/syrust_serve_" + std::to_string(::getpid()) + ".sock";
    SocketPath = testing::TempDir() + Name;
    if (SocketPath.size() >= 100)
      SocketPath = "/tmp" + Name;

    cli::ServeRequest Options;
    Options.SocketPath = SocketPath;
    Options.MaxInflight = 2;
    Daemon.reset(new Server(session(), Options));
    std::string Err;
    ASSERT_TRUE(Daemon->start(Err)) << Err;
    IoThread = std::thread([this] { ExitCode = Daemon->run(); });
  }

  void TearDown() override {
    Daemon->requestStop();
    IoThread.join();
    EXPECT_EQ(cli::ExitOk, ExitCode);
    Daemon.reset();
  }

  static core::Session &session() {
    static core::Session S;
    return S;
  }

  json::Value call(Client &C, const std::string &RequestText) {
    json::ParseResult P = json::parse(RequestText);
    EXPECT_TRUE(P.Ok) << P.Error;
    json::Value Response;
    std::string Err;
    EXPECT_TRUE(C.call(P.Val, Response, Err)) << Err;
    return Response;
  }

  Client connected() {
    Client C;
    std::string Err;
    EXPECT_TRUE(C.connect(SocketPath, Err)) << Err;
    return C;
  }

  std::string SocketPath;
  std::unique_ptr<Server> Daemon;
  std::thread IoThread;
  int ExitCode = -1;
};

TEST_F(ServeTest, PingPongsAndEchoesId) {
  Client C = connected();
  json::Value R = call(C, "{\"verb\":\"ping\",\"id\":7}");
  EXPECT_TRUE(R.get("ok").asBool());
  EXPECT_TRUE(R.get("pong").asBool());
  EXPECT_EQ(7, R.get("id").asInt());
}

TEST_F(ServeTest, CampaignOverSocketMatchesOfflineByteForByte) {
  // The headline contract. Offline first:
  cli::RequestSpec Spec;
  std::vector<std::string> Errors;
  const char *Argv[] = {"--crates", "slab,bytes", "--seeds",
                        "2021..2022", "--budget", "8", "--out", "d"};
  ASSERT_TRUE(cli::parseArgv(cli::Verb::Campaign, 8, Argv, Spec, Errors));
  ASSERT_TRUE((Errors = cli::finalize(session(), Spec)).empty())
      << Errors.front();
  cli::Response Offline = cli::execute(session(), Spec);

  // Same request over the wire.
  json::Value Wire;
  ASSERT_TRUE(cli::argvToRequestJson(cli::Verb::Campaign, 8, Argv, Wire,
                                     Errors));
  Client C = connected();
  json::Value Doc;
  std::string Err;
  ASSERT_TRUE(C.call(Wire, Doc, Err)) << Err;
  cli::Response Online;
  ASSERT_TRUE(responseFromJson(Doc, Online, Err)) << Err;

  EXPECT_EQ(Offline.ExitCode, Online.ExitCode);
  EXPECT_EQ(Offline.Output, Online.Output);
  ASSERT_EQ(Offline.Files.size(), Online.Files.size());
  for (size_t I = 0; I < Offline.Files.size(); ++I) {
    EXPECT_EQ(Offline.Files[I].first, Online.Files[I].first);
    // Byte-for-byte, wall-time-free per-job documents included: the
    // daemon rendered them once and shipped the bytes.
    if (Offline.Files[I].first == "d/aggregate.json") {
      EXPECT_EQ(Offline.Files[I].second, Online.Files[I].second)
          << Offline.Files[I].first;
    }
  }
}

TEST_F(ServeTest, GarbageJsonGetsAnErrorButKeepsTheConnection) {
  Client C = connected();
  std::string Raw, Err;
  ASSERT_TRUE(C.callRaw("this is not json{{{", Raw, Err)) << Err;
  json::ParseResult P = json::parse(Raw);
  ASSERT_TRUE(P.Ok);
  EXPECT_FALSE(P.Val.get("ok").asBool());
  EXPECT_NE(std::string::npos,
            P.Val.get("error").asString().find("malformed"));

  // Framing stayed intact: the same connection still serves.
  json::Value R = call(C, "{\"verb\":\"ping\"}");
  EXPECT_TRUE(R.get("ok").asBool());
}

TEST_F(ServeTest, DeeplyNestedFrameGetsAnErrorButKeepsTheConnection) {
  // 200,000 nested arrays fit one frame; the parser refuses them at its
  // nesting limit instead of recursing off the end of the IO thread's
  // stack.
  Client C = connected();
  std::string Raw, Err;
  ASSERT_TRUE(C.callRaw(std::string(200000, '['), Raw, Err)) << Err;
  json::ParseResult P = json::parse(Raw);
  ASSERT_TRUE(P.Ok);
  EXPECT_FALSE(P.Val.get("ok").asBool());
  EXPECT_NE(std::string::npos,
            P.Val.get("error").asString().find(
                "nesting deeper than 512 levels at offset 512"));

  json::Value R = call(C, "{\"verb\":\"ping\"}");
  EXPECT_TRUE(R.get("ok").asBool());
}

TEST_F(ServeTest, InvalidRequestsNameTheBadField) {
  Client C = connected();
  json::Value R =
      call(C, "{\"verb\":\"run\",\"crate\":\"slab\",\"bogus\":1}");
  EXPECT_FALSE(R.get("ok").asBool());
  EXPECT_NE(std::string::npos, R.get("error").asString().find("bogus"));

  R = call(C, "{\"verb\":\"run\",\"crate\":\"no_such_crate\"}");
  EXPECT_FALSE(R.get("ok").asBool());
  EXPECT_NE(std::string::npos,
            R.get("error").asString().find("no_such_crate"));

  // Removed options are unknown fields on the wire as on argv.
  for (const std::string Key : {"no-compat-cache", "no-api-coverage"}) {
    R = call(C, "{\"verb\":\"run\",\"crate\":\"slab\",\"" + Key + "\":true}");
    EXPECT_FALSE(R.get("ok").asBool());
    EXPECT_NE(std::string::npos,
              R.get("error").asString().find("unknown request field '" +
                                             Key + "'"));
  }

  // The connection survives its own bad requests.
  EXPECT_TRUE(call(C, "{\"verb\":\"ping\"}").get("ok").asBool());
}

TEST_F(ServeTest, OversizedMatrixGetsAnErrorButKeepsTheConnection) {
  // 2^53 - 1 seeds of one crate: refused before a single cell is laid
  // out, instead of taking the daemon down with the memory they need.
  Client C = connected();
  for (const std::string Verb : {"campaign", "audit"}) {
    json::Value R = call(C, "{\"verb\":\"" + Verb +
                                "\",\"crates\":\"slab\","
                                "\"seeds\":\"1..9007199254740991\"}");
    EXPECT_FALSE(R.get("ok").asBool()) << Verb;
    EXPECT_NE(std::string::npos,
              R.get("error").asString().find(
                  "matrix has 9007199254740991 cells, more than the cap "
                  "of 8192"))
        << Verb;
  }

  // The same connection completes a small campaign.
  json::Value R = call(C, "{\"verb\":\"campaign\",\"crates\":\"slab\","
                          "\"seeds\":\"2021\",\"budget\":8}");
  EXPECT_TRUE(R.get("ok").asBool());
}

TEST_F(ServeTest, OversizedFrameDropsOnlyThatClient) {
  Client Innocent = connected();

  // A hostile 4 GiB length prefix: the daemon must hang up on this
  // client (stream position is unrecoverable)...
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(Fd, 0);
  sockaddr_un Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  std::memcpy(Addr.sun_path, SocketPath.c_str(), SocketPath.size());
  ASSERT_EQ(0, ::connect(Fd, reinterpret_cast<sockaddr *>(&Addr),
                         sizeof(Addr)));
  const char Evil[8] = {'\xff', '\xff', '\xff', '\xff', 'j', 'u', 'n',
                        'k'};
  ASSERT_EQ(8, ::write(Fd, Evil, 8));
  char Buf[16];
  EXPECT_EQ(0, ::read(Fd, Buf, sizeof(Buf))); // EOF: dropped.
  ::close(Fd);

  // ...while everyone else stays served.
  EXPECT_TRUE(
      call(Innocent, "{\"verb\":\"ping\"}").get("ok").asBool());
}

TEST_F(ServeTest, MidRequestDisconnectLeavesTheDaemonServing) {
  // Send half a frame, then vanish.
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(Fd, 0);
  sockaddr_un Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  std::memcpy(Addr.sun_path, SocketPath.c_str(), SocketPath.size());
  ASSERT_EQ(0, ::connect(Fd, reinterpret_cast<sockaddr *>(&Addr),
                         sizeof(Addr)));
  std::string Frame = encodeFrame("{\"verb\":\"ping\"}");
  ASSERT_EQ(5, ::write(Fd, Frame.data(), 5));
  ::close(Fd);

  Client C = connected();
  EXPECT_TRUE(call(C, "{\"verb\":\"ping\"}").get("ok").asBool());
}

TEST_F(ServeTest, StatsReportWarmAnalysesAndQueues) {
  Client C = connected();
  // Warm the session through the daemon.
  call(C, "{\"verb\":\"run\",\"crate\":\"slab\",\"budget\":8}");
  json::Value R = call(C, "{\"verb\":\"stats\"}");
  ASSERT_TRUE(R.get("ok").asBool());
  const json::Value &Stats = R.get("stats");
  EXPECT_GE(Stats.get("gauges").get("serve.warm.builds").asDouble(), 1.0);
  EXPECT_GE(Stats.get("counters").get("serve.requests.total").asInt(), 1);
  EXPECT_EQ(0.0,
            Stats.get("gauges").get("serve.queue.depth").asDouble());
}

TEST_F(ServeTest, PerClientInflightCapRejectsTheExcess) {
  auto rawConnect = [&] {
    int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    EXPECT_GE(Fd, 0);
    sockaddr_un Addr;
    std::memset(&Addr, 0, sizeof(Addr));
    Addr.sun_family = AF_UNIX;
    std::memcpy(Addr.sun_path, SocketPath.c_str(), SocketPath.size());
    EXPECT_EQ(0, ::connect(Fd, reinterpret_cast<sockaddr *>(&Addr),
                           sizeof(Addr)));
    return Fd;
  };
  auto sendFrame = [](int Fd, const std::string &Payload) {
    std::string Frame = encodeFrame(Payload);
    ASSERT_EQ(static_cast<ssize_t>(Frame.size()),
              ::write(Fd, Frame.data(), Frame.size()));
  };

  // Occupy the single executor with a slow campaign from another
  // connection, so this client's queue cannot drain under the burst.
  int Slow = rawConnect();
  sendFrame(Slow, "{\"verb\":\"campaign\",\"crates\":\"slab,bytes\","
                  "\"seeds\":\"1..40\",\"budget\":10}");
  // Don't burst until the campaign is actually the one running.
  Client Probe = connected();
  for (;;) {
    json::Value R = call(Probe, "{\"verb\":\"stats\"}");
    if (R.get("stats")
            .get("counters")
            .get("serve.requests.campaign")
            .asInt() >= 1)
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Pipeline MaxInflight+1 requests on one connection without reading;
  // the cap (2 here) must reject the excess with an error response
  // while the capped requests still answer.
  int Fd = rawConnect();
  for (int I = 0; I < 3; ++I)
    sendFrame(Fd,
              "{\"verb\":\"run\",\"crate\":\"slab\",\"budget\":8,"
              "\"id\":" +
                  std::to_string(I) + "}");

  FrameDecoder D;
  int Answered = 0, Rejected = 0;
  std::string Payload;
  while (Answered + Rejected < 3) {
    char Buf[65536];
    ssize_t N = ::read(Fd, Buf, sizeof(Buf));
    ASSERT_GT(N, 0);
    D.feed(Buf, static_cast<size_t>(N));
    while (D.next(Payload) == FrameDecoder::Status::Frame) {
      json::ParseResult P = json::parse(Payload);
      ASSERT_TRUE(P.Ok);
      if (P.Val.get("ok").asBool())
        ++Answered;
      else {
        ++Rejected;
        EXPECT_NE(std::string::npos,
                  P.Val.get("error").asString().find("in flight"));
      }
    }
  }
  ::close(Fd);

  // Let the slow campaign answer too, so TearDown's shutdown finds a
  // quiet daemon.
  FrameDecoder SlowD;
  for (;;) {
    char Buf[65536];
    ssize_t N = ::read(Slow, Buf, sizeof(Buf));
    ASSERT_GT(N, 0);
    SlowD.feed(Buf, static_cast<size_t>(N));
    if (SlowD.next(Payload) == FrameDecoder::Status::Frame)
      break;
  }
  ::close(Slow);

  EXPECT_EQ(2, Answered);
  EXPECT_EQ(1, Rejected);
}

TEST_F(ServeTest, TwoClientsAreServedFairly) {
  // Not a scheduling-order assertion (that would be timing-dependent) —
  // just that interleaved clients both complete against one daemon.
  Client A = connected();
  Client B = connected();
  json::Value RA =
      call(A, "{\"verb\":\"run\",\"crate\":\"slab\",\"budget\":8}");
  json::Value RB =
      call(B, "{\"verb\":\"run\",\"crate\":\"bytes\",\"budget\":8}");
  EXPECT_TRUE(RA.get("ok").asBool());
  EXPECT_TRUE(RB.get("ok").asBool());
  EXPECT_NE(RA.get("output").asString(), RB.get("output").asString());
}

} // namespace
