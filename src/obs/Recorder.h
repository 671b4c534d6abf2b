//===--- Recorder.h - Deterministic flight recorder ------------*- C++ -*-===//
//
// Part of SyRust-CPP (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The run-wide "flight recorder": a Tracer that records begin/end spans,
/// complete spans, and instant events stamped with the deterministic
/// SimClock, exported as Chrome trace-event / Perfetto-compatible JSON;
/// and a MetricsRegistry of named counters, gauges, and fixed-log-bucket
/// histograms with periodic snapshots, rendered as JSONL on request.
///
/// Because every timestamp comes from the simulated clock, a trace is
/// byte-identical across machines for a fixed seed, which makes the whole
/// layer golden-testable. Real wall-clock can be attached as an optional
/// second timestamp (`wall_us` arg on every event) for profiling; it is
/// off by default precisely because it breaks that determinism.
///
/// Cost when a half is off: pipeline components hold a `Recorder *` that
/// is null by default, so the uninstrumented path pays one pointer check.
/// With a recorder attached but tracing off (every campaign worker), an
/// event's ArgList still gets built, but it only stores raw values; the
/// tracer renders them into JSON when tracing is on. A metric update is
/// one lookup of its name in the registry, which builds no string, and
/// one increment.
///
//===----------------------------------------------------------------------===//

#ifndef SYRUST_OBS_RECORDER_H
#define SYRUST_OBS_RECORDER_H

#include "support/Json.h"
#include "support/SimClock.h"

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace syrust::obs {

/// Ordered key/value list attached to a trace event, kept in insertion
/// order (deterministic output needs a stable arg order, not map order).
/// It stores raw values; Tracer renders them, so building an ArgList for
/// a recorder with tracing off formats nothing. Keys and `const char *`
/// values are borrowed, not copied: they must outlive the list (string
/// literals and the static name tables do). `std::string` values are
/// copied.
class ArgList {
public:
  ArgList &add(const char *Key, const std::string &V);
  ArgList &add(const char *Key, const char *V);
  ArgList &add(const char *Key, int64_t V);
  ArgList &add(const char *Key, uint64_t V);
  ArgList &add(const char *Key, int V) {
    return add(Key, static_cast<int64_t>(V));
  }
  ArgList &add(const char *Key, double V);
  ArgList &add(const char *Key, bool V);

  bool empty() const { return Size == 0; }

  /// Appends the arguments as comma-separated JSON members
  /// (`"key":value`), each value rendered as its JSON token.
  void render(std::string &Out) const;

private:
  struct Arg {
    const char *Key;
    enum KindTy : uint8_t { Borrowed, Owned, Signed, Unsigned, Real, Flag };
    KindTy Kind;
    union {
      const char *Str;
      struct {
        size_t Off, Len; ///< Into Strings.
      } Own;
      int64_t I;
      uint64_t U;
      double D;
      bool B;
    };
  };
  /// Most events carry a handful of arguments; they stay inline.
  static constexpr size_t InlineArgs = 6;

  Arg &push(const char *Key, Arg::KindTy Kind);
  const Arg &at(size_t I) const {
    return I < InlineArgs ? Inline[I] : Spill[I - InlineArgs];
  }

  Arg Inline[InlineArgs] = {};
  size_t Size = 0;
  std::vector<Arg> Spill;
  std::string Strings; ///< Bytes of the copied `std::string` values.
};

/// Records trace events against the simulated clock and renders them in
/// the Chrome trace-event format (loadable in Perfetto / chrome://tracing).
class Tracer {
public:
  /// \p Lane becomes the `tid` of every event this tracer records. A
  /// single-run trace uses lane 0 (the historical value); a campaign
  /// gives each pool worker its own lane so the merged trace shows one
  /// named track per worker.
  explicit Tracer(bool CaptureWall = false, int Lane = 0)
      : CaptureWall(CaptureWall), Lane(Lane),
        WallStart(std::chrono::steady_clock::now()) {}

  /// Points the tracer at the clock all timestamps come from. The driver
  /// binds its run-local SimClock at run start and unbinds (nullptr) at
  /// run end; events recorded while unbound are stamped at the last bound
  /// clock's final reading (0 before any bind).
  void bindClock(const SimClock *C);

  /// Current simulated time in seconds.
  double now() const { return Clock ? Clock->now() : LastSeconds; }

  /// Begin/end span pair ("B"/"E" phases). Nest freely; Chrome matches
  /// them per thread by order.
  void begin(const char *Name, const char *Cat, const ArgList &Args = {});
  void end(const char *Name, const char *Cat, const ArgList &Args = {});

  /// Complete span ("X" phase) with an explicit start and duration in
  /// simulated seconds — the natural shape for pipeline stages whose cost
  /// is a known SimClock charge.
  void complete(const char *Name, const char *Cat, double StartSeconds,
                double DurSeconds, const ArgList &Args = {});

  /// Instant event ("i" phase) at the current simulated time.
  void instant(const char *Name, const char *Cat, const ArgList &Args = {});

  size_t numEvents() const { return Events.size(); }
  int lane() const { return Lane; }

  /// The recorded events, each pre-rendered as one JSON object.
  const std::vector<std::string> &events() const { return Events; }

  /// Renders the whole trace as one Chrome trace-event JSON document
  /// (chromeTraceJson of this one lane, unnamed).
  std::string chromeJson() const;

private:
  void push(const char *Name, const char *Cat, char Phase,
            double TsSeconds, double DurSeconds, const ArgList &Args);
  double wallSeconds() const;

  const SimClock *Clock = nullptr;
  double LastSeconds = 0;
  bool CaptureWall = false;
  int Lane = 0;
  std::chrono::steady_clock::time_point WallStart;
  /// Each event pre-rendered as one JSON object.
  std::vector<std::string> Events;
};

/// The one Chrome trace-event document writer:
/// `{"displayTimeUnit":"ms","traceEvents":[...]}` with one event per
/// line and `ts`/`dur` in microseconds of simulated time. With
/// \p NameLanes, a `thread_name` metadata event first names each lane
/// `worker-<lane>` (a campaign's merged trace shows one named track per
/// worker); then come each lane's events, lanes in the given order, each
/// in recording order.
std::string chromeTraceJson(const std::vector<const Tracer *> &Lanes,
                            bool NameLanes);

/// Monotone saturating counter (sticks at UINT64_MAX instead of wrapping,
/// so an overflowed metric reads as "huge", not "tiny").
class Counter {
public:
  void inc(uint64_t N = 1) {
    V = (V + N < V) ? UINT64_MAX : V + N;
  }
  uint64_t value() const { return V; }

private:
  uint64_t V = 0;
};

/// Last-write-wins numeric gauge.
class Gauge {
public:
  void set(double X) { V = X; }
  double value() const { return V; }

private:
  double V = 0;
};

/// Fixed logarithmic-bucket histogram: bucket I covers values up to
/// FirstEdge * Factor^I (inclusive); one extra bucket counts overflow.
class Histogram {
public:
  Histogram(double FirstEdge, double Factor, size_t NumEdges);

  void observe(double X);

  size_t numEdges() const { return Edges.size(); }
  double upperEdge(size_t I) const { return Edges[I]; }
  /// I in [0, numEdges()]: the last slot is the overflow bucket.
  uint64_t bucketCount(size_t I) const { return Counts[I]; }
  uint64_t count() const { return Total; }
  double sum() const { return Sum; }

private:
  std::vector<double> Edges;
  std::vector<uint64_t> Counts; ///< Edges.size() + 1 (overflow last).
  uint64_t Total = 0;
  double Sum = 0;
};

/// Named metrics with periodic snapshots. Lookup creates on first use;
/// references stay valid for the registry's lifetime, so hot paths can
/// cache them. Names are emitted in sorted order (deterministic output).
class MetricsRegistry {
public:
  Counter &counter(std::string_view Name);
  Gauge &gauge(std::string_view Name);
  /// Creation parameters apply on first use only.
  Histogram &histogram(std::string_view Name, double FirstEdge = 1.0,
                       double Factor = 2.0, size_t NumEdges = 24);

  /// Records every metric's value at simulated time \p AtSeconds. Only
  /// the values are kept; jsonl() renders them, so a registry nobody
  /// reads lines from (a campaign or audit worker's) renders none.
  void snapshot(double AtSeconds);
  size_t numSnapshots() const { return Snapshots.size(); }

  /// The current values as one snapshot's JSON value (what each JSONL
  /// line contains).
  json::Value snapshotValue(double AtSeconds) const;

  /// All snapshots so far, one JSON object per line.
  std::string jsonl() const;

  /// Every counter's current value by name (sorted): a campaign or audit
  /// job's share of the aggregate's per-stage totals.
  std::map<std::string, uint64_t> counterValues() const;

private:
  /// One histogram's state at a snapshot; its edges never change.
  struct HistogramValues {
    const std::string *Name;
    const Histogram *Shape;
    uint64_t Count;
    double Sum;
    std::vector<uint64_t> Buckets;
  };
  /// Every metric's value at one instant. Names point at the keys of the
  /// maps below, which no entry ever leaves.
  struct Snapshot {
    double AtSeconds;
    std::vector<std::pair<const std::string *, uint64_t>> Counters;
    std::vector<std::pair<const std::string *, double>> Gauges;
    std::vector<HistogramValues> Histograms;
  };
  Snapshot capture(double AtSeconds) const;
  static json::Value render(const Snapshot &S);

  // std::less<> looks names up without building a std::string.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> Counters;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> Gauges;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> Histograms;
  std::vector<Snapshot> Snapshots;
};

/// The flight recorder handed through the pipeline: tracing + metrics
/// behind one pointer, each independently enableable. All convenience
/// methods no-op when the corresponding half is off.
class Recorder {
public:
  struct Options {
    bool Trace = true;
    bool Metrics = true;
    /// Attach real wall-clock (`wall_us`) to every trace event. Breaks
    /// byte-identical traces across runs; for local profiling only.
    bool WallClock = false;
    /// Trace lane (`tid`) for every event; campaign workers get their
    /// worker id here so merged traces show one track per worker.
    int Lane = 0;
  };

  Recorder() : TraceOn(true), MetricsOn(true), Trace(false) {}
  explicit Recorder(Options O)
      : TraceOn(O.Trace), MetricsOn(O.Metrics),
        Trace(O.WallClock, O.Lane) {}

  void bindClock(const SimClock *C) { Trace.bindClock(C); }

  Tracer &tracer() { return Trace; }
  MetricsRegistry &metrics() { return Metrics; }

  void begin(const char *Name, const char *Cat, const ArgList &Args = {}) {
    if (TraceOn)
      Trace.begin(Name, Cat, Args);
  }
  void end(const char *Name, const char *Cat, const ArgList &Args = {}) {
    if (TraceOn)
      Trace.end(Name, Cat, Args);
  }
  void complete(const char *Name, const char *Cat, double StartSeconds,
                double DurSeconds, const ArgList &Args = {}) {
    if (TraceOn)
      Trace.complete(Name, Cat, StartSeconds, DurSeconds, Args);
  }
  void instant(const char *Name, const char *Cat, const ArgList &Args = {}) {
    if (TraceOn)
      Trace.instant(Name, Cat, Args);
  }
  double now() const { return Trace.now(); }

  void count(std::string_view Name, uint64_t N = 1) {
    if (MetricsOn)
      Metrics.counter(Name).inc(N);
  }
  void gaugeSet(std::string_view Name, double V) {
    if (MetricsOn)
      Metrics.gauge(Name).set(V);
  }
  void observe(std::string_view Name, double V) {
    if (MetricsOn)
      Metrics.histogram(Name).observe(V);
  }
  void snapshotMetrics(double AtSeconds) {
    if (MetricsOn)
      Metrics.snapshot(AtSeconds);
  }

private:
  bool TraceOn;
  bool MetricsOn;
  Tracer Trace;
  MetricsRegistry Metrics;
};

} // namespace syrust::obs

#endif // SYRUST_OBS_RECORDER_H
