//===--- Recorder.cpp - Deterministic flight recorder ---------------------===//
//
// Part of SyRust-CPP (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//

#include "obs/Recorder.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <string_view>

using namespace syrust;
using namespace syrust::obs;

namespace {

/// Renders a double as a JSON number token: integral values print as
/// integers (the common case for microsecond timestamps and counters),
/// everything else with enough digits to round-trip. Deterministic for a
/// fixed input on a fixed platform, which is all golden traces need.
std::string numToken(double V) {
  char Buf[40];
  if (std::floor(V) == V && std::fabs(V) < 9.0e15)
    std::snprintf(Buf, sizeof(Buf), "%lld", static_cast<long long>(V));
  else
    std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

void appendString(std::string &Out, std::string_view V) {
  Out += '"';
  json::appendEscaped(Out, V);
  Out += '"';
}

template <typename Int> void appendInt(std::string &Out, Int V) {
  char Buf[24];
  Out.append(Buf, std::to_chars(Buf, Buf + sizeof(Buf), V).ptr);
}

} // namespace

//===----------------------------------------------------------------------===//
// ArgList
//===----------------------------------------------------------------------===//

ArgList::Arg &ArgList::push(const char *Key, Arg::KindTy Kind) {
  Arg &A = Size < InlineArgs ? Inline[Size] : Spill.emplace_back();
  ++Size;
  A.Key = Key;
  A.Kind = Kind;
  return A;
}

ArgList &ArgList::add(const char *Key, const std::string &V) {
  Arg &A = push(Key, Arg::Owned);
  A.Own.Off = Strings.size();
  A.Own.Len = V.size();
  Strings += V;
  return *this;
}

ArgList &ArgList::add(const char *Key, const char *V) {
  push(Key, Arg::Borrowed).Str = V;
  return *this;
}

ArgList &ArgList::add(const char *Key, int64_t V) {
  push(Key, Arg::Signed).I = V;
  return *this;
}

ArgList &ArgList::add(const char *Key, uint64_t V) {
  push(Key, Arg::Unsigned).U = V;
  return *this;
}

ArgList &ArgList::add(const char *Key, double V) {
  push(Key, Arg::Real).D = V;
  return *this;
}

ArgList &ArgList::add(const char *Key, bool V) {
  push(Key, Arg::Flag).B = V;
  return *this;
}

void ArgList::render(std::string &Out) const {
  for (size_t I = 0; I < Size; ++I) {
    const Arg &A = at(I);
    if (I)
      Out += ',';
    Out += '"';
    json::appendEscaped(Out, A.Key);
    Out += "\":";
    switch (A.Kind) {
    case Arg::Borrowed:
      appendString(Out, A.Str);
      break;
    case Arg::Owned:
      appendString(Out,
                   std::string_view(Strings).substr(A.Own.Off, A.Own.Len));
      break;
    case Arg::Signed:
      appendInt(Out, A.I);
      break;
    case Arg::Unsigned:
      appendInt(Out, A.U);
      break;
    case Arg::Real:
      Out += numToken(A.D);
      break;
    case Arg::Flag:
      Out += A.B ? "true" : "false";
      break;
    }
  }
}

//===----------------------------------------------------------------------===//
// Tracer
//===----------------------------------------------------------------------===//

void Tracer::bindClock(const SimClock *C) {
  if (!C && Clock)
    LastSeconds = Clock->now();
  Clock = C;
}

double Tracer::wallSeconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       WallStart)
      .count();
}

void Tracer::push(const char *Name, const char *Cat, char Phase,
                  double TsSeconds, double DurSeconds,
                  const ArgList &Args) {
  std::string E;
  E.reserve(96);
  E += "{\"name\":\"";
  json::appendEscaped(E, Name);
  E += "\",\"cat\":\"";
  json::appendEscaped(E, Cat);
  E += "\",\"ph\":\"";
  E += Phase;
  E += "\",\"ts\":";
  E += numToken(TsSeconds * 1e6);
  if (Phase == 'X') {
    E += ",\"dur\":";
    E += numToken(DurSeconds * 1e6);
  }
  if (Phase == 'i')
    E += ",\"s\":\"t\""; // thread-scoped instant
  E += ",\"pid\":0,\"tid\":";
  E += numToken(Lane);
  if (!Args.empty() || CaptureWall) {
    E += ",\"args\":{";
    Args.render(E);
    if (CaptureWall) {
      if (!Args.empty())
        E += ',';
      E += "\"wall_us\":" + numToken(wallSeconds() * 1e6);
    }
    E += '}';
  }
  E += '}';
  Events.push_back(std::move(E));
}

void Tracer::begin(const char *Name, const char *Cat, const ArgList &Args) {
  push(Name, Cat, 'B', now(), 0, Args);
}

void Tracer::end(const char *Name, const char *Cat, const ArgList &Args) {
  push(Name, Cat, 'E', now(), 0, Args);
}

void Tracer::complete(const char *Name, const char *Cat,
                      double StartSeconds, double DurSeconds,
                      const ArgList &Args) {
  push(Name, Cat, 'X', StartSeconds, DurSeconds, Args);
}

void Tracer::instant(const char *Name, const char *Cat, const ArgList &Args) {
  push(Name, Cat, 'i', now(), 0, Args);
}

std::string Tracer::chromeJson() const {
  return chromeTraceJson({this}, /*NameLanes=*/false);
}

std::string syrust::obs::chromeTraceJson(
    const std::vector<const Tracer *> &Lanes, bool NameLanes) {
  size_t NumEvents = 0;
  for (const Tracer *T : Lanes)
    NumEvents += T->events().size();
  std::string Out;
  Out.reserve(64 + NumEvents * 96);
  Out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool First = true;
  auto Emit = [&](std::string_view Event) {
    if (!First)
      Out += ',';
    First = false;
    Out += '\n';
    Out += Event;
  };
  if (NameLanes)
    for (const Tracer *T : Lanes) {
      char Buf[96];
      std::snprintf(Buf, sizeof(Buf),
                    "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,"
                    "\"tid\":%d,\"args\":{\"name\":\"worker-%d\"}}",
                    T->lane(), T->lane());
      Emit(Buf);
    }
  for (const Tracer *T : Lanes)
    for (const std::string &Event : T->events())
      Emit(Event);
  Out += "\n]}\n";
  return Out;
}

//===----------------------------------------------------------------------===//
// Histogram
//===----------------------------------------------------------------------===//

Histogram::Histogram(double FirstEdge, double Factor, size_t NumEdges) {
  Edges.reserve(NumEdges);
  double E = FirstEdge;
  for (size_t I = 0; I < NumEdges; ++I, E *= Factor)
    Edges.push_back(E);
  Counts.assign(NumEdges + 1, 0);
}

void Histogram::observe(double X) {
  ++Total;
  Sum += X;
  for (size_t I = 0; I < Edges.size(); ++I)
    if (X <= Edges[I]) {
      ++Counts[I];
      return;
    }
  ++Counts.back(); // Overflow bucket.
}

//===----------------------------------------------------------------------===//
// MetricsRegistry
//===----------------------------------------------------------------------===//

Counter &MetricsRegistry::counter(std::string_view Name) {
  auto It = Counters.find(Name);
  if (It == Counters.end())
    It = Counters.emplace(Name, std::make_unique<Counter>()).first;
  return *It->second;
}

Gauge &MetricsRegistry::gauge(std::string_view Name) {
  auto It = Gauges.find(Name);
  if (It == Gauges.end())
    It = Gauges.emplace(Name, std::make_unique<Gauge>()).first;
  return *It->second;
}

Histogram &MetricsRegistry::histogram(std::string_view Name,
                                      double FirstEdge, double Factor,
                                      size_t NumEdges) {
  auto It = Histograms.find(Name);
  if (It == Histograms.end())
    It = Histograms
             .emplace(Name, std::make_unique<Histogram>(FirstEdge, Factor,
                                                        NumEdges))
             .first;
  return *It->second;
}

std::map<std::string, uint64_t> MetricsRegistry::counterValues() const {
  std::map<std::string, uint64_t> Values;
  for (const auto &[Name, Ctr] : Counters)
    Values.emplace_hint(Values.end(), Name, Ctr->value());
  return Values;
}

MetricsRegistry::Snapshot MetricsRegistry::capture(double AtSeconds) const {
  Snapshot S;
  S.AtSeconds = AtSeconds;
  S.Counters.reserve(Counters.size());
  for (const auto &[Name, Ctr] : Counters)
    S.Counters.emplace_back(&Name, Ctr->value());
  S.Gauges.reserve(Gauges.size());
  for (const auto &[Name, Gg] : Gauges)
    S.Gauges.emplace_back(&Name, Gg->value());
  S.Histograms.reserve(Histograms.size());
  for (const auto &[Name, Hist] : Histograms) {
    HistogramValues H{&Name, Hist.get(), Hist->count(), Hist->sum(), {}};
    H.Buckets.reserve(Hist->numEdges() + 1);
    for (size_t I = 0; I <= Hist->numEdges(); ++I)
      H.Buckets.push_back(Hist->bucketCount(I));
    S.Histograms.push_back(std::move(H));
  }
  return S;
}

json::Value MetricsRegistry::render(const Snapshot &S) {
  json::Value Line = json::Value::object();
  Line.set("t", json::Value::number(S.AtSeconds));
  if (!S.Counters.empty()) {
    json::Value C = json::Value::object();
    for (const auto &[Name, N] : S.Counters)
      C.set(*Name, json::Value::integer(static_cast<int64_t>(N)));
    Line.set("counters", std::move(C));
  }
  if (!S.Gauges.empty()) {
    json::Value G = json::Value::object();
    for (const auto &[Name, V] : S.Gauges)
      G.set(*Name, json::Value::number(V));
    Line.set("gauges", std::move(G));
  }
  if (!S.Histograms.empty()) {
    json::Value H = json::Value::object();
    for (const HistogramValues &Hist : S.Histograms) {
      json::Value One = json::Value::object();
      One.set("count",
              json::Value::integer(static_cast<int64_t>(Hist.Count)));
      One.set("sum", json::Value::number(Hist.Sum));
      json::Value Edges = json::Value::array();
      for (size_t I = 0; I < Hist.Shape->numEdges(); ++I)
        Edges.push(json::Value::number(Hist.Shape->upperEdge(I)));
      One.set("edges", std::move(Edges));
      json::Value Buckets = json::Value::array();
      for (uint64_t N : Hist.Buckets)
        Buckets.push(json::Value::integer(static_cast<int64_t>(N)));
      One.set("buckets", std::move(Buckets));
      H.set(*Hist.Name, std::move(One));
    }
    Line.set("histograms", std::move(H));
  }
  return Line;
}

json::Value MetricsRegistry::snapshotValue(double AtSeconds) const {
  return render(capture(AtSeconds));
}

void MetricsRegistry::snapshot(double AtSeconds) {
  Snapshots.push_back(capture(AtSeconds));
}

std::string MetricsRegistry::jsonl() const {
  std::string Out;
  for (const Snapshot &S : Snapshots) {
    Out += render(S).dump();
    Out += '\n';
  }
  return Out;
}
