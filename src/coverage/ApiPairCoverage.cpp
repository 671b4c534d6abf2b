//===--- ApiPairCoverage.cpp - API-pair (dependency-edge) coverage --------===//
//
// Part of SyRust-CPP (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//

#include "coverage/ApiPairCoverage.h"

#include <bit>
#include <cstdio>

using namespace syrust;
using namespace syrust::api;
using namespace syrust::coverage;
using namespace syrust::json;
using namespace syrust::program;

namespace {

uint64_t popcount(const std::vector<uint8_t> &Bits) {
  uint64_t N = 0;
  for (uint8_t B : Bits)
    N += static_cast<uint64_t>(std::popcount(B));
  return N;
}

/// Sets bit \p I; returns true when it was previously clear.
bool setBit(std::vector<uint8_t> &Bits, uint64_t I) {
  uint8_t &Byte = Bits[I / 8];
  const uint8_t Mask = static_cast<uint8_t>(1u << (I % 8));
  if (Byte & Mask)
    return false;
  Byte |= Mask;
  return true;
}

/// Follows the RefinedFrom chain to the polymorphic original - the node
/// id in the frozen graph. Refined APIs always point (transitively) at a
/// base-database id.
ApiId canonicalApi(const ApiDatabase &Db, ApiId Id) {
  while (Id != ApiIdInvalid && Db.get(Id).RefinedFrom != ApiIdInvalid)
    Id = Db.get(Id).RefinedFrom;
  return Id;
}

std::string bitsToHex(const std::vector<uint8_t> &Bits) {
  static const char *Digits = "0123456789abcdef";
  std::string Hex;
  Hex.reserve(Bits.size() * 2);
  for (uint8_t B : Bits) {
    Hex.push_back(Digits[B >> 4]);
    Hex.push_back(Digits[B & 0xf]);
  }
  return Hex;
}

bool hexToBits(const std::string &Hex, size_t WantBytes,
               std::vector<uint8_t> &Out) {
  if (Hex.size() != WantBytes * 2)
    return false;
  auto Nibble = [](char C) -> int {
    if (C >= '0' && C <= '9')
      return C - '0';
    if (C >= 'a' && C <= 'f')
      return C - 'a' + 10;
    return -1;
  };
  Out.assign(WantBytes, 0);
  for (size_t I = 0; I < WantBytes; ++I) {
    int Hi = Nibble(Hex[2 * I]), Lo = Nibble(Hex[2 * I + 1]);
    if (Hi < 0 || Lo < 0)
      return false;
    Out[I] = static_cast<uint8_t>((Hi << 4) | Lo);
  }
  return true;
}

} // namespace

uint64_t ApiCoverageData::nodesCovered() const { return popcount(NodeBits); }
uint64_t ApiCoverageData::edgesCovered() const { return popcount(EdgeBits); }

bool ApiCoverageData::mergeFrom(const ApiCoverageData &Other) {
  if (Other.empty())
    return false;
  if (empty() || NodesTotal != Other.NodesTotal ||
      EdgesTotal != Other.EdgesTotal) {
    // Adopt wholesale: either this side is empty, or the documents come
    // from different graphs and ORing byte-by-byte would scramble bit
    // offsets. Keep whichever covers the larger graph. Two non-empty
    // documents disagreeing is a genuine conflict - the smaller side's
    // covered bits are discarded, which must not happen silently.
    const bool Conflict = !empty();
    if (Conflict)
      std::fprintf(stderr,
                   "warning: api_coverage merge conflict: totals "
                   "%llu/%llu vs %llu/%llu nodes/edges; keeping the "
                   "larger graph, dropping the other document's bits\n",
                   static_cast<unsigned long long>(NodesTotal),
                   static_cast<unsigned long long>(EdgesTotal),
                   static_cast<unsigned long long>(Other.NodesTotal),
                   static_cast<unsigned long long>(Other.EdgesTotal));
    if (empty() || Other.EdgesTotal > EdgesTotal) {
      const uint64_t Unmatched = UnmatchedEdges;
      *this = Other;
      UnmatchedEdges += Unmatched;
      Snaps.clear();
      SaturationSeconds = -1;
    } else {
      UnmatchedEdges += Other.UnmatchedEdges;
      Snaps.clear();
      SaturationSeconds = -1;
    }
    return Conflict;
  }
  for (size_t I = 0; I < NodeBits.size(); ++I)
    NodeBits[I] |= Other.NodeBits[I];
  for (size_t I = 0; I < EdgeBits.size(); ++I)
    EdgeBits[I] |= Other.EdgeBits[I];
  UnmatchedEdges += Other.UnmatchedEdges;
  Snaps.clear();
  SaturationSeconds = -1;
  return false;
}

ApiPairCoverage::ApiPairCoverage(const DependencyGraph &Graph) : Graph(Graph) {
  D.NodesTotal = Graph.numNodes();
  D.EdgesTotal = Graph.numEdges();
  D.NodeBits.assign((D.NodesTotal + 7) / 8, 0);
  D.EdgeBits.assign((D.EdgesTotal + 7) / 8, 0);
}

ApiPairCoverage::MarkDelta
ApiPairCoverage::markProgram(const Program &P, const ApiDatabase &Db) {
  MarkDelta Delta;
  const int NumInputs = static_cast<int>(P.Inputs.size());
  for (size_t S = 0; S < P.Stmts.size(); ++S) {
    const Stmt &St = P.Stmts[S];
    const ApiId Consumer = canonicalApi(Db, St.Api);
    if (Consumer < 0 || static_cast<uint64_t>(Consumer) >= D.NodesTotal) {
      ++Delta.Unmatched;
      continue;
    }
    if (setBit(D.NodeBits, static_cast<uint64_t>(Consumer)))
      ++Delta.NewNodes;
    for (size_t J = 0; J < St.Args.size(); ++J) {
      const VarId Arg = St.Args[J];
      if (Arg < NumInputs)
        continue; // Template input, not a producer/consumer edge.
      const Stmt &ProducerStmt = P.Stmts[static_cast<size_t>(Arg - NumInputs)];
      const int Idx = Graph.edgeIndex(canonicalApi(Db, ProducerStmt.Api),
                                      Consumer, static_cast<int>(J));
      if (Idx < 0) {
        ++Delta.Unmatched;
        continue;
      }
      if (setBit(D.EdgeBits, static_cast<uint64_t>(Idx)))
        ++Delta.NewEdges;
    }
  }
  D.UnmatchedEdges += Delta.Unmatched;
  return Delta;
}

void ApiPairCoverage::snapshot(double AtSeconds) {
  ApiCoverageSnapshot S;
  S.AtSeconds = AtSeconds;
  S.NodesCovered = D.nodesCovered();
  S.EdgesCovered = D.edgesCovered();
  D.Snaps.push_back(S);
}

ApiCoverageData ApiPairCoverage::data() const {
  ApiCoverageData Out = D;
  // Same semantics as CoverageMap::saturationTime, over edge counts.
  if (Out.Snaps.empty()) {
    Out.SaturationSeconds = -1;
    return Out;
  }
  // Start from the "never improved" sentinel, not the first snapshot's
  // timestamp: a run that covered zero edges must report -1, not the
  // time of its first (empty) sample - downstream merges and reports
  // treat any non-negative value as a real saturation instant.
  double Saturation = -1;
  uint64_t Best = 0;
  for (const ApiCoverageSnapshot &S : Out.Snaps) {
    if (S.EdgesCovered > Best) {
      Best = S.EdgesCovered;
      Saturation = S.AtSeconds;
    }
  }
  Out.SaturationSeconds = Saturation;
  return Out;
}

Value syrust::coverage::apiCoverageToJson(const ApiCoverageData &D) {
  Value V = Value::object();
  V.set("nodes_total", Value::integer(static_cast<int64_t>(D.NodesTotal)));
  V.set("nodes_covered",
        Value::integer(static_cast<int64_t>(D.nodesCovered())));
  V.set("edges_total", Value::integer(static_cast<int64_t>(D.EdgesTotal)));
  V.set("edges_covered",
        Value::integer(static_cast<int64_t>(D.edgesCovered())));
  V.set("node_bits", Value::string(bitsToHex(D.NodeBits)));
  V.set("edge_bits", Value::string(bitsToHex(D.EdgeBits)));
  V.set("unmatched_edges",
        Value::integer(static_cast<int64_t>(D.UnmatchedEdges)));
  V.set("saturation_seconds", Value::number(D.SaturationSeconds));
  Value Snaps = Value::array();
  for (const ApiCoverageSnapshot &S : D.Snaps) {
    Value E = Value::object();
    E.set("t", Value::number(S.AtSeconds));
    E.set("nodes", Value::integer(static_cast<int64_t>(S.NodesCovered)));
    E.set("edges", Value::integer(static_cast<int64_t>(S.EdgesCovered)));
    Snaps.push(std::move(E));
  }
  V.set("snapshots", std::move(Snaps));
  return V;
}

bool syrust::coverage::apiCoverageFromJson(const Value &V,
                                           ApiCoverageData &Out,
                                           std::string &Err) {
  Err.clear();
  Out = ApiCoverageData();
  if (V.kind() != Value::Kind::Object) {
    Err = "api_coverage is not an object";
    return false;
  }
  Fields F(V, Err);
  Out.NodesTotal = F.u64("nodes_total");
  Out.EdgesTotal = F.u64("edges_total");
  const std::string NodeBits = F.str("node_bits");
  const std::string EdgeBits = F.str("edge_bits");
  Out.UnmatchedEdges = F.u64("unmatched_edges");
  if (V.has("saturation_seconds"))
    Out.SaturationSeconds = F.num("saturation_seconds");
  if (V.has("snapshots"))
    if (const Value *Snaps = F.array("snapshots"))
      for (size_t I = 0; I < Snaps->size() && F.ok(); ++I) {
        Fields E(Snaps->at(I), Err);
        ApiCoverageSnapshot S;
        S.AtSeconds = E.num("t");
        S.NodesCovered = E.u64("nodes");
        S.EdgesCovered = E.u64("edges");
        Out.Snaps.push_back(S);
      }
  if (!F.ok()) {
    Err = "api_coverage " + Err;
    return false;
  }
  if (!hexToBits(NodeBits, (Out.NodesTotal + 7) / 8, Out.NodeBits)) {
    Err = "api_coverage node_bits does not match nodes_total";
    return false;
  }
  if (!hexToBits(EdgeBits, (Out.EdgesTotal + 7) / 8, Out.EdgeBits)) {
    Err = "api_coverage edge_bits does not match edges_total";
    return false;
  }
  return true;
}

Value syrust::coverage::coverageDocumentToJson(
    const std::vector<std::pair<std::string, ApiCoverageData>> &Crates) {
  Value Doc = Value::object();
  // Version history: 2 run, 3 campaign, 4 audit; 5 adds api_coverage
  // everywhere and introduces this standalone kind.
  Doc.set("schema_version", Value::integer(5));
  Doc.set("kind", Value::string("coverage"));
  Value Arr = Value::array();
  for (const auto &[Crate, Data] : Crates) {
    Value E = Value::object();
    E.set("crate", Value::string(Crate));
    E.set("api_coverage", apiCoverageToJson(Data));
    Arr.push(std::move(E));
  }
  Doc.set("crates", std::move(Arr));
  return Doc;
}
