//===--- Checkpoint.cpp - Campaign checkpoint/resume ----------------------===//
//
// Part of SyRust-CPP (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//

#include "campaign/Checkpoint.h"

#include "core/ResultJson.h"
#include "support/StringUtils.h"

#include <utility>

using namespace syrust;
using namespace syrust::campaign;
using namespace syrust::json;

namespace {

/// Names the enumerator that produces each cell's program stream. Bump it
/// whenever the stream a RunConfig yields changes (the solver's search,
/// blocking or seeding), so a checkpoint written by the previous
/// enumerator is refused rather than mixed into a new aggregate.
/// 2: models are blocked at their own decision level, not from the root.
/// 3: bans extend the live encoding instead of rebuilding it.
constexpr int64_t kEnumerationEpoch = 3;

/// The canonical spec document the fingerprint hashes: everything that
/// determines results, nothing that doesn't (Jobs, Trace).
Value specToCanonicalJson(const CampaignSpec &Spec) {
  Value V = Value::object();
  V.set("enumeration_epoch", Value::integer(kEnumerationEpoch));
  Value Crates = Value::array();
  for (const std::string &C : Spec.Crates)
    Crates.push(Value::string(C));
  V.set("crates", std::move(Crates));
  V.set("seed_begin", Value::integer(static_cast<int64_t>(Spec.SeedBegin)));
  V.set("seed_end", Value::integer(static_cast<int64_t>(Spec.SeedEnd)));
  Value Variants = Value::array();
  for (const std::string &Var : Spec.Variants)
    Variants.push(Value::string(Var));
  V.set("variants", std::move(Variants));
  V.set("base", core::runConfigToJson(Spec.Base));
  return V;
}

/// One finished cell as a JSONL line body. Object keys render in sorted
/// map order, so the line is canonical for the cell.
Value cellToJson(const CampaignJobResult &JR,
                 const std::map<std::string, uint64_t> &Deltas) {
  Value V = Value::object();
  V.set("index", Value::integer(static_cast<int64_t>(JR.Job.Index)));
  V.set("crate", Value::string(JR.Job.Crate));
  V.set("seed", Value::integer(static_cast<int64_t>(JR.Job.Seed)));
  V.set("variant", Value::string(JR.Job.Variant));
  // Full document (host wall time included): the checkpoint is also the
  // archive of per-cell diagnostics. The aggregate re-renders with
  // HostWallTime=false, so wall jitter never reaches the byte-identity
  // contract.
  V.set("result", core::resultToJson(JR.Result));
  Value Counters = Value::object();
  for (const auto &[Name, N] : Deltas)
    Counters.set(Name, Value::integer(static_cast<int64_t>(N)));
  V.set("counters", std::move(Counters));
  return V;
}

} // namespace

std::string syrust::campaign::specFingerprint(const CampaignSpec &Spec) {
  // FNV-1a 64-bit over the canonical rendering; collision-resistant
  // enough for "did the user point --checkpoint at the wrong file".
  std::string Doc = specToCanonicalJson(Spec).dump();
  uint64_t H = 1469598103934665603ull;
  for (unsigned char C : Doc) {
    H ^= C;
    H *= 1099511628211ull;
  }
  return format("%016llx", static_cast<unsigned long long>(H));
}

bool syrust::campaign::loadCheckpoint(const std::string &Path,
                                      CheckpointData &Out,
                                      std::string &Err) {
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F) {
    Err = "cannot open checkpoint file '" + Path + "'";
    return false;
  }
  std::string Text;
  char Buf[65536];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Text.append(Buf, N);
  std::fclose(F);

  Out = CheckpointData();
  size_t Pos = 0, LineNo = 0;
  bool SawHeader = false;
  while (Pos < Text.size()) {
    size_t Eol = Text.find('\n', Pos);
    // A cell line is only durable once its newline hit the disk; a
    // newline-less tail is the torn final append.
    std::string Line = Eol == std::string::npos
                           ? Text.substr(Pos)
                           : Text.substr(Pos, Eol - Pos);
    bool Complete = Eol != std::string::npos;
    Pos = Complete ? Eol + 1 : Text.size();
    ++LineNo;
    if (Line.empty())
      continue;

    ParseResult P = parse(Line);
    // No line this tool writes, torn or whole, nests anywhere near the
    // parser's limit: the file is not a checkpoint of ours.
    if (P.TooDeep) {
      Out.Refused = format("checkpoint '%s' line %zu: %s", Path.c_str(),
                           LineNo, P.Error.c_str());
      break;
    }
    if (!SawHeader) {
      // The header must parse — a file whose first line is garbage is
      // not a checkpoint, and preloading from it would be a lie.
      if (!P.Ok || !Complete) {
        Err = "checkpoint '" + Path + "' line 1: malformed header";
        return false;
      }
      if (P.Val.get("kind").asString() != "campaign_checkpoint") {
        Err = "checkpoint '" + Path + "' is not a campaign checkpoint " +
              "(kind '" + P.Val.get("kind").asString() + "')";
        return false;
      }
      if (P.Val.get("schema_version").asInt() != 5) {
        Err = format("checkpoint '%s' has schema_version %lld, want 5",
                     Path.c_str(),
                     static_cast<long long>(
                         P.Val.get("schema_version").asInt()));
        return false;
      }
      Out.Fingerprint = P.Val.get("fingerprint").asString();
      SawHeader = true;
      continue;
    }

    // Cell lines: stop at the first torn or malformed one — everything
    // after it is untrusted, and re-running those cells is always sound.
    if (!Complete || !P.Ok) {
      Out.TornTail = Line;
      break;
    }
    PreloadedCell Cell;
    std::string CellErr;
    if (core::resultFromJson(P.Val.get("result"), Cell.Result, CellErr))
      for (const auto &[Name, V] : P.Val.get("counters").members()) {
        if (V.kind() != Value::Kind::Number) {
          CellErr = "counter '" + Name + "' has the wrong type";
          break;
        }
        Cell.CounterDeltas[Name] = static_cast<uint64_t>(V.asInt());
      }
    if (!CellErr.empty()) {
      Out.Refused = format("checkpoint '%s' line %zu: %s", Path.c_str(),
                           LineNo, CellErr.c_str());
      break;
    }
    Out.Cells[static_cast<size_t>(P.Val.get("index").asInt())] =
        std::move(Cell);
  }
  if (!SawHeader && Out.Refused.empty()) {
    Err = "checkpoint '" + Path + "' is empty";
    return false;
  }
  return true;
}

bool CheckpointWriter::open(const std::string &Path,
                            const CampaignSpec &Spec, std::string &Err) {
  close();
  F = std::fopen(Path.c_str(), "ab");
  if (!F) {
    Err = "cannot open checkpoint file '" + Path + "' for append";
    return false;
  }
  long End = 0;
  if (std::fseek(F, 0, SEEK_END) == 0)
    End = std::ftell(F);
  if (End == 0) {
    Value Header = Value::object();
    Header.set("kind", Value::string("campaign_checkpoint"));
    Header.set("schema_version", Value::integer(5));
    Header.set("fingerprint", Value::string(specFingerprint(Spec)));
    Header.set("spec", specToCanonicalJson(Spec));
    std::string Line = Header.dump();
    Line += '\n';
    std::fwrite(Line.data(), 1, Line.size(), F);
    std::fflush(F);
  }
  return true;
}

void CheckpointWriter::append(
    const CampaignJobResult &JR,
    const std::map<std::string, uint64_t> &CounterDeltas) {
  if (!F)
    return;
  std::string Line = cellToJson(JR, CounterDeltas).dump();
  Line += '\n';
  std::fwrite(Line.data(), 1, Line.size(), F);
  std::fflush(F); // One durable line per finished cell.
}

void CheckpointWriter::close() {
  if (F) {
    std::fclose(F);
    F = nullptr;
  }
}
