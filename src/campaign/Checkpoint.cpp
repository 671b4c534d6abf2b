//===--- Checkpoint.cpp - Campaign checkpoint/resume ----------------------===//
//
// Part of SyRust-CPP (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//

#include "campaign/Checkpoint.h"

#include "core/ResultJson.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <filesystem>
#include <string_view>
#include <utility>

using namespace syrust;
using namespace syrust::campaign;
using namespace syrust::json;

namespace {

/// Names what a cell's result records for a RunConfig: its program stream
/// and the meaning of its counters. Bump it whenever either changes (the
/// solver's search, blocking or seeding; what a counter counts), so a
/// checkpoint written by the previous code is refused rather than mixed
/// into a new aggregate.
/// 2: models are blocked at their own decision level, not from the root.
/// 3: bans extend the live encoding instead of rebuilding it.
/// 4: the compat counters count pair probes only, the matrix gauge the
///    per-slot matrix, and a cell line carries only its own counters.
constexpr int64_t kEnumerationEpoch = 4;

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
Value cellToJson(const CampaignJobResult &JR) {
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
  for (const auto &[Name, N] : JR.Counters)
    Counters.set(Name, Value::integer(static_cast<int64_t>(N)));
  V.set("counters", std::move(Counters));
  return V;
}

/// The length of \p F up to and including its last newline: the bytes a
/// load trusts. Whatever follows is a torn append.
long durableLength(std::FILE *F) {
  long End = std::fseek(F, 0, SEEK_END) == 0 ? std::ftell(F) : 0;
  char Buf[4096];
  while (End > 0) {
    const long From = std::max(End - static_cast<long>(sizeof(Buf)), 0L);
    std::fseek(F, From, SEEK_SET);
    const size_t N = std::fread(Buf, 1, static_cast<size_t>(End - From), F);
    const size_t Nl = std::string_view(Buf, N).rfind('\n');
    if (Nl != std::string_view::npos)
      return From + static_cast<long>(Nl) + 1;
    End = From;
  }
  return 0;
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
    CampaignJobResult Cell;
    std::string CellErr;
    Fields F(P.Val, CellErr);
    const uint64_t Index = F.u64("index");
    const Value *Result = F.object("result");
    const Value *Counters = F.object("counters");
    if (F.ok() && core::resultFromJson(*Result, Cell.Result, CellErr)) {
      Fields C(*Counters, CellErr);
      for (const auto &Member : Counters->members())
        Cell.Counters[Member.first] = C.u64(Member.first);
    }
    if (!CellErr.empty()) {
      Out.Refused = format("checkpoint '%s' line %zu: %s", Path.c_str(),
                           LineNo, CellErr.c_str());
      break;
    }
    Out.Cells[static_cast<size_t>(Index)] = std::move(Cell);
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
  F = std::fopen(Path.c_str(), "a+b");
  if (!F) {
    Err = "cannot open checkpoint file '" + Path + "' for append";
    return false;
  }
  // Cut a torn tail (a kill mid-append) back to the last newline: the
  // loader has dropped those bytes already, and appending after them
  // would glue the next cell onto them into one malformed line that
  // stops every later load. Append mode writes at the new end.
  const long Keep = durableLength(F);
  std::error_code Ec;
  if (std::fseek(F, 0, SEEK_END) == 0 && Keep < std::ftell(F))
    std::filesystem::resize_file(Path, static_cast<uintmax_t>(Keep), Ec);
  if (Ec) {
    Err = "cannot cut the torn tail of checkpoint file '" + Path +
          "': " + Ec.message();
    close();
    return false;
  }
  if (Keep == 0) {
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

void CheckpointWriter::append(const CampaignJobResult &JR) {
  if (!F)
    return;
  std::string Line = cellToJson(JR).dump();
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
