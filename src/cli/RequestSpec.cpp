//===--- RequestSpec.cpp - Unified request API ----------------------------===//
//
// Part of SyRust-CPP (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//

#include "cli/RequestSpec.h"

#include "support/StringUtils.h"

#include <climits>
#include <cmath>
#include <cstdlib>
#include <cstring>

using namespace syrust;
using namespace syrust::cli;
using namespace syrust::json;

namespace {

// Verb bits for OptionDef masks.
enum : unsigned {
  VRun = 1u << 0,
  VCampaign = 1u << 1,
  VAudit = 1u << 2,
  VCoverage = 1u << 3,
  VServe = 1u << 4,
  VReport = 1u << 5,
};

unsigned verbBit(Verb V) {
  switch (V) {
  case Verb::Run:
    return VRun;
  case Verb::Campaign:
    return VCampaign;
  case Verb::Audit:
    return VAudit;
  case Verb::Coverage:
    return VCoverage;
  case Verb::Serve:
    return VServe;
  case Verb::Report:
    return VReport;
  case Verb::List:
    return 0;
  }
  return 0;
}

/// The RunConfig a shared knob lands in for this verb, if any: run's own
/// config, the campaign's base or the run the audit replays.
core::RunConfig *runConfigOf(RequestSpec &S) {
  if (S.V == Verb::Run)
    return &S.Run.Config;
  if (S.V == Verb::Campaign)
    return &S.Campaign.Spec.Base;
  if (S.V == Verb::Audit)
    return &S.Audit.Spec.Base.Run;
  return nullptr;
}

/// The matrix a shared matrix knob lands in: the campaign's or the
/// audit's, the only verbs those rows admit.
campaign::MatrixSpec &matrixOf(RequestSpec &S) {
  if (S.V == Verb::Audit)
    return S.Audit.Spec;
  return S.Campaign.Spec;
}

/// The largest integer a request may name where the option is 64-bit:
/// 2^53 - 1. A JSON number carries every integer up to 2^53 exactly, but
/// 2^53 itself is also what 2^53 + 1 rounds to, on the wire and in
/// strtod alike.
constexpr uint64_t kMaxExactInt = (uint64_t(1) << 53) - 1;

/// Parses `N` or `N..M` into an inclusive seed range of exact integers.
bool parseSeedRange(const std::string &Text, uint64_t &Begin,
                    uint64_t &End) {
  const char *C = Text.c_str();
  const char *Dots = std::strstr(C, "..");
  char *EndPtr = nullptr;
  Begin = std::strtoull(C, &EndPtr, 10);
  if (EndPtr == C)
    return false;
  if (!Dots) {
    End = Begin;
    return *EndPtr == '\0' && Begin <= kMaxExactInt;
  }
  if (EndPtr != Dots)
    return false;
  const char *Second = Dots + 2;
  End = std::strtoull(Second, &EndPtr, 10);
  return EndPtr != Second && *EndPtr == '\0' && Begin <= End &&
         End <= kMaxExactInt;
}

/// One knob, on both surfaces at once: `Flag` is the CLI spelling, the
/// protocol key is the same spelling minus the leading `--`, `Verbs`
/// masks where it applies, `K` fixes the value kind on both surfaces,
/// and `Set` is the single shared semantic action. Adding a knob means
/// adding exactly one row; CLI and wire cannot diverge.
struct OptionDef {
  const char *Flag;
  unsigned Verbs;
  /// The three numeric kinds are non-negative and finite: Real is any
  /// such number, Int an integer that fits an int, Int53 an integer of
  /// at most kMaxExactInt.
  enum Kind { Real, Int, Int53, Str, Flag_ } K;
  /// Applies the knob. \p Text carries Str values, \p Val numeric ones,
  /// already checked by numberProblem(). Returns a message for domain
  /// errors the kind check can't catch (malformed seed ranges); empty =
  /// applied.
  std::string (*Set)(RequestSpec &S, const std::string &Text, double Val);

  bool isNumber() const { return K == Real || K == Int || K == Int53; }
};

/// The one domain check of numeric option values, on argv and on the
/// wire alike, so that each setter's cast is defined. Returns what is
/// wrong with \p Val ("must be an integer") for the caller to prefix
/// with the flag or field name; empty when \p Val fits \p K.
std::string numberProblem(OptionDef::Kind K, double Val) {
  if (!std::isfinite(Val))
    return "must be a finite number";
  if (Val < 0)
    return "must be non-negative";
  if (K == OptionDef::Real)
    return "";
  if (Val != std::floor(Val))
    return "must be an integer";
  const uint64_t Max = K == OptionDef::Int ? INT_MAX : kMaxExactInt;
  if (Val > static_cast<double>(Max))
    return "must be at most " + std::to_string(Max);
  return "";
}

const OptionDef Options[] = {
    // Shared synthesis knobs.
    {"--budget", VRun | VCampaign, OptionDef::Real,
     [](RequestSpec &S, const std::string &, double Val) {
       runConfigOf(S)->BudgetSeconds = Val;
       return std::string();
     }},
    {"--seed", VRun, OptionDef::Int53,
     [](RequestSpec &S, const std::string &, double Val) {
       S.Run.Config.Seed = static_cast<uint64_t>(Val);
       return std::string();
     }},
    {"--apis", VRun | VCampaign | VAudit, OptionDef::Int,
     [](RequestSpec &S, const std::string &, double Val) {
       runConfigOf(S)->NumApis = static_cast<int>(Val);
       return std::string();
     }},
    {"--max-tests", VRun | VCampaign, OptionDef::Int53,
     [](RequestSpec &S, const std::string &, double Val) {
       runConfigOf(S)->MaxTests = static_cast<uint64_t>(Val);
       return std::string();
     }},
    {"--log-tests", VRun, OptionDef::Int53,
     [](RequestSpec &S, const std::string &, double Val) {
       S.Run.Config.RecordTests = static_cast<size_t>(Val);
       return std::string();
     }},
    {"--solve-budget", VRun | VCampaign, OptionDef::Int53,
     [](RequestSpec &S, const std::string &, double Val) {
       runConfigOf(S)->SolveConflictBudget = static_cast<uint64_t>(Val);
       return std::string();
     }},
    {"--strategy", VRun | VCampaign | VAudit, OptionDef::Str,
     [](RequestSpec &S, const std::string &Text, double) {
       runConfigOf(S)->Strategy = Text;
       return std::string();
     }},
    {"--portfolio", VRun | VCampaign | VAudit, OptionDef::Flag_,
     [](RequestSpec &S, const std::string &, double) {
       runConfigOf(S)->Portfolio = true;
       return std::string();
     }},
    {"--no-graph-prune", VRun | VCampaign | VAudit, OptionDef::Flag_,
     [](RequestSpec &S, const std::string &, double) {
       runConfigOf(S)->GraphPrune = false;
       return std::string();
     }},
    {"--bias-coverage", VRun | VCampaign, OptionDef::Flag_,
     [](RequestSpec &S, const std::string &, double) {
       // Forces interleaved mode: the biased episode leg replaces the
       // round-robin length rotation, which only exists interleaved.
       core::RunConfig *C = runConfigOf(S);
       C->BiasCoverage = true;
       C->InterleaveLengths = true;
       return std::string();
     }},

    // Run-only variants and toggles.
    {"--no-semantic", VRun, OptionDef::Flag_,
     [](RequestSpec &S, const std::string &, double) {
       S.Run.Config.SemanticAware = false;
       return std::string();
     }},
    {"--eager", VRun, OptionDef::Flag_,
     [](RequestSpec &S, const std::string &, double) {
       S.Run.Config.Mode = refine::RefinementMode::PurelyEager;
       return std::string();
     }},
    {"--lazy", VRun, OptionDef::Flag_,
     [](RequestSpec &S, const std::string &, double) {
       S.Run.Config.Mode = refine::RefinementMode::PurelyLazy;
       return std::string();
     }},
    {"--interleave", VRun, OptionDef::Flag_,
     [](RequestSpec &S, const std::string &, double) {
       S.Run.Config.InterleaveLengths = true;
       return std::string();
     }},
    {"--mutate-inputs", VRun, OptionDef::Flag_,
     [](RequestSpec &S, const std::string &, double) {
       S.Run.Config.MutateInputs = true;
       return std::string();
     }},
    {"--no-incremental", VRun, OptionDef::Flag_,
     [](RequestSpec &S, const std::string &, double) {
       S.Run.Config.IncrementalRefinement = false;
       return std::string();
     }},
    {"--stop-on-bug", VRun, OptionDef::Flag_,
     [](RequestSpec &S, const std::string &, double) {
       S.Run.Config.StopOnFirstBug = true;
       return std::string();
     }},
    {"--minimize", VRun, OptionDef::Flag_,
     [](RequestSpec &S, const std::string &, double) {
       S.Run.Config.MinimizeBugs = true;
       return std::string();
     }},
    {"--json-errors", VRun, OptionDef::Flag_,
     [](RequestSpec &S, const std::string &, double) {
       S.Run.Config.JsonErrorChannel = true;
       return std::string();
     }},
    {"--trace-wall", VRun, OptionDef::Flag_,
     [](RequestSpec &S, const std::string &, double) {
       S.Run.TraceWall = true;
       return std::string();
     }},

    // Matrix shape (campaign/audit).
    {"--crates", VCampaign | VAudit, OptionDef::Str,
     [](RequestSpec &S, const std::string &Text, double) {
       // "all" stays the empty sentinel; finalize() expands it to every
       // synthesis-supporting crate.
       matrixOf(S).Crates = Text == "all" ? std::vector<std::string>()
                                          : split(Text, ',');
       return std::string();
     }},
    {"--seeds", VCampaign | VAudit, OptionDef::Str,
     [](RequestSpec &S, const std::string &Text, double) {
       uint64_t Begin = 0, End = 0;
       if (!parseSeedRange(Text, Begin, End))
         return "malformed seed range '" + Text +
                "' for --seeds (want N or N..M with N <= M <= " +
                std::to_string(kMaxExactInt) + ")";
       matrixOf(S).SeedBegin = Begin;
       matrixOf(S).SeedEnd = End;
       return std::string();
     }},
    {"--variants", VCampaign, OptionDef::Str,
     [](RequestSpec &S, const std::string &Text, double) {
       S.Campaign.Spec.Variants = split(Text, ',');
       return std::string();
     }},
    {"--jobs", VCampaign | VAudit, OptionDef::Int,
     [](RequestSpec &S, const std::string &, double Val) {
       matrixOf(S).Jobs = static_cast<int>(Val);
       return std::string();
     }},

    // Audit-only knobs.
    {"--max-lines", VAudit, OptionDef::Int,
     [](RequestSpec &S, const std::string &, double Val) {
       S.Audit.Spec.Base.Audit.MaxLines = static_cast<int>(Val);
       return std::string();
     }},
    {"--max-models", VAudit, OptionDef::Int53,
     [](RequestSpec &S, const std::string &, double Val) {
       S.Audit.Spec.Base.MaxModels = static_cast<uint64_t>(Val);
       return std::string();
     }},
    {"--weaken-kills", VAudit, OptionDef::Flag_,
     [](RequestSpec &S, const std::string &, double) {
       S.Audit.Spec.Base.Audit.WeakenConsumptionKills = true;
       return std::string();
     }},

    // Output routing — the one shared Outputs struct.
    {"--out", VCampaign | VAudit, OptionDef::Str,
     [](RequestSpec &S, const std::string &Text, double) {
       S.Out.OutDir = Text;
       return std::string();
     }},
    {"--trace", VCampaign, OptionDef::Flag_,
     [](RequestSpec &S, const std::string &, double) {
       S.Out.MergeTrace = true;
       return std::string();
     }},
    {"--trace-out", VRun, OptionDef::Str,
     [](RequestSpec &S, const std::string &Text, double) {
       S.Out.TraceOut = Text;
       return std::string();
     }},
    {"--metrics-out", VRun, OptionDef::Str,
     [](RequestSpec &S, const std::string &Text, double) {
       S.Out.MetricsOut = Text;
       return std::string();
     }},
    {"--coverage-out", VRun | VCampaign | VAudit, OptionDef::Str,
     [](RequestSpec &S, const std::string &Text, double) {
       S.Out.CoverageOut = Text;
       return std::string();
     }},
    {"--json", VRun | VAudit, OptionDef::Flag_,
     [](RequestSpec &S, const std::string &, double) {
       S.Out.Json = true;
       return std::string();
     }},

    // Checkpoint/resume and daemon routing.
    {"--checkpoint", VCampaign, OptionDef::Str,
     [](RequestSpec &S, const std::string &Text, double) {
       S.Campaign.CheckpointPath = Text;
       return std::string();
     }},
    {"--connect", VRun | VCampaign | VAudit | VCoverage, OptionDef::Str,
     [](RequestSpec &S, const std::string &Text, double) {
       S.Connect = Text;
       return std::string();
     }},

    // Coverage rendering.
    {"--top", VCoverage, OptionDef::Int,
     [](RequestSpec &S, const std::string &, double Val) {
       S.Coverage.Top = static_cast<int>(Val);
       return std::string();
     }},

    // Serve.
    {"--socket", VServe, OptionDef::Str,
     [](RequestSpec &S, const std::string &Text, double) {
       S.Serve.SocketPath = Text;
       return std::string();
     }},
    {"--max-inflight", VServe, OptionDef::Int,
     [](RequestSpec &S, const std::string &, double Val) {
       S.Serve.MaxInflight = static_cast<int>(Val);
       return std::string();
     }},
    {"--checkpoint-dir", VServe, OptionDef::Str,
     [](RequestSpec &S, const std::string &Text, double) {
       S.Serve.CheckpointDir = Text;
       return std::string();
     }},
};

const OptionDef *findOption(const std::string &Flag) {
  for (const OptionDef &O : Options)
    if (Flag == O.Flag)
      return &O;
  return nullptr;
}

const OptionDef *findOptionByKey(const std::string &Key) {
  for (const OptionDef &O : Options)
    if (Key == O.Flag + 2)
      return &O;
  return nullptr;
}

/// The positional a verb takes ("crate" for run, "file" for
/// coverage/report), also its protocol key; nullptr for none.
const char *positionalKey(Verb V) {
  if (V == Verb::Run)
    return "crate";
  if (V == Verb::Coverage || V == Verb::Report)
    return "file";
  return nullptr;
}

void setPositional(RequestSpec &S, const std::string &Text) {
  if (S.V == Verb::Run)
    S.Run.Crate = Text;
  else if (S.V == Verb::Coverage)
    S.Coverage.File = Text;
  else if (S.V == Verb::Report)
    S.Report.File = Text;
}

/// The shared argv scan: positional and flag recognition, strict value
/// parsing (a missing value or non-number fails loudly instead of
/// running with a silently wrong configuration), one message per
/// problem. parseArgv and argvToRequestJson both drive this, so the CLI
/// surface has exactly one grammar.
template <typename OnPositional, typename OnOption>
void scanArgv(Verb V, int Argc, const char *const *Argv,
              std::vector<std::string> &Errors, OnPositional Positional,
              OnOption Option) {
  const unsigned Bit = verbBit(V);
  bool SawPositional = false;
  for (int I = 0; I < Argc; ++I) {
    const std::string Arg = Argv[I];
    if (Arg.size() < 2 || Arg[0] != '-' || Arg[1] != '-') {
      if (positionalKey(V) && !SawPositional) {
        SawPositional = true;
        Positional(Arg);
      } else {
        Errors.push_back("unexpected argument '" + Arg + "'");
      }
      continue;
    }
    const OptionDef *O = findOption(Arg);
    if (!O) {
      Errors.push_back("unknown flag '" + Arg + "'");
      continue;
    }
    if (!(O->Verbs & Bit)) {
      Errors.push_back("flag " + Arg + " does not apply to 'syrust " +
                       verbName(V) + "'");
      // Still swallow its value so one misplaced flag yields one
      // message, not a cascade.
      if (O->K != OptionDef::Flag_ && I + 1 < Argc)
        ++I;
      continue;
    }
    std::string Text;
    double Val = 0;
    if (O->K != OptionDef::Flag_) {
      if (I + 1 >= Argc) {
        Errors.push_back("missing value for " + Arg);
        continue;
      }
      Text = Argv[++I];
      if (O->isNumber()) {
        char *End = nullptr;
        Val = std::strtod(Text.c_str(), &End);
        if (End == Text.c_str() || *End != '\0') {
          Errors.push_back("malformed number '" + Text + "' for " +
                           Arg);
          continue;
        }
        const std::string Problem = numberProblem(O->K, Val);
        if (!Problem.empty()) {
          Errors.push_back(Arg + " " + Problem + ", got '" + Text + "'");
          continue;
        }
      }
    }
    Option(*O, Text, Val);
  }
  if (positionalKey(V) && !SawPositional)
    Errors.push_back(std::string("missing <") + positionalKey(V) +
                     "> argument");
}

} // namespace

bool syrust::cli::verbFromName(const std::string &Name, Verb &Out) {
  if (Name == "list")
    Out = Verb::List;
  else if (Name == "run")
    Out = Verb::Run;
  else if (Name == "campaign")
    Out = Verb::Campaign;
  else if (Name == "audit")
    Out = Verb::Audit;
  else if (Name == "coverage")
    Out = Verb::Coverage;
  else if (Name == "report")
    Out = Verb::Report;
  else if (Name == "serve")
    Out = Verb::Serve;
  else
    return false;
  return true;
}

const char *syrust::cli::verbName(Verb V) {
  switch (V) {
  case Verb::List:
    return "list";
  case Verb::Run:
    return "run";
  case Verb::Campaign:
    return "campaign";
  case Verb::Audit:
    return "audit";
  case Verb::Coverage:
    return "coverage";
  case Verb::Report:
    return "report";
  case Verb::Serve:
    return "serve";
  }
  return "?";
}

bool syrust::cli::parseArgv(Verb V, int Argc, const char *const *Argv,
                            RequestSpec &Out,
                            std::vector<std::string> &Errors) {
  Out = RequestSpec();
  Out.V = V;
  scanArgv(
      V, Argc, Argv, Errors,
      [&](const std::string &Text) { setPositional(Out, Text); },
      [&](const OptionDef &O, const std::string &Text, double Val) {
        std::string Err = O.Set(Out, Text, Val);
        if (!Err.empty())
          Errors.push_back(Err);
      });
  return Errors.empty();
}

bool syrust::cli::argvToRequestJson(Verb V, int Argc,
                                    const char *const *Argv,
                                    json::Value &Out,
                                    std::vector<std::string> &Errors) {
  Out = Value::object();
  Out.set("verb", Value::string(verbName(V)));
  scanArgv(
      V, Argc, Argv, Errors,
      [&](const std::string &Text) {
        Out.set(positionalKey(V), Value::string(Text));
      },
      [&](const OptionDef &O, const std::string &Text, double Val) {
        // --connect routes the request; it is not part of it.
        if (!std::strcmp(O.Flag, "--connect"))
          return;
        const std::string Key = O.Flag + 2;
        if (O.isNumber())
          Out.set(Key, Value::number(Val));
        else if (O.K == OptionDef::Str)
          Out.set(Key, Value::string(Text));
        else
          Out.set(Key, Value::boolean(true));
      });
  return Errors.empty();
}

bool syrust::cli::fromRequestJson(const json::Value &V, RequestSpec &Out,
                                  std::vector<std::string> &Errors) {
  if (V.kind() != Value::Kind::Object) {
    Errors.push_back("request must be a JSON object");
    return false;
  }
  const std::string VerbStr = V.get("verb").asString();
  Verb Vb;
  if (!V.has("verb") || !verbFromName(VerbStr, Vb)) {
    Errors.push_back("request has no valid 'verb' (got '" + VerbStr +
                     "')");
    return false;
  }
  // The wire accepts the work verbs only; serve cannot recursively
  // serve, and list/report are CLI conveniences.
  if (Vb != Verb::Run && Vb != Verb::Campaign && Vb != Verb::Audit &&
      Vb != Verb::Coverage) {
    Errors.push_back("verb '" + VerbStr +
                     "' cannot be requested over the serve protocol");
    return false;
  }
  Out = RequestSpec();
  Out.V = Vb;
  const unsigned Bit = verbBit(Vb);
  for (const auto &[Key, Member] : V.members()) {
    if (Key == "verb" || Key == "id")
      continue; // "id" is the client's correlation tag, echoed back.
    if (positionalKey(Vb) && Key == positionalKey(Vb)) {
      if (Member.kind() != Value::Kind::String) {
        Errors.push_back("field '" + Key + "' must be a string");
        continue;
      }
      setPositional(Out, Member.asString());
      continue;
    }
    const OptionDef *O = findOptionByKey(Key);
    if (!O) {
      Errors.push_back("unknown request field '" + Key + "'");
      continue;
    }
    if (!(O->Verbs & Bit)) {
      Errors.push_back("field '" + Key + "' does not apply to verb '" +
                       VerbStr + "'");
      continue;
    }
    if (!std::strcmp(O->Flag, "--connect")) {
      Errors.push_back("field 'connect' is client-side only");
      continue;
    }
    std::string Text;
    double Val = 0;
    switch (O->K) {
    case OptionDef::Real:
    case OptionDef::Int:
    case OptionDef::Int53: {
      if (Member.kind() != Value::Kind::Number) {
        Errors.push_back("field '" + Key + "' must be a number");
        continue;
      }
      Val = Member.asDouble();
      const std::string Problem = numberProblem(O->K, Val);
      if (!Problem.empty()) {
        Errors.push_back("field '" + Key + "' " + Problem);
        continue;
      }
      break;
    }
    case OptionDef::Str:
      if (Member.kind() != Value::Kind::String) {
        Errors.push_back("field '" + Key + "' must be a string");
        continue;
      }
      Text = Member.asString();
      break;
    case OptionDef::Flag_:
      if (Member.kind() != Value::Kind::Bool) {
        Errors.push_back("field '" + Key + "' must be a boolean");
        continue;
      }
      if (!Member.asBool())
        continue; // false = leave the default, same as omitting.
      break;
    }
    std::string Err = O->Set(Out, Text, Val);
    if (!Err.empty())
      Errors.push_back(Err);
  }
  return Errors.empty();
}

std::vector<std::string> syrust::cli::finalize(const core::Session &S,
                                               RequestSpec &Spec) {
  std::vector<std::string> Errors;
  switch (Spec.V) {
  case Verb::List:
    break;
  case Verb::Run: {
    if (!S.find(Spec.Run.Crate))
      Errors.push_back("unknown crate '" + Spec.Run.Crate +
                       "'; try `syrust list`");
    if (Spec.Run.TraceWall && Spec.Out.TraceOut.empty())
      Errors.push_back("--trace-wall requires --trace-out");
    std::vector<std::string> E = Spec.Run.Config.validate();
    Errors.insert(Errors.end(), E.begin(), E.end());
    break;
  }
  case Verb::Campaign: {
    if (Spec.Campaign.Spec.Crates.empty())
      Spec.Campaign.Spec.Crates = S.supportedCrates();
    // The spec's own Trace knob is driven by the shared Outputs struct.
    Spec.Campaign.Spec.Trace = Spec.Out.MergeTrace;
    if (Spec.Out.MergeTrace && Spec.Out.OutDir.empty())
      Errors.push_back("--trace requires --out");
    if (Spec.Out.MergeTrace && !Spec.Campaign.CheckpointPath.empty())
      Errors.push_back(
          "--checkpoint does not compose with --trace: resumed cells "
          "have no trace events to merge");
    std::vector<std::string> E = Spec.Campaign.Spec.validate(S);
    Errors.insert(Errors.end(), E.begin(), E.end());
    break;
  }
  case Verb::Audit: {
    if (Spec.Audit.Spec.Crates.empty())
      Spec.Audit.Spec.Crates = S.supportedCrates();
    std::vector<std::string> E = Spec.Audit.Spec.validate(S);
    Errors.insert(Errors.end(), E.begin(), E.end());
    break;
  }
  case Verb::Coverage:
    if (Spec.Coverage.File.empty())
      Errors.push_back("coverage needs a <file> argument");
    break;
  case Verb::Report:
    if (Spec.Report.File.empty())
      Errors.push_back("report needs a <trace.json> argument");
    break;
  case Verb::Serve:
    if (Spec.Serve.SocketPath.empty())
      Errors.push_back("serve requires --socket PATH");
    if (Spec.Serve.MaxInflight < 1)
      Errors.push_back("--max-inflight must be at least 1, got " +
                       std::to_string(Spec.Serve.MaxInflight));
    break;
  }
  return Errors;
}

std::string syrust::cli::usageText() {
  return "usage: syrust list\n"
         "       syrust run <crate> [--budget N] [--seed N] [--apis N]\n"
         "                  [--no-semantic] [--eager] [--lazy]\n"
         "                  [--interleave] [--mutate-inputs] "
         "[--no-incremental]\n"
         "                  [--no-graph-prune] [--portfolio] "
         "[--strategy NAME]\n"
         "                  [--solve-budget N] [--stop-on-bug] "
         "[--minimize] [--max-tests N]\n"
         "                  [--log-tests N] [--json-errors] [--json]\n"
         "                  [--trace-out FILE] [--metrics-out FILE] "
         "[--trace-wall]\n"
         "                  [--coverage-out FILE] [--bias-coverage]\n"
         "                  [--connect SOCKET]\n"
         "       syrust campaign [--crates all|a,b,c] [--seeds N[..M]]\n"
         "                  [--variants v1,v2] [--jobs N] [--budget N]\n"
         "                  [--apis N] [--max-tests N] "
         "[--no-graph-prune]\n"
         "                  [--portfolio] [--strategy NAME] "
         "[--solve-budget N]\n"
         "                  [--out DIR] [--trace] [--coverage-out FILE]\n"
         "                  [--bias-coverage] [--checkpoint FILE] "
         "[--connect SOCKET]\n"
         "       syrust audit [--crates all|a,b,c] [--seeds N[..M]]\n"
         "                  [--apis N] [--max-lines N] [--max-models N]\n"
         "                  [--jobs N] [--no-graph-prune] "
         "[--weaken-kills]\n"
         "                  [--portfolio] [--strategy NAME]\n"
         "                  [--out DIR] [--json] [--coverage-out FILE]\n"
         "                  [--connect SOCKET]\n"
         "       syrust report <trace.json>\n"
         "       syrust coverage <file> [--top N] [--connect SOCKET]\n"
         "       syrust serve --socket PATH [--max-inflight N]\n"
         "                  [--checkpoint-dir DIR]\n"
         "exit codes: 0 ok; 1 finding (UB found, or unexpected audit\n"
         "disagreement); 2 usage/configuration error; 3 environment "
         "failure\n";
}
