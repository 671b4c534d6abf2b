//===--- Oracle.cpp - Encoder/checker agreement oracle --------------------===//
//
// Part of SyRust-CPP (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//

#include "oracle/Oracle.h"

#include "rustsim/Checker.h"

#include <utility>

using namespace syrust;
using namespace syrust::api;
using namespace syrust::core;
using namespace syrust::crates;
using namespace syrust::oracle;
using namespace syrust::program;
using namespace syrust::rustsim;

std::vector<std::string> OracleConfig::validate() const {
  std::vector<std::string> Errors = Run.validate();
  if (Audit.MaxLines < 0)
    Errors.push_back("OracleConfig.MaxLines must be non-negative, got " +
                     std::to_string(Audit.MaxLines));
  if (MaxModels == 0)
    Errors.push_back("OracleConfig.MaxModels must be nonzero (a zero cap "
                     "would audit nothing and report vacuous agreement)");
  return Errors;
}

AuditCounts &AuditCounts::operator+=(const AuditCounts &Other) {
  ModelsReplayed += Other.ModelsReplayed;
  AgreePass += Other.AgreePass;
  AgreeReject += Other.AgreeReject;
  ExpectedTotal += Other.ExpectedTotal;
  UnexpectedTotal += Other.UnexpectedTotal;
  FilteredCompilable += Other.FilteredCompilable;
  MinimizerSteps += Other.MinimizerSteps;
  for (const auto &[Det, N] : Other.Expected)
    Expected[Det] += N;
  return *this;
}

bool syrust::oracle::isExpectedDetail(ErrorDetail Detail) {
  switch (Detail) {
  case ErrorDetail::TraitBound:
  case ErrorDetail::Polymorphism:
  case ErrorDetail::DefaultTypeParam:
  case ErrorDetail::AnonLifetime:
  case ErrorDetail::Arity:
  case ErrorDetail::MethodNotFound:
    // The checker is deliberately stricter here (Checker.h file comment):
    // these rejections are the refinement loop's feedback, not encoder
    // bugs.
    return true;
  case ErrorDetail::None:
  case ErrorDetail::TypeMismatch:
  case ErrorDetail::Ownership:
  case ErrorDetail::Borrowing:
    // Rules 1-9 claim to encode concrete typing, moves, and borrows
    // exactly; an emitted program rejected here is a soundness bug.
    return false;
  }
  return false;
}

MinimizedDisagreement syrust::oracle::minimizeDisagreement(
    types::TypeArena &Arena, const types::TraitEnv &Traits,
    const ApiDatabase &Db, const Program &P, ErrorDetail Detail) {
  Checker Check(Arena, Traits);
  MinimizedDisagreement Min;
  Min.Program = shrink(
      P,
      [&](const Program &Candidate) {
        ++Min.Steps;
        CompileResult R = Check.check(Candidate, Db);
        return !R.Success && R.Diag.Detail == Detail;
      },
      /*Rewire=*/true);
  return Min;
}

AuditResult syrust::oracle::auditOne(const Session &S,
                                     const std::string &CrateName,
                                     const OracleConfig &Config,
                                     obs::Recorder *Obs) {
  AuditResult Result;
  Result.Crate = CrateName;
  Result.Seed = Config.Run.Seed;
  const CrateSpec *Spec = S.find(CrateName);
  if (!Spec || !Spec->Info.SupportsSynthesis ||
      !Config.validate().empty()) {
    Result.Supported = false;
    return Result;
  }

  // The differential tap: every model the Rule-7 path filter swallows is
  // captured here and replayed through the checker alongside the
  // emitted stream.
  std::vector<Program> Filtered;
  // A run's own set-up (Session::runOne builds one too), so the
  // enumeration the oracle audits is the enumeration real runs emit.
  std::shared_ptr<const CrateAnalysis> Analysis = S.analysisFor(*Spec);
  RunSetup Setup(*Spec, *Analysis, Config.Run, Obs, /*Clock=*/nullptr,
                 Config.Audit,
                 [&Filtered](const Program &P) { Filtered.push_back(P); });
  CrateInstance &Inst = *Setup.Inst;

  auto Count = [&Obs](const char *Name) {
    if (Obs)
      Obs->count(Name);
  };

  while (Result.ModelsReplayed < Config.MaxModels) {
    std::optional<Program> P = Setup.next();
    // Replay whatever the path filter rejected while producing this
    // model (or proving exhaustion). Order is enumeration order, so the
    // replayed stream - and the report - is deterministic.
    for (const Program &F : Filtered) {
      ++Result.ModelsReplayed;
      Count("oracle.models_replayed");
      CompileResult C = Setup.Check.check(F, Inst.Db);
      if (!C.Success) {
        ++Result.AgreeReject;
        Count("oracle.agree_reject");
      } else {
        // Filter stricter than the checker: lost coverage, not
        // unsoundness. Counted, surfaced, never fatal.
        ++Result.FilteredCompilable;
        Count("oracle.filtered_compilable");
      }
    }
    Filtered.clear();
    if (!P.has_value())
      break;

    ++Result.ModelsReplayed;
    Count("oracle.models_replayed");
    CompileResult C = Setup.Check.check(*P, Inst.Db);
    bool DbChanged = false;
    if (C.Success) {
      ++Result.AgreePass;
      Count("oracle.agree_pass");
      DbChanged = Setup.Refine.onSuccess(*P);
    } else {
      if (isExpectedDetail(C.Diag.Detail)) {
        ++Result.Expected[C.Diag.Detail];
        ++Result.ExpectedTotal;
        Count("oracle.expected");
      } else {
        ++Result.UnexpectedTotal;
        Count("oracle.unexpected");
        Disagreement D;
        D.Detail = C.Diag.Detail;
        D.Message = C.Diag.Message;
        D.Lines = static_cast<int>(P->Stmts.size());
        D.Source = P->render(Inst.Db);
        MinimizedDisagreement Min = minimizeDisagreement(
            Inst.Arena, Inst.Traits, Inst.Db, *P, C.Diag.Detail);
        D.MinimizedLines = static_cast<int>(Min.Program.Stmts.size());
        D.MinimizedSource = Min.Program.render(Inst.Db);
        D.MinimizerSteps = Min.Steps;
        Result.MinimizerSteps += Min.Steps;
        if (Obs) {
          Obs->count("oracle.minimizer_steps", Min.Steps);
          Obs->instant("oracle.disagreement", "oracle",
                       obs::ArgList()
                           .add("detail", detailName(D.Detail))
                           .add("lines", D.Lines)
                           .add("minimized_lines", D.MinimizedLines));
        }
        Result.Unexpected.push_back(std::move(D));
      }
      // Feed the diagnostic back exactly as the driver would: the
      // refined database steers what the encoder enumerates next, and
      // the oracle must audit that steered stream too.
      DbChanged = Setup.Refine.onDiagnostic(C.Diag);
    }
    if (DbChanged)
      Setup.Synth->notifyDatabaseChanged();
  }
  Result.ApiCoverage = Setup.ApiCov.data();
  return Result;
}
