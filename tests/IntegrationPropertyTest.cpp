//===--- IntegrationPropertyTest.cpp - Cross-module property tests --------===//
//
// Part of SyRust-CPP (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// Whole-pipeline invariants over every library model, parameterized
/// gtest style: accounting identities of RunResult, encoder soundness
/// w.r.t. the checker (Remark 1 of the paper), and bit-for-bit run
/// determinism.
///
//===----------------------------------------------------------------------===//

#include "core/Session.h"

#include <gtest/gtest.h>

using namespace syrust;
using namespace syrust::core;
using namespace syrust::crates;
using namespace syrust::rustsim;

namespace {

/// One Session shared by the tests in this file; Session::runOne is the
/// one way to run a crate.
const Session &session() {
  static const Session S;
  return S;
}

RunConfig shortConfig() {
  RunConfig C;
  C.BudgetSeconds = 25;
  C.SnapshotInterval = 10;
  return C;
}

class PipelineOnEveryCrate : public ::testing::TestWithParam<size_t> {
protected:
  const CrateSpec &spec() const { return allCrates()[GetParam()]; }
};

TEST_P(PipelineOnEveryCrate, AccountingIdentitiesHold) {
  if (!spec().Info.SupportsSynthesis)
    return;
  RunResult R = session().runOne(spec(), shortConfig());
  // Every synthesized case was either rejected or executed (executions
  // stop early only under StopOnFirstBug).
  EXPECT_EQ(R.Synthesized, R.Rejected + R.Executed) << spec().Info.Name;
  uint64_t CatSum = 0;
  for (const auto &[Cat, N] : R.ByCategory)
    CatSum += N;
  EXPECT_EQ(CatSum, R.Rejected) << spec().Info.Name;
  uint64_t DetSum = 0;
  for (const auto &[Det, N] : R.ByDetail)
    DetSum += N;
  EXPECT_EQ(DetSum, R.Rejected) << spec().Info.Name;
  // Coverage percentages are sane and the component bounds the library.
  EXPECT_GE(R.Coverage.ComponentLine, R.Coverage.LibraryLine);
  EXPECT_LE(R.Coverage.ComponentLine, 100.0);
  EXPECT_GE(R.Coverage.LibraryBranch, 0.0);
}

TEST_P(PipelineOnEveryCrate, EncoderSoundForOwnershipAndBorrows) {
  // Remark 1: programs emitted by the semantic-aware encoder satisfy the
  // compiler's ownership/borrow requirements. The only tolerated
  // Lifetime&Ownership rejections are the anonymous-parameterized-
  // lifetime corner case the paper explicitly does not support (7.1).
  if (!spec().Info.SupportsSynthesis)
    return;
  RunResult R = session().runOne(spec(), shortConfig());
  auto Det = [&](ErrorDetail D) {
    auto It = R.ByDetail.find(D);
    return It == R.ByDetail.end() ? uint64_t{0} : It->second;
  };
  EXPECT_EQ(Det(ErrorDetail::Ownership), 0u) << spec().Info.Name;
  EXPECT_EQ(Det(ErrorDetail::Borrowing), 0u) << spec().Info.Name;
}

TEST_P(PipelineOnEveryCrate, RunsAreDeterministic) {
  if (!spec().Info.SupportsSynthesis)
    return;
  RunResult A = session().runOne(spec(), shortConfig());
  RunResult B = session().runOne(spec(), shortConfig());
  EXPECT_EQ(A.Synthesized, B.Synthesized) << spec().Info.Name;
  EXPECT_EQ(A.Rejected, B.Rejected) << spec().Info.Name;
  EXPECT_EQ(A.ByDetail, B.ByDetail) << spec().Info.Name;
  EXPECT_EQ(A.Coverage.ComponentLine, B.Coverage.ComponentLine)
      << spec().Info.Name;
  EXPECT_EQ(A.BugFound, B.BugFound) << spec().Info.Name;
}

TEST_P(PipelineOnEveryCrate, AblationModesDoNotCrash) {
  if (!spec().Info.SupportsSynthesis)
    return;
  RunConfig C = shortConfig();
  C.BudgetSeconds = 8;
  C.SemanticAware = false;
  RunResult RQ2 = session().runOne(spec(), C);
  EXPECT_EQ(RQ2.Synthesized, RQ2.Rejected + RQ2.Executed);
  RunConfig E = shortConfig();
  E.BudgetSeconds = 8;
  E.Mode = refine::RefinementMode::PurelyEager;
  E.EagerCap = 8;
  RunResult RQ3 = session().runOne(spec(), E);
  EXPECT_EQ(RQ3.Synthesized, RQ3.Rejected + RQ3.Executed);
}

INSTANTIATE_TEST_SUITE_P(AllCrates, PipelineOnEveryCrate,
                         ::testing::Range<size_t>(0, 30),
                         [](const ::testing::TestParamInfo<size_t> &Info) {
                           std::string Name =
                               allCrates()[Info.param].Info.Name;
                           for (char &C : Name)
                             if (C == '-' || C == '_')
                               C = '0';
                           return Name;
                         });

} // namespace
