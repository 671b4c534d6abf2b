//===--- ReportTest.cpp - Tests for the table renderer --------------------===//
//
// Part of SyRust-CPP (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/Session.h"
#include "report/CoverageReport.h"
#include "report/Table.h"
#include "types/TypeParser.h"

#include <gtest/gtest.h>

using namespace syrust::core;
using namespace syrust::crates;
using namespace syrust::report;

namespace {

/// One Session shared by the tests in this file; Session::runOne is the
/// one way to run a crate.
const Session &session() {
  static const Session S;
  return S;
}

TEST(TableTest, AlignsColumns) {
  Table T({"Name", "N"});
  T.addRow({"a", "1"});
  T.addRow({"longer", "23"});
  std::string Out = T.render();
  EXPECT_EQ(Out, "Name    N\n"
                 "----------\n"
                 "a       1\n"
                 "longer  23\n");
}

TEST(TableTest, ShortRowsPadAndTrailingSpacesTrimmed) {
  Table T({"A", "B", "C"});
  T.addRow({"x"});
  std::string Out = T.render();
  for (const std::string &Line :
       {std::string("A  B  C"), std::string("x")}) {
    EXPECT_NE(Out.find(Line + "\n"), std::string::npos) << Out;
  }
  // No line ends with a space.
  size_t Pos = 0;
  while ((Pos = Out.find('\n', Pos)) != std::string::npos) {
    if (Pos > 0) {
      EXPECT_NE(Out[Pos - 1], ' ');
    }
    ++Pos;
  }
}

TEST(TableTest, EmptyTableRendersHeaderOnly) {
  Table T({"Only"});
  EXPECT_EQ(T.render(), "Only\n----\n");
}

TEST(CurveSamplingTest, StrictlyMonotoneWithOneTerminalPoint) {
  // Unit costs put the simulated clock exactly on every sample boundary
  // AND on the budget end: each iteration advances by 1.0s, the 10s
  // budget with 5 samples has boundaries at 2,4,6,8,10. The historical
  // epilogue then duplicated the t=10 point; the fixed sampler must emit
  // a strictly monotone curve with exactly one terminal point.
  RunConfig C;
  C.BudgetSeconds = 10;
  C.CurveSamples = 5;
  C.SolveCost = 1.0;
  C.CompileCost = 0.0;
  C.ExecCost = 0.0;
  RunResult R = session().runOne("base16", C);
  ASSERT_FALSE(R.Curve.empty());
  for (size_t I = 1; I < R.Curve.size(); ++I)
    EXPECT_GT(R.Curve[I].AtSeconds, R.Curve[I - 1].AtSeconds)
        << "duplicate/regressing sample at index " << I;
  int Terminal = 0;
  for (const CurvePoint &P : R.Curve)
    if (P.AtSeconds == R.ElapsedSeconds)
      ++Terminal;
  EXPECT_EQ(Terminal, 1);
  // The final in-budget boundary sample must not be dropped.
  EXPECT_EQ(R.Curve.back().AtSeconds, 10.0);
  EXPECT_EQ(R.Curve.size(), 5u);
}

TEST(FormatterTest, PercentFormatting) {
  EXPECT_EQ(fmtPercent(0.005), "< 0.01 %"); // Figure 6's "< 0.01 %".
  EXPECT_EQ(fmtPercent(0.0), "0.00 %");
  EXPECT_EQ(fmtPercent(10.87), "10.87 %");
  EXPECT_EQ(fmtShare(95.447), "95.45 %");
  EXPECT_EQ(fmtCount(1225952), "1225952");
}

//===----------------------------------------------------------------------===//
// Never-covered edge listing: degree-ranked, order fully pinned.
//===----------------------------------------------------------------------===//

TEST(CoverageReportTest, NeverCoveredListingIsDegreeRankedAndPinned) {
  // Three APIs whose graph has four edges with distinct endpoint-degree
  // sums: mk() -> String, use1(String) -> bool, and the String-to-String
  // hub use2. Degrees: mk 2, use1 2, use2 4 (a self-edge counts both
  // endpoints), so the ranked order is
  //   use2->use2 (8), mk->use2 (6, lower edge index wins the tie),
  //   use2->use1 (6), mk->use1 (4)
  // - a golden pin of both the ranking and the index tie-break, which
  // replaced the old first-N-by-index listing.
  syrust::types::TypeArena Arena;
  syrust::types::TypeParser Parser{Arena, {}};
  syrust::api::ApiDatabase Db;
  auto Add = [&](const char *Name, const char *In, const char *Out) {
    syrust::api::ApiSig Sig;
    Sig.Name = Name;
    if (In)
      Sig.Inputs.push_back(Parser.parse(In));
    Sig.Output = Parser.parse(Out);
    return Db.add(std::move(Sig));
  };
  Add("mk", nullptr, "String");
  Add("use1", "String", "bool");
  Add("use2", "String", "String");
  syrust::types::CompatCache Cache;
  syrust::api::DependencyGraph Graph =
      syrust::api::buildDependencyGraph(Db, Arena, Cache);
  ASSERT_EQ(Graph.numEdges(), 4u);

  ApiCoverageEntry E;
  E.Crate = "toy";
  E.Data.NodesTotal = Graph.numNodes();
  E.Data.EdgesTotal = Graph.numEdges();
  E.Data.NodeBits.assign((Graph.numNodes() + 7) / 8, 0);
  E.Data.EdgeBits.assign((Graph.numEdges() + 7) / 8, 0);
  CrateApiResolver Resolver = [&](const std::string &) {
    return CrateApiView{&Db, &Graph};
  };

  std::string Full = renderApiCoverage({E}, Resolver);
  size_t Hub = Full.find("use2 -> use2#0");
  size_t MkHub = Full.find("mk -> use2#0");
  size_t HubUse1 = Full.find("use2 -> use1#0");
  size_t MkUse1 = Full.find("mk -> use1#0");
  ASSERT_NE(Hub, std::string::npos) << Full;
  ASSERT_NE(MkHub, std::string::npos);
  ASSERT_NE(HubUse1, std::string::npos);
  ASSERT_NE(MkUse1, std::string::npos);
  EXPECT_LT(Hub, MkHub);
  EXPECT_LT(MkHub, HubUse1);
  EXPECT_LT(HubUse1, MkUse1);

  // Truncation takes the ranked top N, not the first N edge indices,
  // and says so.
  CoverageReportOptions Top2;
  Top2.TopNeverCovered = 2;
  std::string Cut = renderApiCoverage({E}, Resolver, Top2);
  EXPECT_NE(Cut.find("(top 2 by endpoint degree)"), std::string::npos)
      << Cut;
  EXPECT_NE(Cut.find("use2 -> use2#0"), std::string::npos);
  EXPECT_NE(Cut.find("mk -> use2#0"), std::string::npos);
  EXPECT_EQ(Cut.find("mk -> use1#0"), std::string::npos);

  // The ranking is a pure function of the document: rendering twice is
  // byte-identical.
  EXPECT_EQ(Full, renderApiCoverage({E}, Resolver));
}

} // namespace
