//===--- EncodingTest.cpp - White-box tests for the SAT encoding ----------===//
//
// Part of SyRust-CPP (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// Direct tests of the Encoding class: enumeration counts on hand-sized
/// API sets where the program space can be verified by hand, the effect of
/// individual constraint families, and size/ablation properties.
///
//===----------------------------------------------------------------------===//

#include "rustsim/Checker.h"
#include "support/StringUtils.h"
#include "synth/Encoding.h"
#include "types/TypeParser.h"

#include <gtest/gtest.h>

#include <map>
#include <set>

using namespace syrust;
using namespace syrust::api;
using namespace syrust::program;
using namespace syrust::synth;
using namespace syrust::types;

namespace {

class EncodingFixture : public ::testing::Test {
protected:
  TypeArena Arena;
  TypeParser Parser{Arena, {"T"}};
  TraitEnv Traits{Arena};
  ApiDatabase Db;

  const Type *ty(const std::string &S) {
    const Type *T = Parser.parse(S);
    EXPECT_NE(T, nullptr) << Parser.error();
    return T;
  }

  ApiId addApi(const std::string &Name, std::vector<std::string> Ins,
               const std::string &Out) {
    ApiSig Sig;
    Sig.Name = Name;
    for (const auto &I : Ins)
      Sig.Inputs.push_back(ty(I));
    Sig.Output = ty(Out);
    return Db.add(std::move(Sig));
  }

  /// Enumerates every program of exactly \p Lines lines.
  std::vector<Program> enumerate(int Lines,
                                 std::vector<TemplateInput> Inputs,
                                 SynthOptions Opts = {}) {
    Encoding Enc(Arena, Traits, Db, Inputs, Lines, Opts);
    std::vector<Program> Out;
    while (Enc.nextModel()) {
      Out.push_back(Enc.decode());
      if (Out.size() > 20000)
        break;
    }
    return Out;
  }
};

TEST_F(EncodingFixture, ExactCountOnHandVerifiableSpace) {
  // Two unary APIs over two template scalars, one line: f(x), f(y),
  // g(x), g(y) = 4 programs exactly (scalars are Copy; no builtins).
  Traits.addDefaultPrimImpls();
  addApi("f", {"usize"}, "bool");
  addApi("g", {"usize"}, "u8");
  auto Programs =
      enumerate(1, {{"x", ty("usize")}, {"y", ty("usize")}});
  EXPECT_EQ(Programs.size(), 4u);
  std::set<uint64_t> Hashes;
  for (const Program &P : Programs)
    EXPECT_TRUE(Hashes.insert(P.hash()).second);
}

TEST_F(EncodingFixture, TwoLineCountSquaresWithChaining) {
  // h : usize -> usize. Line 1: h(x). Line 2: h(x) or h(v1): with one
  // template var, 1 * 2 = 2 two-line programs.
  Traits.addDefaultPrimImpls();
  addApi("h", {"usize"}, "usize");
  auto Programs = enumerate(2, {{"x", ty("usize")}});
  EXPECT_EQ(Programs.size(), 2u);
}

TEST_F(EncodingFixture, UnusableApiForcedOff) {
  // k takes a String but the template provides none: zero programs.
  Traits.addDefaultPrimImpls();
  addApi("k", {"String"}, "usize");
  auto Programs = enumerate(1, {{"x", ty("usize")}});
  EXPECT_TRUE(Programs.empty());
}

TEST_F(EncodingFixture, ConsumptionLimitsOwnedUse) {
  // c consumes a String; with one template String only one single-line
  // program exists, and no two-line program can consume it twice.
  Traits.addDefaultPrimImpls();
  addApi("c", {"String"}, "usize");
  auto One = enumerate(1, {{"s", ty("String")}});
  EXPECT_EQ(One.size(), 1u);
  auto Two = enumerate(2, {{"s", ty("String")}});
  EXPECT_TRUE(Two.empty());
}

TEST_F(EncodingFixture, RQ2AblationAllowsDoubleConsumption) {
  // The same space with semantic awareness off contains the double-use
  // program (which the checker then rejects) - the Figure 9 mechanism.
  Traits.addDefaultPrimImpls();
  addApi("c", {"String"}, "usize");
  SynthOptions Opts;
  Opts.SemanticAware = false;
  auto Two = enumerate(2, {{"s", ty("String")}}, Opts);
  ASSERT_EQ(Two.size(), 1u);
  rustsim::Checker Check(Arena, Traits);
  auto R = Check.check(Two[0], Db);
  ASSERT_FALSE(R.Success);
  EXPECT_EQ(R.Diag.Detail, rustsim::ErrorDetail::Ownership);
}

TEST_F(EncodingFixture, CopyArgsAreReusable) {
  // usize is Copy: two lines can both consume x.
  Traits.addDefaultPrimImpls();
  addApi("u", {"usize"}, "bool");
  auto Two = enumerate(2, {{"x", ty("usize")}});
  // Line1: u(x). Line2: u(x). (bool output is not a u-candidate.)
  EXPECT_EQ(Two.size(), 1u);
}

TEST_F(EncodingFixture, BlockedComboRemovesExactlyThatInstantiation) {
  Traits.addDefaultPrimImpls();
  ApiId Id = addApi("p", {"T"}, "bool");
  auto Before =
      enumerate(1, {{"x", ty("usize")}, {"s", ty("String")}});
  ASSERT_EQ(Before.size(), 2u); // p(x) and p(s).
  Db.blockCombo(Id, {ty("String")});
  auto After =
      enumerate(1, {{"x", ty("usize")}, {"s", ty("String")}});
  ASSERT_EQ(After.size(), 1u);
  EXPECT_EQ(After[0].Stmts[0].Args[0], 0) << "p(x) must survive";
}

TEST_F(EncodingFixture, BanAndComboBlockExtendWithoutANewGeneration) {
  // A change that adds no API keeps the live generation: a ban adds only
  // root units, and a combo block only its own clauses over one aux
  // variable per slot - no fresh guard. Neither excluded program is
  // decoded afterwards, and nothing emitted comes back.
  Traits.addDefaultPrimImpls();
  ApiId F = addApi("f", {"usize"}, "bool");
  ApiId P = addApi("p", {"T"}, "u8");
  ApiId G = addApi("g", {"usize"}, "u16");
  // The space: f(x), p(x), p(s) and g(x).
  Encoding Enc(Arena, Traits, Db, {{"x", ty("usize")}, {"s", ty("String")}},
               1, SynthOptions{});
  ASSERT_TRUE(Enc.nextModel());
  const Program First = Enc.decode();
  // Exclude two programs the first model is not: one by a ban, one by a
  // combo block on p.
  const ApiId Banned = First.Stmts[0].Api == F ? G : F;
  const VarId BlockedArg =
      First.Stmts[0].Api == P && First.Stmts[0].Args[0] == 1 ? 0 : 1;
  const size_t Vars = Enc.numSatVars();
  Db.ban(Banned);
  ASSERT_TRUE(Enc.extendForDatabaseChange());
  EXPECT_EQ(Enc.numSatVars(), Vars);
  Db.blockCombo(P, {BlockedArg == 0 ? ty("usize") : ty("String")});
  ASSERT_TRUE(Enc.extendForDatabaseChange());
  EXPECT_EQ(Enc.numSatVars(), Vars + 1);
  std::set<uint64_t> Hashes{First.hash()};
  while (Enc.nextModel()) {
    Program Q = Enc.decode();
    EXPECT_NE(Q.Stmts[0].Api, Banned);
    EXPECT_FALSE(Q.Stmts[0].Api == P && Q.Stmts[0].Args[0] == BlockedArg);
    EXPECT_TRUE(Hashes.insert(Q.hash()).second);
  }
  EXPECT_EQ(Hashes.size(), 2u);
}

TEST_F(EncodingFixture, MutRefReborrowedIntoRefParameterStaysUsable) {
  // A `&mut` binding passed to a parameter declared as a reference is
  // reborrowed, not moved (types::movesOnUse), so a later line may pass
  // it again. The Rule 5 consumption lists must leave such uses out:
  // counted as moves, they would kill the binding after its first use
  // and drop this compilable program.
  Traits.addDefaultPrimImpls();
  addApi("touch", {"&mut Counter"}, "usize");
  auto Two = enumerate(2, {{"r", ty("&mut Counter")}});
  ASSERT_EQ(Two.size(), 1u);
  for (const Stmt &S : Two[0].Stmts)
    EXPECT_EQ(S.Args, std::vector<VarId>{0}) << Two[0].render(Db);
  rustsim::Checker Check(Arena, Traits);
  auto R = Check.check(Two[0], Db);
  EXPECT_TRUE(R.Success) << Two[0].render(Db) << R.Diag.Message;

  // The same through the builtins: `let mut`, then one `&mut` binding
  // passed to touch on two later lines.
  addBuiltinApis(Db, Arena);
  addApi("mk", {"usize"}, "Counter");
  int Twice = 0;
  for (const Program &P : enumerate(5, {{"x", ty("usize")}})) {
    std::map<VarId, int> Touches;
    for (const Stmt &S : P.Stmts)
      if (Db.get(S.Api).Name == "touch" && ++Touches[S.Args[0]] == 2) {
        ++Twice;
        auto Verdict = Check.check(P, Db);
        EXPECT_TRUE(Verdict.Success) << P.render(Db) << Verdict.Diag.Message;
      }
  }
  EXPECT_GT(Twice, 0) << "no program passes one &mut binding twice";
}

TEST_F(EncodingFixture, SatVarCountGrowsWithLength) {
  Traits.addDefaultPrimImpls();
  addBuiltinApis(Db, Arena);
  addApi("f", {"usize"}, "usize");
  std::vector<TemplateInput> Inputs{{"x", ty("usize")}};
  size_t Prev = 0;
  for (int L = 1; L <= 4; ++L) {
    Encoding Enc(Arena, Traits, Db, Inputs, L, SynthOptions{});
    EXPECT_GT(Enc.numSatVars(), Prev);
    Prev = Enc.numSatVars();
  }
}

TEST_F(EncodingFixture, DecodedProgramsAlwaysWellFormed) {
  Traits.addDefaultPrimImpls();
  addBuiltinApis(Db, Arena);
  addApi("Vec::len", {"&Vec<T>"}, "usize");
  addApi("mk", {"usize"}, "Vec<u8>");
  auto Programs = enumerate(3, {{"x", ty("usize")}});
  EXPECT_GT(Programs.size(), 3u);
  for (const Program &P : Programs) {
    ASSERT_EQ(P.Stmts.size(), 3u);
    int NumVars = static_cast<int>(P.Inputs.size());
    for (const Stmt &S : P.Stmts) {
      const ApiSig &Sig = Db.get(S.Api);
      EXPECT_EQ(S.Args.size(), Sig.Inputs.size());
      for (VarId A : S.Args) {
        EXPECT_GE(A, 0);
        EXPECT_LT(A, NumVars) << "argument declared later than its use";
      }
      EXPECT_EQ(S.Out, NumVars);
      ++NumVars;
      EXPECT_NE(S.DeclType, nullptr);
    }
  }
}

TEST_F(EncodingFixture, BudgetExhaustionIsReported) {
  Traits.addDefaultPrimImpls();
  addBuiltinApis(Db, Arena);
  for (int I = 0; I < 6; ++I)
    addApi(format("api%d", I), {"usize", "usize"}, "usize");
  SynthOptions Opts;
  Opts.SolveConflictBudget = 1; // Absurdly small.
  Encoding Enc(Arena, Traits, Db, {{"x", ty("usize")}}, 4, Opts);
  int Count = 0;
  while (Enc.nextModel() && Count < 100000)
    ++Count;
  // Either the space was tiny or the budget tripped; on this space the
  // budget trips long before exhaustion.
  EXPECT_TRUE(Enc.budgetExhausted());
}

TEST_F(EncodingFixture, MutBorrowTargetsRequireLetMutEvenAtDistance) {
  Traits.addDefaultPrimImpls();
  auto B = addBuiltinApis(Db, Arena);
  (void)B;
  addApi("touch", {"&mut Counter"}, "usize");
  addApi("mk", {"usize"}, "Counter");
  // Valid chains must thread mk -> let mut -> &mut -> touch; anything
  // borrowing a non-letmut Counter must be absent.
  auto Programs = enumerate(4, {{"x", ty("usize")}});
  bool SawFullChain = false;
  for (const Program &P : Programs) {
    for (size_t I = 0; I < P.Stmts.size(); ++I) {
      const Stmt &S = P.Stmts[I];
      if (Db.get(S.Api).Builtin != BuiltinKind::BorrowMut)
        continue;
      VarId Target = S.Args[0];
      ASSERT_GE(Target, 1) << P.render(Db);
      const Stmt &Def =
          P.Stmts[static_cast<size_t>(Target) - P.Inputs.size()];
      EXPECT_EQ(Db.get(Def.Api).Builtin, BuiltinKind::LetMut)
          << P.render(Db);
      SawFullChain = true;
    }
  }
  EXPECT_TRUE(SawFullChain);
}

} // namespace
