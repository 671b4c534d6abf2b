//===--- RefineTest.cpp - Tests for hybrid API refinement -----------------===//
//
// Part of SyRust-CPP (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//

#include "refine/RefinementEngine.h"
#include "rustsim/Checker.h"
#include "synth/Synthesizer.h"
#include "types/TypeParser.h"

#include <gtest/gtest.h>

using namespace syrust;
using namespace syrust::api;
using namespace syrust::program;
using namespace syrust::refine;
using namespace syrust::rustsim;
using namespace syrust::synth;
using namespace syrust::types;

namespace {

class RefineFixture : public ::testing::Test {
protected:
  TypeArena Arena;
  TypeParser Parser{Arena, {"T", "O"}};
  TraitEnv Traits{Arena};
  ApiDatabase Db;

  const Type *parse(const std::string &S) {
    const Type *T = Parser.parse(S);
    EXPECT_NE(T, nullptr) << Parser.error();
    return T;
  }

  ApiId addApi(const std::string &Name, std::vector<std::string> Ins,
               const std::string &Out,
               std::vector<std::pair<std::string, std::string>> Bounds = {}) {
    ApiSig Sig;
    Sig.Name = Name;
    for (const auto &I : Ins)
      Sig.Inputs.push_back(parse(I));
    Sig.Output = parse(Out);
    Sig.Bounds = std::move(Bounds);
    return Db.add(std::move(Sig));
  }

  std::vector<TemplateInput> vecTemplate() {
    return {{"s", parse("String")}, {"v", parse("Vec<String>")},
            {"n", parse("usize")}};
  }
};

//===----------------------------------------------------------------------===//
// Harvesting
//===----------------------------------------------------------------------===//

TEST_F(RefineFixture, HarvestFindsTemplateAndSignatureTypes) {
  addApi("f", {"&Vec<i32>"}, "Option<bool>");
  auto Types = harvestConcreteTypes(Db, vecTemplate());
  auto Has = [&](const std::string &S) {
    const Type *T = parse(S);
    return std::find(Types.begin(), Types.end(), T) != Types.end();
  };
  EXPECT_TRUE(Has("String"));
  EXPECT_TRUE(Has("Vec<String>"));
  EXPECT_TRUE(Has("usize"));
  EXPECT_TRUE(Has("Vec<i32>"));   // Subterm through the reference.
  EXPECT_TRUE(Has("i32"));        // Nested subterm.
  EXPECT_TRUE(Has("Option<bool>"));
  EXPECT_TRUE(Has("bool"));
}

TEST_F(RefineFixture, HarvestSkipsRefsUnitAndVars) {
  addApi("g", {"&mut Vec<T>"}, "()");
  auto Types = harvestConcreteTypes(Db, {});
  for (const Type *T : Types) {
    EXPECT_FALSE(T->isRef());
    EXPECT_FALSE(T->isUnit());
    EXPECT_TRUE(T->isConcrete());
  }
}

//===----------------------------------------------------------------------===//
// 5.1: no-input polymorphism
//===----------------------------------------------------------------------===//

TEST_F(RefineFixture, ConstructorEagerlyConcretized) {
  ApiId New = addApi("Vec::new", {}, "Vec<T>");
  RefinementEngine Engine(Arena, Db, RefinementMode::Hybrid);
  Engine.initialize(vecTemplate());
  EXPECT_TRUE(Db.isBanned(New));
  EXPECT_GT(Engine.stats().EagerConcretizations, 0u);
  // A Vec<String> variant must exist among the concretizations.
  bool Found = false;
  for (size_t I = 0; I < Db.size(); ++I) {
    const ApiSig &Sig = Db.get(static_cast<ApiId>(I));
    if (Sig.Name == "Vec::new" && Sig.Output == parse("Vec<String>") &&
        !Db.isBanned(static_cast<ApiId>(I)))
      Found = true;
  }
  EXPECT_TRUE(Found);
}

TEST_F(RefineFixture, InputResolvedPolymorphismNotEagerlyExpanded) {
  // pop's output variable is pinned by its input; hybrid leaves it lazy.
  ApiId Pop = addApi("Vec::pop", {"&mut Vec<T>"}, "Option<T>");
  RefinementEngine Engine(Arena, Db, RefinementMode::Hybrid);
  Engine.initialize(vecTemplate());
  EXPECT_FALSE(Db.isBanned(Pop));
  EXPECT_EQ(Engine.stats().EagerConcretizations, 0u);
}

TEST_F(RefineFixture, ConstructorWithConcreteInputsStillEager) {
  // with_capacity(usize) -> Vec<T>: inputs do not pin T.
  ApiId WithCap = addApi("Vec::with_capacity", {"usize"}, "Vec<T>");
  RefinementEngine Engine(Arena, Db, RefinementMode::Hybrid);
  Engine.initialize(vecTemplate());
  EXPECT_TRUE(Db.isBanned(WithCap));
  EXPECT_GT(Engine.stats().EagerConcretizations, 0u);
}

TEST_F(RefineFixture, PurelyLazySkipsEagerPass) {
  ApiId New = addApi("Vec::new", {}, "Vec<T>");
  RefinementEngine Engine(Arena, Db, RefinementMode::PurelyLazy);
  Engine.initialize(vecTemplate());
  EXPECT_FALSE(Db.isBanned(New));
  EXPECT_EQ(Engine.stats().EagerConcretizations, 0u);
}

TEST_F(RefineFixture, PurelyEagerExpandsEverything) {
  ApiId Pop = addApi("Vec::pop", {"&mut Vec<T>"}, "Option<T>");
  ApiId New = addApi("Vec::new", {}, "Vec<T>");
  RefinementEngine Engine(Arena, Db, RefinementMode::PurelyEager);
  Engine.initialize(vecTemplate());
  EXPECT_TRUE(Db.isBanned(Pop));
  EXPECT_TRUE(Db.isBanned(New));
  EXPECT_GT(Engine.stats().EagerConcretizations, 4u);
}

//===----------------------------------------------------------------------===//
// 5.2: trait feedback
//===----------------------------------------------------------------------===//

TEST_F(RefineFixture, TraitErrorOnConcreteApiRemovesIt) {
  ApiId Bad = addApi("Set::insert", {"HashSet<f64>", "f64"}, "bool");
  RefinementEngine Engine(Arena, Db, RefinementMode::Hybrid);
  Engine.initialize(vecTemplate());
  Diagnostic D;
  D.Detail = ErrorDetail::TraitBound;
  D.Category = ErrorCategory::Type;
  D.Api = Bad;
  D.BadTypeVar = "T";
  D.MissingTrait = "Hash";
  EXPECT_TRUE(Engine.onDiagnostic(D));
  EXPECT_TRUE(Db.isBanned(Bad));
  EXPECT_EQ(Engine.stats().TraitRemovals, 1u);
}

TEST_F(RefineFixture, TraitErrorOnPolymorphicApiBlocksCombo) {
  ApiId Ins = addApi("Set::insert", {"&mut HashSet<T>", "T"}, "bool",
                     {{"T", "Hash"}});
  RefinementEngine Engine(Arena, Db, RefinementMode::Hybrid);
  Engine.initialize(vecTemplate());
  Diagnostic D;
  D.Detail = ErrorDetail::TraitBound;
  D.Api = Ins;
  D.ActualInputs = {parse("&mut HashSet<f64>"), parse("f64")};
  EXPECT_TRUE(Engine.onDiagnostic(D));
  EXPECT_FALSE(Db.isBanned(Ins));
  EXPECT_TRUE(Db.isComboBlocked(Ins, D.ActualInputs));
}

TEST_F(RefineFixture, RepeatedComboBlockIsNoDatabaseChange) {
  // The checker reports concrete inputs that may match no encoder-level
  // candidate type, so the same mismatch recurs. Blocking it again
  // changes nothing: no change reported, no block counted.
  ApiId New = addApi("AtomicCell::new", {"T"}, "AtomicCell<T>");
  RefinementEngine Engine(Arena, Db, RefinementMode::Hybrid);
  Engine.initialize(vecTemplate());
  Diagnostic D;
  D.Detail = ErrorDetail::TypeMismatch;
  D.Api = New;
  D.ActualInputs = {parse("AtomicCell<usize>")};
  EXPECT_TRUE(Engine.onDiagnostic(D));
  EXPECT_TRUE(Db.isComboBlocked(New, D.ActualInputs));
  EXPECT_FALSE(Engine.onDiagnostic(D));
  EXPECT_EQ(Engine.stats().ComboBlocks, 1u);
}

//===----------------------------------------------------------------------===//
// 5.3: duplicate-and-block
//===----------------------------------------------------------------------===//

TEST_F(RefineFixture, DirectFixFromExpectedOutput) {
  ApiId Pop = addApi("Vec::pop", {"&mut Vec<T>"}, "Option<T>");
  RefinementEngine Engine(Arena, Db, RefinementMode::Hybrid);
  Engine.initialize(vecTemplate());
  Diagnostic D;
  D.Detail = ErrorDetail::Polymorphism;
  D.Api = Pop;
  D.ActualInputs = {parse("&mut Vec<String>")};
  D.ExpectedOutput = parse("Option<String>");
  EXPECT_TRUE(Engine.onDiagnostic(D));
  // A concrete duplicate must exist and the original must be blocked on
  // that combination.
  ApiSig Probe;
  Probe.Name = "Vec::pop";
  Probe.Inputs = {parse("&mut Vec<String>")};
  Probe.Output = parse("Option<String>");
  ApiId Dup = Db.findDuplicate(Probe);
  ASSERT_NE(Dup, ApiIdInvalid);
  EXPECT_EQ(Db.get(Dup).RefinedFrom, Pop);
  EXPECT_TRUE(Db.isComboBlocked(Pop, D.ActualInputs));
  // Re-reporting the same fix is a no-op.
  EXPECT_FALSE(Engine.onDiagnostic(D));
}

TEST_F(RefineFixture, OnSuccessDuplicatesPolymorphicOutputUse) {
  auto Builtins = addBuiltinApis(Db, Arena);
  ApiId Pop = addApi("Vec::pop", {"&mut Vec<T>"}, "Option<T>");
  RefinementEngine Engine(Arena, Db, RefinementMode::Hybrid);
  Engine.initialize(vecTemplate());

  Program P;
  P.Inputs = vecTemplate();
  P.Stmts.push_back(Stmt{Builtins[0], {1}, 3, parse("Vec<String>")});
  P.Stmts.push_back(Stmt{Builtins[2], {3}, 4, parse("&mut Vec<String>")});
  P.Stmts.push_back(Stmt{Pop, {4}, 5, parse("Option<String>")});
  EXPECT_TRUE(Engine.onSuccess(P));
  EXPECT_EQ(Engine.stats().OutputDuplications, 1u);
  EXPECT_TRUE(
      Db.isComboBlocked(Pop, {parse("&mut Vec<String>")}));
  // Idempotent.
  EXPECT_FALSE(Engine.onSuccess(P));
}

TEST_F(RefineFixture, ArityQuirkBannedAfterStrikes) {
  ApiId Bad = addApi("Skewed::f", {"usize"}, "usize");
  RefinementEngine Engine(Arena, Db, RefinementMode::Hybrid);
  Engine.initialize(vecTemplate());
  Diagnostic D;
  D.Detail = ErrorDetail::Arity;
  D.Api = Bad;
  EXPECT_FALSE(Engine.onDiagnostic(D));
  EXPECT_FALSE(Engine.onDiagnostic(D));
  EXPECT_TRUE(Engine.onDiagnostic(D)); // Third strike bans.
  EXPECT_TRUE(Db.isBanned(Bad));
}

TEST_F(RefineFixture, UnfixableCategoriesAreNoOps) {
  ApiId A = addApi("x", {"usize"}, "usize");
  RefinementEngine Engine(Arena, Db, RefinementMode::Hybrid);
  Engine.initialize(vecTemplate());
  for (ErrorDetail Detail :
       {ErrorDetail::MethodNotFound, ErrorDetail::DefaultTypeParam,
        ErrorDetail::AnonLifetime, ErrorDetail::Ownership,
        ErrorDetail::Borrowing}) {
    Diagnostic D;
    D.Detail = Detail;
    D.Api = A;
    EXPECT_FALSE(Engine.onDiagnostic(D));
    EXPECT_FALSE(Db.isBanned(A));
  }
}

TEST_F(RefineFixture, PurelyEagerIgnoresFeedback) {
  ApiId Pop = addApi("Vec::pop", {"&mut Vec<T>"}, "Option<T>");
  RefinementEngine Engine(Arena, Db, RefinementMode::PurelyEager);
  Engine.initialize(vecTemplate());
  Diagnostic D;
  D.Detail = ErrorDetail::TraitBound;
  D.Api = Pop;
  D.ActualInputs = {parse("&mut Vec<f64>")};
  EXPECT_FALSE(Engine.onDiagnostic(D));
}

//===----------------------------------------------------------------------===//
// End-to-end: the Section 5.3 narrative against the real synthesizer and
// checker - polymorphic pop chains become compilable after refinement.
//===----------------------------------------------------------------------===//

TEST_F(RefineFixture, RefinementLoopConvergesOnVecLibrary) {
  Traits.addDefaultPrimImpls();
  Traits.addImpl("Clone", Arena.named("String"));
  auto Builtins = addBuiltinApis(Db, Arena);
  (void)Builtins;
  addApi("Vec::push", {"&mut Vec<T>", "T"}, "()");
  addApi("Vec::pop", {"&mut Vec<T>"}, "Option<T>");
  addApi("Vec::new", {}, "Vec<T>");
  addApi("Option::is_some", {"&Option<String>"}, "bool");

  RefinementEngine Engine(Arena, Db, RefinementMode::Hybrid);
  Engine.initialize(vecTemplate());

  Checker Check(Arena, Traits);
  Synthesizer Synth(Arena, Traits, Db, vecTemplate(), 4);
  int Total = 0, Errors = 0, LateErrors = 0;
  while (auto P = Synth.next()) {
    ++Total;
    CompileResult R = Check.check(*P, Db);
    bool Changed = false;
    if (!R.Success) {
      ++Errors;
      if (Total > 400)
        ++LateErrors;
      Changed = Engine.onDiagnostic(R.Diag);
    } else {
      Changed = Engine.onSuccess(*P);
    }
    if (Changed)
      Synth.notifyDatabaseChanged();
    if (Total >= 800)
      break;
  }
  EXPECT_GT(Total, 300);
  // Errors must be rare overall and vanish as refinement converges.
  EXPECT_LT(static_cast<double>(Errors) / Total, 0.10);
  EXPECT_EQ(LateErrors, 0) << "refinement failed to converge";
}

} // namespace
