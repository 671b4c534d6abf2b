//===--- DiagnosticJson.cpp - cargo-style JSON diagnostics ----------------===//
//
// Part of SyRust-CPP (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//

#include "rustsim/DiagnosticJson.h"

#include "support/Json.h"
#include "types/TypeParser.h"

using namespace syrust;
using namespace syrust::json;
using namespace syrust::rustsim;
using namespace syrust::types;

std::string syrust::rustsim::diagnosticToJson(const Diagnostic &D) {
  // Shaped like a (simplified) cargo compiler-message record.
  Value Msg = Value::object();
  Msg.set("reason", Value::string("compiler-message"));
  Msg.set("level", Value::string("error"));
  Msg.set("message", Value::string(D.Message));
  Msg.set("category", Value::string(categoryName(D.Category)));
  Msg.set("detail", Value::string(detailName(D.Detail)));
  Msg.set("line", Value::integer(D.Line));
  Msg.set("api", Value::integer(D.Api));

  Value Refine = Value::object();
  if (!D.ActualInputs.empty()) {
    Value Inputs = Value::array();
    for (const Type *T : D.ActualInputs)
      Inputs.push(Value::string(T->str()));
    Refine.set("actual_inputs", std::move(Inputs));
  }
  if (D.ExpectedOutput)
    Refine.set("expected_output", Value::string(D.ExpectedOutput->str()));
  if (!D.BadTypeVar.empty())
    Refine.set("bad_type_var", Value::string(D.BadTypeVar));
  if (!D.MissingTrait.empty())
    Refine.set("missing_trait", Value::string(D.MissingTrait));
  if (D.BadBinding)
    Refine.set("bad_binding", Value::string(D.BadBinding->str()));
  Msg.set("refinement", std::move(Refine));
  return Msg.dump();
}

bool syrust::rustsim::diagnosticFromJson(const std::string &Text,
                                         TypeArena &Arena, Diagnostic &Out,
                                         std::string &Error) {
  ParseResult R = parse(Text);
  if (!R.Ok) {
    Error = R.Error;
    return false;
  }
  const Value &Msg = R.Val;
  if (Msg.get("reason").asString() != "compiler-message") {
    Error = "not a compiler-message record";
    return false;
  }
  Out = Diagnostic();
  if (!detailFromName(Msg.get("detail").asString(), Out.Detail)) {
    Error = "unknown detail tag: " + Msg.get("detail").asString();
    return false;
  }
  Out.Category = categoryOf(Out.Detail);
  if (Msg.get("category").asString() != categoryName(Out.Category)) {
    Error = "category does not match detail";
    return false;
  }
  Out.Message = Msg.get("message").asString();
  Out.Line = static_cast<int>(Msg.get("line").asInt());
  Out.Api = static_cast<api::ApiId>(Msg.get("api").asInt());

  TypeParser Parser(Arena);
  auto ParseTy = [&](const std::string &Spec) -> const Type * {
    const Type *T = Parser.parse(Spec);
    if (!T)
      Error = "bad type in diagnostic: " + Spec + " (" + Parser.error() +
              ")";
    return T;
  };

  const Value &Refine = Msg.get("refinement");
  const Value &Inputs = Refine.get("actual_inputs");
  for (size_t I = 0; I < Inputs.size(); ++I) {
    const Type *T = ParseTy(Inputs.at(I).asString());
    if (!T)
      return false;
    Out.ActualInputs.push_back(T);
  }
  if (Refine.has("expected_output")) {
    Out.ExpectedOutput = ParseTy(Refine.get("expected_output").asString());
    if (!Out.ExpectedOutput)
      return false;
  }
  Out.BadTypeVar = Refine.get("bad_type_var").asString();
  Out.MissingTrait = Refine.get("missing_trait").asString();
  if (Refine.has("bad_binding")) {
    Out.BadBinding = ParseTy(Refine.get("bad_binding").asString());
    if (!Out.BadBinding)
      return false;
  }
  return true;
}
