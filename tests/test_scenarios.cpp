//===- tests/test_scenarios.cpp - Per-scenario correctness suite -----------===//
//
// Parameterized over every scenario kind x style: the insecure variant
// must violate its rule, the secure variant must not, the insecure->secure
// change must classify as a fix, and its usage change must survive the
// filters. This is the generator/analyzer/rules contract that every
// figure benchmark rests on.
//
//===----------------------------------------------------------------------===//

#include "core/DiffCode.h"
#include "corpus/Scenario.h"
#include "rules/BuiltinRules.h"
#include "rules/ChangeClassifier.h"

#include <gtest/gtest.h>

using namespace diffcode;

namespace {

struct ScenarioParam {
  unsigned KindIndex;
  unsigned Seed;
};

class ScenarioContract : public ::testing::TestWithParam<ScenarioParam> {
protected:
  corpus::ScenarioKind kind() const {
    return static_cast<corpus::ScenarioKind>(GetParam().KindIndex);
  }

  corpus::ScenarioInstance makeInstance(bool Secure) const {
    Rng R(GetParam().Seed * 7919 + GetParam().KindIndex);
    corpus::ScenarioInstance Inst;
    Inst.Kind = kind();
    Inst.Details = corpus::drawDetails(Inst.Kind, R);
    Inst.Details.Secure = Secure;
    Inst.StyleSeed = GetParam().Seed * 104729 + 5;
    Inst.ClassName = "Contract";
    Inst.PairEncDec =
        Inst.Kind == corpus::ScenarioKind::BlockCipher && R.chance(0.35);
    return Inst;
  }

  rules::ProjectMetadata meta() const {
    rules::ProjectMetadata Meta;
    Meta.IsAndroid = true; // make R6 applicable
    Meta.MinSdkVersion = 18;
    Meta.HasLinuxPrngFix = false;
    return Meta;
  }
};

std::string paramName(const ::testing::TestParamInfo<ScenarioParam> &Info) {
  std::string Name = corpus::scenarioName(
      static_cast<corpus::ScenarioKind>(Info.param.KindIndex));
  for (char &C : Name)
    if (C == '-')
      C = '_';
  return Name + "_s" + std::to_string(Info.param.Seed);
}

std::vector<ScenarioParam> allParams() {
  std::vector<ScenarioParam> Params;
  for (unsigned Kind = 0; Kind < corpus::NumScenarioKinds; ++Kind)
    for (unsigned Seed : {1u, 2u})
      Params.push_back({Kind, Seed});
  return Params;
}

} // namespace

TEST_P(ScenarioContract, InsecureViolatesItsRuleSecureDoesNot) {
  const rules::Rule *R = rules::findRule(corpus::scenarioRuleId(kind()));
  ASSERT_NE(R, nullptr);
  core::DiffCode System(apimodel::CryptoApiModel::javaCryptoApi());

  std::string Insecure =
      renderScenario(makeInstance(false), "com.example.contract");
  std::string Secure =
      renderScenario(makeInstance(true), "com.example.contract");

  analysis::AnalysisResult InsecureResult = System.analyzeSourceChecked(Insecure).Result;
  analysis::AnalysisResult SecureResult = System.analyzeSourceChecked(Secure).Result;
  rules::UnitFacts InsecureFacts = rules::UnitFacts::from(InsecureResult);
  rules::UnitFacts SecureFacts = rules::UnitFacts::from(SecureResult);

  EXPECT_TRUE(rules::ruleMatches(*R, {InsecureFacts}, meta()))
      << R->Id << "\n" << Insecure;
  EXPECT_FALSE(rules::ruleMatches(*R, {SecureFacts}, meta()))
      << R->Id << "\n" << Secure;
}

TEST_P(ScenarioContract, FixClassifiesAsSecurityFix) {
  const rules::Rule *R = rules::findRule(corpus::scenarioRuleId(kind()));
  core::DiffCode System(apimodel::CryptoApiModel::javaCryptoApi());
  analysis::AnalysisResult OldResult =
      System
          .analyzeSourceChecked(
              renderScenario(makeInstance(false), "com.example.contract"))
          .Result;
  analysis::AnalysisResult NewResult =
      System
          .analyzeSourceChecked(
              renderScenario(makeInstance(true), "com.example.contract"))
          .Result;
  EXPECT_EQ(rules::classifyChange(*R, rules::UnitFacts::from(OldResult),
                                  rules::UnitFacts::from(NewResult), meta()),
            rules::ChangeClass::SecurityFix)
      << R->Id;
}

TEST_P(ScenarioContract, FixSurvivesFiltersForSomeTargetClass) {
  core::DiffCode System(apimodel::CryptoApiModel::javaCryptoApi());
  corpus::CodeChange Change;
  Change.OldCode = renderScenario(makeInstance(false), "com.example.contract");
  Change.NewCode = renderScenario(makeInstance(true), "com.example.contract");

  core::ChangeRecord Record = System.processChange(
      Change, apimodel::CryptoApiModel::javaCryptoApi().targetClasses(), {},
      *System.labels());
  EXPECT_NE(Record.Status, core::ChangeStatus::AnalysisThrow)
      << Record.StatusDetail;
  bool Survives = false;
  for (const auto &[Target, Changes] : Record.PerClass)
    for (const usage::UsageChange &UC : Changes)
      Survives = Survives || core::classifySolo(UC) == core::FilterStage::Kept;
  EXPECT_TRUE(Survives) << Change.OldCode << "\n====\n" << Change.NewCode;
}

TEST_P(ScenarioContract, RestyleIsNonSemantic) {
  core::DiffCode System(apimodel::CryptoApiModel::javaCryptoApi());
  corpus::ScenarioInstance Inst = makeInstance(false);
  corpus::CodeChange Change;
  Change.OldCode = renderScenario(Inst, "com.example.contract");
  Inst.StyleSeed ^= 0xdeadbeef;
  Change.NewCode = renderScenario(Inst, "com.example.contract");

  core::ChangeRecord Record = System.processChange(
      Change, apimodel::CryptoApiModel::javaCryptoApi().targetClasses(), {},
      *System.labels());
  EXPECT_NE(Record.Status, core::ChangeStatus::AnalysisThrow)
      << Record.StatusDetail;
  for (const auto &[Target, Changes] : Record.PerClass)
    for (const usage::UsageChange &UC : Changes)
      EXPECT_EQ(core::classifySolo(UC), core::FilterStage::FSame)
          << Target << "\n" << UC.str();
}

INSTANTIATE_TEST_SUITE_P(AllKinds, ScenarioContract,
                         ::testing::ValuesIn(allParams()), paramName);
