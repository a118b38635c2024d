//===- examples/suggest_rules.cpp - Automatic rule elicitation -------------===//
//
// Part of the DiffCode project, a reproduction of "Inferring Crypto API
// Rules from Code Changes" (PLDI'18).
//
//===----------------------------------------------------------------------===//
//
// Section 6.3, "On Automating Rule Elicitation": derive a candidate rule
// from a single code change and immediately evaluate it — the suggested
// predicate must match the old (unfixed) version and not the new one.
// Also demonstrates the generated-rule semantics on the Figure 2 patch,
// for which the paper spells out the expected predicate.
//
//===----------------------------------------------------------------------===//

#include "core/DiffCode.h"
#include "rules/RuleSuggestion.h"

#include <cstdio>

using namespace diffcode;

namespace {

const char *OldVersion = R"java(
class TokenService {
    public byte[] fingerprint(String data) throws Exception {
        MessageDigest md = MessageDigest.getInstance("SHA-1");
        md.update(data.getBytes());
        return md.digest();
    }
}
)java";

const char *NewVersion = R"java(
class TokenService {
    public byte[] fingerprint(String data) throws Exception {
        MessageDigest md = MessageDigest.getInstance("SHA-256");
        md.update(data.getBytes());
        return md.digest();
    }
}
)java";

} // namespace

int main() {
  const apimodel::CryptoApiModel &Api = apimodel::CryptoApiModel::javaCryptoApi();
  core::DiffCode System(Api);

  corpus::CodeChange Change;
  Change.ProjectName = "demo";
  Change.OldCode = OldVersion;
  Change.NewCode = NewVersion;

  std::printf("== code change: SHA-1 -> SHA-256 ==\n");
  std::vector<usage::UsageChange> Changes =
      System.processChange(Change, {"MessageDigest"}, {}, *System.labels())
          .PerClass["MessageDigest"];
  for (const usage::UsageChange &C : Changes)
    std::printf("%s", C.str().c_str());
  if (Changes.empty()) {
    std::printf("no usage change derived\n");
    return 1;
  }

  auto Suggested = rules::suggestRule(Changes.front(), "suggested-1");
  if (!Suggested) {
    std::printf("no rule could be suggested\n");
    return 1;
  }
  std::printf("\nsuggested rule:\n  %s\n",
              rules::describeRule(*Suggested).c_str());

  // Validate the suggestion: it must flag the old version and pass the new.
  analysis::AnalysisResult OldResult = System.analyzeSourceChecked(OldVersion).Result;
  analysis::AnalysisResult NewResult = System.analyzeSourceChecked(NewVersion).Result;
  rules::UnitFacts OldFacts = rules::UnitFacts::from(OldResult);
  rules::UnitFacts NewFacts = rules::UnitFacts::from(NewResult);
  bool FlagsOld = rules::ruleMatches(*Suggested, {OldFacts});
  bool FlagsNew = rules::ruleMatches(*Suggested, {NewFacts});
  std::printf("\nvalidation: old version %s, new version %s\n",
              FlagsOld ? "FLAGGED (expected)" : "missed (BUG)",
              FlagsNew ? "flagged (BUG)" : "clean (expected)");
  return FlagsOld && !FlagsNew ? 0 : 1;
}
