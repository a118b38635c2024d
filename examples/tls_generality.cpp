//===- examples/tls_generality.cpp - The approach on a different API -------===//
//
// Part of the DiffCode project, a reproduction of "Inferring Crypto API
// Rules from Code Changes" (PLDI'18).
//
//===----------------------------------------------------------------------===//
//
// The paper's closing remark: "while we focus on crypto APIs, the
// approach is general and can be applied to other types of APIs." This
// example swaps in the JSSE/TLS API model and runs the identical
// pipeline — abstraction, usage-DAG diffing, rule suggestion, checking —
// on a realistic TLS hardening commit (SSLv3 -> TLSv1.2).
//
//===----------------------------------------------------------------------===//

#include "apimodel/TlsApiModel.h"
#include "core/DiffCode.h"
#include "rules/CryptoChecker.h"
#include "rules/RuleSuggestion.h"
#include "rules/TlsRules.h"

#include <cstdio>

using namespace diffcode;

namespace {

const char *OldVersion = R"java(
class SecureChannel {
    public SSLSocketFactory open(KeyManager[] kms, TrustManager[] tms)
            throws Exception {
        SSLContext ctx = SSLContext.getInstance("SSLv3");
        SecureRandom rng = new SecureRandom();
        ctx.init(kms, tms, rng);
        return ctx.getSocketFactory();
    }
}
)java";

const char *NewVersion = R"java(
class SecureChannel {
    public SSLSocketFactory open(KeyManager[] kms, TrustManager[] tms)
            throws Exception {
        SSLContext ctx = SSLContext.getInstance("TLSv1.2");
        SecureRandom rng = new SecureRandom();
        ctx.init(kms, tms, rng);
        return ctx.getSocketFactory();
    }
}
)java";

} // namespace

int main() {
  // Everything below is the standard pipeline — only the API model and
  // the rule set change.
  const apimodel::CryptoApiModel &TlsApi = apimodel::javaTlsApi();
  core::DiffCode System(TlsApi);

  std::printf("== generality demo: the DiffCode pipeline on the JSSE/TLS "
              "API ==\n\n");

  corpus::CodeChange Change;
  Change.ProjectName = "tls-demo";
  Change.OldCode = OldVersion;
  Change.NewCode = NewVersion;

  std::printf("usage change for SSLContext (SSLv3 -> TLSv1.2 commit):\n");
  std::vector<usage::UsageChange> Changes =
      System.processChange(Change, {"SSLContext"}, {}, *System.labels())
          .PerClass["SSLContext"];
  for (const usage::UsageChange &C : Changes)
    std::printf("%s", C.str().c_str());
  if (Changes.empty()) {
    std::printf("no usage change derived\n");
    return 1;
  }

  if (auto Suggested = rules::suggestRule(Changes.front(), "tls-suggested"))
    std::printf("\nauto-suggested rule:\n  %s\n",
                rules::describeRule(*Suggested).c_str());

  // Check both versions with the curated TLS rule set.
  rules::CryptoChecker Checker(rules::tlsRules());
  analysis::AnalysisResult OldResult = System.analyzeSourceChecked(OldVersion).Result;
  analysis::AnalysisResult NewResult = System.analyzeSourceChecked(NewVersion).Result;
  rules::UnitFacts OldFacts = rules::UnitFacts::from(OldResult);
  rules::UnitFacts NewFacts = rules::UnitFacts::from(NewResult);

  std::printf("\nCryptoChecker with the TLS rule set:\n");
  rules::ProjectReport OldReport = Checker.checkProject({OldFacts});
  for (const rules::RuleVerdict &V : OldReport.verdicts())
    std::printf("  old version, %s: %s\n", OldReport.text(V.Rule).c_str(),
                V.Matched ? "VIOLATED" : "ok");
  rules::ProjectReport NewReport = Checker.checkProject({NewFacts});
  for (const rules::RuleVerdict &V : NewReport.verdicts())
    std::printf("  new version, %s: %s\n", NewReport.text(V.Rule).c_str(),
                V.Matched ? "VIOLATED" : "ok");
  return 0;
}
