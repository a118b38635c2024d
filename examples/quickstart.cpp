//===- examples/quickstart.cpp - The paper's Figure 2, end to end ----------===//
//
// Part of the DiffCode project, a reproduction of "Inferring Crypto API
// Rules from Code Changes" (PLDI'18).
//
//===----------------------------------------------------------------------===//
//
// Runs the complete DiffCode abstraction on the paper's running example:
// the AESCipher patch that switches from default-mode AES (ECB) to
// AES/CBC/PKCS5Padding with an explicit IV. Prints the usage DAGs of both
// versions, the derived usage change (F-, F+), the filter verdict, and the
// rule CryptoChecker flags in the old version.
//
//===----------------------------------------------------------------------===//

#include "core/DiffCode.h"
#include "rules/BuiltinRules.h"
#include "rules/CryptoChecker.h"
#include "usage/UsageChange.h"

#include <cstdio>
#include <string>

using namespace diffcode;

namespace {

// Figure 2(a), old version (red + context lines).
const char *OldVersion = R"java(
import javax.crypto.Cipher;
import javax.crypto.spec.IvParameterSpec;

class AESCipher {
    Cipher enc;
    Cipher dec;
    final String algorithm = "AES";

    protected void setKey(Secret key) {
        try {
            enc = Cipher.getInstance(algorithm);
            enc.init(Cipher.ENCRYPT_MODE, key);
            dec = Cipher.getInstance(algorithm);
            dec.init(Cipher.DECRYPT_MODE, key);
        } catch (Exception e) {
        }
    }
}
)java";

// Figure 2(a), new version (green + context lines).
const char *NewVersion = R"java(
import javax.crypto.Cipher;
import javax.crypto.spec.IvParameterSpec;

class AESCipher {
    Cipher enc;
    Cipher dec;
    final String algorithm = "AES/CBC/PKCS5Padding";

    protected void setKeyAndIV(Secret key, String iv) {
        byte[] ivBytes;
        IvParameterSpec ivSpec;
        try {
            ivBytes = Hex.decodeHex(iv.toCharArray());
            ivSpec = new IvParameterSpec(ivBytes);
            enc = Cipher.getInstance(algorithm);
            enc.init(Cipher.ENCRYPT_MODE, key, ivSpec);
            dec = Cipher.getInstance(algorithm);
            dec.init(Cipher.DECRYPT_MODE, key, ivSpec);
        } catch (Exception e) {
        }
    }
}
)java";

void printDag(const usage::UsageDag &Dag, const char *Title) {
  std::printf("%s\n%s", Title, Dag.str().c_str());
}

} // namespace

int main() {
  const apimodel::CryptoApiModel &Api = apimodel::CryptoApiModel::javaCryptoApi();
  core::DiffCode System(Api);

  std::printf("== DiffCode quickstart: the Figure 2 AESCipher patch ==\n\n");

  // Step 1+2: analyze both versions and derive the usage DAGs for Cipher.
  analysis::AnalysisResult OldResult = System.analyzeSourceChecked(OldVersion).Result;
  analysis::AnalysisResult NewResult = System.analyzeSourceChecked(NewVersion).Result;
  std::vector<usage::UsageDag> OldDags =
      System.dagsForClass(OldResult, "Cipher");
  std::vector<usage::UsageDag> NewDags =
      System.dagsForClass(NewResult, "Cipher");
  std::printf("old version: %zu Cipher usage DAG(s); new version: %zu\n\n",
              OldDags.size(), NewDags.size());
  if (!OldDags.empty())
    printDag(OldDags.front(), "usage DAG of `enc` before the change:");
  if (!NewDags.empty())
    printDag(NewDags.front(), "\nusage DAG of `enc` after the change:");

  // Step 3: pair the DAGs and extract the usage changes.
  corpus::CodeChange Change;
  Change.ProjectName = "figure2";
  Change.OldCode = OldVersion;
  Change.NewCode = NewVersion;
  std::printf("\nusage changes (removed/added features):\n");
  core::ChangeRecord Record =
      System.processChange(Change, {"Cipher"}, {}, *System.labels());
  for (const usage::UsageChange &C : Record.PerClass["Cipher"])
    std::printf("%s\n", C.str().c_str());

  // Step 4: what would CryptoChecker have said about the old version?
  rules::CryptoChecker Checker;
  rules::UnitFacts Facts = rules::UnitFacts::from(OldResult);
  rules::ProjectReport Report = Checker.checkProject({Facts});
  std::printf("rules violated by the old version:\n");
  for (const rules::RuleVerdict &Verdict : Report.verdicts())
    if (Verdict.Matched) {
      const std::string &RuleId = Report.text(Verdict.Rule);
      const rules::Rule *R = rules::findRule(RuleId);
      std::printf("  %s: %s\n", RuleId.c_str(),
                  R ? R->Description.c_str() : "");
    }
  return 0;
}
