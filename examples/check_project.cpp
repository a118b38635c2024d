//===- examples/check_project.cpp - CryptoChecker on a project -------------===//
//
// Part of the DiffCode project, a reproduction of "Inferring Crypto API
// Rules from Code Changes" (PLDI'18).
//
//===----------------------------------------------------------------------===//
//
// Runs CryptoChecker (all 13 elicited rules, Figure 9) over either the
// .java files passed on the command line or, with no arguments, over a
// freshly generated synthetic project. Prints per-rule verdicts and the
// violating allocation sites.
//
// Usage: check_project [file.java ...]
// Exits 1 when a rule matches, 2 when a given file cannot be read.
//
//===----------------------------------------------------------------------===//

#include "core/DiffCode.h"
#include "corpus/CorpusGenerator.h"
#include "corpus/CorpusIO.h"
#include "rules/BuiltinRules.h"
#include "rules/CryptoChecker.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

using namespace diffcode;

namespace {

/// Reads \p Path whole into \p Out. A path that cannot be read as a
/// file — absent, a directory, a symlink loop — is an error naming it,
/// never an empty source.
bool readFile(const char *Path, std::string &Out) {
  std::optional<std::string> Text = corpus::readFileContents(Path);
  if (!Text) {
    std::fprintf(stderr, "error: cannot read %s: %s\n", Path,
                 std::strerror(errno));
    return false;
  }
  Out = std::move(*Text);
  return true;
}

} // namespace

int main(int argc, char **argv) {
  const apimodel::CryptoApiModel &Api = apimodel::CryptoApiModel::javaCryptoApi();
  core::DiffCode System(Api);

  std::vector<std::pair<std::string, std::string>> Sources; // name, code
  rules::ProjectMetadata Meta;

  if (argc > 1) {
    for (int I = 1; I < argc; ++I) {
      std::string Code;
      if (!readFile(argv[I], Code))
        return 2;
      Sources.emplace_back(argv[I], std::move(Code));
    }
  } else {
    std::printf("(no files given — generating a synthetic project)\n\n");
    corpus::CorpusOptions Opts;
    Opts.Seed = 7;
    Opts.MaxFilesPerProject = 4;
    Opts.MinFilesPerProject = 3;
    Rng R(Opts.Seed);
    corpus::Project P =
        corpus::CorpusGenerator(Opts).generateProject("demo", R);
    Meta = P.Meta;
    for (const corpus::ProjectFile &File : P.Files)
      Sources.emplace_back(File.Name, File.Code);
  }

  // Analyze every file; keep the results alive while the checker reads the
  // object tables they own.
  std::vector<analysis::AnalysisResult> Results;
  Results.reserve(Sources.size());
  for (const auto &[Name, Code] : Sources) {
    std::printf("analyzing %s ...\n", Name.c_str());
    Results.push_back(System.analyzeSourceChecked(Code).Result);
  }
  std::vector<rules::UnitFacts> Units;
  for (const analysis::AnalysisResult &Result : Results)
    Units.push_back(rules::UnitFacts::from(Result));

  rules::CryptoChecker Checker;
  rules::ProjectReport Report = Checker.checkProject(Units, Meta);

  std::printf("\n%-5s %-11s %-8s %s\n", "rule", "applicable", "matched",
              "description");
  for (const rules::RuleVerdict &Verdict : Report.verdicts()) {
    const std::string &RuleId = Report.text(Verdict.Rule);
    const rules::Rule *R = rules::findRule(RuleId);
    std::printf("%-5s %-11s %-8s %s\n", RuleId.c_str(),
                Verdict.Applicable ? "yes" : "no",
                Verdict.Matched ? "YES" : "no",
                R ? R->Description.c_str() : "");
    for (const rules::Violation &V : Verdict.Violations)
      std::printf("      -> %s at %s (%s)\n", Report.text(V.Type).c_str(),
                  Report.text(V.Site).c_str(),
                  Sources[V.UnitIndex].first.c_str());
  }
  std::printf("\nproject %s at least one rule\n",
              Report.anyMatch() ? "VIOLATES" : "passes");
  return Report.anyMatch() ? 1 : 0;
}
