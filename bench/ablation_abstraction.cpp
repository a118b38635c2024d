//===- bench/ablation_abstraction.cpp - Abstraction granularity ablation ---===//
//
// Part of the DiffCode project, a reproduction of "Inferring Crypto API
// Rules from Code Changes" (PLDI'18).
//
//===----------------------------------------------------------------------===//
//
// Ablation A1 (DESIGN.md): rerun the Figure 6 pipeline under three
// base-type abstractions and score the filters against the generator's
// ground truth:
//
//   Paper    — Figure 3 (ints/strings kept, byte arrays collapsed);
//   KeepAll  — byte arrays keep their concrete elements;
//   AllTop   — every base value widens to top.
//
// Expected shape: AllTop loses fixes (value swaps become invisible, so
// fsame removes them); KeepAll keeps every fix but multiplies "distinct"
// changes (worse duplicate collapse, higher inspection load). The paper's
// abstraction is the sweet spot — that is precisely why Section 3.3
// tailors the domains to crypto APIs.
//
//===----------------------------------------------------------------------===//

#include "bench_common.h"

#include "support/TablePrinter.h"

#include <iostream>

using namespace diffcode;
using namespace diffcode::core;

namespace {

struct Score {
  std::size_t FixesTotal = 0;
  std::size_t FixesSurviving = 0;   // >= 1 kept usage change
  std::size_t RefactorsTotal = 0;
  std::size_t RefactorsSurviving = 0; // false positives
  std::size_t InspectionLoad = 0;     // kept changes across classes
};

Score scorePipeline(const bench::MinedCorpus &Mined,
                    analysis::AnalysisOptions::BaseAbstraction Mode) {
  const apimodel::CryptoApiModel &Api =
      apimodel::CryptoApiModel::javaCryptoApi();
  PipelineConfig Opts;
  Opts.Limits.Analysis.Abstraction = Mode;
  Opts.Threads = 0;
  DiffCode System(Api, Opts);

  Score S;
  // Per-change survival against ground truth.
  for (const corpus::CodeChange *Change : Mined.Changes) {
    bool IsFix = Change->isGroundTruthFix();
    bool IsRefactor = Change->Kind == "refactor";
    if (!IsFix && !IsRefactor)
      continue;
    bool Survives = false;
    ChangeRecord Record = System.processChange(*Change, Api.targetClasses(),
                                               {}, *System.labels());
    for (const auto &[Target, Changes] : Record.PerClass)
      for (const usage::UsageChange &UC : Changes)
        Survives = Survives || classifySolo(UC) == FilterStage::Kept;
    if (IsFix) {
      ++S.FixesTotal;
      S.FixesSurviving += Survives;
    } else {
      ++S.RefactorsTotal;
      S.RefactorsSurviving += Survives;
    }
  }

  // Corpus-level inspection load (after fdup).
  CorpusReport Report =
      System.run({.Changes = Mined.Changes,
                          .TargetClasses = Api.targetClasses(),
                          .BuildDendrograms = false});
  for (const ClassReport &Class : Report.PerClass)
    S.InspectionLoad += Class.Filtered.AfterDup;
  return S;
}

const char *modeName(analysis::AnalysisOptions::BaseAbstraction Mode) {
  using BA = analysis::AnalysisOptions::BaseAbstraction;
  switch (Mode) {
  case BA::Paper:
    return "Paper (Figure 3)";
  case BA::KeepAllConstants:
    return "KeepAllConstants";
  case BA::AllTop:
    return "AllTop";
  }
  return "";
}

} // namespace

int main(int argc, char **argv) {
  std::printf("== Ablation A1: base-type abstraction granularity ==\n\n");
  bench::MinedCorpus Mined = bench::mineStandardCorpus(argc, argv);

  TablePrinter Table({"Abstraction", "fix recall", "refactor FP rate",
                      "inspection load"});
  using BA = analysis::AnalysisOptions::BaseAbstraction;
  for (BA Mode : {BA::Paper, BA::KeepAllConstants, BA::AllTop}) {
    Score S = scorePipeline(Mined, Mode);
    char Recall[64], FP[64];
    std::snprintf(Recall, sizeof(Recall), "%zu/%zu (%.1f%%)",
                  S.FixesSurviving, S.FixesTotal,
                  S.FixesTotal ? 100.0 * S.FixesSurviving / S.FixesTotal
                               : 0.0);
    std::snprintf(FP, sizeof(FP), "%zu/%zu (%.2f%%)", S.RefactorsSurviving,
                  S.RefactorsTotal,
                  S.RefactorsTotal
                      ? 100.0 * S.RefactorsSurviving / S.RefactorsTotal
                      : 0.0);
    Table.addRow({modeName(Mode), Recall, FP,
                  std::to_string(S.InspectionLoad)});
  }
  Table.print(std::cout);

  std::printf("\nreading: Paper-mode should match KeepAll's recall at a "
              "lower inspection load;\nAllTop should lose a large share of "
              "the fixes (value-swap fixes become invisible).\n");
  return 0;
}
