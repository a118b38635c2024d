//===- tests/test_robustness.cpp - Frontend/pipeline robustness ------------===//
//
// Fuzz-lite suites: the miner feeds the frontend arbitrary commit
// contents, so the lexer/parser/interpreter must terminate and stay
// in-bounds on mutated, truncated, and garbage inputs.
//
//===----------------------------------------------------------------------===//

#include "core/DiffCode.h"
#include "corpus/Scenario.h"
#include "javaast/Parser.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

using namespace diffcode;

namespace {

std::string sampleSource(unsigned Seed) {
  Rng R(Seed);
  corpus::ScenarioInstance Inst;
  Inst.Kind = static_cast<corpus::ScenarioKind>(
      Seed % corpus::NumScenarioKinds);
  Inst.Details = corpus::drawDetails(Inst.Kind, R);
  Inst.Details.Secure = Seed % 2 == 0;
  Inst.StyleSeed = Seed * 31 + 7;
  Inst.ClassName = "Robust";
  return renderScenario(Inst, "com.example.robust");
}

/// Parses + analyzes; asserts only termination and no diagnostics crash.
void analyzeLoose(const std::string &Source) {
  java::AstContext Ctx;
  java::DiagnosticsEngine Diags;
  java::CompilationUnit *Unit = java::parseJava(Source, Ctx, Diags);
  ASSERT_NE(Unit, nullptr);
  analysis::AnalysisOptions Opts;
  Opts.Fuel = 20000;
  analysis::AbstractInterpreter Interp(
      apimodel::CryptoApiModel::javaCryptoApi(), Opts);
  analysis::AnalysisResult Result = Interp.analyze(Unit);
  // Every recorded object id must be in the table.
  for (const analysis::UsageLog &Log : Result.Executions)
    for (const auto &[ObjId, Events] : Log) {
      ASSERT_LT(ObjId, Result.Objects.size());
      (void)Events;
    }
}

} // namespace

//===----------------------------------------------------------------------===//
// Truncation: every prefix of a valid file parses without hanging.
//===----------------------------------------------------------------------===//

class TruncationRobustness : public ::testing::TestWithParam<int> {};

TEST_P(TruncationRobustness, PrefixesTerminate) {
  std::string Source = sampleSource(GetParam());
  // Cut at ~16 positions spread through the file.
  for (std::size_t Step = 1; Step <= 16; ++Step) {
    std::size_t Cut = Source.size() * Step / 17;
    analyzeLoose(Source.substr(0, Cut));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TruncationRobustness, ::testing::Range(0, 8));

//===----------------------------------------------------------------------===//
// Mutation: random single-character edits keep the frontend in-bounds.
//===----------------------------------------------------------------------===//

class MutationRobustness : public ::testing::TestWithParam<int> {};

TEST_P(MutationRobustness, RandomEditsTerminate) {
  Rng R(GetParam() * 2654435761u + 1);
  std::string Source = sampleSource(GetParam());
  static const char Chars[] = "{}()[];,.\"'+-*/<>=! abcZ019$_\\\n";
  for (int Round = 0; Round < 24; ++Round) {
    std::string Mutated = Source;
    for (int Edit = 0, N = 1 + static_cast<int>(R.range(0, 4)); Edit < N;
         ++Edit) {
      std::size_t Pos = R.index(Mutated.size());
      switch (R.range(0, 2)) {
      case 0: // substitute
        Mutated[Pos] = Chars[R.index(sizeof(Chars) - 1)];
        break;
      case 1: // delete
        Mutated.erase(Pos, 1);
        break;
      default: // insert
        Mutated.insert(Pos, 1, Chars[R.index(sizeof(Chars) - 1)]);
        break;
      }
      if (Mutated.empty())
        Mutated = "x";
    }
    analyzeLoose(Mutated);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MutationRobustness, ::testing::Range(0, 10));

//===----------------------------------------------------------------------===//
// Garbage: pure noise inputs.
//===----------------------------------------------------------------------===//

TEST(GarbageRobustness, PureNoiseTerminates) {
  Rng R(424242);
  for (int Round = 0; Round < 20; ++Round) {
    std::string Noise;
    std::size_t Len = R.range(0, 400);
    for (std::size_t I = 0; I < Len; ++I)
      Noise += static_cast<char>(R.range(32, 126));
    analyzeLoose(Noise);
  }
}

TEST(GarbageRobustness, DeeplyNestedBracesTerminate) {
  std::string Source = "class A { void m() { ";
  for (int I = 0; I < 200; ++I)
    Source += "{ ";
  Source += "x = 1; ";
  for (int I = 0; I < 200; ++I)
    Source += "} ";
  Source += "} }";
  analyzeLoose(Source);
}

TEST(GarbageRobustness, DeeplyNestedParensTerminate) {
  std::string Source = "class A { int m() { return ";
  for (int I = 0; I < 150; ++I)
    Source += "(1 + ";
  Source += "0";
  for (int I = 0; I < 150; ++I)
    Source += ")";
  Source += "; } }";
  analyzeLoose(Source);
}

TEST(GarbageRobustness, ManyClassesTerminate) {
  std::string Source;
  for (int I = 0; I < 120; ++I)
    Source += "class C" + std::to_string(I) +
              " { void m() throws Exception { Cipher c = "
              "Cipher.getInstance(\"AES\"); } }\n";
  analyzeLoose(Source);
}

//===----------------------------------------------------------------------===//
// End-to-end: mutated diffs never crash the whole pipeline.
//===----------------------------------------------------------------------===//

TEST(GarbageRobustness, PipelineOnMutatedChange) {
  Rng R(77);
  core::DiffCode System(apimodel::CryptoApiModel::javaCryptoApi());
  for (int Round = 0; Round < 8; ++Round) {
    corpus::CodeChange Change;
    Change.OldCode = sampleSource(Round);
    Change.NewCode = sampleSource(Round);
    // Corrupt the new version.
    std::size_t Pos = R.index(Change.NewCode.size());
    Change.NewCode.erase(Pos, R.range(1, 40));
    // processChange contains exceptions, so a throw inside the analysis
    // shows up as a status rather than escaping the test.
    core::ChangeRecord Record = System.processChange(
        Change, apimodel::CryptoApiModel::javaCryptoApi().targetClasses(), {},
        *System.labels());
    EXPECT_NE(Record.Status, core::ChangeStatus::AnalysisThrow)
        << "round " << Round << ": " << Record.StatusDetail;
  }
}

//===----------------------------------------------------------------------===//
// Mass mutation: 1,000 seeded byte-level mutants (full 0-255 byte range,
// not just plausible Java characters) sharded across 10 parameterized
// cases so failures report which shard — and therefore which seeds —
// misbehaved.
//===----------------------------------------------------------------------===//

class MassMutationRobustness : public ::testing::TestWithParam<int> {};

TEST_P(MassMutationRobustness, ThousandByteLevelMutantsTerminate) {
  int Shard = GetParam();
  for (int Case = 0; Case < 100; ++Case) {
    unsigned Seed = static_cast<unsigned>(Shard * 100 + Case);
    Rng R(Seed * 1099511628211ull + 3);
    std::string Mutated = sampleSource(Seed % 16);
    for (int Edit = 0, N = 1 + static_cast<int>(R.range(0, 7)); Edit < N;
         ++Edit) {
      std::size_t Pos = R.index(Mutated.size());
      char Byte = static_cast<char>(R.range(0, 255));
      switch (R.range(0, 2)) {
      case 0: // substitute
        Mutated[Pos] = Byte;
        break;
      case 1: // delete
        Mutated.erase(Pos, 1);
        break;
      default: // insert
        Mutated.insert(Pos, 1, Byte);
        break;
      }
      if (Mutated.empty())
        Mutated = "x";
    }
    analyzeLoose(Mutated);
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, MassMutationRobustness,
                         ::testing::Range(0, 10));

//===----------------------------------------------------------------------===//
// Containment: a mutant may degrade its own record but must never change
// the pipeline's outcome or leave a partially-written report.
//===----------------------------------------------------------------------===//

#include "core/ReportWriter.h"

namespace {

/// Structural JSON sanity: balanced containers outside strings, no open
/// string at the end — a truncated or interleaved write fails this.
void expectBalancedJson(const std::string &Json) {
  ASSERT_FALSE(Json.empty());
  long Depth = 0;
  bool InString = false, Escape = false;
  for (char C : Json) {
    if (Escape) {
      Escape = false;
      continue;
    }
    if (InString) {
      if (C == '\\')
        Escape = true;
      else if (C == '"')
        InString = false;
      continue;
    }
    if (C == '"')
      InString = true;
    else if (C == '{' || C == '[')
      ++Depth;
    else if (C == '}' || C == ']') {
      --Depth;
      ASSERT_GE(Depth, 0);
    }
  }
  EXPECT_EQ(Depth, 0);
  EXPECT_FALSE(InString);
}

std::string mutateBytes(std::string Text, Rng &R, int Edits) {
  for (int Edit = 0; Edit < Edits; ++Edit) {
    std::size_t Pos = R.index(Text.size());
    char Byte = static_cast<char>(R.range(0, 255));
    switch (R.range(0, 2)) {
    case 0:
      Text[Pos] = Byte;
      break;
    case 1:
      Text.erase(Pos, 1);
      break;
    default:
      Text.insert(Pos, 1, Byte);
      break;
    }
    if (Text.empty())
      Text = "x";
  }
  return Text;
}

} // namespace

class MutantContainment : public ::testing::TestWithParam<int> {};

TEST_P(MutantContainment, MutantsKeepTaxonomyAndReportsComplete) {
  int Shard = GetParam();
  std::vector<corpus::CodeChange> Storage;
  for (int Case = 0; Case < 20; ++Case) {
    unsigned Seed = static_cast<unsigned>(Shard * 20 + Case);
    Rng R(Seed * 6364136223846793005ull + 11);
    corpus::CodeChange Change;
    Change.ProjectName = "mutant" + std::to_string(Seed);
    Change.OldCode = sampleSource(Seed % 16);
    Change.NewCode =
        mutateBytes(sampleSource(Seed % 16), R,
                    1 + static_cast<int>(R.range(0, 7)));
    Storage.push_back(std::move(Change));
  }
  std::vector<const corpus::CodeChange *> Mined;
  for (const corpus::CodeChange &C : Storage)
    Mined.push_back(&C);

  const apimodel::CryptoApiModel &Api =
      apimodel::CryptoApiModel::javaCryptoApi();
  core::PipelineConfig Opts;
  Opts.Limits.Analysis.Fuel = 20000;
  core::DiffCode System(Api, Opts);
  core::CorpusReport Report;
  // The process-level contract: no mutant aborts the run.
  ASSERT_NO_THROW(Report = System.run(
                    {.Changes = Mined, .TargetClasses = Api.targetClasses()}));
  ASSERT_EQ(Report.Changes.size(), Mined.size());

  std::size_t Counted = 0;
  for (const core::ChangeRecord &Record : Report.Changes) {
    // Every record lands in the documented taxonomy...
    EXPECT_LT(static_cast<std::size_t>(Record.Status),
              core::NumChangeStatuses);
    EXPECT_STRNE(core::changeStatusName(Record.Status), "unknown");
    // ...and serializes completely, even when its source was garbage.
    expectBalancedJson(core::changeRecordToJson(Record));
  }
  for (std::size_t I = 0; I < core::NumChangeStatuses; ++I)
    Counted += Report.Health.StatusCounts[I];
  EXPECT_EQ(Counted, Report.Changes.size());
  expectBalancedJson(core::corpusReportToJson(Report));
}

INSTANTIATE_TEST_SUITE_P(Shards, MutantContainment, ::testing::Range(0, 10));
