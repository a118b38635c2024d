//===- tests/test_lexer_fuzz.cpp - Seeded lexer fuzzing --------------------===//
//
// Seeded random-byte and mutation fuzzing for the table-driven lexer.
// Two oracles on every input: the retained seed scanner
// (javaast/ReferenceLexer) must produce a byte-identical token stream and
// diagnostics, and the parser under tiny ParseLimits must stay inside its
// budget (nullptr unit + budgetExceeded, never a crash or hang). The
// suite is sharded so a failure names the shard — and therefore the seed
// range — that produced it; scripts/check.sh --asan additionally runs
// this binary under AddressSanitizer to surface out-of-bounds reads the
// differential check alone cannot see.
//
//===----------------------------------------------------------------------===//

#include "corpus/Scenario.h"
#include "javaast/Lexer.h"
#include "javaast/Parser.h"
#include "oracles/ReferenceLexer.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

using namespace diffcode;
using namespace diffcode::java;

namespace {

std::string sampleSource(unsigned Seed) {
  Rng R(Seed);
  corpus::ScenarioInstance Inst;
  Inst.Kind =
      static_cast<corpus::ScenarioKind>(Seed % corpus::NumScenarioKinds);
  Inst.Details = corpus::drawDetails(Inst.Kind, R);
  Inst.Details.Secure = Seed % 2 == 0;
  Inst.StyleSeed = Seed * 31 + 7;
  Inst.ClassName = "Fuzz";
  return renderScenario(Inst, "com.example.fuzz");
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

std::string randomBytes(Rng &R, std::size_t Len) {
  std::string Out;
  Out.reserve(Len);
  for (std::size_t I = 0; I < Len; ++I)
    Out += static_cast<char>(R.range(0, 255));
  return Out;
}

std::string diagsToString(const DiagnosticsEngine &Diags) {
  std::ostringstream Os;
  for (const Diagnostic &D : Diags.all())
    Os << (D.Level == DiagLevel::Error ? "error|" : "warning|") << D.str()
       << "\n";
  Os << "budget=" << (Diags.budgetExceeded() ? 1 : 0);
  return Os.str();
}

/// The core fuzz oracle: both lexers over \p Source must agree on every
/// token (kind, spelling, line/column/offset) and every diagnostic.
void expectAgreement(const std::string &Source) {
  DiagnosticsEngine NewDiags, RefDiags;
  Lexer NewLex(Source, NewDiags);
  ReferenceLexer RefLex(Source, RefDiags);
  TokenStream NewStream = NewLex.lexAll();
  TokenStream RefStream = RefLex.lexAll();
  ASSERT_GE(NewStream.size(), 1u); // at least EndOfFile
  ASSERT_EQ(NewStream.size(), RefStream.size());
  for (std::size_t I = 0; I < NewStream.size(); ++I) {
    const Token &A = NewStream[I];
    const Token &B = RefStream[I];
    ASSERT_EQ(A.Kind, B.Kind) << "token " << I;
    ASSERT_EQ(A.Text, B.Text) << "token " << I;
    ASSERT_EQ(A.Loc.Line, B.Loc.Line) << "token " << I;
    ASSERT_EQ(A.Loc.Column, B.Loc.Column) << "token " << I;
    ASSERT_EQ(A.Loc.Offset, B.Loc.Offset) << "token " << I;
  }
  ASSERT_EQ(NewStream.back().Kind, TokenKind::EndOfFile);
  ASSERT_EQ(diagsToString(NewDiags), diagsToString(RefDiags));
}

/// Budget containment: parsing \p Source under deliberately tiny limits
/// must either succeed inside the budget or return nullptr with
/// budgetExceeded() set — and do the same thing when run twice.
void expectBudgetContainment(const std::string &Source) {
  ParseLimits Tiny;
  Tiny.MaxTokens = 64;
  Tiny.MaxNestingDepth = 6;

  auto RunOnce = [&Source, &Tiny](bool &GotUnit) {
    AstContext Ctx;
    DiagnosticsEngine Diags;
    CompilationUnit *Unit = parseJava(Source, Ctx, Diags, Tiny);
    GotUnit = Unit != nullptr;
    EXPECT_EQ(Unit == nullptr, Diags.budgetExceeded());
    return diagsToString(Diags);
  };

  bool FirstGotUnit = false, SecondGotUnit = false;
  std::string First = RunOnce(FirstGotUnit);
  std::string Second = RunOnce(SecondGotUnit);
  EXPECT_EQ(FirstGotUnit, SecondGotUnit) << "nondeterministic budget trip";
  EXPECT_EQ(First, Second) << "nondeterministic diagnostics";
}

} // namespace

//===----------------------------------------------------------------------===//
// Random bytes: the full 0-255 range, lengths 0..512.
//===----------------------------------------------------------------------===//

class RandomByteFuzz : public ::testing::TestWithParam<int> {};

TEST_P(RandomByteFuzz, LexersAgreeOnArbitraryBytes) {
  Rng R(static_cast<unsigned>(GetParam()) * 2654435761u + 17);
  for (int Case = 0; Case < 300; ++Case) {
    std::string Source = randomBytes(R, R.range(0, 512));
    SCOPED_TRACE("shard " + std::to_string(GetParam()) + " case " +
                 std::to_string(Case));
    expectAgreement(Source);
    if (HasFatalFailure())
      return;
  }
}

TEST_P(RandomByteFuzz, BudgetContainsArbitraryBytes) {
  Rng R(static_cast<unsigned>(GetParam()) * 40503u + 5);
  for (int Case = 0; Case < 60; ++Case) {
    std::string Source = randomBytes(R, R.range(0, 384));
    SCOPED_TRACE("shard " + std::to_string(GetParam()) + " case " +
                 std::to_string(Case));
    expectBudgetContainment(Source);
    if (HasFatalFailure())
      return;
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, RandomByteFuzz, ::testing::Range(0, 8));

//===----------------------------------------------------------------------===//
// Mutants: realistic Java warped by random byte edits.
//===----------------------------------------------------------------------===//

class MutantLexerFuzz : public ::testing::TestWithParam<int> {};

TEST_P(MutantLexerFuzz, LexersAgreeOnMutants) {
  unsigned Shard = static_cast<unsigned>(GetParam());
  Rng R(Shard * 1099511628211ull + 3);
  for (int Case = 0; Case < 40; ++Case) {
    std::string Source = mutateBytes(sampleSource(Shard % 16), R,
                                     static_cast<int>(R.range(1, 24)));
    SCOPED_TRACE("shard " + std::to_string(Shard) + " case " +
                 std::to_string(Case));
    expectAgreement(Source);
    if (HasFatalFailure())
      return;
  }
}

TEST_P(MutantLexerFuzz, BudgetContainsMutants) {
  unsigned Shard = static_cast<unsigned>(GetParam());
  Rng R(Shard * 6364136223846793005ull + 11);
  for (int Case = 0; Case < 12; ++Case) {
    std::string Source = mutateBytes(sampleSource(Shard % 16), R,
                                     static_cast<int>(R.range(1, 16)));
    SCOPED_TRACE("shard " + std::to_string(Shard) + " case " +
                 std::to_string(Case));
    expectBudgetContainment(Source);
    if (HasFatalFailure())
      return;
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, MutantLexerFuzz, ::testing::Range(0, 10));

//===----------------------------------------------------------------------===//
// Adversarial hand-built inputs aimed at the scanner fast paths.
//===----------------------------------------------------------------------===//

TEST(LexerFuzzDirected, SwarBoundaryIdentifiers) {
  // Identifiers placed so the 8-byte SWAR window straddles every stop
  // byte class and the buffer end at every alignment.
  static const char StopBytes[] = " +.\"'\x01\x7f\xc3(";
  for (std::size_t Lead = 0; Lead < 17; ++Lead)
    for (std::size_t IdLen = 1; IdLen < 20; ++IdLen)
      for (char Stop : StopBytes) {
        std::string Source(Lead, ' ');
        Source.append(IdLen, 'a');
        if (Stop != '\0')
          Source += Stop;
        SCOPED_TRACE("lead " + std::to_string(Lead) + " len " +
                     std::to_string(IdLen) + " stop " +
                     std::to_string(static_cast<int>(Stop)));
        expectAgreement(Source);
        if (Test::HasFatalFailure())
          return;
      }
}

TEST(LexerFuzzDirected, IdentifierRunsToBufferEnd) {
  // No trailing stop byte at all: the SWAR tail loop must not read past
  // the buffer (ASan leg verifies the memory claim).
  for (std::size_t Len = 1; Len < 40; ++Len) {
    std::string Source(Len, '_');
    Source[0] = 'a';
    expectAgreement(Source);
    if (Test::HasFatalFailure())
      return;
  }
}

TEST(LexerFuzzDirected, StringFastPathStops) {
  // Strings whose first interesting byte is each of the StringStop class
  // members, at varying distances from the opening quote.
  static const char Stops[] = {'"', '\\', '\n'};
  for (char Stop : Stops)
    for (std::size_t Dist = 0; Dist < 12; ++Dist) {
      std::string Source = "\"" + std::string(Dist, 'x');
      Source += Stop;
      Source += "rest\" tail";
      expectAgreement(Source);
      if (Test::HasFatalFailure())
        return;
    }
}
