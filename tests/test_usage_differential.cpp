//===- tests/test_usage_differential.cpp - Id-native diff vs oracle --------===//
//
// Differential harness for Section 3.5. Production turns each usage DAG
// into interned ids once (usage::DagIds) and pairs, diffs and dedups
// over integers; tests/oracles/UsageOracle computes the same results
// from the definitions over owned FeaturePath values, comparing labels
// structurally. The two must agree on every change of generated corpora
// at several seeds, and on hand-built cases where two different labels
// or DAGs render to the same text.
//
//===----------------------------------------------------------------------===//

#include "core/DiffCode.h"

#include "corpus/CorpusGenerator.h"
#include "corpus/Miner.h"
#include "oracles/UsageOracle.h"
#include "usage/UsageChange.h"

#include <gtest/gtest.h>

using namespace diffcode;
using namespace diffcode::analysis;
using namespace diffcode::usage;

namespace {

const apimodel::CryptoApiModel &api() {
  return apimodel::CryptoApiModel::javaCryptoApi();
}

/// dagsForClass by definition: every DAG of the class, keeping the first
/// of each canonical form.
std::vector<UsageDag> referenceDags(const AnalysisResult &Result,
                                    const std::string &Class,
                                    unsigned DagDepth) {
  std::vector<UsageDag> Out;
  for (const UsageLog &Log : Result.Executions)
    for (const auto &[ObjId, Events] : Log) {
      if (Events.empty() || Result.Objects.get(ObjId).TypeName != Class)
        continue;
      UsageDag Dag = UsageDag::build(Result.Objects, Log, ObjId, DagDepth);
      if (std::none_of(Out.begin(), Out.end(), [&](const UsageDag &Kept) {
            return referenceIsomorphic(Kept, Dag);
          }))
        Out.push_back(std::move(Dag));
    }
  return Out;
}

/// Asserts that \p Actual materializes exactly to \p Expected, in order.
void expectSameChanges(const std::vector<UsageChange> &Actual,
                       const std::vector<ReferenceChange> &Expected,
                       const std::string &Where) {
  ASSERT_EQ(Actual.size(), Expected.size()) << Where;
  for (std::size_t I = 0; I < Actual.size(); ++I) {
    EXPECT_EQ(Actual[I].TypeName, Expected[I].TypeName) << Where << " #" << I;
    EXPECT_EQ(materializeRemoved(Actual[I]), Expected[I].Removed)
        << Where << " #" << I << "\n"
        << Actual[I].str();
    EXPECT_EQ(materializeAdded(Actual[I]), Expected[I].Added)
        << Where << " #" << I << "\n"
        << Actual[I].str();
  }
}

struct Tally {
  std::size_t Changes = 0;    ///< Usage changes compared.
  std::size_t NonEmpty = 0;   ///< Of those, with F- or F+ non-empty.
  std::size_t Padded = 0;     ///< Classes whose two sides differ in DAGs.
};

/// Runs one code change through processChange and through the oracle,
/// class by class.
void compareChange(const core::DiffCode &System, const corpus::CodeChange &C,
                   support::Interner &Table, Tally &T) {
  const std::vector<std::string> &Classes = api().targetClasses();
  core::ChangeRecord Record = System.processChange(C, Classes, {}, Table);
  ASSERT_NE(Record.Status, core::ChangeStatus::AnalysisThrow)
      << Record.StatusDetail;
  AnalysisResult Old = System.analyzeSourceChecked(C.OldCode).Result;
  AnalysisResult New = System.analyzeSourceChecked(C.NewCode).Result;
  unsigned Depth = System.config().Limits.DagDepth;
  for (const std::string &Class : Classes) {
    std::string Where = C.origin() + " " + Class;
    std::vector<UsageDag> OldDags = System.dagsForClass(Old, Class);
    std::vector<UsageDag> NewDags = System.dagsForClass(New, Class);
    std::vector<UsageDag> OldRef = referenceDags(Old, Class, Depth);
    std::vector<UsageDag> NewRef = referenceDags(New, Class, Depth);
    // Same DAGs kept, in the same order (build is shared, so equal
    // renderings mean equal DAGs).
    ASSERT_EQ(OldDags.size(), OldRef.size()) << Where;
    ASSERT_EQ(NewDags.size(), NewRef.size()) << Where;
    for (std::size_t I = 0; I < OldDags.size(); ++I)
      EXPECT_EQ(OldDags[I].str(), OldRef[I].str()) << Where;
    for (std::size_t I = 0; I < NewDags.size(); ++I)
      EXPECT_EQ(NewDags[I].str(), NewRef[I].str()) << Where;

    // The pairing costs, bit for bit.
    for (const UsageDag &G1 : OldDags)
      for (const UsageDag &G2 : NewDags)
        EXPECT_EQ(dagDistance(DagIds::of(G1, Table), DagIds::of(G2, Table)),
                  referenceDagDistance(G1, G2))
            << Where;

    std::vector<ReferenceChange> Expected =
        referenceUsageChanges(OldRef, NewRef, Class);
    auto It = Record.PerClass.find(Class);
    std::vector<UsageChange> Actual =
        It == Record.PerClass.end() ? std::vector<UsageChange>() : It->second;
    expectSameChanges(Actual, Expected, Where);
    T.Changes += Actual.size();
    for (const UsageChange &Change : Actual)
      T.NonEmpty += !Change.isEmpty();
    T.Padded += OldDags.size() != NewDags.size();
  }
}

} // namespace

TEST(UsageDifferential, GeneratedCorporaMatchOracle) {
  core::DiffCode System(api());
  for (std::uint64_t Seed : {42u, 7u, 2018u}) {
    corpus::CorpusOptions Opts;
    Opts.Seed = Seed;
    Opts.NumProjects = 24;
    corpus::Corpus Corpus = corpus::CorpusGenerator(Opts).generate();
    std::vector<const corpus::CodeChange *> Mined =
        corpus::Miner(api()).mine(Corpus);
    ASSERT_FALSE(Mined.empty()) << "seed " << Seed;
    support::Interner Table;
    Tally T;
    for (const corpus::CodeChange *C : Mined) {
      compareChange(System, *C, Table, T);
      if (HasFatalFailure())
        return;
    }
    // The corpora exercise every branch: plain diffs, non-empty
    // features, and pairings with padding.
    EXPECT_GT(T.Changes, Mined.size() / 2) << "seed " << Seed;
    EXPECT_GT(T.NonEmpty, 0u) << "seed " << Seed;
    EXPECT_GT(T.Padded, 0u) << "seed " << Seed;
  }
}

TEST(UsageDifferential, RenderCollisionsMatchOracle) {
  // Sources whose labels or DAGs render alike: the int 1 and the string
  // "1" in one DAG and in two, and getInstance("AES", "BC") next to
  // getInstance("AES,arg2:BC").
  const char *Wrap = R"(import javax.crypto.Cipher;
class Crypt {
  void run(java.security.Key key) throws Exception {
    %s
  }
})";
  struct Case {
    const char *Old;
    const char *New;
  };
  const Case Cases[] = {
      {R"(Cipher c = Cipher.getInstance("AES"); c.init(1, key); c.init("1", key);)",
       R"(Cipher c = Cipher.getInstance("AES"); c.init("1", key);)"},
      {R"(Cipher a = Cipher.getInstance("AES"); a.init(1, key); Cipher b = Cipher.getInstance("AES"); b.init("1", key);)",
       R"(Cipher b = Cipher.getInstance("AES"); b.init("1", key);)"},
      {R"(Cipher a = Cipher.getInstance("AES", "BC"); Cipher b = Cipher.getInstance("AES,arg2:BC");)",
       R"(Cipher a = Cipher.getInstance("AES", "BC");)"},
  };
  core::DiffCode System(api());
  support::Interner Table;
  Tally T;
  for (const Case &K : Cases) {
    corpus::CodeChange C;
    char Buffer[512];
    std::snprintf(Buffer, sizeof(Buffer), Wrap, K.Old);
    C.OldCode = Buffer;
    std::snprintf(Buffer, sizeof(Buffer), Wrap, K.New);
    C.NewCode = Buffer;
    compareChange(System, C, Table, T);
  }
  EXPECT_EQ(T.NonEmpty, 3u);
}
