//===- tests/test_diffcode_integration.cpp - End-to-end pipeline tests -----===//

#include "core/DiffCode.h"

#include "cluster/DistanceCache.h"
#include "core/ReportWriter.h"
#include "corpus/CorpusGenerator.h"
#include "corpus/Miner.h"
#include "oracles/NaiveClustering.h"
#include "rules/BuiltinRules.h"

#include <gtest/gtest.h>

#include <set>

using namespace diffcode;
using namespace diffcode::core;

namespace {

const apimodel::CryptoApiModel &api() {
  return apimodel::CryptoApiModel::javaCryptoApi();
}

corpus::CodeChange change(const char *OldCode, const char *NewCode) {
  corpus::CodeChange C;
  C.ProjectName = "test";
  C.OldCode = OldCode;
  C.NewCode = NewCode;
  return C;
}

/// processChange over every target class, interned in the instance's
/// own table.
ChangeRecord process(const DiffCode &System, const corpus::CodeChange &C) {
  return System.processChange(C, api().targetClasses(), {},
                              *System.labels());
}

const char *Figure2Old = R"java(
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

const char *Figure2New = R"java(
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

} // namespace

TEST(DiffCodeE2E, Figure2UsageChange) {
  DiffCode System(api());
  std::vector<usage::UsageChange> Changes =
      process(System, change(Figure2Old, Figure2New)).PerClass["Cipher"];
  // Two Cipher objects -> two usage changes (enc and dec).
  ASSERT_EQ(Changes.size(), 2u);

  std::set<std::string> RemovedStrs, AddedStrs;
  for (const usage::FeaturePath &P : Changes[0].removedPaths())
    RemovedStrs.insert(usage::pathToString(P));
  for (const usage::FeaturePath &P : Changes[0].addedPaths())
    AddedStrs.insert(usage::pathToString(P));

  // Figure 2(d): the exact removed and added features.
  EXPECT_TRUE(RemovedStrs.count("Cipher Cipher.getInstance arg1:AES"));
  EXPECT_TRUE(
      AddedStrs.count("Cipher Cipher.getInstance arg1:AES/CBC/PKCS5Padding"));
  EXPECT_TRUE(AddedStrs.count("Cipher Cipher.init arg3:IvParameterSpec"));
  EXPECT_EQ(RemovedStrs.size(), 1u);
  EXPECT_EQ(AddedStrs.size(), 2u);
}

TEST(DiffCodeE2E, Figure2IvParameterSpecSideChannel) {
  // The same commit also yields an IvParameterSpec usage change (a pure
  // addition, filtered by fadd).
  DiffCode System(api());
  std::vector<usage::UsageChange> Changes =
      process(System, change(Figure2Old, Figure2New))
          .PerClass["IvParameterSpec"];
  ASSERT_EQ(Changes.size(), 1u);
  EXPECT_TRUE(Changes[0].Removed.empty());
  EXPECT_FALSE(Changes[0].Added.empty());
}

TEST(DiffCodeE2E, RefactoringIsFsame) {
  const char *Old =
      "class A { void m(Key k) throws Exception { "
      "Cipher c = Cipher.getInstance(\"AES\"); "
      "c.init(Cipher.ENCRYPT_MODE, k); } }";
  // Rename everything, extract a constant, wrap in try/catch.
  const char *New =
      "class A { static final String ALGO = \"AES\"; "
      "void configure(Key secret) { try { "
      "Cipher cipher = Cipher.getInstance(ALGO); "
      "cipher.init(Cipher.ENCRYPT_MODE, secret); "
      "} catch (Exception error) { } } }";
  DiffCode System(api());
  std::vector<usage::UsageChange> Changes =
      process(System, change(Old, New)).PerClass["Cipher"];
  for (const usage::UsageChange &C : Changes)
    EXPECT_TRUE(C.isEmpty()) << C.str();
}

TEST(DiffCodeE2E, HelperExtractionIsFsame) {
  const char *Old =
      "class A { void m(Key k) throws Exception { "
      "Cipher c = Cipher.getInstance(\"AES\"); "
      "c.init(Cipher.ENCRYPT_MODE, k); } }";
  const char *New =
      "class A { void m(Key k) throws Exception { "
      "Cipher c = make(); c.init(Cipher.ENCRYPT_MODE, k); } "
      "private Cipher make() throws Exception { "
      "return Cipher.getInstance(\"AES\"); } }";
  DiffCode System(api());
  ChangeRecord Record = process(System, change(Old, New));
  for (const usage::UsageChange &C : Record.PerClass["Cipher"])
    EXPECT_TRUE(C.isEmpty()) << C.str();
}

TEST(DiffCodeE2E, ProcessChangeClassifies) {
  DiffCode System(api());
  std::vector<const rules::Rule *> CLRules;
  for (const rules::Rule &R : rules::cryptoLintRules())
    CLRules.push_back(&R);
  ChangeRecord Record =
      System.processChange(change(Figure2Old, Figure2New),
                           api().targetClasses(), CLRules, *System.labels());
  ASSERT_TRUE(Record.Classification.count("CL1"));
  EXPECT_EQ(Record.Classification.at("CL1"),
            rules::ChangeClass::SecurityFix);
  EXPECT_EQ(Record.Classification.at("CL4"),
            rules::ChangeClass::NonSemantic);
  EXPECT_TRUE(Record.PerClass.count("Cipher"));
}

TEST(DiffCodeE2E, EmptySourcesHandled) {
  DiffCode System(api());
  analysis::AnalysisResult Empty = System.analyzeSourceChecked("").Result;
  EXPECT_EQ(Empty.Objects.size(), 0u);
  std::vector<usage::UsageChange> Changes =
      process(System, change("", "class A { Cipher c; void m() throws "
                                 "Exception { c = Cipher.getInstance("
                                 "\"AES\"); } }"))
          .PerClass["Cipher"];
  ASSERT_EQ(Changes.size(), 1u);
  EXPECT_TRUE(Changes[0].Removed.empty());
  EXPECT_FALSE(Changes[0].Added.empty());
}

TEST(DiffCodeE2E, BrokenSourceDoesNotCrash) {
  DiffCode System(api());
  ChangeRecord Record = process(
      System,
      change("class A { void m( { Cipher c = Cipher.getInstance(\"AES\" }",
             "class ??? !!!"));
  // Broken input degrades or fails to parse; it never reaches the
  // exception containment.
  EXPECT_NE(Record.Status, ChangeStatus::AnalysisThrow) << Record.StatusDetail;
}

TEST(DiffCodeE2E, PipelineOverSmallCorpus) {
  corpus::CorpusOptions Opts;
  Opts.Seed = 17;
  Opts.NumProjects = 10;
  corpus::Corpus C = corpus::CorpusGenerator(Opts).generate();
  corpus::Miner M(api());
  std::vector<const corpus::CodeChange *> Mined = M.mine(C);
  ASSERT_FALSE(Mined.empty());

  DiffCode System(api());
  std::vector<const rules::Rule *> CLRules;
  for (const rules::Rule &R : rules::cryptoLintRules())
    CLRules.push_back(&R);
  CorpusReport Report = System.run({.Changes = Mined,
                                            .TargetClasses = api().targetClasses(),
                                            .ClassifyWith = CLRules});

  ASSERT_EQ(Report.PerClass.size(), 6u);
  EXPECT_EQ(Report.Changes.size(), Mined.size());

  for (const ClassReport &Class : Report.PerClass) {
    // Filter stage counts are monotonically non-increasing.
    EXPECT_LE(Class.Filtered.AfterSame, Class.Filtered.Total);
    EXPECT_LE(Class.Filtered.AfterAdd, Class.Filtered.AfterSame);
    EXPECT_LE(Class.Filtered.AfterRem, Class.Filtered.AfterAdd);
    EXPECT_LE(Class.Filtered.AfterDup, Class.Filtered.AfterRem);
    EXPECT_EQ(Class.Filtered.Kept.size(), Class.Filtered.AfterDup);
    // fsame removes the large majority.
    if (Class.Filtered.Total > 20)
      EXPECT_LT(Class.Filtered.AfterSame * 2, Class.Filtered.Total);
  }
}

TEST(DiffCodeE2E, GroundTruthFixesSurviveFilters) {
  // The paper's key validation: filters remove non-semantic changes but
  // never a (non-duplicate) security fix. We check it against the
  // generator's ground truth.
  corpus::CorpusOptions Opts;
  Opts.Seed = 23;
  Opts.NumProjects = 15;
  corpus::Corpus C = corpus::CorpusGenerator(Opts).generate();
  corpus::Miner M(api());
  DiffCode System(api());

  for (const corpus::Project &P : C.Projects) {
    for (const corpus::CodeChange &Change : P.History) {
      if (!Change.isGroundTruthFix())
        continue;
      // A fix must produce at least one usage change that passes the
      // solo filters (non-empty F- and F+) for some target class.
      bool Survives = false;
      ChangeRecord Record = process(System, Change);
      for (const auto &[Target, Changes] : Record.PerClass)
        for (const usage::UsageChange &UC : Changes)
          Survives = Survives || classifySolo(UC) == FilterStage::Kept;
      EXPECT_TRUE(Survives) << Change.origin() << " " << Change.Kind;
    }
  }
}

TEST(DiffCodeE2E, RefactoringsNeverSurviveFilters) {
  corpus::CorpusOptions Opts;
  Opts.Seed = 29;
  Opts.NumProjects = 8;
  corpus::Corpus C = corpus::CorpusGenerator(Opts).generate();
  DiffCode System(api());

  unsigned CheckedRefactors = 0;
  for (const corpus::Project &P : C.Projects) {
    for (const corpus::CodeChange &Change : P.History) {
      if (Change.Kind != "refactor" || CheckedRefactors > 40)
        continue;
      ++CheckedRefactors;
      ChangeRecord Record = process(System, Change);
      EXPECT_NE(Record.Status, ChangeStatus::AnalysisThrow) << Change.origin();
      for (const auto &[Target, Changes] : Record.PerClass)
        for (const usage::UsageChange &UC : Changes)
          EXPECT_EQ(classifySolo(UC), FilterStage::FSame)
              << Change.origin() << " " << Target << "\n" << UC.str();
    }
  }
  EXPECT_GT(CheckedRefactors, 10u);
}

TEST(DiffCodeE2E, PipelineDeterminism) {
  corpus::CorpusOptions Opts;
  Opts.Seed = 41;
  Opts.NumProjects = 5;
  corpus::Corpus C = corpus::CorpusGenerator(Opts).generate();
  corpus::Miner M(api());
  std::vector<const corpus::CodeChange *> Mined = M.mine(C);
  DiffCode System(api());
  CorpusReport A =
      System.run({.Changes = Mined, .TargetClasses = {"Cipher"}});
  CorpusReport B =
      System.run({.Changes = Mined, .TargetClasses = {"Cipher"}});
  ASSERT_EQ(A.PerClass.size(), B.PerClass.size());
  EXPECT_EQ(A.PerClass[0].Filtered.Total, B.PerClass[0].Filtered.Total);
  EXPECT_EQ(A.PerClass[0].Filtered.AfterDup,
            B.PerClass[0].Filtered.AfterDup);
  ASSERT_EQ(A.PerClass[0].Filtered.Kept.size(),
            B.PerClass[0].Filtered.Kept.size());
  for (std::size_t I = 0; I < A.PerClass[0].Filtered.Kept.size(); ++I)
    EXPECT_TRUE(A.PerClass[0].Filtered.Kept[I].sameFeatures(
        B.PerClass[0].Filtered.Kept[I]));
}

TEST(DiffCodeE2E, ParallelPipelineMatchesSerial) {
  corpus::CorpusOptions Opts;
  Opts.Seed = 47;
  Opts.NumProjects = 8;
  corpus::Corpus C = corpus::CorpusGenerator(Opts).generate();
  corpus::Miner M(api());
  std::vector<const corpus::CodeChange *> Mined = M.mine(C);

  PipelineConfig Serial;
  Serial.Threads = 1;
  PipelineConfig Parallel;
  Parallel.Threads = 4;
  CorpusReport A = DiffCode(api(), Serial)
                       .run({.Changes = Mined,
                                     .TargetClasses = api().targetClasses()});
  CorpusReport B = DiffCode(api(), Parallel)
                       .run({.Changes = Mined,
                                     .TargetClasses = api().targetClasses()});

  ASSERT_EQ(A.Changes.size(), B.Changes.size());
  for (std::size_t I = 0; I < A.Changes.size(); ++I)
    EXPECT_EQ(A.Changes[I].Origin, B.Changes[I].Origin);
  ASSERT_EQ(A.PerClass.size(), B.PerClass.size());
  for (std::size_t I = 0; I < A.PerClass.size(); ++I) {
    EXPECT_EQ(A.PerClass[I].Filtered.Total, B.PerClass[I].Filtered.Total);
    EXPECT_EQ(A.PerClass[I].Filtered.AfterDup,
              B.PerClass[I].Filtered.AfterDup);
    ASSERT_EQ(A.PerClass[I].Filtered.Kept.size(),
              B.PerClass[I].Filtered.Kept.size());
    for (std::size_t J = 0; J < A.PerClass[I].Filtered.Kept.size(); ++J)
      EXPECT_TRUE(A.PerClass[I].Filtered.Kept[J].sameFeatures(
          B.PerClass[I].Filtered.Kept[J]));
  }
}

TEST(DiffCodeE2E, ThreadedPipelineReportIsByteIdentical) {
  // The strongest determinism statement: every knob of the parallel
  // engine (pipeline workers, clustering threads) must reproduce the
  // serial run's CorpusReport JSON byte for byte, and the per-class
  // dendrograms node for node — which in turn encode exactly the naive
  // oracle's merges over each class's kept changes.
  corpus::CorpusOptions Opts;
  Opts.Seed = 53;
  Opts.NumProjects = 8;
  corpus::Corpus C = corpus::CorpusGenerator(Opts).generate();
  corpus::Miner M(api());
  std::vector<const corpus::CodeChange *> Mined = M.mine(C);
  ASSERT_FALSE(Mined.empty());

  PipelineConfig Serial;
  Serial.Threads = 1;
  Serial.Clustering.Threads = 1;

  PipelineConfig Threaded;
  Threaded.Threads = 8;
  Threaded.Clustering.Threads = 8;

  core::PipelineRequest Request{.Changes = Mined,
                                .TargetClasses = api().targetClasses()};
  CorpusReport A = DiffCode(api(), Serial).run(Request);
  CorpusReport B = DiffCode(api(), Threaded).run(Request);

  std::string JsonA = corpusReportToJson(A);
  EXPECT_EQ(JsonA, corpusReportToJson(B));

  // The JSON omits the trees, so compare those explicitly.
  ASSERT_EQ(A.PerClass.size(), B.PerClass.size());
  for (std::size_t I = 0; I < A.PerClass.size(); ++I) {
    const auto &TA = A.PerClass[I].Tree.nodes();
    const auto &TB = B.PerClass[I].Tree.nodes();
    ASSERT_EQ(TA.size(), TB.size()) << A.PerClass[I].TargetClass;
    for (std::size_t K = 0; K < TA.size(); ++K) {
      EXPECT_EQ(TA[K].Left, TB[K].Left);
      EXPECT_EQ(TA[K].Right, TB[K].Right);
      EXPECT_EQ(TA[K].Item, TB[K].Item);
      EXPECT_EQ(TA[K].Height, TB[K].Height);
    }

    const std::vector<usage::UsageChange> &Kept = A.PerClass[I].Filtered.Kept;
    cluster::UsageDistCache Cache(Kept);
    std::vector<double> D = cluster::pairwiseDistanceMatrix(
        Kept.size(),
        [&](std::size_t X, std::size_t Y) { return Cache(X, Y); });
    EXPECT_EQ(cluster::dendrogramMerges(A.PerClass[I].Tree),
              cluster::naiveMerges(Kept.size(), D))
        << A.PerClass[I].TargetClass;
  }
}

TEST(DiffCodeE2E, StageEntryPointsComposeToRunPipeline) {
  // The redesigned API contract: run(Request) is exactly
  // analyzeChanges + per-class filterClass/clusterClass + the health
  // rollup. Composing the stages by hand reproduces it byte for byte.
  corpus::CorpusOptions Opts;
  Opts.Seed = 61;
  Opts.NumProjects = 6;
  corpus::Corpus C = corpus::CorpusGenerator(Opts).generate();
  corpus::Miner M(api());
  std::vector<const corpus::CodeChange *> Mined = M.mine(C);
  ASSERT_FALSE(Mined.empty());

  DiffCode System(api());
  PipelineRequest Request{.Changes = Mined,
                          .TargetClasses = api().targetClasses()};

  CorpusReport Whole = System.run(Request);

  CorpusReport Staged;
  Staged.Changes = System.analyzeChanges(Request);
  for (const std::string &Target : Request.TargetClasses) {
    Staged.PerClass.push_back(System.filterClass(Staged.Changes, Target));
    System.clusterClass(Staged.PerClass.back());
  }
  computeCorpusHealth(Staged);

  EXPECT_EQ(corpusReportToJson(Whole), corpusReportToJson(Staged));
  ASSERT_EQ(Whole.PerClass.size(), Staged.PerClass.size());
  for (std::size_t I = 0; I < Whole.PerClass.size(); ++I) {
    const auto &TA = Whole.PerClass[I].Tree.nodes();
    const auto &TB = Staged.PerClass[I].Tree.nodes();
    ASSERT_EQ(TA.size(), TB.size());
    for (std::size_t K = 0; K < TA.size(); ++K) {
      EXPECT_EQ(TA[K].Left, TB[K].Left);
      EXPECT_EQ(TA[K].Right, TB[K].Right);
      EXPECT_EQ(TA[K].Item, TB[K].Item);
      EXPECT_EQ(TA[K].Height, TB[K].Height);
    }
  }
}

TEST(DiffCodeE2E, ShardedPipelineMatchesDenseTreesAndReportsStats) {
  corpus::CorpusOptions Opts;
  Opts.Seed = 71;
  Opts.NumProjects = 8;
  corpus::Corpus C = corpus::CorpusGenerator(Opts).generate();
  corpus::Miner M(api());
  std::vector<const corpus::CodeChange *> Mined = M.mine(C);
  ASSERT_FALSE(Mined.empty());

  PipelineConfig Dense;
  PipelineConfig Unlimited; // armed, but one shard: byte-identical trees
  Unlimited.Sharding.Enabled = true;
  Unlimited.Sharding.MaxShardSize = 0;
  Unlimited.Sharding.Threads = 4;

  PipelineRequest Request{.Changes = Mined,
                          .TargetClasses = api().targetClasses()};
  CorpusReport A = DiffCode(api(), Dense).run(Request);
  CorpusReport B = DiffCode(api(), Unlimited).run(Request);

  ASSERT_EQ(A.PerClass.size(), B.PerClass.size());
  for (std::size_t I = 0; I < A.PerClass.size(); ++I) {
    const auto &TA = A.PerClass[I].Tree.nodes();
    const auto &TB = B.PerClass[I].Tree.nodes();
    ASSERT_EQ(TA.size(), TB.size()) << A.PerClass[I].TargetClass;
    for (std::size_t K = 0; K < TA.size(); ++K) {
      EXPECT_EQ(TA[K].Left, TB[K].Left);
      EXPECT_EQ(TA[K].Right, TB[K].Right);
      EXPECT_EQ(TA[K].Item, TB[K].Item);
      EXPECT_EQ(TA[K].Height, TB[K].Height);
    }
    // Stats surface only on the armed run, and only where items existed.
    EXPECT_EQ(A.PerClass[I].Sharding.NumShards, 0u);
    if (!B.PerClass[I].Filtered.Kept.empty())
      EXPECT_EQ(B.PerClass[I].Sharding.NumShards, 1u);
  }

  // The report JSON carries the shard stats when (and only when) the
  // sharded engine ran, so the disabled path stays byte-identical to
  // the pre-sharding writer.
  std::string JsonA = corpusReportToJson(A);
  std::string JsonB = corpusReportToJson(B);
  EXPECT_EQ(JsonA.find("\"sharding\""), std::string::npos);
  bool AnyKept = false;
  for (const ClassReport &Class : B.PerClass)
    AnyKept = AnyKept || !Class.Filtered.Kept.empty();
  if (AnyKept)
    EXPECT_NE(JsonB.find("\"sharding\""), std::string::npos);
}
