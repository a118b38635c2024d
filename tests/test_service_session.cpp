//===- tests/test_service_session.cpp - Incremental session differential --===//
//
// Part of the DiffCode project, a reproduction of "Inferring Crypto API
// Rules from Code Changes" (PLDI'18).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The AnalysisSession contract (DESIGN.md "Service mode and the
/// session API"): after any sequence of ingests, the session's report
/// is byte-identical to a cold DiffCode::run over the same changes in
/// the same order — at any thread count, under any cache bound (the
/// bound changes cost, never bytes), with the ServiceHash fault site
/// collapsing the primary content hash, and with an armed in-process
/// fault plan (where the session bypasses its caches entirely rather
/// than memoize nondeterministic outcomes). The report JSON carries no
/// dendrogram, so every comparison also checks each class's tree
/// against the cold run's (expectSameTrees).
///
//===----------------------------------------------------------------------===//

#include "service/AnalysisSession.h"

#include "core/ReportWriter.h"
#include "corpus/CorpusGenerator.h"
#include "corpus/Miner.h"
#include "oracles/NaiveClustering.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

using namespace diffcode;
using namespace diffcode::core;
using namespace diffcode::service;

namespace {

const apimodel::CryptoApiModel &api() {
  return apimodel::CryptoApiModel::javaCryptoApi();
}

/// A deterministic mined change stream, by value so ingests can slice it.
std::vector<corpus::CodeChange> minedChanges(unsigned Projects = 12,
                                             std::uint64_t Seed = 42) {
  corpus::CorpusOptions Opts;
  Opts.NumProjects = Projects;
  Opts.Seed = Seed;
  corpus::Corpus C = corpus::CorpusGenerator(Opts).generate();
  corpus::Miner M(api());
  std::vector<corpus::CodeChange> Out;
  for (const corpus::CodeChange *Change : M.mine(C))
    Out.push_back(*Change);
  return Out;
}

/// The cold-batch oracle: one fresh DiffCode::run over \p Changes.
CorpusReport coldReport(const std::vector<corpus::CodeChange> &Changes,
                        const PipelineConfig &Config = PipelineConfig()) {
  DiffCode System(api(), Config);
  PipelineRequest Request;
  for (const corpus::CodeChange &Change : Changes)
    Request.Changes.push_back(&Change);
  Request.TargetClasses = api().targetClasses();
  return System.run(Request);
}

std::string coldJson(const std::vector<corpus::CodeChange> &Changes,
                     const PipelineConfig &Config = PipelineConfig()) {
  return corpusReportToJson(coldReport(Changes, Config));
}

/// The tree gate: byte comparisons cannot see dendrograms, so this
/// checks every class's leaf count, merge list, clustering error and
/// shard statistics against \p Cold's. Returns the number of merges compared.
std::size_t expectSameTrees(const CorpusReport &Got, const CorpusReport &Cold) {
  EXPECT_EQ(Got.PerClass.size(), Cold.PerClass.size());
  std::size_t Merges = 0;
  for (std::size_t I = 0;
       I < std::min(Got.PerClass.size(), Cold.PerClass.size()); ++I) {
    const ClassReport &G = Got.PerClass[I];
    const ClassReport &C = Cold.PerClass[I];
    std::vector<cluster::Merge> Expected = cluster::dendrogramMerges(C.Tree);
    EXPECT_EQ(G.Tree.leafCount(), C.Tree.leafCount()) << C.TargetClass;
    EXPECT_EQ(cluster::dendrogramMerges(G.Tree), Expected) << C.TargetClass;
    EXPECT_EQ(G.ClusteringError, C.ClusteringError) << C.TargetClass;
    // Every session here clusters on one thread (the default), so even
    // the peak-bytes high-water mark is deterministic.
    auto Shape = [](const cluster::ShardingStats &S) {
      return std::tie(S.NumShards, S.LargestShard, S.Representatives,
                      S.PeakMatrixBytes, S.ShardSizes);
    };
    EXPECT_TRUE(Shape(G.Sharding) == Shape(C.Sharding)) << C.TargetClass;
    Merges += Expected.size();
  }
  return Merges;
}

/// Splits \p Changes into \p Parts contiguous batches (sizes as even as
/// possible; order preserved).
std::vector<std::vector<corpus::CodeChange>>
splitBatches(const std::vector<corpus::CodeChange> &Changes,
             std::size_t Parts) {
  std::vector<std::vector<corpus::CodeChange>> Out(Parts);
  for (std::size_t I = 0; I < Changes.size(); ++I)
    Out[I * Parts / Changes.size()].push_back(Changes[I]);
  return Out;
}

/// Ingests every batch into a fresh session and checks the snapshot
/// bytes and every tree against \p Cold. Returns the merges compared.
std::size_t
expectMatchesCold(const std::vector<std::vector<corpus::CodeChange>> &Batches,
                  SessionOptions Opts, const CorpusReport &Cold,
                  SessionStats *StatsOut = nullptr) {
  AnalysisSession Session(api(), std::move(Opts));
  for (const std::vector<corpus::CodeChange> &Batch : Batches)
    Session.ingest(Batch);
  if (StatsOut)
    *StatsOut = Session.stats();
  EXPECT_EQ(Session.reportJson(), corpusReportToJson(Cold));
  return expectSameTrees(Session.report(), Cold);
}

} // namespace

TEST(ServiceSession, EmptySessionMatchesEmptyColdRun) {
  AnalysisSession Session(api(), SessionOptions());
  EXPECT_EQ(Session.size(), 0u);
  EXPECT_EQ(Session.reportJson(), coldJson({}));
}

TEST(ServiceSession, BatchedIngestMatchesColdBatchAtAnyThreadCount) {
  std::vector<corpus::CodeChange> Changes = minedChanges();
  ASSERT_GE(Changes.size(), 30u);
  CorpusReport Oracle = coldReport(Changes);

  for (unsigned Threads : {1u, 2u, 8u}) {
    SCOPED_TRACE(Threads);
    SessionOptions Opts;
    Opts.Config.Threads = Threads;
    // One big ingest, and the same stream in five slices: both must
    // land on the oracle's bytes and trees.
    EXPECT_GT(expectMatchesCold({Changes}, Opts, Oracle), 0u);
    EXPECT_GT(expectMatchesCold(splitBatches(Changes, 5), Opts, Oracle), 0u);
  }
}

TEST(ServiceSession, CacheBoundNeverChangesBytesAndEvictsDeterministically) {
  std::vector<corpus::CodeChange> Changes = minedChanges();
  CorpusReport Oracle = coldReport(Changes);

  SessionStats Reference;
  for (unsigned Threads : {1u, 2u, 8u}) {
    SCOPED_TRACE(Threads);
    SessionOptions Opts;
    Opts.Config.Threads = Threads;
    Opts.MaxCachedChanges = 7; // far below the stream size
    SessionStats Stats;
    EXPECT_GT(expectMatchesCold(splitBatches(Changes, 4), Opts, Oracle, &Stats),
              0u);
    EXPECT_GT(Stats.Lifetime.Evictions, 0u);
    EXPECT_LE(Stats.CachedRecords, 7u);
    // FIFO eviction is keyed in batch order on one thread, so the
    // eviction trace is a function of the stream, not the pool width.
    if (Threads == 1u)
      Reference = Stats;
    else {
      EXPECT_EQ(Stats.Lifetime.Evictions, Reference.Lifetime.Evictions);
      EXPECT_EQ(Stats.Lifetime.CacheHits, Reference.Lifetime.CacheHits);
      EXPECT_EQ(Stats.CachedRecords, Reference.CachedRecords);
    }
  }
}

TEST(ServiceSession, ReplayedBatchIsServedFromCache) {
  std::vector<corpus::CodeChange> Changes = minedChanges(6, 7);
  ASSERT_FALSE(Changes.empty());

  AnalysisSession Session(api(), SessionOptions());
  IngestStats First = Session.ingest(Changes);
  EXPECT_EQ(First.CacheHits, 0u);
  EXPECT_EQ(First.CacheMisses, Changes.size());

  // The same content arriving again (a re-landed commit) must be served
  // entirely from the memo table — and still produce exactly the bytes
  // of a cold run over the doubled stream.
  IngestStats Second = Session.ingest(Changes);
  EXPECT_EQ(Second.CacheHits, Changes.size());
  EXPECT_EQ(Second.CacheMisses, 0u);

  std::vector<corpus::CodeChange> Doubled = Changes;
  Doubled.insert(Doubled.end(), Changes.begin(), Changes.end());
  EXPECT_EQ(Session.reportJson(), coldJson(Doubled));

  SessionStats Stats = Session.stats();
  EXPECT_EQ(Stats.TotalChanges, Doubled.size());
  EXPECT_EQ(Stats.Ingests, 2u);
  EXPECT_EQ(Stats.Lifetime.CacheHits + Stats.Lifetime.CacheMisses,
            Doubled.size());
}

TEST(ServiceSession, CommitByCommitIngestKeepsKeptPrefixAndColdTrees) {
  std::vector<corpus::CodeChange> Changes = minedChanges(16, 3);
  ASSERT_GE(Changes.size(), 40u);

  // The session re-clusters a class only when its kept set grows. That
  // is exact because Kept is append-only (an unchanged size means the
  // same items in the same order): check that after every commit, and
  // check every tree against a cold run over the same prefix.
  auto SameItem = [](const usage::UsageChange &A, const usage::UsageChange &B) {
    return std::tie(A.TypeName, A.Removed, A.Added, A.Origin) ==
           std::tie(B.TypeName, B.Removed, B.Added, B.Origin);
  };
  auto Pairs = [](std::uint64_t N) { return N < 2 ? 0 : N * (N - 1) / 2; };

  AnalysisSession Session(api(), SessionOptions());
  std::vector<corpus::CodeChange> Prefix;
  std::size_t Commits = 0, Grew = 0, Kept = 0;
  for (std::size_t Begin = 0; Begin < Changes.size(); ++Commits) {
    std::size_t End = Begin + 1;
    while (End < Changes.size() &&
           Changes[End].origin() == Changes[Begin].origin())
      ++End;
    std::vector<corpus::CodeChange> Commit(Changes.begin() + Begin,
                                           Changes.begin() + End);
    Prefix.insert(Prefix.end(), Commit.begin(), Commit.end());
    Begin = End;
    SCOPED_TRACE(Commit.front().origin());

    std::vector<std::vector<usage::UsageChange>> Before;
    for (const ClassReport &Class : Session.report().PerClass)
      Before.push_back(Class.Filtered.Kept);
    IngestStats Stats = Session.ingest(Commit);

    // The counters follow the rule: n(n-1)/2 pairs per re-clustered
    // class, and per repaired class whose tree was kept.
    std::uint64_t Computed = 0, Reused = 0;
    for (std::size_t C = 0; C < Before.size(); ++C) {
      const ClassReport &Class = Session.report().PerClass[C];
      const std::vector<usage::UsageChange> &Now = Class.Filtered.Kept;
      ASSERT_GE(Now.size(), Before[C].size()) << Class.TargetClass;
      EXPECT_TRUE(std::equal(Before[C].begin(), Before[C].end(), Now.begin(),
                             SameItem))
          << Class.TargetClass;
      bool Touched = false;
      for (std::size_t R = Session.size() - Commit.size(); R < Session.size();
           ++R)
        Touched |= Session.report().Changes[R].PerClass.count(
                       Class.TargetClass) > 0;
      if (Now.size() > Before[C].size())
        Computed += Pairs(Now.size());
      else if (Touched)
        Reused += Pairs(Now.size());
    }
    EXPECT_EQ(Stats.PairsComputed, Computed);
    EXPECT_EQ(Stats.PairsReused, Reused);
    Grew += Computed > 0;
    Kept += Reused > 0;

    CorpusReport Cold = coldReport(Prefix);
    EXPECT_EQ(Session.reportJson(), corpusReportToJson(Cold));
    expectSameTrees(Session.report(), Cold);
  }
  // Both sides of the rule ran.
  EXPECT_GT(Commits, 10u);
  EXPECT_GT(Grew, 0u);
  EXPECT_GT(Kept, 0u);

  // A replayed stream is all fdup duplicates: no kept set grows, so
  // nothing is re-clustered and every tree still equals the cold run's.
  IngestStats Replay = Session.ingest(Changes);
  EXPECT_EQ(Replay.PairsComputed, 0u);
  EXPECT_GT(Replay.PairsReused, 0u);
  std::vector<corpus::CodeChange> Doubled = Changes;
  Doubled.insert(Doubled.end(), Changes.begin(), Changes.end());
  CorpusReport Cold = coldReport(Doubled);
  EXPECT_EQ(Session.reportJson(), corpusReportToJson(Cold));
  EXPECT_GT(expectSameTrees(Session.report(), Cold), 0u);
}

TEST(ServiceSession, ServiceHashCollisionsDegradeSelectivityNotCorrectness) {
  std::vector<corpus::CodeChange> Changes = minedChanges();

  // Every keyFor evaluation fires: the primary content hash collapses
  // to a constant and all memo entries collide into one bucket chain.
  // The secondary hash + length pair must still discriminate.
  PipelineConfig Armed;
  Armed.Faults.Rate = 1.0;
  Armed.Faults.Seed = 99;
  Armed.Faults.SiteMask = support::faultSiteBit(support::FaultSite::ServiceHash);

  SessionOptions Opts;
  Opts.Config = Armed;
  AnalysisSession Session(api(), Opts);
  Session.ingest(Changes);
  IngestStats Replay = Session.ingest(Changes);
  // A collided cache must still *hit* (H2 + lengths discriminate), not
  // fall back to re-analysis.
  EXPECT_EQ(Replay.CacheHits, Changes.size());

  std::vector<corpus::CodeChange> Doubled = Changes;
  Doubled.insert(Doubled.end(), Changes.begin(), Changes.end());
  // ServiceHash is never evaluated on the cold path, so the oracle with
  // the same plan is exactly the unfaulted batch report.
  CorpusReport Cold = coldReport(Doubled, Armed);
  EXPECT_EQ(Session.reportJson(), corpusReportToJson(Cold));
  EXPECT_GT(expectSameTrees(Session.report(), Cold), 0u);
}

TEST(ServiceSession, ArmedAnalysisFaultsBypassCachesAndStayByteIdentical) {
  std::vector<corpus::CodeChange> Changes = minedChanges();

  // In-process analysis faults make per-change outcomes a function of
  // the fault campaign, so memoizing them would be wrong; the session
  // must fall back to straight re-analysis under the same global-index
  // FaultScope a cold run would use — and land on its exact bytes.
  PipelineConfig Analysis;
  Analysis.Faults.Rate = 0.35;
  Analysis.Faults.Seed = 4242;
  Analysis.Faults.SiteMask =
      support::faultSiteBit(support::FaultSite::Parser) |
      support::faultSiteBit(support::FaultSite::Interpreter) |
      support::faultSiteBit(support::FaultSite::Clustering);
  // That plan degrades every change before filtering, so no class
  // reaches clustering. This one arms only the clustering site, so the
  // tree gate sees both built and failed dendrograms and the session's
  // re-cluster rule runs under an armed plan. Clustering faults cannot
  // fire inside analysis, so the record memo stays in use.
  PipelineConfig Clustering;
  Clustering.Faults.Rate = 0.5;
  Clustering.Faults.Seed = 4242;
  Clustering.Faults.SiteMask =
      support::faultSiteBit(support::FaultSite::Clustering);

  for (const PipelineConfig *Armed : {&Analysis, &Clustering}) {
    CorpusReport Oracle = coldReport(Changes, *Armed);
    if (Armed == &Clustering) {
      std::size_t Built = 0, Failed = 0;
      for (const ClassReport &Class : Oracle.PerClass) {
        Built += Class.Tree.leafCount() > 0;
        Failed += !Class.ClusteringError.empty();
      }
      EXPECT_GT(Built, 0u);
      EXPECT_GT(Failed, 0u);
    }
    for (unsigned Threads : {1u, 2u, 8u}) {
      SCOPED_TRACE(Threads);
      SessionOptions Opts;
      Opts.Config = *Armed;
      Opts.Config.Threads = Threads;
      SessionStats Stats;
      expectMatchesCold(splitBatches(Changes, 3), Opts, Oracle, &Stats);
      if (Armed == &Analysis) {
        EXPECT_EQ(Stats.Lifetime.CacheHits, 0u);
        EXPECT_EQ(Stats.CachedRecords, 0u);
      } else {
        EXPECT_GT(Stats.CachedRecords, 0u);
      }
    }
  }
}

TEST(ServiceSession, ShardedClusteringFallsBackToColdPathIdentically) {
  std::vector<corpus::CodeChange> Changes = minedChanges();

  PipelineConfig Sharded;
  Sharded.Sharding.Enabled = true;
  Sharded.Sharding.MaxShardSize = 4;
  CorpusReport Oracle = coldReport(Changes, Sharded);

  SessionOptions Opts;
  Opts.Config = Sharded;
  EXPECT_GT(expectMatchesCold(splitBatches(Changes, 3), Opts, Oracle), 0u);
}

TEST(ServiceSession, MetricsFlowThroughObserver) {
  std::vector<corpus::CodeChange> Changes = minedChanges(6, 7);
  obs::Observer Obs;
  SessionOptions Opts;
  Opts.Metrics = &Obs;
  AnalysisSession Session(api(), std::move(Opts));
  Session.ingest(Changes);
  Session.ingest(Changes);

  obs::Snapshot Snap = Obs.Metrics.snapshot();
  auto Counter = [&](const std::string &Name) -> std::uint64_t {
    for (const obs::MetricValue &V : Snap.Values)
      if (V.Name == Name)
        return V.Count;
    return ~std::uint64_t(0);
  };
  EXPECT_EQ(Counter("service.ingests"), 2u);
  EXPECT_EQ(Counter("service.changes"), 2 * Changes.size());
  EXPECT_EQ(Counter("service.cache.hits"), Changes.size());
  EXPECT_EQ(Counter("service.cache.misses"), Changes.size());
}
