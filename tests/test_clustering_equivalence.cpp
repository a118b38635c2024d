//===- tests/test_clustering_equivalence.cpp - NN-chain vs naive oracle ----===//
//
// Differential harness for the clustering engine: the production
// nearest-neighbor-chain dendrogram must encode exactly the merges of the
// O(n^3) naive reference in tests/oracles — same merged representatives,
// in the same order, at bit-identical heights — on seeded random
// usage-change corpora and on tie-heavy synthetic metrics. The merge
// list fixes the whole node array, hence every cut. Ties are the hard
// part: usageDist values like 0.0, 0.5, and 1.0 recur constantly, and
// complete linkage is only unique once the canonical tie-breaking order
// fixes it.
//
//===----------------------------------------------------------------------===//

#include "cluster/HierarchicalClustering.h"

#include "cluster/Distance.h"
#include "cluster/DistanceCache.h"
#include "oracles/NaiveClustering.h"
#include "support/Rng.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

using namespace diffcode;
using namespace diffcode::analysis;
using namespace diffcode::cluster;
using namespace diffcode::usage;

namespace {

/// Random feature path over a small vocabulary, so exact duplicates and
/// tied distances are common across a corpus.
FeaturePath randomPath(Rng &R) {
  static const char *Roots[] = {"Cipher", "MessageDigest", "SecureRandom"};
  static const char *Methods[] = {"Cipher.getInstance/1", "Cipher.init/3",
                                  "Cipher.doFinal/1",
                                  "MessageDigest.getInstance/1",
                                  "SecureRandom.setSeed/1"};
  static const char *Strings[] = {"AES", "AES/CBC/PKCS5Padding",
                                  "AES/GCM/NoPadding", "DES", "SHA-1",
                                  "SHA-256"};
  FeaturePath Path = {NodeLabel::root(Roots[R.index(3)])};
  Path.push_back(NodeLabel::method(Methods[R.index(5)]));
  if (R.chance(0.7)) {
    unsigned Index = static_cast<unsigned>(R.range(1, 3));
    if (R.chance(0.6))
      Path.push_back(
          NodeLabel::arg(Index, AbstractValue::strConst(Strings[R.index(6)])));
    else
      Path.push_back(NodeLabel::arg(Index, AbstractValue::byteArrayTop()));
  }
  return Path;
}

std::vector<UsageChange> randomCorpus(unsigned Seed, std::size_t Size) {
  static support::Interner Table;
  Rng R(Seed * 9176u + 13);
  std::vector<UsageChange> Changes;
  Changes.reserve(Size);
  for (std::size_t C = 0; C < Size; ++C) {
    std::vector<FeaturePath> Removed, Added;
    for (std::size_t I = 0, N = R.range(0, 3); I < N; ++I)
      Removed.push_back(randomPath(R));
    for (std::size_t I = 0, N = R.range(0, 3); I < N; ++I)
      Added.push_back(randomPath(R));
    Changes.push_back(UsageChange::intern(Table, "Cipher", Removed, Added));
  }
  return Changes;
}

/// Bit-identical dendrograms: same leaves, same merge nodes in the same
/// order with exactly equal heights, same root.
void expectIdenticalTrees(const Dendrogram &A, const Dendrogram &B) {
  ASSERT_EQ(A.leafCount(), B.leafCount());
  ASSERT_EQ(A.nodes().size(), B.nodes().size());
  EXPECT_EQ(A.root(), B.root());
  for (std::size_t I = 0; I < A.nodes().size(); ++I) {
    const Dendrogram::Node &X = A.nodes()[I];
    const Dendrogram::Node &Y = B.nodes()[I];
    EXPECT_EQ(X.Left, Y.Left) << "node " << I;
    EXPECT_EQ(X.Right, Y.Right) << "node " << I;
    EXPECT_EQ(X.Item, Y.Item) << "node " << I;
    EXPECT_EQ(X.Height, Y.Height) << "node " << I; // exact, not approximate
  }
}

/// The engine dendrogram over \p N items encodes exactly the naive
/// oracle's canonical merge list for the same matrix \p D.
void expectMatchesOracle(const Dendrogram &Tree, std::size_t N,
                         const std::vector<double> &D) {
  EXPECT_EQ(Tree.leafCount(), N);
  // Every leaf, then one node per merge; the last merge is the root.
  EXPECT_EQ(Tree.root(), N == 0 ? -1 : static_cast<int>(2 * N - 2));
  EXPECT_EQ(dendrogramMerges(Tree), naiveMerges(N, D));
}

} // namespace

//===----------------------------------------------------------------------===//
// Random usage-change corpora (50-300 changes), shared distance matrix.
//===----------------------------------------------------------------------===//

class CorpusEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(CorpusEquivalence, ChainMatchesNaiveOracle) {
  unsigned Seed = static_cast<unsigned>(GetParam());
  // Sizes sweep the ISSUE's 50-300 range across the seeds.
  std::size_t Size = 50 + (Seed * 83) % 251;
  std::vector<UsageChange> Changes = randomCorpus(Seed, Size);

  UsageDistCache Cache(Changes);
  std::vector<double> D = pairwiseDistanceMatrix(
      Size, [&](std::size_t I, std::size_t J) { return Cache(I, J); });

  expectMatchesOracle(agglomerateDistanceMatrix(Size, D), Size, D);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CorpusEquivalence, ::testing::Range(0, 6));

//===----------------------------------------------------------------------===//
// Tie-heavy synthetic metrics: distances drawn from a 5-value grid, so
// nearly every merge decision is a tie resolved by the canonical order.
//===----------------------------------------------------------------------===//

class TieGridEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(TieGridEquivalence, QuantizedDistancesAgree) {
  unsigned Seed = static_cast<unsigned>(GetParam());
  Rng R(Seed * 517u + 3);
  std::size_t N = 20 + (Seed % 3) * 20;
  std::vector<double> D(N * N, 0.0);
  static const double Grid[] = {0.0, 0.25, 0.5, 0.75, 1.0};
  for (std::size_t I = 0; I < N; ++I)
    for (std::size_t J = I + 1; J < N; ++J)
      D[I * N + J] = D[J * N + I] = Grid[R.index(5)];

  expectMatchesOracle(agglomerateDistanceMatrix(N, D), N, D);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TieGridEquivalence, ::testing::Range(0, 24));

//===----------------------------------------------------------------------===//
// Duplicate items: zero-distance pairs everywhere.
//===----------------------------------------------------------------------===//

TEST(ClusteringEquivalence, DuplicateItemsAgree) {
  std::vector<UsageChange> Base = randomCorpus(99, 20);
  std::vector<UsageChange> Changes;
  for (int Copy = 0; Copy < 4; ++Copy)
    Changes.insert(Changes.end(), Base.begin(), Base.end());

  UsageDistCache Cache(Changes);
  std::vector<double> D = pairwiseDistanceMatrix(
      Changes.size(),
      [&](std::size_t I, std::size_t J) { return Cache(I, J); });
  expectMatchesOracle(agglomerateDistanceMatrix(Changes.size(), D),
                      Changes.size(), D);
}

//===----------------------------------------------------------------------===//
// Engine determinism: the threaded matrix and the threaded end-to-end
// wrapper must equal their serial counterparts bit for bit.
//===----------------------------------------------------------------------===//

TEST(ClusteringEquivalence, ThreadedMatrixMatchesSerial) {
  std::vector<UsageChange> Changes = randomCorpus(7, 120);
  UsageDistCache Cache(Changes);
  auto Dist = [&](std::size_t I, std::size_t J) { return Cache(I, J); };

  std::vector<double> Serial =
      pairwiseDistanceMatrix(Changes.size(), Dist, nullptr);
  support::ThreadPool Pool(8);
  std::vector<double> Threaded =
      pairwiseDistanceMatrix(Changes.size(), Dist, &Pool);
  EXPECT_EQ(Serial, Threaded);
}

TEST(ClusteringEquivalence, ThreadCountDoesNotChangeDendrogram) {
  std::vector<UsageChange> Changes = randomCorpus(11, 150);
  ClusteringOptions One;
  One.Threads = 1;
  ClusteringOptions Eight;
  Eight.Threads = 8;
  Dendrogram A = clusterUsageChanges(Changes, One);
  Dendrogram B = clusterUsageChanges(Changes, Eight);
  expectIdenticalTrees(A, B);

  // End to end: the cached, threaded wrapper still encodes the oracle's
  // merges over the serial matrix.
  UsageDistCache Cache(Changes);
  std::vector<double> D = pairwiseDistanceMatrix(
      Changes.size(),
      [&](std::size_t I, std::size_t J) { return Cache(I, J); });
  expectMatchesOracle(B, Changes.size(), D);
}

//===----------------------------------------------------------------------===//
// Small shapes: engine and oracle on the degenerate inputs.
//===----------------------------------------------------------------------===//

TEST(ClusteringEquivalence, TinyInputsAgree) {
  for (std::size_t N : {0u, 1u, 2u, 3u}) {
    std::vector<double> D(N * N, 0.0);
    for (std::size_t I = 0; I < N; ++I)
      for (std::size_t J = I + 1; J < N; ++J)
        D[I * N + J] = D[J * N + I] = 0.5;
    expectMatchesOracle(agglomerateDistanceMatrix(N, D), N, D);
  }
}
