//===- tests/test_clustering.cpp - Hierarchical clustering tests -----------===//

#include "cluster/HierarchicalClustering.h"

#include "cluster/DistanceCache.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

using namespace diffcode;
using namespace diffcode::cluster;

namespace {

/// Points on a line; distance = |a - b| / 100 to stay within [0,1].
Dendrogram clusterPoints(const std::vector<double> &Points) {
  return agglomerateDistanceMatrix(
      Points.size(),
      pairwiseDistanceMatrix(Points.size(), [&](std::size_t I, std::size_t J) {
        return std::abs(Points[I] - Points[J]) / 100.0;
      }));
}

std::set<std::set<std::size_t>>
asSets(const std::vector<std::vector<std::size_t>> &Clusters) {
  std::set<std::set<std::size_t>> Out;
  for (const auto &Cluster : Clusters)
    Out.insert(std::set<std::size_t>(Cluster.begin(), Cluster.end()));
  return Out;
}

} // namespace

TEST(Clustering, EmptyInput) {
  Dendrogram Tree = agglomerateDistanceMatrix(0, {});
  EXPECT_TRUE(Tree.empty());
  EXPECT_TRUE(Tree.cut(0.5).empty());
}

TEST(Clustering, SingleItem) {
  Dendrogram Tree = clusterPoints({1.0});
  EXPECT_EQ(Tree.leafCount(), 1u);
  auto Clusters = Tree.cut(0.0);
  ASSERT_EQ(Clusters.size(), 1u);
  EXPECT_EQ(Clusters[0], std::vector<std::size_t>{0});
}

TEST(Clustering, TwoWellSeparatedGroups) {
  // {0, 1, 2} near zero, {50, 51} far away.
  Dendrogram Tree = clusterPoints({0.0, 1.0, 2.0, 50.0, 51.0});
  auto Clusters = asSets(Tree.cut(0.1)); // threshold 10 units
  EXPECT_EQ(Clusters.size(), 2u);
  EXPECT_TRUE(Clusters.count({0, 1, 2}));
  EXPECT_TRUE(Clusters.count({3, 4}));
}

TEST(Clustering, CutAtZeroSeparatesDistinctItems) {
  Dendrogram Tree = clusterPoints({0.0, 5.0, 10.0});
  EXPECT_EQ(Tree.cut(0.0).size(), 3u);
}

TEST(Clustering, CutAboveMaxMergesAll) {
  Dendrogram Tree = clusterPoints({0.0, 5.0, 10.0, 80.0});
  auto Clusters = Tree.cut(1.0);
  ASSERT_EQ(Clusters.size(), 1u);
  EXPECT_EQ(Clusters[0].size(), 4u);
}

TEST(Clustering, CompleteLinkageUsesMaxPairDistance) {
  // Chain 0-4-8: single linkage would merge everything at 4; complete
  // linkage merges {0,4} at 4 then {0,4,8} at 8.
  Dendrogram Tree = clusterPoints({0.0, 4.0, 8.0});
  const auto &Nodes = Tree.nodes();
  // Two merge nodes exist after the three leaves.
  ASSERT_EQ(Nodes.size(), 5u);
  EXPECT_DOUBLE_EQ(Nodes[3].Height, 0.04);
  EXPECT_DOUBLE_EQ(Nodes[4].Height, 0.08);
}

TEST(Clustering, MergeHeightsAreMonotone) {
  Rng R(99);
  std::vector<double> Points;
  for (int I = 0; I < 30; ++I)
    Points.push_back(static_cast<double>(R.range(0, 100)));
  Dendrogram Tree = clusterPoints(Points);
  // Complete linkage is monotone: each successive merge has height >= the
  // previous one (creation order == merge order in our builder).
  double Last = 0.0;
  for (const auto &Node : Tree.nodes()) {
    if (Node.isLeaf())
      continue;
    EXPECT_GE(Node.Height + 1e-12, Last);
    Last = Node.Height;
  }
}

TEST(Clustering, EveryLeafInExactlyOneCluster) {
  Rng R(7);
  std::vector<double> Points;
  for (int I = 0; I < 25; ++I)
    Points.push_back(static_cast<double>(R.range(0, 100)));
  Dendrogram Tree = clusterPoints(Points);
  for (double Threshold : {0.0, 0.05, 0.2, 0.5, 1.0}) {
    auto Clusters = Tree.cut(Threshold);
    std::vector<bool> Seen(Points.size(), false);
    for (const auto &Cluster : Clusters)
      for (std::size_t Item : Cluster) {
        EXPECT_FALSE(Seen[Item]);
        Seen[Item] = true;
      }
    EXPECT_TRUE(std::all_of(Seen.begin(), Seen.end(),
                            [](bool B) { return B; }));
  }
}

TEST(Clustering, ClustersSortedBySize) {
  Dendrogram Tree = clusterPoints({0.0, 1.0, 2.0, 90.0});
  auto Clusters = Tree.cut(0.1);
  ASSERT_GE(Clusters.size(), 2u);
  for (std::size_t I = 1; I < Clusters.size(); ++I)
    EXPECT_GE(Clusters[I - 1].size(), Clusters[I].size());
}

TEST(Clustering, RenderShowsLeavesAndHeights) {
  Dendrogram Tree = clusterPoints({0.0, 1.0});
  std::string Art = Tree.render([](std::size_t Item) {
    return "item" + std::to_string(Item);
  });
  EXPECT_NE(Art.find("item0"), std::string::npos);
  EXPECT_NE(Art.find("item1"), std::string::npos);
  EXPECT_NE(Art.find("[0.010]"), std::string::npos);
}

TEST(Clustering, RenderIndentsMultilineLabels) {
  Dendrogram Tree = clusterPoints({0.0, 1.0});
  std::string Art = Tree.render([](std::size_t Item) {
    return "- removed\n+ added " + std::to_string(Item);
  });
  EXPECT_NE(Art.find("- removed"), std::string::npos);
  EXPECT_NE(Art.find("+ added"), std::string::npos);
}

TEST(Clustering, UsageChangeWrapperGroupsSimilarFixes) {
  using namespace diffcode::usage;
  using namespace diffcode::analysis;
  static support::Interner Table;
  auto MakeChange = [](const char *From, const char *To) {
    return UsageChange::intern(
        Table, "Cipher",
        {{NodeLabel::root("Cipher"), NodeLabel::method("Cipher.getInstance/1"),
          NodeLabel::arg(1, AbstractValue::strConst(From))}},
        {{NodeLabel::root("Cipher"), NodeLabel::method("Cipher.getInstance/1"),
          NodeLabel::arg(1, AbstractValue::strConst(To))}});
  };
  std::vector<UsageChange> Changes = {
      MakeChange("AES", "AES/CBC/PKCS5Padding"),
      MakeChange("AES/ECB", "AES/CBC/PKCS5Padding"),
      MakeChange("AES", "AES/GCM/NoPadding"),
  };
  // A fourth, very different change (digest swap).
  Changes.push_back(UsageChange::intern(
      Table, "Cipher",
      {{NodeLabel::root("Cipher"), NodeLabel::method("Cipher.doFinal/0")}},
      {{NodeLabel::root("Cipher"), NodeLabel::method("Cipher.unwrap/3")}}));

  Dendrogram Tree = clusterUsageChanges(Changes);
  // The three mode fixes must merge before the unrelated change joins.
  auto Clusters = asSets(Tree.cut(0.6));
  bool FoundModeCluster = false;
  for (const auto &Cluster : Clusters)
    if (Cluster.count(0) && Cluster.count(1) && Cluster.count(2) &&
        !Cluster.count(3))
      FoundModeCluster = true;
  EXPECT_TRUE(FoundModeCluster);
}
