//===- tests/test_dendrogram_export.cpp - DOT export tests -----------------===//

#include "cluster/DendrogramExport.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace diffcode;
using namespace diffcode::cluster;

namespace {

Dendrogram clusterPoints(const std::vector<double> &Points) {
  return agglomerateDistanceMatrix(
      Points.size(),
      pairwiseDistanceMatrix(Points.size(), [&](std::size_t I, std::size_t J) {
        return std::abs(Points[I] - Points[J]) / 100.0;
      }));
}

std::string label(std::size_t Item) {
  return "item" + std::to_string(Item);
}

std::size_t countOccurrences(const std::string &Text,
                             const std::string &Needle) {
  std::size_t Count = 0, Pos = 0;
  while ((Pos = Text.find(Needle, Pos)) != std::string::npos) {
    ++Count;
    Pos += Needle.size();
  }
  return Count;
}

} // namespace

TEST(DendrogramExport, EmptyTree) {
  Dendrogram Empty;
  std::string Dot = toDot(Empty, label);
  EXPECT_NE(Dot.find("digraph"), std::string::npos);
  EXPECT_NE(Dot.find("}"), std::string::npos);
}

TEST(DendrogramExport, StructureMatchesTree) {
  Dendrogram Tree = clusterPoints({0.0, 1.0, 50.0});
  std::string Dot = toDot(Tree, label);
  // 3 leaves + 2 merge nodes; 4 edges.
  EXPECT_EQ(countOccurrences(Dot, "shape=box"), 3u);
  EXPECT_EQ(countOccurrences(Dot, "shape=ellipse"), 2u);
  EXPECT_EQ(countOccurrences(Dot, "->"), 4u);
  EXPECT_NE(Dot.find("item0"), std::string::npos);
  EXPECT_NE(Dot.find("item2"), std::string::npos);
}

TEST(DendrogramExport, ColorsFlatClusters) {
  Dendrogram Tree = clusterPoints({0.0, 1.0, 50.0, 51.0});
  DotOptions Opts;
  Opts.ColorCutThreshold = 0.1;
  std::string Dot = toDot(Tree, label, Opts);
  // Two clusters -> leaves carry fill colors.
  EXPECT_EQ(countOccurrences(Dot, "style=filled"), 4u);
  EXPECT_GE(countOccurrences(Dot, "fillcolor"), 4u);
}

TEST(DendrogramExport, EscapesLabels) {
  Dendrogram Tree = clusterPoints({0.0, 1.0});
  std::string Dot = toDot(Tree, [](std::size_t) {
    return std::string("line1\nwith \"quotes\"");
  });
  EXPECT_NE(Dot.find("line1\\nwith \\\"quotes\\\""), std::string::npos);
}

TEST(DendrogramExport, CustomGraphName) {
  Dendrogram Tree = clusterPoints({0.0});
  DotOptions Opts;
  Opts.GraphName = "cipher_changes";
  std::string Dot = toDot(Tree, label, Opts);
  EXPECT_NE(Dot.find("digraph \"cipher_changes\""), std::string::npos);
}
