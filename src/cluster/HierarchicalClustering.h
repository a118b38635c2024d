//===- cluster/HierarchicalClustering.h - Complete-linkage clustering ------===//
//
// Part of the DiffCode project, a reproduction of "Inferring Crypto API
// Rules from Code Changes" (PLDI'18).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Agglomerative hierarchical clustering with complete linkage
/// (Section 4.3): start with one leaf per usage change, repeatedly merge
/// the two clusters with minimal linkage
///
///   clusterDist(X, Y) = max_{c1 in X, c2 in Y} usageDist(c1, c2),
///
/// recording every merge in a dendrogram. The dendrogram can be cut at a
/// threshold to obtain flat clusters and rendered as ASCII art for manual
/// rule elicitation (Figure 8).
///
/// Agglomeration runs the nearest-neighbor-chain algorithm, exact for
/// complete linkage (a reducible dissimilarity) and O(n^2) after the
/// distance matrix. A canonical tie-breaking rule (DESIGN.md "Clustering
/// engine") makes the dendrogram unique; the O(n^3) greedy reference in
/// tests/oracles checks the engine against it.
///
/// The pairwise distance matrix is computed in parallel blocks over a
/// support::ThreadPool; results are deterministic for any thread count.
///
//===----------------------------------------------------------------------===//

#ifndef DIFFCODE_CLUSTER_HIERARCHICALCLUSTERING_H
#define DIFFCODE_CLUSTER_HIERARCHICALCLUSTERING_H

#include "usage/UsageChange.h"

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

namespace diffcode {
namespace support {
class ThreadPool;
} // namespace support

namespace cluster {

/// Sharded-clustering knobs (cluster/ShardedClustering.h). At paper
/// scale (n=11,551 Cipher changes) the dense distance matrix alone is
/// ~1 GiB; sharding caps matrix memory at the largest shard plus the
/// representative matrix, at the cost of approximating cross-shard
/// linkages from per-shard representatives.
struct ShardingOptions {
  /// Master switch. Disabled (the default) leaves every clustering path
  /// bit-identical to the unsharded engine.
  bool Enabled = false;
  /// Largest number of usage changes per shard; 0 = unlimited, which
  /// packs the whole corpus into one shard and therefore reproduces the
  /// unsharded dendrogram byte for byte.
  std::size_t MaxShardSize = 512;
  /// How many leading method labels of a change's first feature path
  /// form its canopy key; 0 keys every change identically.
  unsigned KeyDepth = 1;
  /// Threads over shards (each shard clusters serially inside its
  /// worker); resolved by support::resolveThreads.
  unsigned Threads = 1;
};

/// What the sharded engine did, for reports and benchmarks.
struct ShardingStats {
  std::size_t NumShards = 0; ///< 0 when the sharded engine did not run.
  std::size_t LargestShard = 0;
  std::size_t Representatives = 0;
  /// High-water mark of concurrently allocated distance-matrix bytes
  /// (per-shard matrices across workers, then the representative and
  /// shard-linkage matrices).
  std::size_t PeakMatrixBytes = 0;
  /// Item count of every shard, in canonical shard order; feeds the
  /// observability layer's shard-size histogram.
  std::vector<std::size_t> ShardSizes;
};

/// Clustering engine knobs.
struct ClusteringOptions {
  /// Threads for the pairwise distance matrix and cache warm-up
  /// (support::resolveThreads semantics). The dendrogram is identical
  /// for every value.
  unsigned Threads = 1;
  /// Shard-and-merge engine for corpora whose dense matrix would not
  /// fit; clusterUsageChanges dispatches on Sharding.Enabled.
  ShardingOptions Sharding;
};

/// Binary merge tree over clustered items.
class Dendrogram {
public:
  struct Node {
    int Left = -1;  ///< Child node index, or -1 for a leaf.
    int Right = -1;
    std::size_t Item = static_cast<std::size_t>(-1); ///< Leaf payload.
    double Height = 0.0; ///< Linkage distance at the merge (0 for leaves).

    bool isLeaf() const { return Left < 0; }
  };

  /// Number of clustered items (leaves).
  std::size_t leafCount() const { return NumLeaves; }
  const std::vector<Node> &nodes() const { return Nodes; }
  int root() const { return Root; }
  bool empty() const { return Nodes.empty(); }

  /// Flat clusters: cut every merge with Height > \p Threshold. Each
  /// cluster is a list of item indices; clusters ordered by size
  /// (descending) for readability.
  std::vector<std::vector<std::size_t>> cut(double Threshold) const;

  /// ASCII rendering; \p LeafLabel maps an item index to display text
  /// (may be multi-line — continuation lines are indented).
  std::string render(
      const std::function<std::string(std::size_t)> &LeafLabel) const;

private:
  friend Dendrogram agglomerateDistanceMatrix(std::size_t,
                                              std::vector<double>);
  /// The sharded engine (cluster/ShardedClustering.cpp) grafts shard
  /// trees and representative-level merges into one node array.
  friend Dendrogram
  clusterUsageChangesSharded(const std::vector<usage::UsageChange> &,
                             const ClusteringOptions &, ShardingStats *);

  std::vector<Node> Nodes;
  int Root = -1;
  std::size_t NumLeaves = 0;

  void collectLeaves(int Index, std::vector<std::size_t> &Out) const;
};

/// Row-major NumItems x NumItems pairwise distance matrix (diagonal 0,
/// symmetric). Rows are computed in parallel when \p Pool (may be null)
/// has workers; every entry is computed exactly once, so the result is
/// deterministic for any thread count.
std::vector<double> pairwiseDistanceMatrix(
    std::size_t NumItems,
    const std::function<double(std::size_t, std::size_t)> &Dist,
    support::ThreadPool *Pool = nullptr);

/// Complete-linkage agglomeration of a precomputed distance matrix
/// (row-major NumItems^2, consumed). Merge nodes are appended in
/// ascending canonical merge order, so node creation order equals merge
/// order; each merge node's Left subtree holds the smaller minimum item.
Dendrogram agglomerateDistanceMatrix(std::size_t NumItems,
                                     std::vector<double> Matrix);

/// Convenience wrapper clustering usage changes by usageDist, memoised
/// through cluster::UsageDistCache. Dispatches to the shard-and-merge
/// engine (cluster/ShardedClustering.h) when Opts.Sharding.Enabled.
Dendrogram clusterUsageChanges(const std::vector<usage::UsageChange> &Changes,
                               const ClusteringOptions &Opts =
                                   ClusteringOptions());

} // namespace cluster
} // namespace diffcode

#endif // DIFFCODE_CLUSTER_HIERARCHICALCLUSTERING_H
