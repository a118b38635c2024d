//===- cluster/ShardedClustering.h - Shard-and-merge clustering ------------===//
//
// Part of the DiffCode project, a reproduction of "Inferring Crypto API
// Rules from Code Changes" (PLDI'18).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Sharded complete-linkage clustering for paper-scale corpora
/// (DESIGN.md "Sharding and the stage API"). The dense engine needs an
/// n^2 distance matrix; at the paper's n=11,551 `Cipher` changes that is
/// ~1 GiB of doubles, so this engine:
///
///   1. partitions the corpus into shards by a cheap canopy key (the
///      leading method labels of each change's first feature path),
///      packing key groups into shards of at most MaxShardSize items;
///   2. runs the exact NN-chain engine per shard, in parallel over a
///      support::ThreadPool (each shard's matrix lives only while its
///      worker runs);
///   3. merges the shard dendrograms into one corpus dendrogram by
///      agglomerating the shards themselves, with cross-shard linkage
///      estimated as complete linkage over per-shard representatives
///      (one per flat sub-cluster at the representative cut)
///      under the same canonical (dist, min-rep, max-rep) tie-breaking
///      as the dense engine.
///
/// Within-shard structure is exact — identical to the dense engine
/// restricted to the shard — and the whole result is deterministic at
/// any thread count. Cross-shard merge heights are lower bounds of the
/// true complete linkage (a max over representative pairs instead of all
/// pairs), clamped to keep the dendrogram monotone; the differential
/// bound on flat-cluster divergence is asserted by
/// tests/test_sharded_clustering.cpp and documented in DESIGN.md.
///
//===----------------------------------------------------------------------===//

#ifndef DIFFCODE_CLUSTER_SHARDEDCLUSTERING_H
#define DIFFCODE_CLUSTER_SHARDEDCLUSTERING_H

#include "cluster/HierarchicalClustering.h"
#include "support/Interner.h"

#include <cstddef>
#include <vector>

namespace diffcode {
namespace cluster {

/// Canopy key of one usage change: the label ids of the first
/// \p KeyDepth method labels of its first feature path (first removed
/// path, else first added path). Changes with no paths key to the empty
/// tuple. O(KeyDepth) integer reads — no distance evaluation, no string
/// construction.
std::vector<support::LabelId> shardKey(const usage::UsageChange &Change,
                                       unsigned KeyDepth);

/// Deterministic partition of item indices [0, Changes.size()) into
/// shards: group by shardKey, order groups by the key's *rendered label
/// texts* (id values are racy across runs; texts are not), split
/// oversized groups into MaxShardSize slices, pack slices into shards up
/// to the cap, and order shards by minimum item. Every shard's item list
/// is ascending; MaxShardSize == 0 yields a single shard holding 0..n-1.
std::vector<std::vector<std::size_t>>
partitionIntoShards(const std::vector<usage::UsageChange> &Changes,
                    const ShardingOptions &Opts);

/// Shard-and-merge counterpart of clusterUsageChanges: same leaf items
/// (global indices), exact within-shard structure, representative-based
/// cross-shard merges. With a single shard (MaxShardSize == 0 or
/// n <= MaxShardSize and one key group) the result is byte-identical to
/// the unsharded engine. \p Stats (may be null) receives shard counts
/// and the peak distance-matrix footprint.
Dendrogram
clusterUsageChangesSharded(const std::vector<usage::UsageChange> &Changes,
                           const ClusteringOptions &Opts,
                           ShardingStats *Stats = nullptr);

} // namespace cluster
} // namespace diffcode

#endif // DIFFCODE_CLUSTER_SHARDEDCLUSTERING_H
