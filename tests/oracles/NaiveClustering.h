//===- oracles/NaiveClustering.h - O(n^3) complete-linkage reference -------===//
//
// Part of the DiffCode project, a reproduction of "Inferring Crypto API
// Rules from Code Changes" (PLDI'18).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The greedy complete-linkage reference the production
/// nearest-neighbor-chain engine (cluster/HierarchicalClustering.h) is
/// checked against. Both sides are compared as merge lists: the oracle
/// returns its own, and dendrogramMerges reads the list a Dendrogram
/// encodes through its public node array.
///
//===----------------------------------------------------------------------===//

#ifndef DIFFCODE_ORACLES_NAIVECLUSTERING_H
#define DIFFCODE_ORACLES_NAIVECLUSTERING_H

#include "cluster/HierarchicalClustering.h"

#include <cstddef>
#include <ostream>
#include <vector>

namespace diffcode {
namespace cluster {

/// One agglomeration step: the representatives (minimum items) of the
/// two merged clusters, A < B, and their linkage.
struct Merge {
  std::size_t A = 0;
  std::size_t B = 0;
  double Height = 0.0;

  friend bool operator==(const Merge &, const Merge &) = default;
};

std::ostream &operator<<(std::ostream &OS, const Merge &M);

/// The O(n^3) greedy reference over the row-major \p N x \p N matrix
/// \p D: every step recomputes all pairwise linkages as the max over
/// member items of the raw distances and merges the canonical minimum
/// (distance, then smaller representative, then larger). Returns the
/// canonical merge list, in merge order (keys strictly increase).
std::vector<Merge> naiveMerges(std::size_t N, const std::vector<double> &D);

/// The merge list \p Tree encodes: one entry per merge node in node
/// order, naming the minimum item of its Left and Right subtrees. For an
/// engine dendrogram this is the canonical list naiveMerges returns.
std::vector<Merge> dendrogramMerges(const Dendrogram &Tree);

} // namespace cluster
} // namespace diffcode

#endif // DIFFCODE_ORACLES_NAIVECLUSTERING_H
