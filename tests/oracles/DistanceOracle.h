//===- oracles/DistanceOracle.h - Section 4.3 over materialized paths -----===//
//
// Part of the DiffCode project, a reproduction of "Inferring Crypto API
// Rules from Code Changes" (PLDI'18).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The reference the id-native clustering metric (cluster/DistanceCache.h)
/// is checked against: the three-layer distance of Section 4.3 over owned
/// FeaturePath and NodeLabel values.
///
///   referencePathDist(p1, p2)  — common-prefix + Levenshtein-similarity
///                                ratio of the first diverging labels,
///                                normalized by the longer path;
///   referencePathsDist(F1, F2) — min-cost matching of two path sets
///                                (Hungarian, no shortcuts), unmatched
///                                paths pair with the empty path at
///                                distance 1, normalized by
///                                max(|F1|, |F2|);
///   referenceUsageDist(C1, C2) — average of referencePathsDist over the
///                                materialized removed and added sets.
///
/// Label units follow the paper: characters for string constants; method
/// signatures, integers, bytes, and type names are single units.
///
//===----------------------------------------------------------------------===//

#ifndef DIFFCODE_ORACLES_DISTANCEORACLE_H
#define DIFFCODE_ORACLES_DISTANCEORACLE_H

#include "usage/UsageChange.h"

#include <vector>

namespace diffcode {
namespace cluster {

/// Splits a label into Levenshtein units (see file comment).
std::vector<std::string> referenceLabelUnits(const usage::NodeLabel &Label);

/// Levenshtein similarity ratio between two labels in [0, 1].
double referenceLabelSimilarity(const usage::NodeLabel &A,
                                const usage::NodeLabel &B);

/// pathDist in [0, 1]; 0 iff the paths are identical.
double referencePathDist(const usage::FeaturePath &A,
                         const usage::FeaturePath &B);

/// pathsDist in [0, 1] via min-cost matching; both empty -> 0.
double referencePathsDist(const std::vector<usage::FeaturePath> &F1,
                          const std::vector<usage::FeaturePath> &F2);

/// usageDist in [0, 1] over materialized copies of F- and F+.
double referenceUsageDist(const usage::UsageChange &C1,
                          const usage::UsageChange &C2);

} // namespace cluster
} // namespace diffcode

#endif // DIFFCODE_ORACLES_DISTANCEORACLE_H
