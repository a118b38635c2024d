//===- oracles/UsageOracle.h - Section 3.5 over materialized paths ---------===//
//
// Part of the DiffCode project, a reproduction of "Inferring Crypto API
// Rules from Code Changes" (PLDI'18).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The reference the id-native usage diff (usage/UsageChange.h) is
/// checked against. Everything here works on owned FeaturePath and
/// NodeLabel values and compares them structurally (NodeLabel::operator==
/// and operator<), never through rendered strings and never through an
/// interner: Paths, Shortest, Removed and the IoU pairing straight from
/// their Section 3.5 definitions, plus DAG isomorphism by canonical form.
/// The materializers at the end turn an interned change back into owned
/// paths, so tests can compare it with these references.
///
//===----------------------------------------------------------------------===//

#ifndef DIFFCODE_ORACLES_USAGEORACLE_H
#define DIFFCODE_ORACLES_USAGEORACLE_H

#include "usage/UsageChange.h"
#include "usage/UsageDag.h"

#include <string>
#include <vector>

namespace diffcode {
namespace usage {

/// Display form of a path: the labels' str() joined by single spaces,
/// e.g. "Cipher Cipher.getInstance arg1:AES".
std::string pathToString(const FeaturePath &Path);

/// Paths(G): every root-to-node label sequence, each distinct sequence
/// once, in the order a pre-order walk first reaches it.
std::vector<FeaturePath> referencePaths(const UsageDag &Dag);

/// The DAG's distinct node labels, in NodeLabel::operator< order.
std::vector<NodeLabel> referenceLabelSet(const UsageDag &Dag);

/// 1 - |N1 n N2| / |N1 u N2| over referenceLabelSet.
double referenceDagDistance(const UsageDag &A, const UsageDag &B);

/// Shortest(P) by definition: the paths with no strict prefix in
/// \p Paths, in input order (duplicates survive).
std::vector<FeaturePath> referenceShortest(const std::vector<FeaturePath> &Paths);

/// Removed(G1, G2) = Shortest(Paths(G1) \ Paths(G2)).
std::vector<FeaturePath> referenceRemoved(const UsageDag &G1,
                                          const UsageDag &G2);

/// One Diff(G1, G2) with materialized features.
struct ReferenceChange {
  std::string TypeName;
  std::vector<FeaturePath> Removed;
  std::vector<FeaturePath> Added;
};

/// deriveUsageChanges by definition: minimum-total-distance pairing over
/// referenceDagDistance, root-only padding, then Removed both ways.
std::vector<ReferenceChange>
referenceUsageChanges(const std::vector<UsageDag> &Old,
                      const std::vector<UsageDag> &New,
                      const std::string &TypeName);

/// Isomorphism by canonical form: each node's label followed by its
/// children's canonical forms in sorted order.
bool referenceIsomorphic(const UsageDag &A, const UsageDag &B);

/// Rebuilds the owning FeaturePath behind \p Id.
FeaturePath materialize(const support::Interner &Table, support::PathId Id);

/// Materialized copies of a change's F- / F+.
std::vector<FeaturePath> materializeRemoved(const UsageChange &Change);
std::vector<FeaturePath> materializeAdded(const UsageChange &Change);

/// Equality over features only (provenance excluded), the notion the
/// fdup filter uses: integer compares when both changes share one
/// interner, structural comparison across tables (id values depend on
/// assignment order and are never comparable across runs).
bool sameFeatures(const UsageChange &A, const UsageChange &B);

} // namespace usage
} // namespace diffcode

#endif // DIFFCODE_ORACLES_USAGEORACLE_H
