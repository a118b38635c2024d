//===- usage/UsageChange.h - Usage changes (F-, F+) ------------------------===//
//
// Part of the DiffCode project, a reproduction of "Inferring Crypto API
// Rules from Code Changes" (PLDI'18).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The semantic diff of one paired (old, new) usage DAG: the sets of
/// shortest-removed and shortest-added feature paths (Section 3.5), plus
/// provenance so elicited rules can cite concrete commits.
///
/// Feature paths are stored as dense support::PathId values resolved
/// through a shared support::Interner (DESIGN.md "Interned data model"):
/// path equality is an integer compare, a change is two small id
/// vectors, and strings materialise only at display/emission time. The
/// interner must outlive every change that references it; the pipeline
/// guarantees this by owning one corpus interner per DiffCode instance
/// (pinned into the CorpusReport via shared_ptr).
///
//===----------------------------------------------------------------------===//

#ifndef DIFFCODE_USAGE_USAGECHANGE_H
#define DIFFCODE_USAGE_USAGECHANGE_H

#include "support/Interner.h"
#include "usage/UsageDag.h"

#include <string>
#include <vector>

namespace diffcode {
namespace usage {

/// A usage change Diff(G1, G2) = (F-, F+).
struct UsageChange {
  std::string TypeName; ///< Target API class of the paired DAGs.
  std::vector<support::PathId> Removed; ///< F-: shortest paths only in old.
  std::vector<support::PathId> Added;   ///< F+: shortest paths only in new.
  std::string Origin; ///< Provenance, e.g. "project-17@commit-4".
  /// The table Removed/Added ids resolve through. Raw pointer by design:
  /// changes are copied heavily inside the clustering engine, and a
  /// shared_ptr would serialize those copies on the refcount. Lifetime
  /// is owned one level up (DiffCode / the test fixture).
  const support::Interner *Table = nullptr;

  bool isEmpty() const { return Removed.empty() && Added.empty(); }

  /// Display form of one interned path of this change.
  std::string pathString(support::PathId Id) const;

  /// Multi-line display: "- <path>" / "+ <path>".
  std::string str() const;

  /// Builds a change by interning literal feature paths — the
  /// construction entry point for tests, benches and generators.
  static UsageChange intern(support::Interner &Table, std::string TypeName,
                            const std::vector<FeaturePath> &Removed,
                            const std::vector<FeaturePath> &Added,
                            std::string Origin = std::string());
};

/// Shortest(P): keeps only paths with no strict prefix in \p Paths,
/// preserving input order (duplicates survive — a path is not a *strict*
/// prefix of itself). Single linear elimination pass after an
/// id-lexicographic sort; the survivor set is identical under any label
/// order, so results do not depend on id values.
std::vector<support::PathId> shortestPaths(std::vector<support::PathId> Paths,
                                           const support::Interner &Table);

/// One usage DAG in interned form, the unit Section 3.5 pairs and diffs.
/// deriveUsageChanges converts each DAG once on entry; pairing and
/// diffing then compare integers only.
struct DagIds {
  /// Paths(G): the distinct root-to-node paths, in the order a pre-order
  /// walk first reaches them. Equality is structural (interned ids), so
  /// arg1:"1" and arg1:1 stay two paths.
  std::vector<support::PathId> Paths;
  /// The same ids sorted by value, for membership tests.
  std::vector<support::PathId> SortedPaths;
  /// The distinct node labels sorted by id value: the node-label set of
  /// the intersection-over-union distance.
  std::vector<support::LabelId> Labels;

  /// Interns \p Dag's labels and paths: one label probe and one
  /// Interner::child probe per node.
  static DagIds of(const UsageDag &Dag, support::Interner &Table);
};

/// Intersection-over-union distance between two DAGs (Section 3.5):
/// 1 - |N1 n N2| / |N1 u N2| over node-label sets. Result in [0, 1].
double dagDistance(const DagIds &A, const DagIds &B);

/// Removed(G1, G2) = Shortest(Paths(G1) \ Paths(G2)), in Paths(G1) order.
std::vector<support::PathId> removedPaths(const DagIds &G1, const DagIds &G2,
                                          const support::Interner &Table);

/// Pairs old-version DAGs with new-version DAGs by minimum total
/// dagDistance (Section 3.5), padding the shorter side with root-only
/// DAGs. Returns index pairs (OldIdx, NewIdx); SIZE_MAX denotes a padding
/// partner.
std::vector<std::pair<std::size_t, std::size_t>>
pairDags(const std::vector<DagIds> &Old, const std::vector<DagIds> &New);

/// End-to-end Section 3.5: pair the two versions' DAGs of one target type
/// and diff every pair into Diff(G1, G2) = (Removed(G1,G2),
/// Removed(G2,G1)). A change's TypeName is its old DAG's root type
/// (\p TypeName when the old side is padding). Empty diffs are kept (the
/// fsame filter counts them).
std::vector<UsageChange> deriveUsageChanges(const std::vector<UsageDag> &Old,
                                            const std::vector<UsageDag> &New,
                                            const std::string &TypeName,
                                            support::Interner &Table);

} // namespace usage
} // namespace diffcode

#endif // DIFFCODE_USAGE_USAGECHANGE_H
