//===- cluster/DistanceCache.h - Usage-change metric (Sec. 4.3) -----------===//
//
// Part of the DiffCode project, a reproduction of "Inferring Crypto API
// Rules from Code Changes" (PLDI'18).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three-layer distance of Section 4.3, over interned ids:
///
///   pathDist(p1, p2)    — common-prefix + Levenshtein-similarity ratio of
///                         the first diverging labels, normalized by the
///                         longer path;
///   pathsDist(F1, F2)   — min-cost matching of two path sets (Hungarian),
///                         unmatched paths pair with the empty path at
///                         distance 1, normalized by max(|F1|, |F2|)
///                         (normalization is our documented choice — the
///                         paper leaves the sum unnormalized);
///   usageDist(C1, C2)   — average of pathsDist over the removed and the
///                         added feature sets.
///
/// Label units follow the paper (support::Interner::labelUnits):
/// characters for string constants; method signatures, integers, bytes,
/// and type names are single units. The interner splits each distinct
/// label once, so no path is ever materialized to be measured.
///
/// pathDist and pathsDist are written once (DistanceCache.cpp) and run
/// two ways. The free functions below resolve ids through the changes'
/// interner on every call; they serve callers with a handful of pairs
/// (tests and bench/micro_matching). UsageDistCache serves a whole
/// class, and every dendrogram is built over one. It compacts the
/// corpus's global ids to dense local indices and memoises label
/// similarities and path distances in dense tables:
///
///   * the corpus's distinct global label ids -> dense local ids, with
///     unit vectors borrowed from the interner's arena (never copied);
///   * the corpus's distinct global path ids -> dense local ids over
///     local label ids, keeping common-prefix tests integer compares and
///     the tables small enough for the dense bound;
///   * labelSimilarity and pathDist over local id pairs -> dense tables
///     (bounded; larger vocabularies compute on the fly).
///
/// Local ids are derived by sorting global ids, whose values are racy
/// across runs — but no result depends on id *values*: table fills are
/// symmetric value-by-value, and cost matrices follow each change's own
/// path order, so the metric is permutation-invariant (see the interner's
/// determinism contract). The cache therefore equals the free functions
/// bit for bit; tests assert exact equality against both and against the
/// string-space reference in tests/oracles. All cache queries after
/// construction are read-only and therefore thread-safe; construction
/// itself can be parallelised by passing a support::ThreadPool.
///
//===----------------------------------------------------------------------===//

#ifndef DIFFCODE_CLUSTER_DISTANCECACHE_H
#define DIFFCODE_CLUSTER_DISTANCECACHE_H

#include "support/Interner.h"
#include "usage/UsageChange.h"

#include <cstdint>
#include <string>
#include <vector>

namespace diffcode {
namespace support {
class ThreadPool;
} // namespace support

namespace cluster {

/// Levenshtein similarity ratio of two labels' units, in [0, 1].
double labelSimilarity(const support::Interner &Table, support::LabelId A,
                       support::LabelId B);

/// pathDist in [0, 1]; 0 iff the paths are identical.
double pathDist(const support::Interner &Table, support::PathId A,
                support::PathId B);

/// pathsDist in [0, 1] via min-cost matching; both empty -> 0.
double pathsDist(const support::Interner &Table,
                 const std::vector<support::PathId> &F1,
                 const std::vector<support::PathId> &F2);

/// usageDist in [0, 1], uncached. Both changes resolve through one
/// interner (the pipeline invariant).
double usageDist(const usage::UsageChange &C1, const usage::UsageChange &C2);

/// Memoised usageDist evaluator over a fixed corpus of usage changes.
/// All changes must resolve through one shared interner (the pipeline
/// invariant), which must outlive the cache — unit vectors are borrowed
/// from its arena.
class UsageDistCache {
public:
  /// Compacts the corpus's ids and warms the similarity tables; \p Pool
  /// (may be null) parallelises the table fill.
  explicit UsageDistCache(const std::vector<usage::UsageChange> &Changes,
                          support::ThreadPool *Pool = nullptr);

  /// Number of usage changes indexed.
  std::size_t size() const { return Interned.size(); }

  /// Bit-identical equivalent of usageDist(Changes[I], Changes[J]) for
  /// I <= J; symmetric.
  double operator()(std::size_t I, std::size_t J) const;

  std::size_t distinctLabels() const { return Units.size(); }
  std::size_t distinctPaths() const { return PathLabels.size(); }

private:
  struct InternedChange {
    std::vector<std::uint32_t> Removed; ///< Local path ids of F-.
    std::vector<std::uint32_t> Added;   ///< Local path ids of F+.
  };

  double labelSim(std::uint32_t A, std::uint32_t B) const;
  double pathDistById(std::uint32_t A, std::uint32_t B) const;
  double pathDistCached(std::uint32_t A, std::uint32_t B) const;

  std::vector<InternedChange> Interned;
  /// Levenshtein units per local label id, borrowed from the shared
  /// interner's arena (stable for its lifetime).
  std::vector<const std::vector<std::string> *> Units;
  /// Local label-id sequence per local path id.
  std::vector<std::vector<std::uint32_t>> PathLabels;
  /// Dense distinctLabels^2 similarity table; empty when the vocabulary
  /// exceeds the memory bound.
  std::vector<double> LabelSimTable;
  /// Dense distinctPaths^2 pathDist table; empty when over the bound.
  std::vector<double> PathDistTable;
};

} // namespace cluster
} // namespace diffcode

#endif // DIFFCODE_CLUSTER_DISTANCECACHE_H
