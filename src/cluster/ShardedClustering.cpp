//===- cluster/ShardedClustering.cpp ---------------------------------------===//

#include "cluster/ShardedClustering.h"

#include "cluster/DistanceCache.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <map>
#include <string>

using namespace diffcode;
using namespace diffcode::cluster;
using support::LabelId;

std::vector<LabelId> diffcode::cluster::shardKey(
    const usage::UsageChange &Change, unsigned KeyDepth) {
  const std::vector<support::PathId> *Side =
      !Change.Removed.empty() ? &Change.Removed
      : !Change.Added.empty() ? &Change.Added
                              : nullptr;
  std::vector<LabelId> Key;
  if (!Side || KeyDepth == 0)
    return Key;
  for (LabelId Id : Change.Table->labelsOf(Side->front())) {
    if (Change.Table->labelAt(Id).K != usage::NodeLabel::Kind::Method)
      continue;
    Key.push_back(Id);
    if (Key.size() == KeyDepth)
      break;
  }
  return Key;
}

std::vector<std::vector<std::size_t>> diffcode::cluster::partitionIntoShards(
    const std::vector<usage::UsageChange> &Changes,
    const ShardingOptions &Opts) {
  const support::Interner *Table = nullptr;
  for (const usage::UsageChange &Change : Changes)
    if (Change.Table) {
      Table = Change.Table;
      break;
    }

  // Group by the id tuple (integer compares only); items per group stay
  // ascending because we insert in index order.
  std::map<std::vector<LabelId>, std::vector<std::size_t>> Groups;
  for (std::size_t I = 0; I < Changes.size(); ++I)
    Groups[shardKey(Changes[I], Opts.KeyDepth)].push_back(I);

  // Canonical group order = the key's rendered method texts, compared as
  // a joined string with a below-printable separator — id values are
  // assignment-order dependent and must not leak into shard layout.
  // Distinct method label ids always carry distinct texts (every other
  // NodeLabel field is fixed for methods), so this order is strict.
  std::vector<std::pair<std::string, const std::vector<std::size_t> *>>
      Ordered;
  Ordered.reserve(Groups.size());
  for (const auto &[Key, Items] : Groups) {
    std::string Text;
    for (std::size_t I = 0; I < Key.size(); ++I) {
      if (I != 0)
        Text += '\x1f';
      Text += Table->labelAt(Key[I]).Text;
    }
    Ordered.emplace_back(std::move(Text), &Items);
  }
  std::sort(Ordered.begin(), Ordered.end(),
            [](const auto &A, const auto &B) { return A.first < B.first; });

  const std::size_t Cap = Opts.MaxShardSize; // 0 = unlimited
  std::vector<std::vector<std::size_t>> Shards;
  Shards.emplace_back();
  for (const auto &Entry : Ordered) {
    const std::vector<std::size_t> &Items = *Entry.second;
    std::size_t Pos = 0;
    while (Pos < Items.size()) {
      // Oversized key groups split into cap-sized slices; slices of
      // different groups pack together while the cap allows.
      std::size_t Slice =
          Cap == 0 ? Items.size() - Pos : std::min(Cap, Items.size() - Pos);
      if (Cap != 0 && !Shards.back().empty() &&
          Shards.back().size() + Slice > Cap)
        Shards.emplace_back();
      Shards.back().insert(Shards.back().end(), Items.begin() + Pos,
                           Items.begin() + Pos + Slice);
      Pos += Slice;
    }
  }
  if (Shards.back().empty())
    Shards.pop_back(); // empty corpus

  for (std::vector<std::size_t> &Shard : Shards)
    std::sort(Shard.begin(), Shard.end());
  // Shard order = minimum-item order, so the merge stage's shard indices
  // follow the same canonical representative order the dense engine uses.
  std::sort(Shards.begin(), Shards.end(),
            [](const auto &A, const auto &B) { return A.front() < B.front(); });
  return Shards;
}

Dendrogram diffcode::cluster::clusterUsageChangesSharded(
    const std::vector<usage::UsageChange> &Changes,
    const ClusteringOptions &Opts, ShardingStats *Stats) {
  const ShardingOptions &SOpts = Opts.Sharding;
  const std::size_t N = Changes.size();
  if (Stats)
    *Stats = ShardingStats();
  if (N == 0)
    return agglomerateDistanceMatrix(0, {});

  std::vector<std::vector<std::size_t>> Shards =
      partitionIntoShards(Changes, SOpts);
  const std::size_t S = Shards.size();

  // Distance-matrix memory accounting: a live counter and its high-water
  // mark. Only matrices count — the memoised caches are bounded
  // separately (DistanceCache.h).
  std::atomic<std::size_t> LiveBytes{0};
  std::atomic<std::size_t> PeakBytes{0};
  auto TrackAlloc = [&](std::size_t Bytes) {
    std::size_t Live = LiveBytes.fetch_add(Bytes) + Bytes;
    std::size_t Peak = PeakBytes.load();
    while (Live > Peak && !PeakBytes.compare_exchange_weak(Peak, Live)) {
    }
  };
  auto TrackFree = [&](std::size_t Bytes) { LiveBytes.fetch_sub(Bytes); };

  struct ShardResult {
    Dendrogram Tree;               ///< Over shard-local indices.
    std::vector<std::size_t> Reps; ///< Global item ids, ascending.
  };
  std::vector<ShardResult> Results(S);

  // Stage 1: exact NN-chain per shard. Shards run in parallel; inside a
  // worker everything is serial, so thread count changes scheduling
  // only, never bytes (each result lands in its own slot).
  support::ThreadPool Pool(SOpts.Threads);
  Pool.parallelForChunked(S, 1, [&](std::size_t Begin, std::size_t Stop) {
    for (std::size_t Si = Begin; Si < Stop; ++Si) {
      const std::vector<std::size_t> &Items = Shards[Si];
      std::vector<usage::UsageChange> Subset;
      Subset.reserve(Items.size());
      for (std::size_t Item : Items)
        Subset.push_back(Changes[Item]);
      UsageDistCache Cache(Subset, nullptr);
      std::size_t Bytes = Items.size() * Items.size() * sizeof(double);
      TrackAlloc(Bytes);
      std::vector<double> D = pairwiseDistanceMatrix(
          Items.size(),
          [&Cache](std::size_t I, std::size_t J) { return Cache(I, J); },
          nullptr);
      Results[Si].Tree =
          agglomerateDistanceMatrix(Items.size(), std::move(D));
      TrackFree(Bytes);

      // Elect representatives: the minimum global item of each flat
      // sub-cluster at the representative cut, largest sub-clusters
      // first (cut() orders them), capped per shard.
      std::vector<std::vector<std::size_t>> Flat =
          Results[Si].Tree.cut(SOpts.RepresentativeCut);
      std::size_t Take = SOpts.MaxRepsPerShard == 0
                             ? Flat.size()
                             : std::min(SOpts.MaxRepsPerShard, Flat.size());
      for (std::size_t C = 0; C < Take; ++C) {
        std::size_t MinLocal = *std::min_element(Flat[C].begin(), Flat[C].end());
        Results[Si].Reps.push_back(Items[MinLocal]);
      }
      std::sort(Results[Si].Reps.begin(), Results[Si].Reps.end());
    }
  });

  // Graft the shard trees into one node array laid out exactly like the
  // dense engine's: all N leaves first (leaf node I carries item I),
  // then merge nodes. Local leaf l of shard Si is global node Items[l];
  // children always precede their parent in a shard tree, so a single
  // forward pass remaps each tree.
  Dendrogram Out;
  Out.NumLeaves = N;
  Out.Nodes.reserve(2 * N);
  for (std::size_t I = 0; I < N; ++I) {
    Dendrogram::Node Leaf;
    Leaf.Item = I;
    Out.Nodes.push_back(Leaf);
  }
  std::vector<int> ShardRoot(S);
  for (std::size_t Si = 0; Si < S; ++Si) {
    const std::vector<std::size_t> &Items = Shards[Si];
    const Dendrogram &T = Results[Si].Tree;
    std::vector<int> Map(T.nodes().size());
    for (std::size_t Node = 0; Node < T.nodes().size(); ++Node) {
      const Dendrogram::Node &Src = T.nodes()[Node];
      if (Src.isLeaf()) {
        Map[Node] = static_cast<int>(Items[Src.Item]);
        continue;
      }
      Dendrogram::Node Merge;
      Merge.Left = Map[Src.Left];
      Merge.Right = Map[Src.Right];
      Merge.Height = Src.Height;
      Map[Node] = static_cast<int>(Out.Nodes.size());
      Out.Nodes.push_back(Merge);
    }
    ShardRoot[Si] = Map[static_cast<std::size_t>(T.root())];
  }

  if (Stats) {
    Stats->NumShards = S;
    Stats->ShardSizes.reserve(S);
    for (const std::vector<std::size_t> &Shard : Shards) {
      Stats->LargestShard = std::max(Stats->LargestShard, Shard.size());
      Stats->ShardSizes.push_back(Shard.size());
    }
  }

  if (S == 1) {
    // One shard is the dense engine verbatim (identity item map), so the
    // grafted array is byte-identical to clusterUsageChanges.
    Out.Root = ShardRoot[0];
    if (Stats) {
      Stats->Representatives = Results[0].Reps.size();
      Stats->PeakMatrixBytes = PeakBytes.load();
    }
    return Out;
  }

  // Stage 2: agglomerate the shards themselves. Cross-shard linkage is
  // complete linkage restricted to representative pairs — a lower bound
  // of the true max over all member pairs — under the canonical
  // (dist, min-rep, max-rep) order: shard indices follow minimum-item
  // order, so the dense engine's tie-breaking argument carries over.
  std::vector<std::size_t> AllReps;
  std::vector<std::pair<std::size_t, std::size_t>> RepSpan(S); // begin, count
  for (std::size_t Si = 0; Si < S; ++Si) {
    RepSpan[Si] = {AllReps.size(), Results[Si].Reps.size()};
    AllReps.insert(AllReps.end(), Results[Si].Reps.begin(),
                   Results[Si].Reps.end());
  }
  std::vector<usage::UsageChange> RepChanges;
  RepChanges.reserve(AllReps.size());
  for (std::size_t Rep : AllReps)
    RepChanges.push_back(Changes[Rep]);

  const std::size_t R = AllReps.size();
  UsageDistCache RepCache(RepChanges, &Pool);
  std::size_t MergeBytes = (R * R + S * S) * sizeof(double);
  TrackAlloc(MergeBytes);
  std::vector<double> RepD = pairwiseDistanceMatrix(
      R, [&RepCache](std::size_t I, std::size_t J) { return RepCache(I, J); },
      &Pool);
  std::vector<double> ShardD(S * S, 0.0);
  for (std::size_t A = 0; A < S; ++A)
    for (std::size_t B = A + 1; B < S; ++B) {
      double Linkage = 0.0;
      for (std::size_t I = 0; I < RepSpan[A].second; ++I)
        for (std::size_t J = 0; J < RepSpan[B].second; ++J)
          Linkage = std::max(
              Linkage, RepD[(RepSpan[A].first + I) * R + RepSpan[B].first + J]);
      ShardD[A * S + B] = ShardD[B * S + A] = Linkage;
    }
  RepD = std::vector<double>();
  Dendrogram MergeTree = agglomerateDistanceMatrix(S, std::move(ShardD));
  TrackFree(MergeBytes);

  // Replay the shard-level merges over the grafted subtrees. Estimated
  // linkages can undershoot a subtree's own height, so clamp each merge
  // to its children — the corpus dendrogram stays monotone.
  std::vector<int> MergeMap(MergeTree.nodes().size());
  for (std::size_t Node = 0; Node < MergeTree.nodes().size(); ++Node) {
    const Dendrogram::Node &Src = MergeTree.nodes()[Node];
    if (Src.isLeaf()) {
      MergeMap[Node] = ShardRoot[Src.Item];
      continue;
    }
    Dendrogram::Node Merge;
    Merge.Left = MergeMap[Src.Left];
    Merge.Right = MergeMap[Src.Right];
    Merge.Height = std::max(Src.Height,
                            std::max(Out.Nodes[Merge.Left].Height,
                                     Out.Nodes[Merge.Right].Height));
    MergeMap[Node] = static_cast<int>(Out.Nodes.size());
    Out.Nodes.push_back(Merge);
  }
  Out.Root = MergeMap[static_cast<std::size_t>(MergeTree.root())];

  if (Stats) {
    Stats->Representatives = R;
    Stats->PeakMatrixBytes = PeakBytes.load();
  }
  return Out;
}
