//===- usage/UsageChange.cpp -----------------------------------------------===//

#include "usage/UsageChange.h"

#include "support/Hungarian.h"

#include <algorithm>
#include <numeric>

using namespace diffcode;
using namespace diffcode::usage;
using support::Interner;
using support::LabelId;
using support::PathId;

std::string UsageChange::pathString(PathId Id) const {
  return Table->pathString(Id);
}

std::string UsageChange::str() const {
  std::string Out;
  for (PathId Id : Removed)
    Out += "- " + Table->pathString(Id) + "\n";
  for (PathId Id : Added)
    Out += "+ " + Table->pathString(Id) + "\n";
  return Out;
}

UsageChange UsageChange::intern(Interner &Table, std::string TypeName,
                                const std::vector<FeaturePath> &Removed,
                                const std::vector<FeaturePath> &Added,
                                std::string Origin) {
  UsageChange Change;
  Change.TypeName = std::move(TypeName);
  Change.Origin = std::move(Origin);
  Change.Table = &Table;
  Change.Removed.reserve(Removed.size());
  for (const FeaturePath &Path : Removed)
    Change.Removed.push_back(Table.path(Path));
  Change.Added.reserve(Added.size());
  for (const FeaturePath &Path : Added)
    Change.Added.push_back(Table.path(Path));
  return Change;
}

std::vector<PathId>
diffcode::usage::shortestPaths(std::vector<PathId> Paths,
                               const Interner &Table) {
  if (Paths.size() < 2)
    return Paths;

  // Sort (indirectly) by label-id-lexicographic order. Under *any* total
  // order on labels, a sorted sequence places every strict prefix of P
  // before P, and — key to the linear pass — if some kept K1 is a strict
  // prefix of P while K1 <= K2 <= P for the last-kept K2, then K2 is
  // itself a prefix of P: at the first position i where K2 diverges from
  // P, i < |K1| would give P[i] = K1[i] < K2[i], i.e. P < K2. So testing
  // only the last-kept survivor is sufficient. Each sequence is resolved
  // once, as labelsOf takes the table's lock.
  std::vector<const std::vector<LabelId> *> Labels(Paths.size());
  for (std::size_t I = 0; I < Paths.size(); ++I)
    Labels[I] = &Table.labelsOf(Paths[I]);
  std::vector<std::size_t> Order(Paths.size());
  std::iota(Order.begin(), Order.end(), 0);
  std::sort(Order.begin(), Order.end(), [&](std::size_t A, std::size_t B) {
    return *Labels[A] < *Labels[B];
  });

  auto IsStrictPrefix = [](const std::vector<LabelId> &A,
                           const std::vector<LabelId> &B) {
    if (A.size() >= B.size())
      return false;
    return std::equal(A.begin(), A.end(), B.begin());
  };

  // Linear elimination: keep the current path unless the last survivor is
  // a strict prefix of it. Duplicates survive (a path is not a strict
  // prefix of itself), exactly as in the quadratic reference.
  std::vector<bool> Keep(Paths.size(), false);
  std::size_t LastKept = Order[0];
  Keep[LastKept] = true;
  for (std::size_t I = 1; I < Order.size(); ++I) {
    std::size_t Cur = Order[I];
    if (!IsStrictPrefix(*Labels[LastKept], *Labels[Cur])) {
      Keep[Cur] = true;
      LastKept = Cur;
    }
  }

  // Survivors in original input order — the survivor *set* is order
  // independent, so the result does not depend on racy id values.
  std::vector<PathId> Out;
  for (std::size_t I = 0; I < Paths.size(); ++I)
    if (Keep[I])
      Out.push_back(Paths[I]);
  return Out;
}

DagIds DagIds::of(const UsageDag &Dag, Interner &Table) {
  DagIds Out;
  Out.Labels.reserve(Dag.size());
  std::vector<PathId> Visited;
  Visited.reserve(Dag.size());
  // Pre-order walk; each entry carries the path id of its parent node.
  std::vector<std::pair<unsigned, PathId>> Stack = {
      {Dag.root(), Interner::NoPath}};
  while (!Stack.empty()) {
    auto [Index, Parent] = Stack.back();
    Stack.pop_back();
    const UsageDag::Node &Node = Dag.node(Index);
    LabelId Label = Table.label(Node.Label);
    PathId Path = Table.child(Parent, Label);
    Out.Labels.push_back(Label);
    Visited.push_back(Path);
    for (auto It = Node.Children.rbegin(); It != Node.Children.rend(); ++It)
      Stack.emplace_back(*It, Path);
  }

  std::sort(Out.Labels.begin(), Out.Labels.end());
  Out.Labels.erase(std::unique(Out.Labels.begin(), Out.Labels.end()),
                   Out.Labels.end());
  Out.SortedPaths = Visited;
  std::sort(Out.SortedPaths.begin(), Out.SortedPaths.end());
  Out.SortedPaths.erase(
      std::unique(Out.SortedPaths.begin(), Out.SortedPaths.end()),
      Out.SortedPaths.end());
  // Keep each path's first visit, so the order never depends on id values.
  std::vector<bool> Taken(Out.SortedPaths.size(), false);
  Out.Paths.reserve(Out.SortedPaths.size());
  for (PathId Path : Visited) {
    std::size_t Slot = std::lower_bound(Out.SortedPaths.begin(),
                                        Out.SortedPaths.end(), Path) -
                       Out.SortedPaths.begin();
    if (!Taken[Slot]) {
      Taken[Slot] = true;
      Out.Paths.push_back(Path);
    }
  }
  return Out;
}

double diffcode::usage::dagDistance(const DagIds &A, const DagIds &B) {
  std::size_t Common = 0;
  std::size_t I = 0, J = 0;
  while (I < A.Labels.size() && J < B.Labels.size()) {
    if (A.Labels[I] == B.Labels[J]) {
      ++Common;
      ++I;
      ++J;
    } else if (A.Labels[I] < B.Labels[J]) {
      ++I;
    } else {
      ++J;
    }
  }
  std::size_t Union = A.Labels.size() + B.Labels.size() - Common;
  if (Union == 0)
    return 0.0;
  return 1.0 - static_cast<double>(Common) / static_cast<double>(Union);
}

std::vector<PathId> diffcode::usage::removedPaths(const DagIds &G1,
                                                  const DagIds &G2,
                                                  const Interner &Table) {
  std::vector<PathId> OnlyInG1;
  for (PathId Path : G1.Paths)
    if (!std::binary_search(G2.SortedPaths.begin(), G2.SortedPaths.end(),
                            Path))
      OnlyInG1.push_back(Path);
  return shortestPaths(std::move(OnlyInG1), Table);
}

std::vector<std::pair<std::size_t, std::size_t>>
diffcode::usage::pairDags(const std::vector<DagIds> &Old,
                          const std::vector<DagIds> &New) {
  std::vector<std::pair<std::size_t, std::size_t>> Pairs;
  if (Old.empty() && New.empty())
    return Pairs;

  CostMatrix Costs(Old.size(), New.size());
  for (std::size_t R = 0; R < Old.size(); ++R)
    for (std::size_t C = 0; C < New.size(); ++C)
      Costs.at(R, C) = dagDistance(Old[R], New[C]);

  Assignment Result = solveAssignment(Costs);
  std::vector<bool> NewMatched(New.size(), false);
  for (std::size_t R = 0; R < Old.size(); ++R) {
    std::size_t C = Result.RowToCol[R];
    Pairs.emplace_back(R, C);
    if (C != Assignment::Unmatched)
      NewMatched[C] = true;
  }
  for (std::size_t C = 0; C < New.size(); ++C)
    if (!NewMatched[C])
      Pairs.emplace_back(Assignment::Unmatched, C);
  return Pairs;
}

std::vector<UsageChange>
diffcode::usage::deriveUsageChanges(const std::vector<UsageDag> &Old,
                                    const std::vector<UsageDag> &New,
                                    const std::string &TypeName,
                                    Interner &Table) {
  std::vector<UsageChange> Changes;
  if (Old.empty() && New.empty())
    return Changes;
  std::vector<DagIds> OldIds, NewIds;
  for (const UsageDag &Dag : Old)
    OldIds.push_back(DagIds::of(Dag, Table));
  for (const UsageDag &Dag : New)
    NewIds.push_back(DagIds::of(Dag, Table));
  const DagIds Padding = DagIds::of(UsageDag::emptyFor(TypeName), Table);

  for (auto [OldIdx, NewIdx] : pairDags(OldIds, NewIds)) {
    bool OldPadded = OldIdx == Assignment::Unmatched;
    const DagIds &G1 = OldPadded ? Padding : OldIds[OldIdx];
    const DagIds &G2 =
        NewIdx == Assignment::Unmatched ? Padding : NewIds[NewIdx];
    UsageChange Change;
    Change.TypeName = OldPadded ? TypeName : Old[OldIdx].typeName();
    Change.Table = &Table;
    Change.Removed = removedPaths(G1, G2, Table);
    Change.Added = removedPaths(G2, G1, Table);
    Changes.push_back(std::move(Change));
  }
  return Changes;
}
