//===- oracles/UsageOracle.cpp ---------------------------------------------===//

#include "oracles/UsageOracle.h"

#include "support/Hungarian.h"

#include <algorithm>
#include <set>

using namespace diffcode;
using namespace diffcode::usage;

std::string diffcode::usage::pathToString(const FeaturePath &Path) {
  std::string Out;
  for (std::size_t I = 0; I < Path.size(); ++I) {
    if (I != 0)
      Out += ' ';
    Out += Path[I].str();
  }
  return Out;
}

namespace {

void collectPaths(const UsageDag &Dag, unsigned Index, FeaturePath &Current,
                  std::set<FeaturePath> &Seen, std::vector<FeaturePath> &Out) {
  Current.push_back(Dag.node(Index).Label);
  if (Seen.insert(Current).second)
    Out.push_back(Current);
  for (unsigned Child : Dag.node(Index).Children)
    collectPaths(Dag, Child, Current, Seen, Out);
  Current.pop_back();
}

/// A subtree with its children in canonical order.
struct Canonical {
  NodeLabel Label;
  std::vector<Canonical> Kids;

  bool operator==(const Canonical &Other) const {
    return Label == Other.Label && Kids == Other.Kids;
  }
  bool operator<(const Canonical &Other) const {
    if (Label < Other.Label)
      return true;
    if (Other.Label < Label)
      return false;
    return Kids < Other.Kids;
  }
};

Canonical canonical(const UsageDag &Dag, unsigned Index) {
  Canonical Out{Dag.node(Index).Label, {}};
  for (unsigned Child : Dag.node(Index).Children)
    Out.Kids.push_back(canonical(Dag, Child));
  std::sort(Out.Kids.begin(), Out.Kids.end());
  return Out;
}

} // namespace

std::vector<FeaturePath> diffcode::usage::referencePaths(const UsageDag &Dag) {
  std::vector<FeaturePath> Out;
  std::set<FeaturePath> Seen;
  FeaturePath Current;
  collectPaths(Dag, Dag.root(), Current, Seen, Out);
  return Out;
}

std::vector<NodeLabel>
diffcode::usage::referenceLabelSet(const UsageDag &Dag) {
  std::set<NodeLabel> Labels;
  for (unsigned I = 0; I < Dag.size(); ++I)
    Labels.insert(Dag.node(I).Label);
  return {Labels.begin(), Labels.end()};
}

double diffcode::usage::referenceDagDistance(const UsageDag &A,
                                             const UsageDag &B) {
  std::vector<NodeLabel> LA = referenceLabelSet(A);
  std::vector<NodeLabel> LB = referenceLabelSet(B);
  std::vector<NodeLabel> Common;
  std::set_intersection(LA.begin(), LA.end(), LB.begin(), LB.end(),
                        std::back_inserter(Common));
  std::size_t Union = LA.size() + LB.size() - Common.size();
  if (Union == 0)
    return 0.0;
  return 1.0 - static_cast<double>(Common.size()) / static_cast<double>(Union);
}

std::vector<FeaturePath>
diffcode::usage::referenceShortest(const std::vector<FeaturePath> &Paths) {
  auto IsStrictPrefix = [](const FeaturePath &A, const FeaturePath &B) {
    return A.size() < B.size() && std::equal(A.begin(), A.end(), B.begin());
  };
  std::vector<FeaturePath> Out;
  for (const FeaturePath &Candidate : Paths)
    if (std::none_of(Paths.begin(), Paths.end(), [&](const FeaturePath &P) {
          return IsStrictPrefix(P, Candidate);
        }))
      Out.push_back(Candidate);
  return Out;
}

std::vector<FeaturePath> diffcode::usage::referenceRemoved(const UsageDag &G1,
                                                           const UsageDag &G2) {
  std::vector<FeaturePath> InG2 = referencePaths(G2);
  std::vector<FeaturePath> OnlyInG1;
  for (const FeaturePath &Path : referencePaths(G1))
    if (std::find(InG2.begin(), InG2.end(), Path) == InG2.end())
      OnlyInG1.push_back(Path);
  return referenceShortest(OnlyInG1);
}

std::vector<ReferenceChange>
diffcode::usage::referenceUsageChanges(const std::vector<UsageDag> &Old,
                                       const std::vector<UsageDag> &New,
                                       const std::string &TypeName) {
  std::vector<ReferenceChange> Out;
  if (Old.empty() && New.empty())
    return Out;
  CostMatrix Costs(Old.size(), New.size());
  for (std::size_t R = 0; R < Old.size(); ++R)
    for (std::size_t C = 0; C < New.size(); ++C)
      Costs.at(R, C) = referenceDagDistance(Old[R], New[C]);
  Assignment Result = solveAssignment(Costs);

  UsageDag Padding = UsageDag::emptyFor(TypeName);
  auto Diff = [&](const UsageDag &G1, const UsageDag &G2) {
    Out.push_back({G1.typeName(), referenceRemoved(G1, G2),
                   referenceRemoved(G2, G1)});
  };
  std::vector<bool> NewMatched(New.size(), false);
  for (std::size_t R = 0; R < Old.size(); ++R) {
    std::size_t C = Result.RowToCol[R];
    if (C == Assignment::Unmatched) {
      Diff(Old[R], Padding);
    } else {
      Diff(Old[R], New[C]);
      NewMatched[C] = true;
    }
  }
  for (std::size_t C = 0; C < New.size(); ++C)
    if (!NewMatched[C])
      Diff(Padding, New[C]);
  return Out;
}

bool diffcode::usage::referenceIsomorphic(const UsageDag &A,
                                          const UsageDag &B) {
  return canonical(A, A.root()) == canonical(B, B.root());
}

FeaturePath diffcode::usage::materialize(const support::Interner &Table,
                                         support::PathId Id) {
  FeaturePath Out;
  for (support::LabelId Label : Table.labelsOf(Id))
    Out.push_back(Table.labelAt(Label));
  return Out;
}

namespace {

/// \p Table may be null when \p Ids is empty (a change with no features).
std::vector<FeaturePath> materializeAll(const support::Interner *Table,
                                        const std::vector<support::PathId> &Ids) {
  std::vector<FeaturePath> Out;
  Out.reserve(Ids.size());
  for (support::PathId Id : Ids)
    Out.push_back(materialize(*Table, Id));
  return Out;
}

} // namespace

std::vector<FeaturePath>
diffcode::usage::materializeRemoved(const UsageChange &Change) {
  return materializeAll(Change.Table, Change.Removed);
}

std::vector<FeaturePath>
diffcode::usage::materializeAdded(const UsageChange &Change) {
  return materializeAll(Change.Table, Change.Added);
}

bool diffcode::usage::sameFeatures(const UsageChange &A, const UsageChange &B) {
  if (A.TypeName != B.TypeName)
    return false;
  if (A.Table == B.Table)
    return A.Removed == B.Removed && A.Added == B.Added;
  return materializeRemoved(A) == materializeRemoved(B) &&
         materializeAdded(A) == materializeAdded(B);
}
