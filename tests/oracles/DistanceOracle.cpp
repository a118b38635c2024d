//===- oracles/DistanceOracle.cpp ------------------------------------------===//

#include "oracles/DistanceOracle.h"

#include "oracles/UsageOracle.h"
#include "support/Hungarian.h"
#include "support/StringUtils.h"

#include <algorithm>

using namespace diffcode;
using namespace diffcode::cluster;
using namespace diffcode::usage;

namespace {

std::size_t commonPrefixLen(const FeaturePath &A, const FeaturePath &B) {
  std::size_t N = std::min(A.size(), B.size());
  std::size_t I = 0;
  while (I < N && A[I] == B[I])
    ++I;
  return I;
}

} // namespace

// Written from Section 4.3, not from support::Interner::labelUnits: the
// metric differentials check the production split against this one.
std::vector<std::string>
diffcode::cluster::referenceLabelUnits(const NodeLabel &Label) {
  // A type name (root) or method signature is one unit.
  if (Label.K != NodeLabel::Kind::Arg)
    return {Label.Text};
  // An argument label is the unit "argN" followed by its value: one unit
  // per character for a string constant, one unit for any other value.
  std::vector<std::string> Units = {"arg" + std::to_string(Label.ArgIndex)};
  if (!Label.ValueIsString) {
    Units.push_back(Label.Text);
    return Units;
  }
  for (char C : Label.Text)
    Units.emplace_back(1, C);
  return Units;
}

double diffcode::cluster::referenceLabelSimilarity(const NodeLabel &A,
                                                   const NodeLabel &B) {
  return levenshteinRatio(referenceLabelUnits(A), referenceLabelUnits(B));
}

double diffcode::cluster::referencePathDist(const FeaturePath &A,
                                            const FeaturePath &B) {
  if (A == B)
    return 0.0;
  std::size_t MaxLen = std::max(A.size(), B.size());
  if (MaxLen == 0)
    return 0.0;
  std::size_t J = commonPrefixLen(A, B);
  double Credit = static_cast<double>(J);
  // Partial credit for the first diverging pair of labels, when both
  // paths still have one.
  if (J < A.size() && J < B.size())
    Credit += referenceLabelSimilarity(A[J], B[J]);
  return 1.0 - Credit / static_cast<double>(MaxLen);
}

double
diffcode::cluster::referencePathsDist(const std::vector<FeaturePath> &F1,
                                      const std::vector<FeaturePath> &F2) {
  if (F1.empty() && F2.empty())
    return 0.0;
  std::size_t N = std::max(F1.size(), F2.size());
  CostMatrix Costs(N, N);
  for (std::size_t R = 0; R < N; ++R)
    for (std::size_t C = 0; C < N; ++C) {
      if (R < F1.size() && C < F2.size())
        Costs.at(R, C) = referencePathDist(F1[R], F2[C]);
      else
        Costs.at(R, C) = 1.0; // unmatched path pairs with the empty path
    }
  Assignment Result = solveAssignment(Costs);
  return Result.TotalCost / static_cast<double>(N);
}

double diffcode::cluster::referenceUsageDist(const UsageChange &C1,
                                             const UsageChange &C2) {
  return (referencePathsDist(materializeRemoved(C1), materializeRemoved(C2)) +
          referencePathsDist(materializeAdded(C1), materializeAdded(C2))) /
         2.0;
}
