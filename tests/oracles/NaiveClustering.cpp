//===- oracles/NaiveClustering.cpp -----------------------------------------===//

#include "oracles/NaiveClustering.h"

#include <algorithm>
#include <limits>
#include <tuple>

using namespace diffcode;
using namespace diffcode::cluster;

std::ostream &diffcode::cluster::operator<<(std::ostream &OS, const Merge &M) {
  return OS << "{" << M.A << ", " << M.B << ", " << M.Height << "}";
}

/// Deliberately independent arithmetic from the production engine (no
/// Lance-Williams updates), so the differential tests exercise two
/// genuinely different code paths.
std::vector<Merge>
diffcode::cluster::naiveMerges(std::size_t N, const std::vector<double> &D) {
  struct Cluster {
    std::size_t MinItem;
    std::vector<std::size_t> Members;
  };
  std::vector<Cluster> Active;
  Active.reserve(N);
  for (std::size_t I = 0; I < N; ++I)
    Active.push_back({I, {I}});

  auto KeyOf = [](const Merge &M) { return std::tie(M.Height, M.A, M.B); };
  std::vector<Merge> Steps;
  while (Active.size() > 1) {
    Merge Best{N, N, std::numeric_limits<double>::infinity()};
    std::size_t BestI = 0, BestJ = 1;
    for (std::size_t I = 0; I < Active.size(); ++I)
      for (std::size_t J = I + 1; J < Active.size(); ++J) {
        double Linkage = 0.0;
        for (std::size_t A : Active[I].Members)
          for (std::size_t B : Active[J].Members)
            Linkage = std::max(Linkage, D[A * N + B]);
        Merge Candidate{std::min(Active[I].MinItem, Active[J].MinItem),
                        std::max(Active[I].MinItem, Active[J].MinItem),
                        Linkage};
        if (KeyOf(Candidate) < KeyOf(Best)) {
          Best = Candidate;
          BestI = I;
          BestJ = J;
        }
      }

    Steps.push_back(Best);
    Cluster Combined;
    Combined.MinItem = Best.A;
    Combined.Members = std::move(Active[BestI].Members);
    Combined.Members.insert(Combined.Members.end(),
                            Active[BestJ].Members.begin(),
                            Active[BestJ].Members.end());
    Active.erase(Active.begin() + BestJ);
    Active.erase(Active.begin() + BestI);
    Active.push_back(std::move(Combined));
  }
  return Steps;
}

std::vector<Merge> diffcode::cluster::dendrogramMerges(const Dendrogram &Tree) {
  const std::vector<Dendrogram::Node> &Nodes = Tree.nodes();
  // Children precede their parent in the node array, so one forward pass
  // knows every subtree's minimum item by the time its parent needs it.
  std::vector<std::size_t> MinItem(Nodes.size());
  std::vector<Merge> Out;
  for (std::size_t I = 0; I < Nodes.size(); ++I) {
    const Dendrogram::Node &Node = Nodes[I];
    if (Node.isLeaf()) {
      MinItem[I] = Node.Item;
      continue;
    }
    Merge M{MinItem[Node.Left], MinItem[Node.Right], Node.Height};
    MinItem[I] = std::min(M.A, M.B);
    Out.push_back(M);
  }
  return Out;
}
