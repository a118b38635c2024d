//===- usage/UsageDag.cpp --------------------------------------------------===//

#include "usage/UsageDag.h"

#include <algorithm>
#include <functional>

using namespace diffcode;
using namespace diffcode::usage;
using namespace diffcode::analysis;

NodeLabel NodeLabel::root(std::string TypeName) {
  NodeLabel L;
  L.K = Kind::Root;
  L.Text = std::move(TypeName);
  return L;
}

NodeLabel NodeLabel::method(std::string Signature) {
  NodeLabel L;
  L.K = Kind::Method;
  // Node labels carry "Class.name" without the arity suffix: the paper's
  // Figure 2 diff localizes the init/2 -> init/3 change to the added
  // arg3 path, which requires the two init nodes to share a label.
  std::size_t Slash = Signature.rfind('/');
  if (Slash != std::string::npos)
    Signature.resize(Slash);
  L.Text = std::move(Signature);
  return L;
}

NodeLabel NodeLabel::arg(unsigned Index, const AbstractValue &Value) {
  NodeLabel L;
  L.K = Kind::Arg;
  L.ArgIndex = Index;
  L.ValueIsString = Value.kind() == AVKind::StrConst;
  L.Text = Value.label();
  return L;
}

UsageDag UsageDag::emptyFor(std::string TypeName) {
  UsageDag Dag;
  Dag.Nodes.push_back({NodeLabel::root(std::move(TypeName)), {}});
  return Dag;
}

namespace {

/// Depth-first expansion of object nodes for UsageDag::build. PathObjs
/// holds the objects on the current root-to-node path (the no-cycle
/// rule): an object pushes itself when its expansion starts and pops
/// itself when it ends.
struct DagBuilder {
  const UsageLog &Log;
  unsigned MaxDepth;
  std::vector<UsageDag::Node> &Nodes;
  std::vector<unsigned> PathObjs;

  bool onPath(unsigned ObjId) const {
    return std::find(PathObjs.begin(), PathObjs.end(), ObjId) !=
           PathObjs.end();
  }

  unsigned add(NodeLabel Label, unsigned Parent) {
    unsigned Index = static_cast<unsigned>(Nodes.size());
    Nodes.push_back({std::move(Label), {}});
    Nodes[Parent].Children.push_back(Index);
    return Index;
  }

  // Expand an object node: one method child per distinct usage event, one
  // argument child per parameter; tracked-object arguments recurse.
  void expandObject(unsigned NodeIdx, unsigned ObjId, unsigned Depth) {
    if (Depth >= MaxDepth)
      return;
    auto LogIt = Log.find(ObjId);
    if (LogIt == Log.end())
      return;
    PathObjs.push_back(ObjId);

    // Distinct events only — the DAG is a set of (m, sigma) nodes.
    std::vector<const UsageEvent *> Distinct;
    for (const UsageEvent &Event : LogIt->second)
      if (std::none_of(Distinct.begin(), Distinct.end(),
                       [&](const UsageEvent *Prev) { return *Prev == Event; }))
        Distinct.push_back(&Event);

    for (const UsageEvent *Event : Distinct) {
      // The paper's no-cycle rule: an event whose arguments refer back
      // to an object on the current path would close a cycle (e.g.
      // re-expanding Cipher.init underneath the IvParameterSpec it
      // received) — skip it.
      bool ClosesCycle = std::any_of(
          Event->Args.begin(), Event->Args.end(), [&](const AbstractValue &A) {
            return A.isTrackedObject() && onPath(A.objectId());
          });
      if (ClosesCycle && Depth > 0)
        continue;
      unsigned MethodIdx = add(NodeLabel::method(Event->MethodSig), NodeIdx);
      if (Depth + 1 >= MaxDepth)
        continue;
      for (std::size_t I = 0; I < Event->Args.size(); ++I) {
        const AbstractValue &Arg = Event->Args[I];
        unsigned ArgIdx =
            add(NodeLabel::arg(static_cast<unsigned>(I + 1), Arg), MethodIdx);
        if (Arg.isTrackedObject() && !onPath(Arg.objectId()))
          expandObject(ArgIdx, Arg.objectId(), Depth + 2);
      }
    }
    PathObjs.pop_back();
  }
};

std::uint64_t mix(std::uint64_t X) {
  // splitmix64 finalizer.
  X ^= X >> 30;
  X *= 0xbf58476d1ce4e5b9ULL;
  X ^= X >> 27;
  X *= 0x94d049bb133111ebULL;
  return X ^ (X >> 31);
}

std::uint64_t labelHash(const NodeLabel &Label) {
  return mix(std::hash<std::string>{}(Label.Text) ^
             (std::uint64_t(Label.K) << 40 |
              std::uint64_t(Label.ValueIsString) << 32 | Label.ArgIndex));
}

} // namespace

UsageDag UsageDag::build(const ObjectTable &Objects, const UsageLog &Log,
                         unsigned RootObj, unsigned MaxDepth) {
  UsageDag Dag = emptyFor(Objects.get(RootObj).TypeName);
  DagBuilder{Log, MaxDepth, Dag.Nodes, {}}.expandObject(0, RootObj, 0);
  return Dag;
}

std::vector<std::uint64_t> UsageDag::subtreeHashes() const {
  // Every child has a larger index than its parent, so one reverse sweep
  // sees every child's hash before its parent's. Child hashes combine in
  // sorted order, which makes the result independent of child order.
  std::vector<std::uint64_t> Hashes(Nodes.size());
  std::vector<std::uint64_t> Kids;
  for (std::size_t I = Nodes.size(); I-- > 0;) {
    Kids.clear();
    for (unsigned Child : Nodes[I].Children)
      Kids.push_back(Hashes[Child]);
    std::sort(Kids.begin(), Kids.end());
    std::uint64_t H = labelHash(Nodes[I].Label);
    for (std::uint64_t K : Kids)
      H = mix(H + K);
    Hashes[I] = H;
  }
  return Hashes;
}

std::uint64_t UsageDag::structuralHash() const { return subtreeHashes()[0]; }

bool UsageDag::sameSubtree(const UsageDag &A,
                           const std::vector<std::uint64_t> &HashA,
                           unsigned NA, const UsageDag &B,
                           const std::vector<std::uint64_t> &HashB,
                           unsigned NB) {
  const Node &X = A.Nodes[NA], &Y = B.Nodes[NB];
  if (HashA[NA] != HashB[NB] || !(X.Label == Y.Label) ||
      X.Children.size() != Y.Children.size())
    return false;
  // Match children as a multiset. Isomorphism is an equivalence, so
  // taking the first unmatched equal partner never blocks a later match.
  std::vector<unsigned> Open = Y.Children;
  for (unsigned Child : X.Children) {
    auto It = std::find_if(Open.begin(), Open.end(), [&](unsigned Other) {
      return sameSubtree(A, HashA, Child, B, HashB, Other);
    });
    if (It == Open.end())
      return false;
    Open.erase(It);
  }
  return true;
}

bool UsageDag::operator==(const UsageDag &Other) const {
  return Nodes.size() == Other.Nodes.size() &&
         sameSubtree(*this, subtreeHashes(), 0, Other, Other.subtreeHashes(),
                     0);
}

std::string UsageDag::str() const {
  std::string Out;
  std::function<void(unsigned, unsigned)> Walk = [&](unsigned Index,
                                                     unsigned Depth) {
    Out.append(Depth * 2, ' ');
    Out += Nodes[Index].Label.str();
    Out += '\n';
    for (unsigned Child : Nodes[Index].Children)
      Walk(Child, Depth + 1);
  };
  Walk(0, 0);
  return Out;
}
