//===- usage/UsageDag.h - Rooted usage DAGs (Section 3.4) ------------------===//
//
// Part of the DiffCode project, a reproduction of "Inferring Crypto API
// Rules from Code Changes" (PLDI'18).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Rooted DAGs over abstract usages. The root is (0, o^a) for an abstract
/// object; method nodes (m, sigma^a) hang off object nodes; argument nodes
/// (i, a) hang off method nodes; tracked-object arguments expand
/// recursively up to a fixed depth (paper: n = 5).
///
/// Node labels are structured (NodeLabel) so the clustering metric can
/// honor the paper's unit rules: string constants compare per character
/// under Levenshtein, while method signatures, integers, abstract bytes,
/// and type names are atomic units.
///
//===----------------------------------------------------------------------===//

#ifndef DIFFCODE_USAGE_USAGEDAG_H
#define DIFFCODE_USAGE_USAGEDAG_H

#include "analysis/AbstractObject.h"
#include "analysis/UsageEvent.h"

#include <cstdint>
#include <string>
#include <vector>

namespace diffcode {
namespace usage {

/// A structured DAG node label.
struct NodeLabel {
  enum class Kind : std::uint8_t {
    Root,   ///< (0, o^a): Text = type name.
    Method, ///< (m, sigma^a): Text = method signature.
    Arg,    ///< (i, a): Text = abstract-value label, ArgIndex = i.
  };

  Kind K = Kind::Root;
  unsigned ArgIndex = 0;
  /// True for Arg labels whose value is a string constant — those compare
  /// per character in the clustering metric (Section 4.3).
  bool ValueIsString = false;
  std::string Text;

  static NodeLabel root(std::string TypeName);
  static NodeLabel method(std::string Signature);
  static NodeLabel arg(unsigned Index, const analysis::AbstractValue &Value);

  /// Display form: "Cipher", "Cipher.getInstance", "arg1:AES". Inline so
  /// support/Interner can render labels without a link-time dependency on
  /// this library.
  std::string str() const {
    if (K == Kind::Arg)
      return "arg" + std::to_string(ArgIndex) + ":" + Text;
    return Text;
  }

  /// Full structural identity, including ValueIsString: the clustering
  /// metric assigns different Levenshtein units to string and non-string
  /// labels with equal text, and the interned label table
  /// (cluster/DistanceCache) relies on id equality coinciding with this
  /// operator.
  bool operator==(const NodeLabel &Other) const {
    return K == Other.K && ArgIndex == Other.ArgIndex &&
           ValueIsString == Other.ValueIsString && Text == Other.Text;
  }
  bool operator<(const NodeLabel &Other) const {
    if (K != Other.K)
      return K < Other.K;
    if (ArgIndex != Other.ArgIndex)
      return ArgIndex < Other.ArgIndex;
    if (ValueIsString != Other.ValueIsString)
      return ValueIsString < Other.ValueIsString;
    return Text < Other.Text;
  }
};

/// A root-to-node label sequence; the unit of the usage-change features
/// F- / F+ (Section 3.5). Pipeline code carries paths as interned
/// support::PathId values and materializes them only for display.
using FeaturePath = std::vector<NodeLabel>;

/// One rooted usage DAG.
class UsageDag {
public:
  struct Node {
    NodeLabel Label;
    std::vector<unsigned> Children;
  };

  /// Builds the DAG for \p RootObj from one execution's usage log.
  /// \p MaxDepth bounds the node depth (root is depth 0).
  static UsageDag build(const analysis::ObjectTable &Objects,
                        const analysis::UsageLog &Log, unsigned RootObj,
                        unsigned MaxDepth = 5);

  /// A DAG containing only a root labeled with \p TypeName — the padding
  /// element used when pairing versions with unequal DAG counts.
  static UsageDag emptyFor(std::string TypeName);

  const Node &node(unsigned Index) const { return Nodes[Index]; }
  unsigned root() const { return 0; }
  std::size_t size() const { return Nodes.size(); }
  bool isRootOnly() const { return Nodes.size() == 1; }
  const std::string &typeName() const { return Nodes[0].Label.Text; }

  /// Structural equality up to the order of children: equal iff the two
  /// DAGs are isomorphic with NodeLabel::operator== on every node. Used
  /// to dedupe DAGs across executions.
  bool operator==(const UsageDag &Other) const;

  /// A hash of the same structure: equal DAGs hash equal, whatever the
  /// order of their children.
  std::uint64_t structuralHash() const;

  /// Human-readable indented rendering (one node per line), as shown in
  /// the paper's Figure 2(b)/(c).
  std::string str() const;

private:
  /// Per-node structuralHash() of the subtree below each node.
  std::vector<std::uint64_t> subtreeHashes() const;
  static bool sameSubtree(const UsageDag &A,
                          const std::vector<std::uint64_t> &HashA, unsigned NA,
                          const UsageDag &B,
                          const std::vector<std::uint64_t> &HashB,
                          unsigned NB);

  /// Nodes are appended as the build reaches them, so every child has a
  /// larger index than its parent.
  std::vector<Node> Nodes;
};

} // namespace usage
} // namespace diffcode

#endif // DIFFCODE_USAGE_USAGEDAG_H
