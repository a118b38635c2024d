//===- tests/test_interner.cpp - Interned corpus data model tests ----------===//
//
// Unit tests for support::Interner, the table behind the ID-based data
// model (DESIGN.md "Interned data model"). The contracts under test:
//
//   1. interning is structural — id equality coincides exactly with
//      NodeLabel::operator== / element-wise path equality, including the
//      ValueIsString distinction;
//   2. references returned by labelAt/labelsOf/unitsOf stay valid while
//      other threads keep interning (arena stability);
//   3. pathString(Id) is byte-identical to pathToString(materialize(Id));
//   4. the precomputed Levenshtein units match cluster::referenceLabelUnits;
//   5. concurrent interning from many threads is safe and structural
//      (ids may differ run to run, equality never does).
//
//===----------------------------------------------------------------------===//

#include "support/Interner.h"

#include "oracles/DistanceOracle.h"
#include "oracles/UsageOracle.h"

#include <gtest/gtest.h>

#include <set>
#include <thread>

using namespace diffcode;
using namespace diffcode::analysis;
using namespace diffcode::support;
using namespace diffcode::usage;

namespace {

FeaturePath figure2Path(const char *Algo) {
  return {NodeLabel::root("Cipher"), NodeLabel::method("Cipher.getInstance/1"),
          NodeLabel::arg(1, AbstractValue::strConst(Algo))};
}

} // namespace

TEST(Interner, LabelIdEqualityIsStructural) {
  Interner Table;
  LabelId A = Table.label(NodeLabel::root("Cipher"));
  LabelId B = Table.label(NodeLabel::root("Cipher"));
  LabelId C = Table.label(NodeLabel::root("Mac"));
  EXPECT_EQ(A, B);
  EXPECT_NE(A, C);
  EXPECT_EQ(Table.labelCount(), 2u);
  EXPECT_TRUE(Table.labelAt(A) == NodeLabel::root("Cipher"));
}

TEST(Interner, ValueIsStringDistinguishesLabels) {
  // "arg1:42" as a string constant and as an integer constant render the
  // same text but are different labels (their Levenshtein units differ);
  // structural interning must keep them apart.
  Interner Table;
  NodeLabel Str = NodeLabel::arg(1, AbstractValue::strConst("42"));
  NodeLabel Int = NodeLabel::arg(1, AbstractValue::intConst(42));
  ASSERT_EQ(Str.Text, Int.Text);
  ASSERT_FALSE(Str == Int);
  EXPECT_NE(Table.label(Str), Table.label(Int));
}

TEST(Interner, PathIdEqualityIsStructural) {
  Interner Table;
  PathId A = Table.path(figure2Path("AES"));
  PathId B = Table.path(figure2Path("AES"));
  PathId C = Table.path(figure2Path("DES"));
  EXPECT_EQ(A, B);
  EXPECT_NE(A, C);
  EXPECT_EQ(Table.pathCount(), 2u);

  // A strict prefix is a different path.
  FeaturePath Short = figure2Path("AES");
  Short.pop_back();
  EXPECT_NE(Table.path(Short), A);
}

TEST(Interner, MaterializeRoundTrips) {
  Interner Table;
  FeaturePath Original = figure2Path("AES/CBC/PKCS5Padding");
  PathId Id = Table.path(Original);
  FeaturePath Back = materialize(Table, Id);
  ASSERT_EQ(Back.size(), Original.size());
  for (std::size_t I = 0; I < Back.size(); ++I)
    EXPECT_TRUE(Back[I] == Original[I]);
  EXPECT_EQ(Table.pathString(Id), pathToString(Original));
}

TEST(Interner, PathStringMatchesPathToString) {
  Interner Table;
  std::vector<FeaturePath> Samples = {
      {NodeLabel::root("Cipher")},
      figure2Path("AES"),
      {NodeLabel::root("IvParameterSpec"),
       NodeLabel::method("IvParameterSpec.<init>/1"),
       NodeLabel::arg(1, AbstractValue::byteArrayConst())},
      {NodeLabel::root("PBEKeySpec"), NodeLabel::method("PBEKeySpec.<init>/4"),
       NodeLabel::arg(3, AbstractValue::intConst(100))},
  };
  for (const FeaturePath &Path : Samples)
    EXPECT_EQ(Table.pathString(Table.path(Path)), pathToString(Path));
}

TEST(Interner, UnitsMatchClusterLabelUnits) {
  Interner Table;
  std::vector<NodeLabel> Labels = {
      NodeLabel::root("Cipher"),
      NodeLabel::method("Cipher.getInstance/1"),
      NodeLabel::arg(1, AbstractValue::strConst("AES/CBC/PKCS5Padding")),
      NodeLabel::arg(2, AbstractValue::intConst(128)),
      NodeLabel::arg(1, AbstractValue::byteArrayTop()),
  };
  for (const NodeLabel &Label : Labels) {
    LabelId Id = Table.label(Label);
    EXPECT_EQ(Table.unitsOf(Id), cluster::referenceLabelUnits(Label));
  }
  // String constants split per character — the expensive part the table
  // precomputes once.
  LabelId Aes =
      Table.label(NodeLabel::arg(1, AbstractValue::strConst("AES")));
  EXPECT_EQ(Table.unitsOf(Aes),
            (std::vector<std::string>{"arg1", "A", "E", "S"}));
}

TEST(Interner, ReferencesStableAcrossGrowth) {
  // Arena storage: a reference taken early must stay valid after the
  // table grows by thousands of entries.
  Interner Table;
  LabelId First = Table.label(NodeLabel::root("Cipher"));
  const NodeLabel &Ref = Table.labelAt(First);
  const std::vector<std::string> &Units = Table.unitsOf(First);
  for (int I = 0; I < 5000; ++I)
    Table.label(NodeLabel::arg(1, AbstractValue::strConst(
                                      "algo-" + std::to_string(I))));
  EXPECT_EQ(Ref.Text, "Cipher");
  EXPECT_EQ(Units, (std::vector<std::string>{"Cipher"}));
}

TEST(Interner, ConcurrentInterningIsStructural) {
  // Eight threads intern an overlapping vocabulary; afterwards every
  // distinct path has exactly one id and ids resolve to their paths.
  Interner Table;
  auto Worker = [&Table](unsigned Offset) {
    for (int Round = 0; Round < 200; ++Round) {
      int Algo = (Offset + Round) % 16;
      Table.path(figure2Path(("algo" + std::to_string(Algo)).c_str()));
    }
  };
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < 8; ++T)
    Threads.emplace_back(Worker, T * 3);
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Table.pathCount(), 16u);
  std::set<std::string> Rendered;
  for (int Algo = 0; Algo < 16; ++Algo) {
    FeaturePath Path = figure2Path(("algo" + std::to_string(Algo)).c_str());
    PathId Id = Table.path(Path);
    EXPECT_EQ(Table.pathString(Id), pathToString(Path));
    Rendered.insert(Table.pathString(Id));
  }
  EXPECT_EQ(Rendered.size(), 16u);
}

TEST(Interner, MemoryBytesGrowsWithContent) {
  Interner Table;
  std::size_t Empty = Table.memoryBytes();
  for (int I = 0; I < 100; ++I)
    Table.path(figure2Path(("algo" + std::to_string(I)).c_str()));
  EXPECT_GT(Table.memoryBytes(), Empty);
}

TEST(Interner, PreconvertedLabelSequenceAgreesWithPathOverload) {
  Interner Table;
  FeaturePath Path = figure2Path("AES");
  std::vector<LabelId> Ids;
  for (const NodeLabel &Label : Path)
    Ids.push_back(Table.label(Label));
  EXPECT_EQ(Table.path(std::move(Ids)), Table.path(Path));
}

TEST(Interner, ChildAgreesWithPathOverload) {
  // Cipher -> getInstance -> arg1:AES and Cipher -> init -> arg1:AES: the
  // same label under two parents, and one sequence interned through
  // path() before child() reaches it.
  NodeLabel Root = NodeLabel::root("Cipher");
  NodeLabel Get = NodeLabel::method("Cipher.getInstance/1");
  NodeLabel Init = NodeLabel::method("Cipher.init/2");
  NodeLabel Aes = NodeLabel::arg(1, AbstractValue::strConst("AES"));
  Interner Table;
  PathId Early = Table.path({Root, Init, Aes});
  for (int Pass = 0; Pass < 2; ++Pass) { // new paths, then known ones
    PathId R = Table.child(Interner::NoPath, Table.label(Root));
    PathId RG = Table.child(R, Table.label(Get));
    PathId RI = Table.child(R, Table.label(Init));
    EXPECT_EQ(R, Table.path({Root}));
    EXPECT_EQ(RG, Table.path({Root, Get}));
    EXPECT_EQ(Table.child(RG, Table.label(Aes)), Table.path({Root, Get, Aes}));
    EXPECT_EQ(Table.child(RI, Table.label(Aes)), Early);
    EXPECT_EQ(materialize(Table, RI), (FeaturePath{Root, Init}));
    EXPECT_EQ(Table.pathCount(), 5u);
  }
}
