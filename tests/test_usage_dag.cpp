//===- tests/test_usage_dag.cpp - Usage DAG tests (Section 3.4) ------------===//

#include "usage/UsageDag.h"

#include "oracles/UsageOracle.h"
#include "usage/UsageChange.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace diffcode;
using namespace diffcode::analysis;
using namespace diffcode::usage;

namespace {

/// Builds a small fixture mirroring Figure 2: objects, events, DAG.
struct Fixture {
  ObjectTable Objects;
  UsageLog Log;
  unsigned Enc = 0, IvSpec = 0;

  Fixture(bool NewVersion) {
    java::SourceLocation L13{13, 1, 0}, L12{12, 1, 0};
    Enc = Objects.getOrCreate(L13, "Cipher");
    if (!NewVersion) {
      Log[Enc].push_back(
          {"Cipher.getInstance/1", {AbstractValue::strConst("AES")}});
      Log[Enc].push_back(
          {"Cipher.init/2",
           {AbstractValue::intConst(1, "ENCRYPT_MODE"),
            AbstractValue::topObject("Secret")}});
      return;
    }
    IvSpec = Objects.getOrCreate(L12, "IvParameterSpec");
    Log[IvSpec].push_back(
        {"IvParameterSpec.<init>/1", {AbstractValue::byteArrayTop()}});
    Log[Enc].push_back(
        {"Cipher.getInstance/1",
         {AbstractValue::strConst("AES/CBC/PKCS5Padding")}});
    UsageEvent Init{"Cipher.init/3",
                    {AbstractValue::intConst(1, "ENCRYPT_MODE"),
                     AbstractValue::topObject("Secret"),
                     AbstractValue::object(IvSpec, "IvParameterSpec")}};
    Log[Enc].push_back(Init);
    Log[IvSpec].push_back(Init); // init also uses the IvParameterSpec
  }
};

/// One shared table per test binary: append-only, so tests cannot
/// interfere with each other through it.
support::Interner &table() {
  static support::Interner Table;
  return Table;
}

DagIds ids(const UsageDag &Dag) { return DagIds::of(Dag, table()); }

std::vector<std::string> pathStrings(const UsageDag &Dag) {
  std::vector<std::string> Out;
  for (support::PathId Path : ids(Dag).Paths)
    Out.push_back(table().pathString(Path));
  std::sort(Out.begin(), Out.end());
  return Out;
}

bool containsPath(const UsageDag &Dag, const std::string &Text) {
  std::vector<std::string> Paths = pathStrings(Dag);
  return std::find(Paths.begin(), Paths.end(), Text) != Paths.end();
}

} // namespace

TEST(NodeLabel, Construction) {
  EXPECT_EQ(NodeLabel::root("Cipher").str(), "Cipher");
  EXPECT_EQ(NodeLabel::method("Cipher.init/3").str(), "Cipher.init");
  EXPECT_EQ(NodeLabel::arg(1, AbstractValue::strConst("AES")).str(),
            "arg1:AES");
  EXPECT_EQ(NodeLabel::arg(3, AbstractValue::byteArrayTop()).str(),
            "arg3:⊤byte[]");
}

TEST(NodeLabel, StringConstMarked) {
  EXPECT_TRUE(NodeLabel::arg(1, AbstractValue::strConst("AES")).ValueIsString);
  EXPECT_FALSE(NodeLabel::arg(1, AbstractValue::strTop()).ValueIsString);
  EXPECT_FALSE(
      NodeLabel::arg(1, AbstractValue::intConst(1, "X")).ValueIsString);
}

TEST(NodeLabel, OrderingAndEquality) {
  NodeLabel A = NodeLabel::arg(1, AbstractValue::strConst("AES"));
  NodeLabel B = NodeLabel::arg(2, AbstractValue::strConst("AES"));
  NodeLabel C = NodeLabel::arg(1, AbstractValue::strConst("DES"));
  EXPECT_TRUE(A == A);
  EXPECT_FALSE(A == B);
  EXPECT_TRUE(A < B || B < A);
  EXPECT_TRUE(A < C || C < A);
}

TEST(UsageDag, Figure2OldVersionStructure) {
  Fixture F(/*NewVersion=*/false);
  UsageDag Dag = UsageDag::build(F.Objects, F.Log, F.Enc);
  EXPECT_EQ(Dag.typeName(), "Cipher");
  EXPECT_TRUE(containsPath(Dag, "Cipher"));
  EXPECT_TRUE(containsPath(Dag, "Cipher Cipher.getInstance arg1:AES"));
  EXPECT_TRUE(containsPath(Dag, "Cipher Cipher.init arg1:ENCRYPT_MODE"));
  EXPECT_TRUE(containsPath(Dag, "Cipher Cipher.init arg2:Secret"));
  // 6 nodes as in Figure 2(b).
  EXPECT_EQ(ids(Dag).Labels.size(), 6u);
}

TEST(UsageDag, Figure2NewVersionExpandsIvSpec) {
  Fixture F(/*NewVersion=*/true);
  UsageDag Dag = UsageDag::build(F.Objects, F.Log, F.Enc);
  EXPECT_TRUE(containsPath(
      Dag, "Cipher Cipher.init arg3:IvParameterSpec IvParameterSpec.<init> "
           "arg1:⊤byte[]"));
  // The no-cycle rule: Cipher.init must NOT be re-expanded underneath the
  // IvParameterSpec argument.
  EXPECT_FALSE(containsPath(
      Dag, "Cipher Cipher.init arg3:IvParameterSpec Cipher.init"));
  // 9 nodes as in Figure 2(c).
  EXPECT_EQ(ids(Dag).Labels.size(), 9u);
}

TEST(UsageDag, Figure2DistanceIsOneHalf) {
  Fixture Old(false), New(true);
  UsageDag G1 = UsageDag::build(Old.Objects, Old.Log, Old.Enc);
  UsageDag G2 = UsageDag::build(New.Objects, New.Log, New.Enc);
  EXPECT_DOUBLE_EQ(dagDistance(ids(G1), ids(G2)), 0.5);
}

TEST(UsageDag, DistanceAxioms) {
  Fixture Old(false), New(true);
  UsageDag G1 = UsageDag::build(Old.Objects, Old.Log, Old.Enc);
  UsageDag G2 = UsageDag::build(New.Objects, New.Log, New.Enc);
  DagIds I1 = ids(G1), I2 = ids(G2);
  EXPECT_DOUBLE_EQ(dagDistance(I1, I1), 0.0);
  EXPECT_DOUBLE_EQ(dagDistance(I2, I2), 0.0);
  EXPECT_DOUBLE_EQ(dagDistance(I1, I2), dagDistance(I2, I1));
  EXPECT_GE(dagDistance(I1, I2), 0.0);
  EXPECT_LE(dagDistance(I1, I2), 1.0);
}

TEST(UsageDag, EmptyForIsRootOnly) {
  UsageDag Empty = UsageDag::emptyFor("Cipher");
  EXPECT_TRUE(Empty.isRootOnly());
  EXPECT_EQ(Empty.typeName(), "Cipher");
  EXPECT_EQ(ids(Empty).Paths.size(), 1u);
}

TEST(UsageDag, DistanceToEmpty) {
  Fixture Old(false);
  UsageDag G = UsageDag::build(Old.Objects, Old.Log, Old.Enc);
  UsageDag Empty = UsageDag::emptyFor("Cipher");
  // Shares only the root label: 1 - 1/6.
  EXPECT_DOUBLE_EQ(dagDistance(ids(G), ids(Empty)), 1.0 - 1.0 / 6.0);
  // Different root type shares nothing.
  EXPECT_DOUBLE_EQ(dagDistance(ids(Empty), ids(UsageDag::emptyFor("Mac"))),
                   1.0);
}

TEST(UsageDag, DuplicateEventsCollapse) {
  ObjectTable Objects;
  UsageLog Log;
  unsigned Obj = Objects.getOrCreate({1, 1, 0}, "MessageDigest");
  UsageEvent Update{"MessageDigest.update/1",
                    {AbstractValue::byteArrayTop()}};
  Log[Obj].push_back(Update);
  Log[Obj].push_back(Update);
  Log[Obj].push_back(Update);
  UsageDag Dag = UsageDag::build(Objects, Log, Obj);
  // Root + one method node + one arg node.
  EXPECT_EQ(Dag.size(), 3u);
}

TEST(UsageDag, DepthBoundRespected) {
  // Chain: A uses B uses C uses D ... via constructor args.
  ObjectTable Objects;
  UsageLog Log;
  std::vector<unsigned> Chain;
  for (unsigned I = 0; I < 8; ++I)
    Chain.push_back(
        Objects.getOrCreate({I + 1, 1, 0}, "T" + std::to_string(I)));
  for (unsigned I = 0; I < 8; ++I) {
    std::vector<AbstractValue> Args;
    if (I + 1 < 8)
      Args.push_back(
          AbstractValue::object(Chain[I + 1], "T" + std::to_string(I + 1)));
    Log[Chain[I]].push_back(
        {"T" + std::to_string(I) + ".<init>/" +
             std::to_string(Args.size()),
         Args});
  }
  UsageDag Shallow = UsageDag::build(Objects, Log, Chain[0], 3);
  UsageDag Deep = UsageDag::build(Objects, Log, Chain[0], 7);
  EXPECT_LT(Shallow.size(), Deep.size());
  for (support::PathId Path : ids(Shallow).Paths)
    EXPECT_LE(table().labelsOf(Path).size(), 4u); // depth 3 -> at most 4
                                                  // nodes per path
}

TEST(UsageDag, CycleBetweenObjectsTerminates) {
  // A's event references B, B's event references A.
  ObjectTable Objects;
  UsageLog Log;
  unsigned A = Objects.getOrCreate({1, 1, 0}, "Alpha");
  unsigned B = Objects.getOrCreate({2, 1, 0}, "Beta");
  Log[A].push_back({"Alpha.use/1", {AbstractValue::object(B, "Beta")}});
  Log[B].push_back({"Beta.use/1", {AbstractValue::object(A, "Alpha")}});
  UsageDag Dag = UsageDag::build(Objects, Log, A, 10);
  EXPECT_LT(Dag.size(), 12u); // terminates with a small graph
}

TEST(UsageDag, StructuralEqualityDetectsEquality) {
  Fixture F1(false), F2(false);
  UsageDag A = UsageDag::build(F1.Objects, F1.Log, F1.Enc);
  UsageDag B = UsageDag::build(F2.Objects, F2.Log, F2.Enc);
  EXPECT_TRUE(A == B);
  EXPECT_EQ(A.structuralHash(), B.structuralHash());
  Fixture F3(true);
  UsageDag C = UsageDag::build(F3.Objects, F3.Log, F3.Enc);
  EXPECT_FALSE(A == C);
  EXPECT_FALSE(C == A);
}

TEST(UsageDag, StructuralEqualityIgnoresChildOrder) {
  ObjectTable Objects;
  unsigned Obj = Objects.getOrCreate({1, 1, 0}, "Cipher");
  UsageLog LogAB, LogBA;
  UsageEvent E1{"Cipher.a/0", {}}, E2{"Cipher.b/0", {}};
  LogAB[Obj] = {E1, E2};
  LogBA[Obj] = {E2, E1};
  UsageDag AB = UsageDag::build(Objects, LogAB, Obj);
  UsageDag BA = UsageDag::build(Objects, LogBA, Obj);
  EXPECT_NE(AB.str(), BA.str());
  EXPECT_TRUE(AB == BA);
  EXPECT_EQ(AB.structuralHash(), BA.structuralHash());
}

TEST(UsageDag, StructuralEqualityIsNotFooledByDelimitersInConstants) {
  // getInstance("AES", "BC") and getInstance("AES,arg2:BC") both render
  // as Cipher(Cipher.getInstance(arg1:AES,arg2:BC)) when children are
  // joined with unescaped ',' '(' ')' — yet they are different DAGs.
  ObjectTable Objects;
  unsigned Obj = Objects.getOrCreate({1, 1, 0}, "Cipher");
  UsageLog TwoArgs, OneArg;
  TwoArgs[Obj] = {{"Cipher.getInstance/2",
                   {AbstractValue::strConst("AES"),
                    AbstractValue::strConst("BC")}}};
  OneArg[Obj] = {{"Cipher.getInstance/1",
                  {AbstractValue::strConst("AES,arg2:BC")}}};
  UsageDag A = UsageDag::build(Objects, TwoArgs, Obj);
  UsageDag B = UsageDag::build(Objects, OneArg, Obj);
  EXPECT_FALSE(A == B);
  EXPECT_FALSE(referenceIsomorphic(A, B));
}

TEST(UsageDag, StructuralEqualityDistinguishesStringFromIntConstant) {
  // arg1:"1" and arg1:1 display alike but are different labels.
  ObjectTable Objects;
  unsigned Obj = Objects.getOrCreate({1, 1, 0}, "Cipher");
  UsageLog Str, Int;
  Str[Obj] = {{"Cipher.init/1", {AbstractValue::strConst("1")}}};
  Int[Obj] = {{"Cipher.init/1", {AbstractValue::intConst(1)}}};
  UsageDag A = UsageDag::build(Objects, Str, Obj);
  UsageDag B = UsageDag::build(Objects, Int, Obj);
  EXPECT_EQ(A.str(), B.str());
  EXPECT_FALSE(A == B);
}

TEST(UsageDag, StructuralEqualityMatchesCanonicalFormOracle) {
  // Every pair among DAGs that differ in child order, duplicated
  // subtrees, labels and depth agrees with the canonical-form reference.
  ObjectTable Objects;
  unsigned Enc = Objects.getOrCreate({1, 1, 0}, "Cipher");
  unsigned Key = Objects.getOrCreate({2, 1, 0}, "SecretKeySpec");
  UsageEvent GetAes{"Cipher.getInstance/1", {AbstractValue::strConst("AES")}};
  UsageEvent GetDes{"Cipher.getInstance/1", {AbstractValue::strConst("DES")}};
  UsageEvent Init{"Cipher.init/2",
                  {AbstractValue::intConst(1, "ENCRYPT_MODE"),
                   AbstractValue::object(Key, "SecretKeySpec")}};
  UsageEvent KeyNew{"SecretKeySpec.<init>/2",
                    {AbstractValue::byteArrayTop(),
                     AbstractValue::strConst("AES")}};
  std::vector<UsageLog> Logs(6);
  Logs[0][Enc] = {GetAes, Init};
  Logs[1][Enc] = {Init, GetAes};
  Logs[2][Enc] = {GetAes, Init};
  Logs[2][Key] = {KeyNew};
  Logs[3][Enc] = {Init, GetAes};
  Logs[3][Key] = {KeyNew};
  Logs[4][Enc] = {GetDes, Init};
  Logs[5][Enc] = {GetAes, GetDes, Init};
  std::vector<UsageDag> Dags;
  for (const UsageLog &Log : Logs)
    Dags.push_back(UsageDag::build(Objects, Log, Enc));
  for (const UsageDag &A : Dags)
    for (const UsageDag &B : Dags) {
      EXPECT_EQ(A == B, referenceIsomorphic(A, B)) << A.str() << B.str();
      if (A == B) {
        EXPECT_EQ(A.structuralHash(), B.structuralHash());
      }
    }
  EXPECT_TRUE(Dags[0] == Dags[1]);
  EXPECT_TRUE(Dags[2] == Dags[3]);
  EXPECT_FALSE(Dags[0] == Dags[2]);
}

TEST(UsageDag, PathsAreDeduplicated) {
  Fixture F(true);
  UsageDag Dag = UsageDag::build(F.Objects, F.Log, F.Enc);
  std::vector<std::string> Paths = pathStrings(Dag);
  EXPECT_EQ(std::unique(Paths.begin(), Paths.end()), Paths.end());
}

TEST(UsageDag, PathsAreDeduplicatedStructurally) {
  // init(1, key) and init("1", key): the two arg1 paths render alike but
  // differ in ValueIsString, so both stay.
  ObjectTable Objects;
  UsageLog Log;
  unsigned Obj = Objects.getOrCreate({1, 1, 0}, "Cipher");
  Log[Obj] = {{"Cipher.init/2",
               {AbstractValue::intConst(1), AbstractValue::topObject("Key")}},
              {"Cipher.init/2",
               {AbstractValue::strConst("1"),
                AbstractValue::topObject("Key")}}};
  UsageDag Dag = UsageDag::build(Objects, Log, Obj);
  // Cipher, Cipher.init, arg1:1 (int), arg1:1 (string), arg2:Key.
  EXPECT_EQ(ids(Dag).Paths.size(), 5u);
  EXPECT_EQ(referencePaths(Dag).size(), 5u);
}
