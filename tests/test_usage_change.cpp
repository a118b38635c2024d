//===- tests/test_usage_change.cpp - Diff & pairing tests (Section 3.5) ----===//

#include "usage/UsageChange.h"

#include "oracles/UsageOracle.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

using namespace diffcode;
using namespace diffcode::analysis;
using namespace diffcode::usage;

namespace {

/// One shared table per test binary: append-only, so tests cannot
/// interfere with each other through it.
support::Interner &table() {
  static support::Interner Table;
  return Table;
}

NodeLabel rootL(const char *T) { return NodeLabel::root(T); }
NodeLabel methodL(const char *Sig) { return NodeLabel::method(Sig); }
NodeLabel strArg(unsigned I, const char *V) {
  return NodeLabel::arg(I, AbstractValue::strConst(V));
}

/// Builds a Cipher DAG with a getInstance(algo) and optional extra event.
UsageDag cipherDag(const char *Algo, bool WithIv = false) {
  ObjectTable Objects;
  UsageLog Log;
  unsigned Enc = Objects.getOrCreate({13, 1, 0}, "Cipher");
  Log[Enc].push_back(
      {"Cipher.getInstance/1", {AbstractValue::strConst(Algo)}});
  std::vector<AbstractValue> InitArgs = {
      AbstractValue::intConst(1, "ENCRYPT_MODE"),
      AbstractValue::topObject("Key")};
  if (WithIv)
    InitArgs.push_back(AbstractValue::topObject("IvParameterSpec"));
  Log[Enc].push_back(
      {"Cipher.init/" + std::to_string(InitArgs.size()), InitArgs});
  return UsageDag::build(Objects, Log, Enc);
}

std::vector<std::string> strs(const std::vector<FeaturePath> &Paths) {
  std::vector<std::string> Out;
  for (const FeaturePath &P : Paths)
    Out.push_back(pathToString(P));
  std::sort(Out.begin(), Out.end());
  return Out;
}

std::vector<support::PathId> intern(const std::vector<FeaturePath> &Paths) {
  std::vector<support::PathId> Ids;
  for (const FeaturePath &P : Paths)
    Ids.push_back(table().path(P));
  return Ids;
}

/// Diff(G1, G2) of one pair, through the Section 3.5 entry point (a
/// single DAG on each side is always paired with the other).
UsageChange diff(const UsageDag &G1, const UsageDag &G2,
                 support::Interner &Table = table()) {
  std::vector<UsageChange> Changes =
      deriveUsageChanges({G1}, {G2}, G1.typeName(), Table);
  EXPECT_EQ(Changes.size(), 1u);
  return Changes.at(0);
}

std::vector<DagIds> ids(const std::vector<UsageDag> &Dags) {
  std::vector<DagIds> Out;
  for (const UsageDag &Dag : Dags)
    Out.push_back(DagIds::of(Dag, table()));
  return Out;
}

} // namespace

//===----------------------------------------------------------------------===//
// Shortest-paths
//===----------------------------------------------------------------------===//

TEST(ShortestPaths, RemovesExtensionsOfKeptPaths) {
  FeaturePath AB = {rootL("T"), methodL("T.a")};
  FeaturePath ABC = {rootL("T"), methodL("T.a"), strArg(1, "x")};
  FeaturePath BC = {methodL("T.b"), strArg(1, "y")};
  std::vector<support::PathId> Result =
      shortestPaths(intern({AB, ABC, BC}), table());
  ASSERT_EQ(Result.size(), 2u);
  EXPECT_TRUE(std::find(Result.begin(), Result.end(), table().path(AB)) !=
              Result.end());
  EXPECT_TRUE(std::find(Result.begin(), Result.end(), table().path(BC)) !=
              Result.end());
}

TEST(ShortestPaths, IdenticalPathsAreNotPrefixesOfEachOther) {
  FeaturePath P = {rootL("T"), methodL("T.a")};
  std::vector<support::PathId> Result =
      shortestPaths(intern({P, P}), table());
  EXPECT_EQ(Result.size(), 2u); // strict prefix only — duplicates survive
}

TEST(ShortestPaths, EmptyInput) {
  EXPECT_TRUE(shortestPaths({}, table()).empty());
}

TEST(ShortestPaths, PreservesInputOrder) {
  FeaturePath A = {rootL("T"), methodL("T.z")};
  FeaturePath B = {rootL("T"), methodL("T.a")};
  FeaturePath C = {methodL("T.m"), strArg(1, "v")};
  std::vector<support::PathId> In = intern({A, B, C});
  std::vector<support::PathId> Result = shortestPaths(In, table());
  EXPECT_EQ(Result, In); // nothing eliminated -> order untouched
}

TEST(ShortestPaths, LinearPassMatchesQuadraticReference) {
  // Property test for the sort-then-eliminate rewrite: random path
  // multisets (shared prefixes, duplicates, varying depths) must produce
  // exactly the quadratic oracle's survivor multiset, in input order.
  std::mt19937 Rng(20260805);
  const char *Methods[] = {"T.a", "T.ab", "T.b", "T.init", "T.doFinal"};
  const char *Values[] = {"x", "xy", "AES", "AES/GCM", ""};
  for (int Round = 0; Round < 200; ++Round) {
    std::vector<FeaturePath> Paths;
    std::size_t N = Rng() % 12;
    for (std::size_t I = 0; I < N; ++I) {
      FeaturePath P = {rootL("T")};
      std::size_t Depth = Rng() % 4;
      for (std::size_t D = 0; D < Depth; ++D) {
        P.push_back(methodL(Methods[Rng() % 5]));
        if (Rng() % 2)
          P.push_back(strArg(1 + Rng() % 2, Values[Rng() % 5]));
      }
      Paths.push_back(std::move(P));
      // Occasionally duplicate or extend an earlier path to force the
      // prefix/duplicate corner cases.
      if (!Paths.empty() && Rng() % 3 == 0) {
        FeaturePath Copy = Paths[Rng() % Paths.size()];
        if (Rng() % 2)
          Copy.push_back(methodL(Methods[Rng() % 5]));
        Paths.push_back(std::move(Copy));
      }
    }

    std::vector<FeaturePath> Expected = referenceShortest(Paths);
    std::vector<support::PathId> Actual =
        shortestPaths(intern(Paths), table());
    ASSERT_EQ(Actual.size(), Expected.size()) << "round " << Round;
    for (std::size_t I = 0; I < Actual.size(); ++I)
      EXPECT_EQ(materialize(table(), Actual[I]), Expected[I])
          << "round " << Round << " survivor " << I;
  }
}

//===----------------------------------------------------------------------===//
// diffDags
//===----------------------------------------------------------------------===//

TEST(DiffDags, IdenticalDagsYieldEmptyChange) {
  UsageDag A = cipherDag("AES");
  UsageDag B = cipherDag("AES");
  UsageChange Change = diff(A, B);
  EXPECT_TRUE(Change.isEmpty());
  EXPECT_EQ(Change.TypeName, "Cipher");
}

TEST(DiffDags, AlgorithmSwapProducesMinimalFeatures) {
  UsageChange Change =
      diff(cipherDag("AES"), cipherDag("AES/CBC", true));
  std::vector<std::string> Removed = strs(materializeRemoved(Change));
  std::vector<std::string> Added = strs(materializeAdded(Change));
  ASSERT_EQ(Removed.size(), 1u);
  EXPECT_EQ(Removed[0], "Cipher Cipher.getInstance arg1:AES");
  ASSERT_EQ(Added.size(), 2u);
  EXPECT_EQ(Added[0], "Cipher Cipher.getInstance arg1:AES/CBC");
  EXPECT_EQ(Added[1], "Cipher Cipher.init arg3:IvParameterSpec");
}

TEST(DiffDags, AgainstEmptyIsPureAddition) {
  UsageChange Change =
      diff(UsageDag::emptyFor("Cipher"), cipherDag("AES"));
  EXPECT_TRUE(Change.Removed.empty());
  EXPECT_FALSE(Change.Added.empty());
  // The shortest added paths start at the method level (the root is
  // shared).
  for (const FeaturePath &P : materializeAdded(Change))
    EXPECT_EQ(P.size(), 2u);
}

TEST(DiffDags, SymmetricSwapReversesFeatureSets) {
  UsageDag A = cipherDag("AES"), B = cipherDag("DES");
  UsageChange Fwd = diff(A, B);
  UsageChange Bwd = diff(B, A);
  EXPECT_EQ(Fwd.Removed, Bwd.Added);
  EXPECT_EQ(Fwd.Added, Bwd.Removed);
}

TEST(DiffDags, StringAndIntConstantsStayDistinct) {
  // Old: c.init(1, key); c.init("1", key);  New: c.init("1", key);
  // arg1:1 and arg1:"1" render alike, so a diff keyed on rendered paths
  // sees the old int path collapse into the string one and reports a
  // bogus "+ arg1:1". Structurally only the int path is gone.
  ObjectTable Objects;
  unsigned Enc = Objects.getOrCreate({13, 1, 0}, "Cipher");
  UsageEvent IntInit{"Cipher.init/2",
                     {AbstractValue::intConst(1),
                      AbstractValue::topObject("Key")}};
  UsageEvent StrInit{"Cipher.init/2",
                     {AbstractValue::strConst("1"),
                      AbstractValue::topObject("Key")}};
  UsageLog OldLog, NewLog;
  OldLog[Enc] = {IntInit, StrInit};
  NewLog[Enc] = {StrInit};
  UsageDag Old = UsageDag::build(Objects, OldLog, Enc);
  UsageDag New = UsageDag::build(Objects, NewLog, Enc);

  UsageChange Change = diff(Old, New);
  ASSERT_EQ(Change.Removed.size(), 1u);
  EXPECT_TRUE(Change.Added.empty()) << Change.str();
  FeaturePath Gone = {rootL("Cipher"), methodL("Cipher.init/2"),
                      NodeLabel::arg(1, AbstractValue::intConst(1))};
  EXPECT_EQ(materializeRemoved(Change)[0], Gone);
  EXPECT_EQ(Change.str(), "- Cipher Cipher.init arg1:1\n");
  ReferenceChange Expected = referenceUsageChanges({Old}, {New}, "Cipher")[0];
  EXPECT_EQ(materializeRemoved(Change), Expected.Removed);
  EXPECT_EQ(materializeAdded(Change), Expected.Added);
}

TEST(UsageChange, SameFeaturesIgnoresOrigin) {
  UsageChange A = diff(cipherDag("AES"), cipherDag("DES"));
  UsageChange B = A;
  B.Origin = "elsewhere";
  EXPECT_TRUE(sameFeatures(A, B));
  UsageChange C = diff(cipherDag("AES"), cipherDag("RC4"));
  EXPECT_FALSE(sameFeatures(A, C));
}

TEST(UsageChange, SameFeaturesAcrossDistinctInterners) {
  // Two pipelines, two tables: id values differ (intern order does), but
  // sameFeatures must still compare the underlying label structure.
  support::Interner Other;
  // Skew Other's id assignment relative to the shared table.
  Other.path({methodL("T.skew"), strArg(1, "skew")});
  UsageChange A = diff(cipherDag("AES"), cipherDag("DES"));
  UsageChange B = diff(cipherDag("AES"), cipherDag("DES"), Other);
  B.Origin = "elsewhere";
  EXPECT_TRUE(sameFeatures(A, B));
  EXPECT_TRUE(sameFeatures(B, A));
  UsageChange C = diff(cipherDag("AES"), cipherDag("RC4"), Other);
  EXPECT_FALSE(sameFeatures(A, C));
}

TEST(UsageChange, StrRendersSignedPaths) {
  UsageChange Change = diff(cipherDag("AES"), cipherDag("DES"));
  std::string Text = Change.str();
  EXPECT_NE(Text.find("- Cipher Cipher.getInstance arg1:AES"),
            std::string::npos);
  EXPECT_NE(Text.find("+ Cipher Cipher.getInstance arg1:DES"),
            std::string::npos);
}

TEST(UsageChange, InternFactoryRoundTrips) {
  FeaturePath R = {rootL("Cipher"), methodL("Cipher.getInstance/1"),
                   strArg(1, "AES")};
  FeaturePath A = {rootL("Cipher"), methodL("Cipher.getInstance/1"),
                   strArg(1, "AES/GCM")};
  UsageChange Change =
      UsageChange::intern(table(), "Cipher", {R}, {A}, "p@c1");
  EXPECT_EQ(Change.TypeName, "Cipher");
  EXPECT_EQ(Change.Origin, "p@c1");
  ASSERT_EQ(materializeRemoved(Change).size(), 1u);
  EXPECT_EQ(materializeRemoved(Change)[0], R);
  ASSERT_EQ(materializeAdded(Change).size(), 1u);
  EXPECT_EQ(materializeAdded(Change)[0], A);
  EXPECT_EQ(Change.pathString(Change.Removed[0]), pathToString(R));
}

//===----------------------------------------------------------------------===//
// pairDags
//===----------------------------------------------------------------------===//

TEST(PairDags, MatchesMostSimilarDags) {
  std::vector<UsageDag> Old, New;
  Old.push_back(cipherDag("AES"));
  Old.push_back(cipherDag("DES"));
  // New order reversed; the matcher must recover the correspondence.
  New.push_back(cipherDag("DES"));
  New.push_back(cipherDag("AES"));
  std::vector<DagIds> OldIds = ids(Old), NewIds = ids(New);
  auto Pairs = pairDags(OldIds, NewIds);
  ASSERT_EQ(Pairs.size(), 2u);
  for (auto [O, N] : Pairs) {
    ASSERT_NE(O, static_cast<std::size_t>(-1));
    ASSERT_NE(N, static_cast<std::size_t>(-1));
    EXPECT_DOUBLE_EQ(dagDistance(OldIds[O], NewIds[N]), 0.0);
  }
}

TEST(PairDags, PadsWhenCountsDiffer) {
  std::vector<UsageDag> Old;
  Old.push_back(cipherDag("AES"));
  std::vector<UsageDag> New;
  New.push_back(cipherDag("AES"));
  New.push_back(cipherDag("DES"));
  auto Pairs = pairDags(ids(Old), ids(New));
  ASSERT_EQ(Pairs.size(), 2u);
  unsigned Unmatched = 0;
  for (auto [O, N] : Pairs)
    if (O == static_cast<std::size_t>(-1))
      ++Unmatched;
  EXPECT_EQ(Unmatched, 1u);
}

TEST(PairDags, EmptyInputs) {
  EXPECT_TRUE(pairDags({}, {}).empty());
  std::vector<DagIds> One = ids({cipherDag("AES")});
  EXPECT_EQ(pairDags(One, {}).size(), 1u);
  EXPECT_EQ(pairDags({}, One).size(), 1u);
}

//===----------------------------------------------------------------------===//
// deriveUsageChanges
//===----------------------------------------------------------------------===//

TEST(DeriveUsageChanges, RefactoringYieldsEmptyChanges) {
  std::vector<UsageDag> Old, New;
  Old.push_back(cipherDag("AES"));
  New.push_back(cipherDag("AES"));
  std::vector<UsageChange> Changes =
      deriveUsageChanges(Old, New, "Cipher", table());
  ASSERT_EQ(Changes.size(), 1u);
  EXPECT_TRUE(Changes[0].isEmpty());
}

TEST(DeriveUsageChanges, AdditionAndFixDistinguished) {
  std::vector<UsageDag> Old, New;
  Old.push_back(cipherDag("AES"));
  New.push_back(cipherDag("AES/GCM", true)); // the fix
  New.push_back(cipherDag("RC4"));           // a brand-new usage
  std::vector<UsageChange> Changes =
      deriveUsageChanges(Old, New, "Cipher", table());
  ASSERT_EQ(Changes.size(), 2u);
  unsigned Fixes = 0, Adds = 0;
  for (const UsageChange &C : Changes) {
    if (!C.Removed.empty() && !C.Added.empty())
      ++Fixes;
    if (C.Removed.empty() && !C.Added.empty())
      ++Adds;
  }
  EXPECT_EQ(Fixes, 1u);
  EXPECT_EQ(Adds, 1u);
}

TEST(DeriveUsageChanges, RemovalDetected) {
  std::vector<UsageDag> Old;
  Old.push_back(cipherDag("AES"));
  std::vector<UsageChange> Changes =
      deriveUsageChanges(Old, {}, "Cipher", table());
  ASSERT_EQ(Changes.size(), 1u);
  EXPECT_FALSE(Changes[0].Removed.empty());
  EXPECT_TRUE(Changes[0].Added.empty());
}
