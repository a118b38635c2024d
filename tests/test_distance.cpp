//===- tests/test_distance.cpp - Clustering metric tests (Section 4.3) -----===//
//
// The semantic cases exercise the production metric over interned ids
// (cluster/DistanceCache.h); the random property cases also hold it, and
// the memoised cache, bit for bit to the string-space reference in
// tests/oracles/DistanceOracle.
//
//===----------------------------------------------------------------------===//

#include "cluster/DistanceCache.h"

#include "oracles/DistanceOracle.h"
#include "oracles/UsageOracle.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

using namespace diffcode;
using namespace diffcode::analysis;
using namespace diffcode::cluster;
using namespace diffcode::usage;
using support::LabelId;
using support::PathId;

namespace {

NodeLabel rootL(const char *T) { return NodeLabel::root(T); }
NodeLabel methodL(const char *Sig) { return NodeLabel::method(Sig); }
NodeLabel strArg(unsigned I, const char *V) {
  return NodeLabel::arg(I, AbstractValue::strConst(V));
}
NodeLabel atomArg(unsigned I, const AbstractValue &V) {
  return NodeLabel::arg(I, V);
}

FeaturePath cipherGet(const char *Algo) {
  return {rootL("Cipher"), methodL("Cipher.getInstance/1"), strArg(1, Algo)};
}

support::Interner &table() {
  static support::Interner Table;
  return Table;
}

LabelId lid(const NodeLabel &Label) { return table().label(Label); }
PathId pid(const FeaturePath &Path) { return table().path(Path); }
std::vector<PathId> pids(const std::vector<FeaturePath> &Paths) {
  std::vector<PathId> Out;
  for (const FeaturePath &Path : Paths)
    Out.push_back(pid(Path));
  return Out;
}

const std::vector<std::string> &units(const NodeLabel &Label) {
  return table().unitsOf(lid(Label));
}
double similarity(const NodeLabel &A, const NodeLabel &B) {
  return labelSimilarity(table(), lid(A), lid(B));
}
double dist(const FeaturePath &A, const FeaturePath &B) {
  return pathDist(table(), pid(A), pid(B));
}
double setDist(const std::vector<FeaturePath> &F1,
               const std::vector<FeaturePath> &F2) {
  return pathsDist(table(), pids(F1), pids(F2));
}

UsageChange change(const std::vector<FeaturePath> &Removed,
                   const std::vector<FeaturePath> &Added) {
  return UsageChange::intern(table(), "Cipher", Removed, Added);
}

/// Random feature path for property tests.
FeaturePath randomPath(Rng &R) {
  static const char *Methods[] = {"Cipher.getInstance/1", "Cipher.init/3",
                                  "MessageDigest.getInstance/1",
                                  "SecureRandom.setSeed/1"};
  static const char *Strings[] = {"AES", "AES/CBC/PKCS5Padding", "DES",
                                  "SHA-1", "SHA-256"};
  FeaturePath P = {rootL(R.chance(0.5) ? "Cipher" : "MessageDigest")};
  P.push_back(methodL(Methods[R.index(4)]));
  if (R.chance(0.7)) {
    if (R.chance(0.5))
      P.push_back(strArg(static_cast<unsigned>(R.range(1, 3)),
                         Strings[R.index(5)]));
    else
      P.push_back(atomArg(static_cast<unsigned>(R.range(1, 3)),
                          AbstractValue::byteArrayTop()));
  }
  return P;
}

} // namespace

//===----------------------------------------------------------------------===//
// labelUnits / labelSimilarity
//===----------------------------------------------------------------------===//

TEST(LabelUnits, MethodIsSingleUnit) {
  EXPECT_EQ(units(methodL("Cipher.getInstance/1")).size(), 1u);
  EXPECT_EQ(units(rootL("Cipher")).size(), 1u);
}

TEST(LabelUnits, StringArgSplitsPerCharacter) {
  const std::vector<std::string> &Units = units(strArg(1, "AES"));
  // arg marker + 3 characters.
  ASSERT_EQ(Units.size(), 4u);
  EXPECT_EQ(Units[0], "arg1");
  EXPECT_EQ(Units[1], "A");
}

TEST(LabelUnits, AtomicArgIsTwoUnits) {
  EXPECT_EQ(units(atomArg(2, AbstractValue::byteArrayTop())).size(), 2u);
  EXPECT_EQ(
      units(atomArg(1, AbstractValue::intConst(1, "ENCRYPT_MODE"))).size(),
      2u);
}

TEST(LabelSimilarity, DifferentMethodsScoreZero) {
  // "it takes 1 modification to change any method signature to a
  // different one" -> ratio 1 - 1/1 = 0.
  EXPECT_DOUBLE_EQ(
      similarity(methodL("Cipher.init/2"), methodL("Cipher.doFinal/1")), 0.0);
  // Arity is stripped from method labels, so two overloads coincide.
  EXPECT_DOUBLE_EQ(
      similarity(methodL("Cipher.init/2"), methodL("Cipher.init/3")), 1.0);
}

TEST(LabelSimilarity, SimilarStringsScoreHigh) {
  double Close = similarity(strArg(1, "AES/CBC/PKCS5Padding"),
                            strArg(1, "AES/CBC/NoPadding"));
  double Far = similarity(strArg(1, "AES/CBC/PKCS5Padding"), strArg(1, "RC4"));
  EXPECT_GT(Close, Far);
  EXPECT_GT(Close, 0.5);
}

//===----------------------------------------------------------------------===//
// pathDist
//===----------------------------------------------------------------------===//

TEST(PathDist, IdenticalIsZero) {
  FeaturePath P = cipherGet("AES");
  EXPECT_DOUBLE_EQ(dist(P, P), 0.0);
}

TEST(PathDist, SharedPrefixReducesDistance) {
  FeaturePath A = cipherGet("AES");
  FeaturePath B = cipherGet("DES");
  FeaturePath C = {rootL("Mac"), methodL("Mac.getInstance/1"),
                   strArg(1, "HmacSHA256")};
  EXPECT_LT(dist(A, B), dist(A, C));
}

TEST(PathDist, PrefixPathCloserThanUnrelated) {
  FeaturePath Long = cipherGet("AES");
  FeaturePath Short = {rootL("Cipher"), methodL("Cipher.getInstance/1")};
  double D = dist(Long, Short);
  // Common prefix 2 of max length 3.
  EXPECT_DOUBLE_EQ(D, 1.0 - 2.0 / 3.0);
}

TEST(PathDist, FirstDivergingLabelsEarnPartialCredit) {
  // Prefix 2, then arg1:AES vs arg1:AEX: units [arg1 A E S] vs
  // [arg1 A E X] differ in one of four, so the pair adds 0.75.
  EXPECT_DOUBLE_EQ(dist(cipherGet("AES"), cipherGet("AEX")),
                   1.0 - (2.0 + 0.75) / 3.0);
  // Labels of different kinds share no unit and earn nothing.
  FeaturePath Method = {rootL("Cipher"), methodL("Cipher.getInstance/1"),
                        methodL("Cipher.init/3")};
  EXPECT_DOUBLE_EQ(dist(cipherGet("AES"), Method), 1.0 - 2.0 / 3.0);
}

TEST(PathDist, EmptyVsNonEmpty) {
  FeaturePath Empty;
  EXPECT_DOUBLE_EQ(dist(Empty, Empty), 0.0);
  EXPECT_DOUBLE_EQ(dist(Empty, cipherGet("AES")), 1.0);
}

class PathDistProperty : public ::testing::TestWithParam<int> {};

TEST_P(PathDistProperty, MetricShape) {
  Rng R(GetParam() * 131 + 7);
  FeaturePath A = randomPath(R), B = randomPath(R);
  double AB = dist(A, B), BA = dist(B, A);
  EXPECT_DOUBLE_EQ(AB, BA);
  EXPECT_GE(AB, 0.0);
  EXPECT_LE(AB, 1.0);
  EXPECT_DOUBLE_EQ(dist(A, A), 0.0);
  if (AB == 0.0) {
    EXPECT_EQ(A, B);
  }
  // Bit-exact agreement with the string-space reference.
  EXPECT_EQ(AB, referencePathDist(A, B));
  EXPECT_EQ(BA, referencePathDist(B, A));
}

INSTANTIATE_TEST_SUITE_P(Seeds, PathDistProperty, ::testing::Range(0, 50));

//===----------------------------------------------------------------------===//
// pathsDist
//===----------------------------------------------------------------------===//

TEST(PathsDist, BothEmptyIsZero) { EXPECT_DOUBLE_EQ(setDist({}, {}), 0.0); }

TEST(PathsDist, OneEmptyIsOne) {
  EXPECT_DOUBLE_EQ(setDist({cipherGet("AES")}, {}), 1.0);
  EXPECT_DOUBLE_EQ(setDist({}, {cipherGet("AES")}), 1.0);
}

TEST(PathsDist, MatchingIgnoresOrder) {
  std::vector<FeaturePath> F1 = {cipherGet("AES"), cipherGet("DES")};
  std::vector<FeaturePath> F2 = {cipherGet("DES"), cipherGet("AES")};
  EXPECT_DOUBLE_EQ(setDist(F1, F2), 0.0);
}

TEST(PathsDist, UnbalancedSetsPayPerExtraPath) {
  std::vector<FeaturePath> F1 = {cipherGet("AES")};
  std::vector<FeaturePath> F2 = {cipherGet("AES"), cipherGet("DES")};
  // One perfect match + one unmatched out of max 2.
  EXPECT_DOUBLE_EQ(setDist(F1, F2), 0.5);
}

TEST(PathsDist, PicksMinimalMatching) {
  // Must pair AES<->AES-like and DES<->DES-like, not crosswise.
  std::vector<FeaturePath> F1 = {cipherGet("AES/CBC/PKCS5Padding"),
                                 cipherGet("DES")};
  std::vector<FeaturePath> F2 = {cipherGet("DES/CBC"),
                                 cipherGet("AES/CBC/NoPadding")};
  double D = setDist(F1, F2);
  double Crosswise = (dist(F1[0], F2[0]) + dist(F1[1], F2[1])) / 2.0;
  double Straight = (dist(F1[0], F2[1]) + dist(F1[1], F2[0])) / 2.0;
  EXPECT_LT(Straight, Crosswise);
  EXPECT_DOUBLE_EQ(D, Straight);
}

//===----------------------------------------------------------------------===//
// usageDist
//===----------------------------------------------------------------------===//

TEST(UsageDist, IdenticalChangesZero) {
  UsageChange C =
      change({cipherGet("AES")}, {cipherGet("AES/CBC/PKCS5Padding")});
  EXPECT_DOUBLE_EQ(usageDist(C, C), 0.0);
}

TEST(UsageDist, AveragesRemovedAndAdded) {
  UsageChange A = change({cipherGet("AES")}, {});
  UsageChange B = change({cipherGet("AES")}, {cipherGet("DES")});
  // Removed sides identical (0), added sides 1 vs 0 paths (1) -> 0.5.
  EXPECT_DOUBLE_EQ(usageDist(A, B), 0.5);
}

TEST(UsageDist, SimilarFixesCloserThanDifferentFixes) {
  // Two ECB->CBC style fixes vs an ECB->CBC fix and a SHA fix.
  UsageChange EcbToCbc =
      change({cipherGet("AES")}, {cipherGet("AES/CBC/PKCS5Padding")});
  UsageChange EcbToGcm =
      change({cipherGet("AES/ECB")}, {cipherGet("AES/GCM/NoPadding")});
  UsageChange ShaFix = change(
      {{rootL("MessageDigest"), methodL("MessageDigest.getInstance/1"),
        strArg(1, "SHA-1")}},
      {{rootL("MessageDigest"), methodL("MessageDigest.getInstance/1"),
        strArg(1, "SHA-256")}});
  EXPECT_LT(usageDist(EcbToCbc, EcbToGcm), usageDist(EcbToCbc, ShaFix));
}

class UsageDistProperty : public ::testing::TestWithParam<int> {};

TEST_P(UsageDistProperty, MetricShape) {
  Rng R(GetParam() * 733 + 3);
  auto RandomChange = [&] {
    std::vector<FeaturePath> Rem, Add;
    for (std::size_t I = 0, N = R.range(0, 3); I < N; ++I)
      Rem.push_back(randomPath(R));
    for (std::size_t I = 0, N = R.range(0, 3); I < N; ++I)
      Add.push_back(randomPath(R));
    return change(std::move(Rem), std::move(Add));
  };
  UsageChange A = RandomChange(), B = RandomChange();
  double AB = usageDist(A, B);
  EXPECT_DOUBLE_EQ(AB, usageDist(B, A));
  EXPECT_GE(AB, 0.0);
  EXPECT_LE(AB, 1.0);
  EXPECT_DOUBLE_EQ(usageDist(A, A), 0.0);
  // Bit-exact agreement with the string-space reference.
  EXPECT_EQ(AB, referenceUsageDist(A, B));
  EXPECT_EQ(usageDist(B, A), referenceUsageDist(B, A));
}

INSTANTIATE_TEST_SUITE_P(Seeds, UsageDistProperty, ::testing::Range(0, 50));

//===----------------------------------------------------------------------===//
// UsageDistCache — the memoised engine path must be a bit-exact drop-in
// for the uncached usageDist and the string-space reference, and keep its
// metric shape.
//===----------------------------------------------------------------------===//

class CachedUsageDistProperty : public ::testing::TestWithParam<int> {};

TEST_P(CachedUsageDistProperty, CacheIsExactlyUncached) {
  Rng R(GetParam() * 9341 + 17);
  std::vector<UsageChange> Changes;
  for (int I = 0; I < 60; ++I) {
    std::vector<FeaturePath> Rem, Add;
    for (std::size_t K = 0, N = R.range(0, 3); K < N; ++K)
      Rem.push_back(randomPath(R));
    for (std::size_t K = 0, N = R.range(0, 3); K < N; ++K)
      Add.push_back(randomPath(R));
    Changes.push_back(change(std::move(Rem), std::move(Add)));
  }

  UsageDistCache Cache(Changes);
  ASSERT_EQ(Cache.size(), Changes.size());
  for (std::size_t I = 0; I < Changes.size(); ++I) {
    // Identity: d(a, a) == 0, straight from the cache.
    EXPECT_EQ(Cache(I, I), 0.0) << "item " << I;
    for (std::size_t J = I + 1; J < Changes.size(); ++J) {
      double Cached = Cache(I, J);
      // Symmetry and range.
      EXPECT_EQ(Cached, Cache(J, I)) << I << "," << J;
      EXPECT_GE(Cached, 0.0);
      EXPECT_LE(Cached, 1.0);
      // Bit-exact agreement with the uncached metric and the oracle
      // (EXPECT_EQ on doubles is deliberate: the cache memoises the same
      // arithmetic, and the oracle computes it over materialized paths).
      EXPECT_EQ(Cached, usageDist(Changes[I], Changes[J])) << I << "," << J;
      EXPECT_EQ(Cached, referenceUsageDist(Changes[I], Changes[J]))
          << I << "," << J;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CachedUsageDistProperty, ::testing::Range(0, 4));

TEST(UsageDistCache, InterningDeduplicatesVocabulary) {
  // Three changes over two distinct paths and a handful of labels: the
  // interner must collapse them.
  UsageChange A = change({cipherGet("AES")}, {cipherGet("DES")});
  UsageChange B = change({cipherGet("AES")}, {cipherGet("DES")});
  UsageChange C = change({cipherGet("DES")}, {cipherGet("AES")});
  UsageDistCache Cache({A, B, C});
  EXPECT_EQ(Cache.distinctPaths(), 2u);
  // Labels: Cipher root, getInstance method, "AES" arg, "DES" arg.
  EXPECT_EQ(Cache.distinctLabels(), 4u);
  EXPECT_EQ(Cache(0, 1), 0.0); // duplicates are distance zero
  EXPECT_EQ(Cache(0, 2), usageDist(A, C));
}
