//===- bench/micro_clustering.cpp - Clustering engine speedup --------------===//
//
// Part of the DiffCode project, a reproduction of "Inferring Crypto API
// Rules from Code Changes" (PLDI'18).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures the parallel clustering engine (memoised distance cache +
/// threaded matrix + nearest-neighbor-chain agglomeration) against the
/// seed's serial path (uncached usageDist matrix + O(n^3) naive
/// agglomeration from tests/oracles) on a synthetic usage-change corpus,
/// verifies the engine dendrogram encodes exactly the oracle's merges,
/// and emits one JSON object so scripts can scrape the speedup.
///
///   micro_clustering [n] [threads] [seed]     (defaults: 500 8 42)
///
//===----------------------------------------------------------------------===//

#include "cluster/DistanceCache.h"
#include "cluster/HierarchicalClustering.h"
#include "oracles/DistanceOracle.h"
#include "oracles/NaiveClustering.h"
#include "support/JsonWriter.h"
#include "support/Rng.h"
#include "support/ThreadPool.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

using namespace diffcode;
using namespace diffcode::analysis;
using namespace diffcode::cluster;
using namespace diffcode::usage;

namespace {

/// Small crypto-flavoured vocabulary so the corpus has realistic label
/// repetition (which is exactly what the memoised cache exploits).
FeaturePath randomPath(Rng &R) {
  static const char *Roots[] = {"Cipher", "MessageDigest", "SecureRandom",
                                "KeyGenerator"};
  static const char *Methods[] = {
      "Cipher.getInstance/1",       "Cipher.init/3",
      "Cipher.doFinal/1",           "MessageDigest.getInstance/1",
      "MessageDigest.update/1",     "SecureRandom.setSeed/1",
      "KeyGenerator.getInstance/1", "KeyGenerator.init/1"};
  static const char *Strings[] = {"AES",     "AES/CBC/PKCS5Padding",
                                  "AES/GCM/NoPadding", "DES",
                                  "DES/ECB/PKCS5Padding", "RSA",
                                  "SHA-1",   "SHA-256", "MD5"};
  FeaturePath Path = {NodeLabel::root(Roots[R.index(4)])};
  for (std::size_t Depth = 0, N = R.range(1, 3); Depth < N; ++Depth)
    Path.push_back(NodeLabel::method(Methods[R.index(8)]));
  if (R.chance(0.75)) {
    unsigned Index = static_cast<unsigned>(R.range(1, 3));
    if (R.chance(0.7))
      Path.push_back(
          NodeLabel::arg(Index, AbstractValue::strConst(Strings[R.index(9)])));
    else
      Path.push_back(NodeLabel::arg(Index, AbstractValue::byteArrayTop()));
  }
  return Path;
}

std::vector<UsageChange> randomCorpus(std::uint64_t Seed, std::size_t Size) {
  static support::Interner Table;
  Rng R(Seed);
  std::vector<UsageChange> Changes;
  Changes.reserve(Size);
  for (std::size_t C = 0; C < Size; ++C) {
    std::vector<FeaturePath> Removed, Added;
    for (std::size_t I = 0, N = R.range(0, 3); I < N; ++I)
      Removed.push_back(randomPath(R));
    for (std::size_t I = 0, N = R.range(0, 3); I < N; ++I)
      Added.push_back(randomPath(R));
    Changes.push_back(UsageChange::intern(Table, "Cipher", Removed, Added));
  }
  return Changes;
}

double millisSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - Start)
      .count();
}

} // namespace

int main(int argc, char **argv) {
  long long NArg = argc > 1 ? std::atoll(argv[1]) : 500;
  int ThreadsArg = argc > 2 ? std::atoi(argv[2]) : 8;
  if (NArg < 0 || ThreadsArg < 0) {
    std::fprintf(stderr, "usage: micro_clustering [n >= 0] [threads >= 0] "
                         "[seed]   (defaults: 500 8 42)\n");
    return 2;
  }
  std::size_t N = static_cast<std::size_t>(NArg);
  unsigned Threads = static_cast<unsigned>(ThreadsArg);
  std::uint64_t Seed = argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 42;

  std::vector<UsageChange> Changes = randomCorpus(Seed, N);

  // Baseline: the seed's serial path — every string-space usageDist call
  // re-materializes both changes and recomputes label similarities and
  // path matchings from scratch, then the O(n^3) naive agglomeration.
  auto BaselineStart = std::chrono::steady_clock::now();
  std::vector<double> BaselineMatrix = pairwiseDistanceMatrix(
      N,
      [&](std::size_t I, std::size_t J) {
        return referenceUsageDist(Changes[I], Changes[J]);
      },
      nullptr);
  double BaselineMatrixMs = millisSince(BaselineStart);
  std::vector<Merge> BaselineMerges = naiveMerges(N, BaselineMatrix);
  double BaselineMs = millisSince(BaselineStart);

  // Engine: interned labels + memoised similarity tables, threaded matrix,
  // nearest-neighbor-chain agglomeration. Staged here exactly like
  // clusterUsageChanges so the JSON can attribute the time.
  auto EngineStart = std::chrono::steady_clock::now();
  support::ThreadPool Pool(Threads);
  UsageDistCache Cache(Changes, &Pool);
  double CacheMs = millisSince(EngineStart);
  std::vector<double> EngineMatrix = pairwiseDistanceMatrix(
      N, [&](std::size_t I, std::size_t J) { return Cache(I, J); }, &Pool);
  double EngineMatrixMs = millisSince(EngineStart) - CacheMs;
  Dendrogram EngineTree =
      agglomerateDistanceMatrix(N, std::move(EngineMatrix));
  double EngineMs = millisSince(EngineStart);

  bool Identical = EngineTree.leafCount() == N &&
                   dendrogramMerges(EngineTree) == BaselineMerges;
  double Speedup = EngineMs > 0.0 ? BaselineMs / EngineMs : 0.0;

  JsonWriter W;
  W.beginObject();
  W.key("bench").value("micro_clustering");
  W.key("n").value(static_cast<std::uint64_t>(N));
  W.key("threads").value(static_cast<std::uint64_t>(Threads));
  W.key("seed").value(Seed);
  W.key("serial_naive_ms").value(BaselineMs);
  W.key("serial_matrix_ms").value(BaselineMatrixMs);
  W.key("engine_ms").value(EngineMs);
  W.key("engine_cache_ms").value(CacheMs);
  W.key("engine_matrix_ms").value(EngineMatrixMs);
  W.key("speedup").value(Speedup);
  W.key("identical_dendrograms").value(Identical);
  W.endObject();
  std::printf("%s\n", W.take().c_str());

  if (!Identical) {
    std::fprintf(stderr,
                 "FAIL: engine dendrogram differs from serial naive oracle\n");
    return 1;
  }
  return 0;
}
