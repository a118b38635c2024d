//===- bench/micro_matching.cpp - Matching & clustering scaling ------------===//
//
// Part of the DiffCode project, a reproduction of "Inferring Crypto API
// Rules from Code Changes" (PLDI'18).
//
//===----------------------------------------------------------------------===//
//
// Micro-benchmark M2: the algorithmic kernels behind Sections 3.5 and 4.3
// — Levenshtein distance, the Hungarian assignment (DAG pairing and path
// matching both use it), the DAG IoU distance, pathsDist, and complete-
// linkage clustering as a function of input size. Shows the O(n^3)
// assignment and O(n^2)-distance clustering stay cheap at the paper's
// post-filter scale (186 changes).
//
//===----------------------------------------------------------------------===//

#include <benchmark/benchmark.h>

#include "cluster/DistanceCache.h"
#include "cluster/HierarchicalClustering.h"
#include "support/Hungarian.h"
#include "support/Rng.h"
#include "support/StringUtils.h"

using namespace diffcode;
using namespace diffcode::usage;

namespace {

std::string randomTransform(Rng &R) {
  static const char *Algos[] = {"AES", "DES", "RC4", "Blowfish"};
  static const char *Modes[] = {"ECB", "CBC", "GCM", "CTR"};
  static const char *Pads[] = {"NoPadding", "PKCS5Padding"};
  return std::string(Algos[R.index(4)]) + "/" + Modes[R.index(4)] + "/" +
         Pads[R.index(2)];
}

FeaturePath randomPath(Rng &R) {
  static const char *Methods[] = {"Cipher.getInstance/1", "Cipher.init/3",
                                  "Cipher.doFinal/1",
                                  "MessageDigest.getInstance/1"};
  FeaturePath P = {NodeLabel::root("Cipher"),
                   NodeLabel::method(Methods[R.index(4)])};
  P.push_back(NodeLabel::arg(
      1, analysis::AbstractValue::strConst(randomTransform(R))));
  return P;
}

support::Interner &table() {
  static support::Interner Table;
  return Table;
}

UsageChange randomChange(Rng &R) {
  std::vector<FeaturePath> Removed, Added;
  for (std::size_t I = 0, N = 1 + R.range(0, 2); I < N; ++I)
    Removed.push_back(randomPath(R));
  for (std::size_t I = 0, N = 1 + R.range(0, 2); I < N; ++I)
    Added.push_back(randomPath(R));
  return UsageChange::intern(table(), "Cipher", Removed, Added);
}

void BM_Levenshtein(benchmark::State &State) {
  Rng R(1);
  std::string A = randomTransform(R) + randomTransform(R);
  std::string B = randomTransform(R) + randomTransform(R);
  for (auto _ : State)
    benchmark::DoNotOptimize(levenshtein(A, B));
}
BENCHMARK(BM_Levenshtein);

void BM_Hungarian(benchmark::State &State) {
  const std::size_t N = static_cast<std::size_t>(State.range(0));
  Rng R(7);
  CostMatrix M(N, N);
  for (std::size_t I = 0; I < N; ++I)
    for (std::size_t J = 0; J < N; ++J)
      M.at(I, J) = R.uniform();
  for (auto _ : State)
    benchmark::DoNotOptimize(solveAssignment(M));
  State.SetComplexityN(static_cast<int>(N));
}
BENCHMARK(BM_Hungarian)->RangeMultiplier(2)->Range(4, 128)->Complexity();

void BM_PathsDist(benchmark::State &State) {
  const std::size_t N = static_cast<std::size_t>(State.range(0));
  Rng R(3);
  std::vector<support::PathId> F1, F2;
  for (std::size_t I = 0; I < N; ++I) {
    F1.push_back(table().path(randomPath(R)));
    F2.push_back(table().path(randomPath(R)));
  }
  for (auto _ : State)
    benchmark::DoNotOptimize(cluster::pathsDist(table(), F1, F2));
}
BENCHMARK(BM_PathsDist)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

void BM_UsageDist(benchmark::State &State) {
  Rng R(5);
  UsageChange A = randomChange(R), B = randomChange(R);
  for (auto _ : State)
    benchmark::DoNotOptimize(cluster::usageDist(A, B));
}
BENCHMARK(BM_UsageDist);

void BM_Clustering(benchmark::State &State) {
  const std::size_t N = static_cast<std::size_t>(State.range(0));
  Rng R(11);
  std::vector<UsageChange> Changes;
  for (std::size_t I = 0; I < N; ++I)
    Changes.push_back(randomChange(R));
  for (auto _ : State)
    benchmark::DoNotOptimize(cluster::clusterUsageChanges(Changes));
  State.SetComplexityN(static_cast<int>(N));
}
BENCHMARK(BM_Clustering)
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->Arg(64)
    ->Arg(128)
    ->Arg(186) // the paper's post-filter corpus size
    ->Complexity();

} // namespace

BENCHMARK_MAIN();
