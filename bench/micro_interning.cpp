//===- bench/micro_interning.cpp - Interned data model footprint sweep -----===//
//
// Part of the DiffCode project, a reproduction of "Inferring Crypto API
// Rules from Code Changes" (PLDI'18).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures what the interned corpus data model buys over the
/// string-based representation it replaced, at n in {1k, 5k, 10k}
/// synthetic usage changes (10k is the order of the paper's 11,551
/// Cipher changes):
///
///   * resident bytes per usage change: owned FeaturePath trees of
///     heap-allocated strings vs two PathId vectors plus the amortized
///     shared Interner table;
///   * UsageDistCache construction: the production id-compaction path vs
///     a faithful replica of the legacy constructor that re-derived a
///     private label/path vocabulary from strings with std::map lookups;
///   * pairwise distance throughput: the warmed cache vs the string-
///     space usageDist on sampled pairs;
///   * sharded clustering wall time at the largest n, as the wall-time
///     regression guard.
///
/// Self-verifying: exits non-zero unless the interned model uses at most
/// half the resident bytes per change at every n (the ISSUE's >= 2x
/// acceptance bar) and the warmed cache evaluates sampled pairs at least
/// as fast as the string-space metric.
///
///   micro_interning [nmax] [seed] [out.json]   (defaults: 10000 42
///                                               BENCH_interning.json)
///
//===----------------------------------------------------------------------===//

#include "cluster/DistanceCache.h"
#include "cluster/HierarchicalClustering.h"
#include "cluster/ShardedClustering.h"
#include "oracles/DistanceOracle.h"
#include "support/JsonWriter.h"
#include "support/Rng.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

using namespace diffcode;
using namespace diffcode::analysis;
using namespace diffcode::cluster;
using namespace diffcode::usage;

namespace {

/// Crypto-flavoured corpus, same vocabulary as micro_sharding.
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

/// The pre-interning representation: every change owns its paths.
struct StringChange {
  std::vector<FeaturePath> Removed;
  std::vector<FeaturePath> Added;
};

/// One corpus, both representations, drawn from one RNG stream so they
/// describe identical changes.
struct Corpora {
  std::vector<StringChange> Strings;
  std::vector<UsageChange> Interned;
  support::Interner Table;
};

void buildCorpora(Corpora &Out, std::uint64_t Seed, std::size_t Size) {
  Rng R(Seed);
  Out.Strings.reserve(Size);
  Out.Interned.reserve(Size);
  for (std::size_t C = 0; C < Size; ++C) {
    StringChange S;
    for (std::size_t I = 0, N = R.range(0, 3); I < N; ++I)
      S.Removed.push_back(randomPath(R));
    for (std::size_t I = 0, N = R.range(0, 3); I < N; ++I)
      S.Added.push_back(randomPath(R));
    Out.Interned.push_back(
        UsageChange::intern(Out.Table, "Cipher", S.Removed, S.Added));
    Out.Strings.push_back(std::move(S));
  }
}

std::size_t stringBytes(const std::string &S) {
  // Heap allocation only when the text outgrows the SSO buffer.
  std::size_t Sso = sizeof(std::string) - sizeof(void *) - 1;
  return S.capacity() > Sso ? S.capacity() + 1 : 0;
}

std::size_t pathVectorBytes(const std::vector<FeaturePath> &Paths) {
  std::size_t Bytes = Paths.capacity() * sizeof(FeaturePath);
  for (const FeaturePath &Path : Paths) {
    Bytes += Path.capacity() * sizeof(NodeLabel);
    for (const NodeLabel &Label : Path)
      Bytes += stringBytes(Label.Text);
  }
  return Bytes;
}

/// Resident heap bytes of the string model, per change, summed.
std::size_t stringModelBytes(const std::vector<StringChange> &Changes) {
  std::size_t Bytes = Changes.capacity() * sizeof(StringChange);
  for (const StringChange &Change : Changes)
    Bytes += pathVectorBytes(Change.Removed) + pathVectorBytes(Change.Added);
  return Bytes;
}

/// Resident heap bytes of the interned model: the id vectors plus the
/// shared table, which the whole corpus amortizes.
std::size_t internedModelBytes(const std::vector<UsageChange> &Changes,
                               const support::Interner &Table) {
  std::size_t Bytes = Changes.capacity() * sizeof(UsageChange);
  for (const UsageChange &Change : Changes)
    Bytes += Change.Removed.capacity() * sizeof(support::PathId) +
             Change.Added.capacity() * sizeof(support::PathId);
  return Bytes + Table.memoryBytes();
}

/// Faithful replica of the legacy UsageDistCache constructor: derive a
/// private label/path vocabulary from the string representation with
/// std::map lookups, split Levenshtein units per distinct label, and
/// warm the dense label-similarity table.
std::size_t legacyCacheConstruct(const std::vector<StringChange> &Changes) {
  std::map<NodeLabel, std::size_t> LabelIds;
  std::vector<NodeLabel> LabelList;
  std::vector<std::vector<std::string>> Units;
  std::map<std::vector<std::size_t>, std::size_t> PathIds;
  std::vector<std::vector<std::size_t>> PathLabels;

  auto internPath = [&](const FeaturePath &Path) {
    std::vector<std::size_t> Seq;
    Seq.reserve(Path.size());
    for (const NodeLabel &Label : Path) {
      auto [It, Inserted] = LabelIds.emplace(Label, LabelList.size());
      if (Inserted) {
        LabelList.push_back(Label);
        Units.push_back(referenceLabelUnits(Label));
      }
      Seq.push_back(It->second);
    }
    auto [It, Inserted] = PathIds.emplace(Seq, PathLabels.size());
    if (Inserted)
      PathLabels.push_back(std::move(Seq));
    return It->second;
  };
  for (const StringChange &Change : Changes) {
    for (const FeaturePath &Path : Change.Removed)
      internPath(Path);
    for (const FeaturePath &Path : Change.Added)
      internPath(Path);
  }

  // Dense label-similarity warm, as the legacy constructor did it.
  std::vector<double> Sim(LabelList.size() * LabelList.size(), 0.0);
  for (std::size_t I = 0; I < LabelList.size(); ++I)
    for (std::size_t J = I; J < LabelList.size(); ++J)
      Sim[I * LabelList.size() + J] = Sim[J * LabelList.size() + I] =
          referenceLabelSimilarity(LabelList[I], LabelList[J]);
  return LabelList.size() + PathLabels.size() + Sim.size();
}

double millisSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - Start)
      .count();
}

} // namespace

int main(int argc, char **argv) {
  long long NMaxArg = argc > 1 ? std::atoll(argv[1]) : 10000;
  if (NMaxArg <= 0) {
    std::fprintf(stderr, "usage: micro_interning [nmax > 0] [seed] [out.json]"
                         "   (defaults: 10000 42 BENCH_interning.json)\n");
    return 2;
  }
  std::size_t NMax = static_cast<std::size_t>(NMaxArg);
  std::uint64_t Seed = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 42;
  const char *OutPath = argc > 3 ? argv[3] : "BENCH_interning.json";

  bool MemoryBarMet = true;
  bool ThroughputBarMet = true;
  double LargestClusterMs = 0.0;
  std::size_t LargestN = 0;

  JsonWriter W;
  W.beginObject();
  W.key("bench").value("micro_interning");
  W.key("seed").value(Seed);
  W.key("sweep").beginArray();

  for (std::size_t N : {std::size_t{1000}, std::size_t{5000},
                        std::size_t{10000}}) {
    if (N > NMax)
      continue;
    Corpora Corpus;
    buildCorpora(Corpus, Seed + N, N);

    std::size_t StringBytes = stringModelBytes(Corpus.Strings);
    std::size_t InternedBytes =
        internedModelBytes(Corpus.Interned, Corpus.Table);
    double Ratio = static_cast<double>(StringBytes) /
                   static_cast<double>(InternedBytes);
    MemoryBarMet = MemoryBarMet && Ratio >= 2.0;

    auto Start = std::chrono::steady_clock::now();
    std::size_t LegacySize = legacyCacheConstruct(Corpus.Strings);
    double LegacyMs = millisSince(Start);

    Start = std::chrono::steady_clock::now();
    UsageDistCache Cache(Corpus.Interned);
    double InternedMs = millisSince(Start);

    // Pair throughput: the same sampled pairs through the warmed cache
    // and through the string-space reference metric.
    Rng PairRng(Seed ^ N);
    std::vector<std::pair<std::size_t, std::size_t>> Pairs;
    for (int P = 0; P < 20000; ++P)
      Pairs.emplace_back(PairRng.index(N), PairRng.index(N));
    double Checksum = 0.0;
    Start = std::chrono::steady_clock::now();
    for (const auto &[I, J] : Pairs)
      Checksum += Cache(I, J);
    double CachePairMs = millisSince(Start);
    double StringChecksum = 0.0;
    Start = std::chrono::steady_clock::now();
    for (const auto &[I, J] : Pairs)
      StringChecksum +=
          referenceUsageDist(Corpus.Interned[I], Corpus.Interned[J]);
    double StringPairMs = millisSince(Start);
    ThroughputBarMet = ThroughputBarMet && CachePairMs <= StringPairMs;

    // Wall-time regression guard: sharded clustering at the largest n.
    double ClusterMs = 0.0;
    if (N == NMax || N == 10000) {
      ClusteringOptions Opts;
      Opts.Sharding.Enabled = true;
      Opts.Sharding.MaxShardSize = 512;
      Opts.Sharding.Threads = 8;
      Start = std::chrono::steady_clock::now();
      Dendrogram Tree = clusterUsageChangesSharded(Corpus.Interned, Opts);
      ClusterMs = millisSince(Start);
      if (Tree.leafCount() != N)
        return 1;
      LargestClusterMs = ClusterMs;
      LargestN = N;
    }

    W.beginObject();
    W.key("n").value(static_cast<std::uint64_t>(N));
    W.key("string_model_bytes")
        .value(static_cast<std::uint64_t>(StringBytes));
    W.key("interned_model_bytes")
        .value(static_cast<std::uint64_t>(InternedBytes));
    W.key("string_bytes_per_change")
        .value(static_cast<std::uint64_t>(StringBytes / N));
    W.key("interned_bytes_per_change")
        .value(static_cast<std::uint64_t>(InternedBytes / N));
    W.key("reduction_ratio").value(Ratio);
    W.key("interner_table_bytes")
        .value(static_cast<std::uint64_t>(Corpus.Table.memoryBytes()));
    W.key("cache_construct_legacy_ms").value(LegacyMs);
    W.key("cache_construct_interned_ms").value(InternedMs);
    W.key("pair_eval_cache_ms").value(CachePairMs);
    W.key("pair_eval_string_ms").value(StringPairMs);
    W.key("cluster_sharded_ms").value(ClusterMs);
    W.endObject();

    std::fprintf(stderr,
                 "  n=%-6zu  %6.1f KiB -> %6.1f KiB (%.2fx)  cache %6.1f -> "
                 "%6.1f ms  pairs %7.1f -> %6.1f ms\n",
                 N, StringBytes / 1024.0, InternedBytes / 1024.0, Ratio,
                 LegacyMs, InternedMs, StringPairMs, CachePairMs);
    if (Checksum < 0.0 || StringChecksum < 0.0 || LegacySize == 0)
      return 1; // keep the measured work observable
  }
  W.endArray();
  W.key("largest_n").value(static_cast<std::uint64_t>(LargestN));
  W.key("cluster_sharded_largest_ms").value(LargestClusterMs);
  W.key("memory_bar_met").value(MemoryBarMet);
  W.key("throughput_bar_met").value(ThroughputBarMet);
  W.endObject();

  std::string Json = W.take();
  std::printf("%s\n", Json.c_str());
  std::ofstream Out(OutPath);
  if (Out)
    Out << Json << "\n";
  else
    std::fprintf(stderr, "warning: cannot write %s\n", OutPath);

  if (!MemoryBarMet) {
    std::fprintf(stderr, "FAIL: interned model saved less than 2x resident "
                         "bytes per change\n");
    return 1;
  }
  if (!ThroughputBarMet) {
    std::fprintf(stderr, "FAIL: warmed cache slower than string-space "
                         "usageDist on sampled pairs\n");
    return 1;
  }
  return 0;
}
