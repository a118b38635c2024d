//===- bench/micro_lexer.cpp - Table-driven lexer corpus benchmark ---------===//
//
// Part of the DiffCode project, a reproduction of "Inferring Crypto API
// Rules from Code Changes" (PLDI'18).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Whole-corpus front-end benchmark behind the table-driven lexer
/// rewrite. Over every distinct source text in the standard mined corpus
/// it
///
///   * first proves byte-identical behavior: the production Lexer and the
///     retained seed scanner (oracles/ReferenceLexer) must agree on every
///     token (kind, spelling, line/column/offset) and every diagnostic of
///     every source — a bench that got faster by lexing differently must
///     fail, not report a speedup;
///   * then times both scanners (best-of-N rounds) in two modes fed the
///     exact same bytes: the headline corpus-stream mode (the whole
///     corpus lexed as one buffer — raw scanner throughput at corpus
///     scale, where the seed's per-token arena interning and unreserved
///     token vector dominate) and a per-file sweep (one lexer per source,
///     so per-file setup costs — token vector, line table, diagnostics —
///     are charged to both scanners on every ~1 KB source). Each timing
///     runs in its own forked child process (JMH-style isolation):
///     in-process ordering otherwise leaks heap state — the seed's
///     unreserved token vector grows almost for free once earlier phases
///     have adapted glibc's mmap threshold, flattering whichever scanner
///     runs later;
///   * and reports the arena-reuse parse pass (one recycled AstContext,
///     processChange's steady state) with its slab statistics as info.
///
/// Self-verifying: exits non-zero unless the streams are byte-identical
/// and the corpus-stream speedup is at least 5.0x (the ISSUE's
/// acceptance bar).
///
///   micro_lexer [projects] [seed] [out.json]   (defaults: 120 42
///                                               BENCH_lexer.json)
///
//===----------------------------------------------------------------------===//

#include "bench_common.h"
#include "javaast/Lexer.h"
#include "javaast/Parser.h"
#include "oracles/ReferenceLexer.h"
#include "support/JsonWriter.h"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

using namespace diffcode;

namespace {

std::uint64_t nanosSince(std::chrono::steady_clock::time_point Start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - Start)
          .count());
}

/// Every distinct source text in the mined corpus (old + new sides).
std::vector<std::string> distinctSources(const bench::MinedCorpus &Mined) {
  std::vector<std::string> Out;
  std::set<std::string> Seen;
  for (const corpus::CodeChange *Change : Mined.Changes)
    for (const std::string *Code : {&Change->OldCode, &Change->NewCode})
      if (!Code->empty() && Seen.insert(*Code).second)
        Out.push_back(*Code);
  return Out;
}

std::string diagsKey(const java::DiagnosticsEngine &Diags) {
  std::ostringstream Os;
  for (const java::Diagnostic &D : Diags.all())
    Os << (D.Level == java::DiagLevel::Error ? "E|" : "W|") << D.str() << "\n";
  return Os.str();
}

/// Byte-identity pass: every token and diagnostic of every source must
/// match between the two scanners. Returns false (and reports to stderr)
/// on the first divergence.
bool verifyByteIdentical(const std::vector<std::string> &Sources) {
  for (std::size_t S = 0; S < Sources.size(); ++S) {
    const std::string &Source = Sources[S];
    java::DiagnosticsEngine NewDiags, RefDiags;
    java::Lexer NewLex(Source, NewDiags);
    java::ReferenceLexer RefLex(Source, RefDiags);
    java::TokenStream NewStream = NewLex.lexAll();
    java::TokenStream RefStream = RefLex.lexAll();
    if (NewStream.size() != RefStream.size()) {
      std::fprintf(stderr, "FAIL: source %zu: %zu vs %zu tokens\n", S,
                   NewStream.size(), RefStream.size());
      return false;
    }
    for (std::size_t I = 0; I < NewStream.size(); ++I) {
      const java::Token &A = NewStream[I];
      const java::Token &B = RefStream[I];
      if (A.Kind != B.Kind || A.Text != B.Text || A.Loc.Line != B.Loc.Line ||
          A.Loc.Column != B.Loc.Column || A.Loc.Offset != B.Loc.Offset) {
        std::fprintf(stderr,
                     "FAIL: source %zu token %zu diverges "
                     "(line %u col %u vs line %u col %u)\n",
                     S, I, A.Loc.Line, A.Loc.Column, B.Loc.Line, B.Loc.Column);
        return false;
      }
    }
    if (diagsKey(NewDiags) != diagsKey(RefDiags) ||
        NewDiags.budgetExceeded() != RefDiags.budgetExceeded()) {
      std::fprintf(stderr, "FAIL: source %zu diagnostics diverge\n", S);
      return false;
    }
  }
  return true;
}

struct LexTiming {
  std::uint64_t BestNs = ~std::uint64_t(0);
  std::uint64_t Tokens = 0;
  std::uint64_t Bytes = 0;

  double tokensPerSec() const {
    return BestNs ? static_cast<double>(Tokens) * 1e9 /
                        static_cast<double>(BestNs)
                  : 0.0;
  }
  double mbPerSec() const {
    return BestNs ? static_cast<double>(Bytes) * 1e9 /
                        (static_cast<double>(BestNs) * 1024.0 * 1024.0)
                  : 0.0;
  }
};

/// Times \p Rounds full-corpus sweeps of one scanner; keeps the best.
template <typename LexerT>
LexTiming timeLexer(const std::vector<std::string> &Sources, int Rounds) {
  LexTiming T;
  for (const std::string &S : Sources)
    T.Bytes += S.size();
  for (int Round = 0; Round < Rounds; ++Round) {
    std::uint64_t Tokens = 0;
    auto Start = std::chrono::steady_clock::now();
    for (const std::string &Source : Sources) {
      java::DiagnosticsEngine Diags;
      LexerT Lex(Source, Diags);
      java::TokenStream Stream = Lex.lexAll();
      Tokens += Stream.size();
    }
    std::uint64_t Ns = nanosSince(Start);
    if (Ns < T.BestNs)
      T.BestNs = Ns;
    T.Tokens = Tokens;
  }
  return T;
}

/// Runs \p Fn in a forked child and returns its result through a pipe.
/// Every timing below is isolated this way so both scanners start from
/// the same allocator state — the state at this fork point — instead of
/// whatever the previously timed scanner left behind. Falls back to an
/// in-process call if fork is unavailable.
LexTiming runIsolated(const std::function<LexTiming()> &Fn) {
  int Fds[2];
  if (pipe(Fds) != 0)
    return Fn();
  pid_t Pid = fork();
  if (Pid < 0) {
    close(Fds[0]);
    close(Fds[1]);
    return Fn();
  }
  if (Pid == 0) {
    close(Fds[0]);
    LexTiming T = Fn();
    ssize_t W = write(Fds[1], &T, sizeof T);
    _exit(W == static_cast<ssize_t>(sizeof T) ? 0 : 1);
  }
  close(Fds[1]);
  LexTiming T;
  ssize_t R = read(Fds[0], &T, sizeof T);
  close(Fds[0]);
  int Status = 0;
  waitpid(Pid, &Status, 0);
  if (R != static_cast<ssize_t>(sizeof T) || !WIFEXITED(Status) ||
      WEXITSTATUS(Status) != 0) {
    std::fprintf(stderr, "FAIL: isolated timing child died\n");
    std::exit(1);
  }
  return T;
}

struct ParseTiming {
  std::uint64_t BestNs = ~std::uint64_t(0);
  std::size_t ArenaCapacity = 0;
  std::size_t ArenaSlabs = 0;
};

/// Arena-reuse parse over the corpus: one AstContext recycled per file,
/// processChange's steady state.
ParseTiming timeArenaParse(const std::vector<std::string> &Sources,
                           int Rounds) {
  ParseTiming T;
  java::AstContext Ctx;
  for (int Round = 0; Round < Rounds; ++Round) {
    auto Start = std::chrono::steady_clock::now();
    for (const std::string &Source : Sources) {
      Ctx.reset();
      java::DiagnosticsEngine Diags;
      java::CompilationUnit *Unit = java::parseJava(Source, Ctx, Diags);
      if (Unit == nullptr) {
        std::fprintf(stderr, "FAIL: corpus source failed to parse\n");
        std::exit(1);
      }
    }
    std::uint64_t Ns = nanosSince(Start);
    if (Ns < T.BestNs)
      T.BestNs = Ns;
  }
  T.ArenaCapacity = Ctx.arenaCapacity();
  T.ArenaSlabs = Ctx.arenaSlabs();
  return T;
}

} // namespace

int main(int argc, char **argv) {
  const char *OutPath = argc > 3 ? argv[3] : "BENCH_lexer.json";
  constexpr double SpeedupBar = 5.0;
  constexpr int Rounds = 5;

  bench::MinedCorpus Mined = bench::mineStandardCorpus(argc, argv);
  std::vector<std::string> Sources = distinctSources(Mined);
  std::printf("lexing %zu distinct sources, best of %d rounds\n\n",
              Sources.size(), Rounds);
  if (Sources.empty()) {
    std::fprintf(stderr, "FAIL: corpus produced no sources\n");
    return 1;
  }

  // Corpus-stream mode: the whole corpus as one buffer. Both scanners
  // see the exact same bytes; the stream itself also passes the
  // byte-identity gate below via its own verify call.
  std::string Stream;
  Stream.reserve(Sources.size() * 900);
  for (const std::string &S : Sources) {
    Stream += S;
    Stream += '\n';
  }
  std::vector<std::string> StreamV{Stream};

  // All four timings fork from this same point, before the verify pass
  // or any other timing has touched the heap.
  LexTiming Ref = runIsolated(
      [&] { return timeLexer<java::ReferenceLexer>(StreamV, Rounds); });
  LexTiming New =
      runIsolated([&] { return timeLexer<java::Lexer>(StreamV, Rounds); });
  LexTiming RefFile = runIsolated(
      [&] { return timeLexer<java::ReferenceLexer>(Sources, Rounds); });
  LexTiming NewFile =
      runIsolated([&] { return timeLexer<java::Lexer>(Sources, Rounds); });

  bool Identical = verifyByteIdentical(Sources);
  if (!Identical)
    std::fprintf(stderr,
                 "FAIL: production lexer diverges from reference scanner\n");
  if (!verifyByteIdentical(StreamV)) {
    std::fprintf(stderr, "FAIL: scanners diverge on the corpus stream\n");
    Identical = false;
  }
  double Speedup = New.BestNs
                       ? static_cast<double>(Ref.BestNs) /
                             static_cast<double>(New.BestNs)
                       : 0.0;
  double FileSpeedup = NewFile.BestNs
                           ? static_cast<double>(RefFile.BestNs) /
                                 static_cast<double>(NewFile.BestNs)
                           : 0.0;
  ParseTiming Parse = timeArenaParse(Sources, Rounds);

  std::printf("corpus stream (%zu KiB):\n", Stream.size() / 1024);
  std::printf("  reference: %8.2f ms  %10.0f tokens/s  %7.1f MB/s\n",
              Ref.BestNs / 1e6, Ref.tokensPerSec(), Ref.mbPerSec());
  std::printf("  table:     %8.2f ms  %10.0f tokens/s  %7.1f MB/s\n",
              New.BestNs / 1e6, New.tokensPerSec(), New.mbPerSec());
  std::printf("  speedup:   %.2fx (bar %.1fx)\n", Speedup, SpeedupBar);
  std::printf("per-file sweep:\n");
  std::printf("  reference: %8.2f ms  %10.0f tokens/s\n", RefFile.BestNs / 1e6,
              RefFile.tokensPerSec());
  std::printf("  table:     %8.2f ms  %10.0f tokens/s  (%.2fx)\n",
              NewFile.BestNs / 1e6, NewFile.tokensPerSec(), FileSpeedup);
  std::printf("arena parse: %8.2f ms/corpus, %zu slabs, %zu KiB capacity\n\n",
              Parse.BestNs / 1e6, Parse.ArenaSlabs,
              Parse.ArenaCapacity / 1024);

  bool SpeedupPass = Speedup >= SpeedupBar;
  bool Pass = Identical && SpeedupPass;

  JsonWriter W;
  W.beginObject();
  W.key("bench").value("micro_lexer");
  W.key("sources").value(static_cast<std::uint64_t>(Sources.size()));
  W.key("bytes").value(New.Bytes);
  W.key("tokens").value(New.Tokens);
  W.key("rounds").value(static_cast<std::uint64_t>(Rounds));
  W.key("byte_identical").value(Identical);
  W.key("reference_ns").value(Ref.BestNs);
  W.key("table_ns").value(New.BestNs);
  W.key("reference_tokens_per_sec").value(Ref.tokensPerSec());
  W.key("table_tokens_per_sec").value(New.tokensPerSec());
  W.key("reference_mb_per_sec").value(Ref.mbPerSec());
  W.key("table_mb_per_sec").value(New.mbPerSec());
  W.key("speedup").value(Speedup);
  W.key("speedup_bar").value(SpeedupBar);
  W.key("speedup_pass").value(SpeedupPass);
  W.key("per_file_reference_ns").value(RefFile.BestNs);
  W.key("per_file_table_ns").value(NewFile.BestNs);
  W.key("per_file_speedup").value(FileSpeedup);
  W.key("arena_parse_ns").value(Parse.BestNs);
  W.key("arena_slabs").value(static_cast<std::uint64_t>(Parse.ArenaSlabs));
  W.key("arena_capacity_bytes")
      .value(static_cast<std::uint64_t>(Parse.ArenaCapacity));
  W.key("pass").value(Pass);
  W.endObject();
  std::string Json = W.take();
  std::printf("%s\n", Json.c_str());
  std::ofstream(OutPath) << Json << "\n";

  if (!SpeedupPass)
    std::fprintf(stderr, "FAIL: corpus-stream speedup %.2fx below the %.1fx bar\n",
                 Speedup, SpeedupBar);
  return Pass ? 0 : 1;
}
