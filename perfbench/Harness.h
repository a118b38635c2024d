//===- perfbench/Harness.h - Shared pieces of the DiffCode benchmark ------===//
//
// Part of the DiffCode project, a reproduction of "Inferring Crypto API
// Rules from Code Changes" (PLDI'18).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Clocks, sample statistics, the prepared inputs every surface shares,
/// the forked daemon, and the metric sink printed as the last stdout
/// line. run.py builds and starts the program; perfbench.cpp holds main().
///
//===----------------------------------------------------------------------===//

#ifndef DIFFCODE_PERFBENCH_HARNESS_H
#define DIFFCODE_PERFBENCH_HARNESS_H

#include "apimodel/CryptoApiModel.h"
#include "core/DiffCode.h"
#include "corpus/RepoModel.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <sys/types.h>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double msSince(Clock::time_point Start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - Start)
      .count();
}

/// User + system CPU seconds of this process (all threads) so far.
double processCpuSeconds();
/// User + system CPU seconds of \p Pid so far, from /proc/<pid>/stat.
double childCpuSeconds(pid_t Pid);
/// Peak resident set of \p Pid in MiB, from VmHWM in /proc/<pid>/status:
/// only what the process touched since its last exec. (The rusage of a
/// re-executed child would also count the pages it shared with this
/// process between fork and exec.) 0 when it cannot be read.
double peakRssMb(pid_t Pid);

double median(std::vector<double> Values);
/// The \p Q quantile (0..1) by nearest rank.
double quantile(std::vector<double> Values, double Q);

/// One end-to-end or per-layer value with its unit, printed by name.
struct Metric {
  double Value = 0;
  std::string Unit;
};
using MetricMap = std::map<std::string, Metric>;

/// What a run attempted and how much of it failed, in the surface's own
/// units (changes, frames, projects), plus every correctness verdict.
struct Tally {
  std::uint64_t Attempted = 0;
  std::uint64_t Failed = 0;
  bool Correct = true;
  /// Appends a failed gate to stderr and clears Correct.
  void fail(const std::string &Why);
};

const diffcode::apimodel::CryptoApiModel &api();

/// The request `diffcode_cli pipeline --cluster` makes over \p Changes:
/// every target class, no classification rules, dendrograms on.
diffcode::core::PipelineRequest
pipelineRequest(std::vector<const diffcode::corpus::CodeChange *> Changes);

/// One ingest frame of the session stream and the read that follows it.
struct SessionOp {
  std::size_t Commit = 0; ///< Index into Inputs::Commits.
  bool Replay = false;    ///< Re-ingests an already-ingested commit.
  std::string Read;       ///< "snapshot" or a query string.
};

/// Everything the surfaces need, prepared from the on-disk corpus. The
/// corpus itself is generated once per seed by `perfbench --generate`.
struct Inputs {
  std::string CorpusDir;
  /// The loaded corpus: HEAD files feed the scanner, History the miner.
  diffcode::corpus::Corpus Corpus;
  /// Mined changes grouped by (project, commit), in mined order; they
  /// point into Corpus.
  std::vector<std::vector<const diffcode::corpus::CodeChange *>> Commits;
  /// Commits [0, WarmCommits) warm the session before timing starts.
  std::size_t WarmCommits = 0;
  /// The session stream over the held-out commits (seeded replays).
  std::vector<SessionOp> Ops;
};

/// Loads the corpus, mines it and lays out the session stream.
Inputs prepareInputs(const std::string &CorpusDir, std::uint64_t Seed);

/// Copies of the changes of \p Commit, the shape an ingest request takes.
std::vector<diffcode::corpus::CodeChange>
copyChanges(const std::vector<const diffcode::corpus::CodeChange *> &Commit);

/// A diffcode daemon in a child process (this binary re-executed in
/// --serve-fd mode) on a UNIX socket inside the work directory.
class Daemon {
public:
  explicit Daemon(const std::string &SocketPath);
  ~Daemon();
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;

  const std::string &socketPath() const { return Path; }
  pid_t pid() const { return Pid; }
  /// Sends ShutdownReq and reaps the child; false when either fails.
  /// Fills the child's peak RSS (MiB), read just before the request.
  bool shutdown(double &PeakRssMb);

private:
  std::string Path;
  pid_t Pid = -1;
};

/// The daemon side of --serve-fd: serves \p ListenFd until shutdown.
int serveDaemon(int ListenFd, const std::string &SocketPath);

/// Runs `perfbench --peak <Surface> <CorpusDir>` (this binary re-executed)
/// and returns its peak resident set in MiB, or a negative value when it
/// fails. A fresh process holds only that surface's own work.
double surfacePeakRssMb(const std::string &Surface,
                        const std::string &CorpusDir);
/// The child side of --peak: one batch job (Surface "batch") or one scan
/// iteration (Surface "scan") over \p CorpusDir, then its own peak RSS
/// printed to stdout. Returns the exit code.
int runSurfaceOnce(const std::string &Surface, const std::string &CorpusDir);

/// What one pass of the session stream did, measured from the client.
struct SessionLoop {
  /// Per op, the fastest of its daemons.
  std::vector<double> IngestMs, ReadMs;
  std::size_t Ops = 0; ///< Ingest + read pairs sent to every daemon.
  std::size_t Frames = 0, FramesFailed = 0;
  double CpuS = 0; ///< Client plus daemon CPU over the pass.
};

/// Ingests every warm commit in one request (part of set-up).
bool warmSession(const Inputs &In, const Daemon &D);
/// Streams the next \p Ops of Inputs::Ops (from \p L.Ops on, up to the
/// end of the stream) to every daemon of \p Ds, op by op, one connection
/// per request. Accumulates into \p L.
void streamSession(const Inputs &In,
                   const std::vector<std::unique_ptr<Daemon>> &Ds,
                   SessionLoop &L, std::size_t Ops);
/// The daemon's current snapshot JSON (empty when the request fails).
std::string daemonSnapshot(const Daemon &D);
/// The gate's reference: a cold DiffCode::run over the warm commits plus
/// the first \p Ops streamed ingests, replays included.
std::string coldSessionJson(const Inputs &In, std::size_t Ops);

/// The shared sink of a run: e2e metrics with --trace 0, per-layer
/// metrics with --trace 1.
struct RunResult {
  MetricMap Metrics;
  Tally Ops;
};

/// End-to-end run of \p Workload (batch_corpus600 | session_append |
/// scan_projects): set-up, rounds that give every surface a fixed quota
/// and the workload's own surface \p Seconds in all, then every gate.
RunResult runEndToEnd(const std::string &Workload, const std::string &CorpusDir,
                      const std::string &WorkDir, std::uint64_t Seed,
                      double Seconds);

/// Traced run: every layer's public entry point called from the benchmark
/// under in-memory spans, written to WorkDir at the end. It reports every
/// layer, whatever the workload.
RunResult runTraced(const std::string &CorpusDir, const std::string &WorkDir,
                    std::uint64_t Seed);

} // namespace perfbench

#endif // DIFFCODE_PERFBENCH_HARNESS_H
