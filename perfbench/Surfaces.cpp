//===- perfbench/Surfaces.cpp - The three end-to-end surfaces -------------===//
//
// Part of the DiffCode project, a reproduction of "Inferring Crypto API
// Rules from Code Changes" (PLDI'18).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The untraced end-to-end run. Each surface is driven through the
/// entry points a user reaches:
///
///   * batch   — what `diffcode_cli pipeline <dir> --cluster` does:
///               readCorpus, Miner::mine, DiffCode::run (Threads = 0),
///               corpusReportToJson;
///   * session — what `diffcode_cli connect` does against a diffcoded
///               daemon: one connection per request, an ingest per
///               commit followed by one read;
///   * scan    — the CryptoChecker product: a fresh scan::Scanner
///               (Threads = 0) scanning every project cold, then the
///               same scanner re-answering warm.
///
/// A run prints every end-to-end metric, so every workload drives all
/// three surfaces, one client at a time (closed loop). The run is cut
/// into rounds, and each round gives every surface a fixed quota of work;
/// the workload's own surface also keeps going until its share of the
/// run length is used. On a shared 4-vCPU VM a fixed CPU loop varied by
/// up to 1.75x in phases of one to two seconds, so spreading each
/// surface's samples over the whole run is what keeps their medians
/// steady. Gates compare every output against a reference computed
/// outside the timed work.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "core/DiffCode.h"
#include "core/ReportWriter.h"
#include "corpus/CorpusIO.h"
#include "corpus/Miner.h"
#include "rules/CryptoChecker.h"
#include "scan/ScanReportWriter.h"
#include "scan/Scanner.h"
#include "service/Server.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <unistd.h>

using namespace diffcode;

namespace perfbench {

namespace {

/// Daemons the session surface uses; their set-ups are the set-up samples.
constexpr std::size_t Daemons = 3;
/// Rounds per run, and each surface's quota per round. The session
/// stream has 1,000 ops per run, so its p99 has ten samples beyond it.
constexpr unsigned Rounds = 4;
constexpr unsigned BatchRunsPerRound = 1;
constexpr std::size_t IngestsPerRound = 250;
constexpr unsigned ScanIterationsPerRound = 5;
/// The session workload's extra ops per second of run length. Its stream
/// has a fixed length rather than a time limit: ingest and snapshot costs
/// grow with the session, so latencies are comparable only over the same
/// ops.
constexpr std::size_t SessionOpsPerSecond = 100;

/// Runs \p Step at least \p Quota times, then until \p Seconds have
/// passed since the first call.
template <typename Fn> void atLeast(unsigned Quota, double Seconds, Fn Step) {
  auto Start = Clock::now();
  for (unsigned I = 0; I < Quota || msSince(Start) < Seconds * 1000; ++I)
    Step();
}

//===----------------------------------------------------------------------===//
// Batch
//===----------------------------------------------------------------------===//

struct BatchRun {
  double WallS = 0, CpuS = 0;
  std::size_t Changes = 0, NotOk = 0;
  std::string Json;
};

/// One `pipeline --cluster` invocation's work, timed from the corpus read
/// to the finished report JSON.
BatchRun runBatchOnce(const std::string &CorpusDir, unsigned Threads) {
  BatchRun Out;
  auto Start = Clock::now();
  double Cpu0 = processCpuSeconds();
  std::string Error;
  std::optional<corpus::Corpus> C = corpus::readCorpus(CorpusDir, &Error);
  if (!C)
    throw std::runtime_error("readCorpus: " + Error);
  corpus::MinerOptions MinerOpts;
  MinerOpts.MinCommitsPerProject = 1;
  std::vector<const corpus::CodeChange *> Mined =
      corpus::Miner(api(), MinerOpts).mine(*C);
  core::PipelineConfig Config;
  Config.Threads = Threads;
  core::DiffCode System(api(), Config);
  core::CorpusReport Report = System.run(pipelineRequest(std::move(Mined)));
  Out.Json = core::corpusReportToJson(Report);
  Out.WallS = msSince(Start) / 1000;
  Out.CpuS = processCpuSeconds() - Cpu0;
  Out.Changes = Report.Changes.size();
  Out.NotOk = Report.Changes.size() - Report.Health.count(core::ChangeStatus::Ok);
  return Out;
}

class BatchSurface {
public:
  explicit BatchSurface(const Inputs &In) : In(In) {}

  void step(Tally &T) {
    BatchRun R = runBatchOnce(In.CorpusDir, 0);
    Wall.push_back(R.WallS);
    Cpu.push_back(R.CpuS);
    T.Attempted += R.Changes;
    T.Failed += R.NotOk;
    if (First.empty())
      First = std::move(R.Json);
    else if (R.Json != First)
      ++Mismatches;
  }

  void finish(MetricMap &M, Tally &T) {
    // Gate: every run's report equals the 1-thread reference byte for
    // byte, and every change is ok.
    BatchRun Ref = runBatchOnce(In.CorpusDir, 1);
    if (Mismatches || First != Ref.Json)
      T.fail("batch: report JSON differs from the 1-thread reference");
    if (Ref.NotOk != 0)
      T.fail("batch: " + std::to_string(Ref.NotOk) + " changes not ok");
    std::fprintf(stderr, "batch: %zu runs x %zu changes, wall s: p50 %.3f "
                 "max %.3f\n",
                 Wall.size(), Ref.Changes, median(Wall), quantile(Wall, 1));
    M["batch_wall_s"] = {median(Wall), "s"};
    M["batch_cpu_s"] = {median(Cpu), "s"};
  }

private:
  const Inputs &In;
  std::vector<double> Wall, Cpu;
  std::string First;
  std::size_t Mismatches = 0;
};

//===----------------------------------------------------------------------===//
// Session
//===----------------------------------------------------------------------===//

/// Opens one connection, runs \p Body on a client over it, closes it.
template <typename Fn>
bool oneRequest(const std::string &Path, std::string &Error, Fn Body) {
  int Fd = service::connectUnix(Path, &Error);
  if (Fd < 0)
    return false;
  service::Client C(Fd);
  bool Ok = Body(C);
  ::close(Fd);
  return Ok;
}

} // namespace

bool warmSession(const Inputs &In, const Daemon &D) {
  std::vector<const corpus::CodeChange *> Changes;
  for (std::size_t I = 0; I < In.WarmCommits; ++I)
    Changes.insert(Changes.end(), In.Commits[I].begin(), In.Commits[I].end());
  std::vector<corpus::CodeChange> Warm = copyChanges(Changes);
  std::string Error;
  service::IngestReply Reply;
  bool Ok = oneRequest(D.socketPath(), Error, [&](service::Client &C) {
    return C.ingest(Warm, Reply, &Error);
  });
  if (!Ok)
    std::fprintf(stderr, "session: warm-up ingest: %s\n", Error.c_str());
  return Ok && Reply.TotalChanges == Warm.size();
}

void streamSession(const Inputs &In,
                   const std::vector<std::unique_ptr<Daemon>> &Ds,
                   SessionLoop &L, std::size_t Ops) {
  double Cpu0 = processCpuSeconds(), Daemons0 = 0;
  for (const std::unique_ptr<Daemon> &D : Ds)
    Daemons0 += childCpuSeconds(D->pid());
  std::string Error;
  for (std::size_t End = std::min(In.Ops.size(), L.Ops + Ops); L.Ops < End;) {
    const SessionOp &Op = In.Ops[L.Ops];
    std::vector<corpus::CodeChange> Commit = copyChanges(In.Commits[Op.Commit]);
    double IngestMs = 0, ReadMs = 0;
    for (std::size_t I = 0; I < Ds.size(); ++I) {
      const std::string &Path = Ds[I]->socketPath();
      auto T0 = Clock::now();
      service::IngestReply Reply;
      bool Ok = oneRequest(Path, Error, [&](service::Client &C) {
        return C.ingest(Commit, Reply, &Error);
      });
      double Ms = msSince(T0);
      IngestMs = I == 0 ? Ms : std::min(IngestMs, Ms);
      if (!Ok || Reply.Stats.Ingested != Commit.size()) {
        ++L.FramesFailed;
        std::fprintf(stderr, "session: ingest failed: %s\n", Error.c_str());
      }
      T0 = Clock::now();
      std::string Answer;
      Ok = oneRequest(Path, Error, [&](service::Client &C) {
        return Op.Read == "snapshot" ? C.snapshot(Answer, &Error)
                                     : C.query(Op.Read, Answer, &Error);
      });
      Ms = msSince(T0);
      ReadMs = I == 0 ? Ms : std::min(ReadMs, Ms);
      if (!Ok || Answer.empty()) {
        ++L.FramesFailed;
        std::fprintf(stderr, "session: read failed: %s\n", Error.c_str());
      }
      L.Frames += 2;
    }
    L.IngestMs.push_back(IngestMs);
    L.ReadMs.push_back(ReadMs);
    ++L.Ops;
  }
  double DaemonsCpu = -Daemons0;
  for (const std::unique_ptr<Daemon> &D : Ds)
    DaemonsCpu += childCpuSeconds(D->pid());
  L.CpuS += processCpuSeconds() - Cpu0 + DaemonsCpu;
}

std::string daemonSnapshot(const Daemon &D) {
  std::string Error, Snapshot;
  if (!oneRequest(D.socketPath(), Error, [&](service::Client &C) {
        return C.snapshot(Snapshot, &Error);
      }))
    std::fprintf(stderr, "session: final snapshot: %s\n", Error.c_str());
  return Snapshot;
}

std::string coldSessionJson(const Inputs &In, std::size_t Ops) {
  std::vector<const corpus::CodeChange *> Sequence;
  for (std::size_t I = 0; I < In.WarmCommits; ++I)
    Sequence.insert(Sequence.end(), In.Commits[I].begin(), In.Commits[I].end());
  for (std::size_t I = 0; I < Ops; ++I) {
    const std::vector<const corpus::CodeChange *> &Commit =
        In.Commits[In.Ops[I].Commit];
    Sequence.insert(Sequence.end(), Commit.begin(), Commit.end());
  }
  core::PipelineConfig Config;
  Config.Threads = 0;
  core::DiffCode System(api(), Config);
  return core::corpusReportToJson(
      System.run(pipelineRequest(std::move(Sequence))));
}

namespace {

/// The session stream against every daemon, op by op. The daemons are
/// identically warmed sessions that see the same ops, so each op is the
/// same work repeated back to back; its latency is the fastest of the
/// repeats. That keeps every cost the program pays on each run of the op
/// and drops the scheduler stalls of a shared VM, which hit one request
/// at a time and would otherwise decide the p99.
class SessionSurface {
public:
  SessionSurface(const Inputs &In,
                 const std::vector<std::unique_ptr<Daemon>> &Ds)
      : In(In), Ds(Ds) {}

  /// Streams the next \p Ops ops to every daemon.
  void step(std::size_t Ops) { streamSession(In, Ds, L, Ops); }

  void finish(MetricMap &M, Tally &T) {
    T.Attempted += L.Frames;
    T.Failed += L.FramesFailed;
    if (L.Ops < Rounds * IngestsPerRound)
      T.fail("session: stream exhausted after " + std::to_string(L.Ops) +
             " ingests");
    // Every daemon saw the same ops, so one cold run checks them all.
    std::string Cold = coldSessionJson(In, L.Ops);
    for (const std::unique_ptr<Daemon> &D : Ds)
      if (daemonSnapshot(*D) != Cold)
        T.fail("session: final snapshot differs from a cold run");
    for (const auto &[Name, Ms] :
         {std::pair{"ingest", &L.IngestMs}, std::pair{"read", &L.ReadMs}})
      std::fprintf(stderr,
                   "session: %zu %ss, fastest of %zu daemons, ms: p50 %.3f "
                   "p90 %.3f p99 %.3f p99.9 %.3f max %.3f\n",
                   Ms->size(), Name, Ds.size(), quantile(*Ms, 0.5),
                   quantile(*Ms, 0.9), quantile(*Ms, 0.99),
                   quantile(*Ms, 0.999), quantile(*Ms, 1));
    std::vector<double> SnapshotMs, QueryMs;
    for (std::size_t I = 0; I < L.ReadMs.size(); ++I)
      (In.Ops[I].Read == "snapshot" ? SnapshotMs : QueryMs)
          .push_back(L.ReadMs[I]);
    std::fprintf(stderr,
                 "session: %zu snapshots, ms: p50 %.3f p75 %.3f max %.3f; "
                 "%zu queries, ms: p50 %.3f p99 %.3f\n",
                 SnapshotMs.size(), median(SnapshotMs),
                 quantile(SnapshotMs, 0.75), quantile(SnapshotMs, 1),
                 QueryMs.size(), median(QueryMs), quantile(QueryMs, 0.99));
    M["ingest_p50_ms"] = {median(L.IngestMs), "ms"};
    M["ingest_p99_ms"] = {quantile(L.IngestMs, 0.99), "ms"};
    M["read_p50_ms"] = {median(L.ReadMs), "ms"};
    M["read_p99_ms"] = {quantile(L.ReadMs, 0.99), "ms"};
    M["session_cpu_s"] = {
        L.CpuS * 1000.0 / static_cast<double>(L.Ops * Ds.size()), "s"};
  }

private:
  const Inputs &In;
  const std::vector<std::unique_ptr<Daemon>> &Ds;
  SessionLoop L;
};

//===----------------------------------------------------------------------===//
// Scan
//===----------------------------------------------------------------------===//

scan::ScanRequest requestOver(const corpus::Corpus &C, bool Refine) {
  scan::ScanRequest Request;
  for (const corpus::Project &P : C.Projects)
    Request.Projects.push_back(&P);
  Request.Refine = Refine;
  return Request;
}

/// The retained serial checker: per project, analyze every HEAD file,
/// build UnitFacts, CryptoChecker::checkProject — composed into the
/// ScanReport shape the scanner emits.
std::string serialCheckerJson(const corpus::Corpus &C) {
  core::DiffCode System(api());
  rules::CryptoChecker Checker;
  scan::ScanReport Report;
  Report.Symbols = Checker.symbols();
  for (const rules::Rule &R : Checker.rules())
    Report.Rules.push_back({Checker.symbols()->intern(R.Id), 0, 0, 0, 0});
  for (const corpus::Project &P : C.Projects) {
    scan::ProjectScanRecord Rec;
    Rec.Project = P.Name;
    Rec.Units = static_cast<unsigned>(P.Files.size());
    // UnitFacts borrow the results' object tables.
    std::vector<analysis::AnalysisResult> Results;
    for (const corpus::ProjectFile &File : P.Files) {
      core::DiffCode::SourceAnalysis SA = System.analyzeSourceChecked(File.Code);
      if (SA.Status > Rec.Status) {
        Rec.Status = SA.Status;
        Rec.Detail = std::move(SA.Detail);
      }
      Results.push_back(std::move(SA.Result));
    }
    std::vector<rules::UnitFacts> Units;
    for (const analysis::AnalysisResult &Result : Results)
      Units.push_back(rules::UnitFacts::from(Result));
    Rec.Report = Checker.checkProject(Units, P.Meta);
    ++Report.StatusCounts[static_cast<unsigned>(Rec.Status)];
    if (Rec.Report.anyMatch())
      ++Report.ProjectsWithViolation;
    const std::vector<rules::RuleVerdict> &Verdicts = Rec.Report.verdicts();
    for (std::size_t J = 0; J < Verdicts.size(); ++J) {
      scan::RuleTotal &T = Report.Rules[J];
      T.Applicable += Verdicts[J].Applicable ? 1 : 0;
      T.Matched += Verdicts[J].Matched ? 1 : 0;
      T.Violations += Verdicts[J].Violations.size();
      T.Suppressed += Verdicts[J].Suppressed;
    }
    Report.Projects.push_back(std::move(Rec));
  }
  return scan::scanReportToJson(Report);
}

class ScanSurface {
public:
  /// Computes the references each timed report is checked against: refine
  /// off against the serial checker, refine on against a 1-thread scanner
  /// without the unit cache.
  explicit ScanSurface(const Inputs &In)
      : In(In), Requests{requestOver(In.Corpus, false),
                         requestOver(In.Corpus, true)} {
    RefJson[0] = serialCheckerJson(In.Corpus);
    scan::ScanConfig Config;
    Config.Threads = 1;
    Config.CacheUnits = false;
    RefJson[1] = scan::scanReportToJson(
        scan::Scanner(api(), Config).scan(Requests[1]));
  }

  /// One iteration: a fresh scanner, then a cold and a warm scan with
  /// refinement off and again with it on.
  void step(Tally &T) {
    scan::ScanConfig Config;
    Config.Threads = 0;
    scan::Scanner S(api(), Config);
    double Cpu0 = processCpuSeconds();
    double ColdMs = 0, WarmMs = 0;
    for (int Refine = 0; Refine < 2; ++Refine) {
      for (int Pass = 0; Pass < 2; ++Pass) {
        auto T0 = Clock::now();
        scan::ScanReport Report = S.scan(Requests[Refine]);
        std::string Json = scan::scanReportToJson(Report);
        (Pass == 0 ? ColdMs : WarmMs) += msSince(T0);
        T.Attempted += Report.Projects.size();
        T.Failed += Report.Projects.size() -
                    Report.StatusCounts[static_cast<unsigned>(
                        core::ChangeStatus::Ok)];
        if (Json != RefJson[Refine])
          ++Mismatches;
      }
    }
    Cpu.push_back(processCpuSeconds() - Cpu0);
    // Per-scan times: the mean of the refine-off and refine-on scans.
    Cold.push_back(ColdMs / 2);
    Warm.push_back(WarmMs / 2);
  }

  void finish(MetricMap &M, Tally &T) {
    if (Mismatches)
      T.fail("scan: " + std::to_string(Mismatches) +
             " reports differ from the serial reference");
    std::fprintf(stderr, "scan: %zu iterations x %zu projects x 4 scans\n",
                 Cold.size(), In.Corpus.Projects.size());
    M["scan_cold_ms"] = {median(Cold), "ms"};
    M["scan_warm_ms"] = {median(Warm), "ms"};
    M["scan_cpu_s"] = {median(Cpu), "s"};
  }

private:
  const Inputs &In;
  const scan::ScanRequest Requests[2];
  std::string RefJson[2];
  std::vector<double> Cold, Warm, Cpu;
  std::size_t Mismatches = 0;
};

/// One set-up: load and mine the inputs, start a daemon and warm its
/// session with all but the held-out tail.
std::unique_ptr<Daemon> setUp(const std::string &CorpusDir,
                              const std::string &SocketPath,
                              std::uint64_t Seed, Inputs &In,
                              std::vector<double> &SetupS, Tally &T) {
  auto Start = Clock::now();
  In = Inputs(); // Frees the last set-up's inputs first.
  In = prepareInputs(CorpusDir, Seed);
  auto D = std::make_unique<Daemon>(SocketPath);
  if (!warmSession(In, *D))
    T.fail("session: warm-up ingest failed");
  SetupS.push_back(msSince(Start) / 1000);
  return D;
}

} // namespace

RunResult runEndToEnd(const std::string &Workload, const std::string &CorpusDir,
                      const std::string &WorkDir, std::uint64_t Seed,
                      double Seconds) {
  RunResult R;
  auto Begin = Clock::now();
  // Warm the page cache so the first set-up reads the way the rest do;
  // the corpus itself was generated by an earlier process.
  if (!corpus::readCorpus(CorpusDir))
    throw std::runtime_error("cannot read corpus " + CorpusDir);

  std::vector<double> SetupS;
  Inputs In;
  std::vector<std::unique_ptr<Daemon>> Ds;
  for (std::size_t I = 0; I < Daemons; ++I)
    Ds.push_back(setUp(CorpusDir,
                       WorkDir + "/daemon" + std::to_string(I) + ".sock", Seed,
                       In, SetupS, R.Ops));
  std::fprintf(stderr,
               "inputs: %zu projects, %zu commits (%zu warm), %zu stream ops\n",
               In.Corpus.Projects.size(), In.Commits.size(), In.WarmCommits,
               In.Ops.size());

  double SetupDoneS = msSince(Begin) / 1000, RoundsStartS, GatesStartS;
  {
    BatchSurface Batch(In);
    SessionSurface Session(In, Ds);
    ScanSurface Scan(In);
    RoundsStartS = msSince(Begin) / 1000;
    // The workload's own surface gets the run length, spread over rounds.
    double Share = Seconds / Rounds;
    double BatchS = Workload == "batch_corpus600" ? Share : 0;
    double ScanS = Workload == "scan_projects" ? Share : 0;
    std::size_t SessionOps =
        IngestsPerRound +
        (Workload == "session_append"
             ? static_cast<std::size_t>(SessionOpsPerSecond * Seconds / Rounds)
             : 0);
    for (unsigned Round = 0; Round < Rounds; ++Round) {
      atLeast(BatchRunsPerRound, BatchS, [&] { Batch.step(R.Ops); });
      Session.step(SessionOps);
      atLeast(ScanIterationsPerRound, ScanS, [&] { Scan.step(R.Ops); });
    }
    GatesStartS = msSince(Begin) / 1000;
    Batch.finish(R.Metrics, R.Ops);
    Session.finish(R.Metrics, R.Ops);
    Scan.finish(R.Metrics, R.Ops);
  }

  double DaemonRssMb = 0;
  for (std::unique_ptr<Daemon> &D : Ds) {
    double Rss = 0;
    if (!D->shutdown(Rss))
      R.Ops.fail("session: daemon did not shut down cleanly");
    DaemonRssMb = std::max(DaemonRssMb, Rss);
  }
  R.Metrics["setup_s"] = {median(SetupS), "s"};

  // Peak memory of the workload's own surface, in a process that holds
  // nothing else: the daemons for the session, a fresh child running one
  // batch job or one scan iteration otherwise.
  double PeakRssMb = DaemonRssMb;
  if (Workload != "session_append")
    PeakRssMb = surfacePeakRssMb(
        Workload == "batch_corpus600" ? "batch" : "scan", CorpusDir);
  if (PeakRssMb <= 0)
    R.Ops.fail("peak-memory child failed");
  R.Metrics["peak_rss_mb"] = {PeakRssMb, "MiB"};
  std::fprintf(stderr,
               "phases, s from start: set-up done %.1f, rounds %.1f-%.1f, "
               "end %.1f\n",
               SetupDoneS, RoundsStartS, GatesStartS, msSince(Begin) / 1000);
  std::fprintf(stderr, "setup s, in order:");
  for (double S : SetupS)
    std::fprintf(stderr, " %.3f", S);
  std::fprintf(stderr, "; peak rss %.1f MiB\n", PeakRssMb);
  return R;
}

int runSurfaceOnce(const std::string &Surface, const std::string &CorpusDir) {
  if (Surface == "batch") {
    if (runBatchOnce(CorpusDir, 0).NotOk != 0)
      return 1;
  } else if (Surface == "scan") {
    std::optional<corpus::Corpus> C = corpus::readCorpus(CorpusDir);
    if (!C)
      return 1;
    scan::ScanConfig Config;
    Config.Threads = 0;
    scan::Scanner S(api(), Config);
    for (bool Refine : {false, true})
      for (int Pass = 0; Pass < 2; ++Pass)
        scan::scanReportToJson(S.scan(requestOver(*C, Refine)));
  } else {
    return 2;
  }
  std::printf("%.17g\n", peakRssMb(getpid()));
  return 0;
}

} // namespace perfbench
