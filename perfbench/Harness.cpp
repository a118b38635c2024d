//===- perfbench/Harness.cpp - Shared pieces of the DiffCode benchmark ----===//
//
// Part of the DiffCode project, a reproduction of "Inferring Crypto API
// Rules from Code Changes" (PLDI'18).
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "corpus/CorpusIO.h"
#include "corpus/Miner.h"
#include "service/Server.h"
#include "support/Process.h"
#include "support/Rng.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <fstream>
#include <signal.h>
#include <stdexcept>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace diffcode;

namespace perfbench {

namespace {

/// Held-out commits streamed by the session surface: with replays, enough
/// ops for the stream of a run of up to 30 s (1,000 + 100 per second of
/// run length); a longer run stops at the end of the stream.
constexpr std::size_t HeldOutCommits = 4000;
/// Every Nth ingest replays an earlier commit (all memo-cache hits).
constexpr std::size_t ReplayEvery = 10;
/// Every Nth read is a full snapshot; the rest rotate the cheap queries.
constexpr std::size_t SnapshotEvery = 25;

double secondsOf(const timeval &T) { return T.tv_sec + T.tv_usec / 1e6; }

} // namespace

double processCpuSeconds() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return secondsOf(U.ru_utime) + secondsOf(U.ru_stime);
}

double childCpuSeconds(pid_t Pid) {
  std::ifstream In("/proc/" + std::to_string(Pid) + "/stat");
  std::string Line;
  std::getline(In, Line);
  // Fields after the parenthesized command name; utime and stime are the
  // 12th and 13th of them (fields 14 and 15 of proc(5)).
  std::size_t Close = Line.rfind(')');
  if (Close == std::string::npos)
    return 0;
  std::vector<std::string> Fields;
  std::size_t Pos = Close + 2;
  while (Pos < Line.size()) {
    std::size_t End = Line.find(' ', Pos);
    if (End == std::string::npos)
      End = Line.size();
    Fields.push_back(Line.substr(Pos, End - Pos));
    Pos = End + 1;
  }
  if (Fields.size() < 13)
    return 0;
  double Ticks = static_cast<double>(sysconf(_SC_CLK_TCK));
  return (std::stod(Fields[11]) + std::stod(Fields[12])) / Ticks;
}

double peakRssMb(pid_t Pid) {
  std::ifstream In("/proc/" + std::to_string(Pid) + "/status");
  for (std::string Line; std::getline(In, Line);)
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::stod(Line.substr(6)) / 1024; // In kB.
  return 0;
}

double median(std::vector<double> Values) { return quantile(Values, 0.5); }

double quantile(std::vector<double> Values, double Q) {
  if (Values.empty())
    return 0;
  std::sort(Values.begin(), Values.end());
  if (Q == 0.5 && Values.size() % 2 == 0) {
    std::size_t Mid = Values.size() / 2;
    return (Values[Mid - 1] + Values[Mid]) / 2;
  }
  std::size_t Rank = static_cast<std::size_t>(
      std::ceil(Q * static_cast<double>(Values.size())));
  return Values[std::min(Values.size() - 1, Rank == 0 ? 0 : Rank - 1)];
}

void Tally::fail(const std::string &Why) {
  std::fprintf(stderr, "perfbench: FAIL: %s\n", Why.c_str());
  Correct = false;
}

const apimodel::CryptoApiModel &api() {
  return apimodel::CryptoApiModel::javaCryptoApi();
}

core::PipelineRequest
pipelineRequest(std::vector<const corpus::CodeChange *> Changes) {
  core::PipelineRequest Request;
  Request.Changes = std::move(Changes);
  Request.TargetClasses = api().targetClasses();
  Request.BuildDendrograms = true;
  return Request;
}

Inputs prepareInputs(const std::string &CorpusDir, std::uint64_t Seed) {
  Inputs In;
  In.CorpusDir = CorpusDir;
  std::string Error;
  std::optional<corpus::Corpus> C = corpus::readCorpus(CorpusDir, &Error);
  if (!C)
    throw std::runtime_error("cannot read corpus " + CorpusDir + ": " + Error);
  In.Corpus = std::move(*C);

  // The miner settings of `diffcode_cli pipeline`.
  corpus::MinerOptions MinerOpts;
  MinerOpts.MinCommitsPerProject = 1;
  corpus::Miner M(api(), MinerOpts);
  for (const corpus::CodeChange *Change : M.mine(In.Corpus)) {
    if (In.Commits.empty() ||
        In.Commits.back().front()->ProjectName != Change->ProjectName ||
        In.Commits.back().front()->CommitIndex != Change->CommitIndex)
      In.Commits.emplace_back();
    In.Commits.back().push_back(Change);
  }
  if (In.Commits.size() < 2 * HeldOutCommits)
    throw std::runtime_error("corpus too small for the session stream: " +
                             std::to_string(In.Commits.size()) + " commits");
  In.WarmCommits = In.Commits.size() - HeldOutCommits;

  const std::vector<std::string> &Classes = api().targetClasses();
  Rng R(Seed ^ 0x5e55105eull);
  std::size_t Next = In.WarmCommits;
  for (std::size_t I = 0; Next < In.Commits.size(); ++I) {
    SessionOp Op;
    if (I % ReplayEvery == ReplayEvery - 1) {
      Op.Commit = R.index(Next);
      Op.Replay = true;
    } else {
      Op.Commit = Next++;
    }
    if (I % SnapshotEvery == SnapshotEvery - 1)
      Op.Read = "snapshot";
    else if (I % 3 == 0)
      Op.Read = "health";
    else if (I % 3 == 1)
      Op.Read = "stats";
    else
      Op.Read = "class:" + Classes[(I / 3) % Classes.size()];
    In.Ops.push_back(std::move(Op));
  }
  return In;
}

std::vector<corpus::CodeChange>
copyChanges(const std::vector<const corpus::CodeChange *> &Commit) {
  std::vector<corpus::CodeChange> Out;
  Out.reserve(Commit.size());
  for (const corpus::CodeChange *C : Commit)
    Out.push_back(*C);
  return Out;
}

namespace {

/// Forks and re-executes this binary with \p Args (argv[1..]), its stdout
/// on \p StdoutFd when that is not -1; the child is killed when the
/// benchmark dies. Returns the child's pid.
pid_t spawnSelf(const std::vector<std::string> &Args, int StdoutFd = -1) {
  // Built before fork: the child only makes async-signal-safe calls.
  std::vector<char *> Argv{const_cast<char *>("perfbench")};
  for (const std::string &A : Args)
    Argv.push_back(const_cast<char *>(A.c_str()));
  Argv.push_back(nullptr);
  pid_t Pid = fork();
  if (Pid < 0)
    throw std::runtime_error(std::string("fork: ") + std::strerror(errno));
  if (Pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (StdoutFd >= 0)
      dup2(StdoutFd, STDOUT_FILENO);
    execv("/proc/self/exe", Argv.data());
    _exit(127);
  }
  return Pid;
}

/// Reaps \p Pid; true when it exited with 0.
bool reap(pid_t Pid) {
  int Status = 0;
  pid_t Got;
  do {
    Got = waitpid(Pid, &Status, 0);
  } while (Got < 0 && errno == EINTR);
  return Got > 0 && WIFEXITED(Status) && WEXITSTATUS(Status) == 0;
}

} // namespace

Daemon::Daemon(const std::string &SocketPath) : Path(SocketPath) {
  std::string Error;
  int ListenFd = service::listenUnix(Path, &Error);
  if (ListenFd < 0)
    throw std::runtime_error("daemon: " + Error);
  // The child inherits the listening socket across exec.
  int Flags = fcntl(ListenFd, F_GETFD);
  fcntl(ListenFd, F_SETFD, Flags & ~FD_CLOEXEC);
  try {
    Pid = spawnSelf({"--serve-fd", std::to_string(ListenFd), Path});
  } catch (...) {
    ::close(ListenFd);
    throw;
  }
  ::close(ListenFd);
}

Daemon::~Daemon() {
  if (Pid > 0) {
    kill(Pid, SIGKILL);
    waitpid(Pid, nullptr, 0);
  }
  ::unlink(Path.c_str());
}

bool Daemon::shutdown(double &PeakRssMb) {
  PeakRssMb = peakRssMb(Pid);
  std::string Error;
  bool Ok = false;
  int Fd = service::connectUnix(Path, &Error);
  if (Fd >= 0) {
    service::Client C(Fd);
    Ok = C.shutdown(&Error);
    ::close(Fd);
  }
  if (!Ok) {
    std::fprintf(stderr, "perfbench: daemon shutdown: %s\n", Error.c_str());
    kill(Pid, SIGKILL);
  }
  bool Exited = reap(Pid);
  Pid = -1;
  return Ok && Exited;
}

int serveDaemon(int ListenFd, const std::string &SocketPath) {
  // The `diffcode_cli serve` configuration: one analysis worker per
  // hardware thread, unbounded memo cache, dendrograms on.
  service::SessionOptions Opts;
  Opts.Config.Threads = 0;
  service::Server S(api(), std::move(Opts));
  int Code = service::serveUnix(S, ListenFd);
  ::close(ListenFd);
  ::unlink(SocketPath.c_str());
  return Code;
}

double surfacePeakRssMb(const std::string &Surface,
                        const std::string &CorpusDir) {
  support::Pipe Out;
  pid_t Pid = spawnSelf({"--peak", Surface, CorpusDir}, Out.writeFd());
  Out.closeWrite();
  std::string Text;
  char Buf[256];
  ssize_t Got;
  while ((Got = support::readSome(Out.readFd(), Buf, sizeof(Buf))) > 0)
    Text.append(Buf, static_cast<std::size_t>(Got));
  if (!reap(Pid) || Text.empty())
    return -1;
  return std::stod(Text);
}

} // namespace perfbench
