//===- perfbench/perfbench.cpp - The DiffCode benchmark program -----------===//
//
// Part of the DiffCode project, a reproduction of "Inferring Crypto API
// Rules from Code Changes" (PLDI'18).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Three modes, all started by run.py:
///
///   perfbench --generate <dir> --seed <n>
///       writes the seeded 600-project corpus (`export_corpus <dir> 600 <n>`);
///   perfbench --serve-fd <fd> <socket>
///       the daemon the session surface talks to (re-executed self);
///   perfbench --peak <batch|scan> <corpus>
///       one batch job or scan iteration in a process of its own, for its
///       peak memory (re-executed self);
///   perfbench --workload <w> --seed <n> --seconds <s> --trace <0|1>
///             --corpus <dir> --work <dir>
///       one measured run; the last stdout line is the result object
///       {"correct", "attempted", "failed", "metrics"}.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "corpus/CorpusGenerator.h"
#include "corpus/CorpusIO.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

using namespace diffcode;
using namespace perfbench;

namespace {

constexpr unsigned CorpusProjects = 600;

int printUsage() {
  std::fprintf(stderr,
               "usage: perfbench --generate <dir> --seed <n>\n"
               "       perfbench --workload <w> --seed <n> --seconds <s> "
               "--trace <0|1> --corpus <dir> --work <dir>\n");
  return 2;
}

void printResult(const RunResult &R) {
  bool Correct = R.Ops.Correct && R.Ops.Attempted > 0;
  std::string Out = "{\"correct\": ";
  Out += Correct ? "true" : "false";
  Out += ", \"attempted\": " + std::to_string(R.Ops.Attempted);
  Out += ", \"failed\": " + std::to_string(R.Ops.Failed);
  Out += ", \"metrics\": {";
  bool First = true;
  for (const auto &[Name, M] : R.Metrics) {
    if (!std::isfinite(M.Value)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n",
                   Name.c_str());
      std::exit(1);
    }
    char Value[64];
    std::snprintf(Value, sizeof(Value), "%.17g", M.Value);
    Out += First ? "" : ", ";
    Out += "\"" + Name + "\": {\"value\": " + Value + ", \"unit\": \"" +
           M.Unit + "\"}";
    First = false;
  }
  Out += "}}";
  std::printf("%s\n", Out.c_str());
}

} // namespace

int main(int argc, char **argv) {
  if (argc == 4 && std::strcmp(argv[1], "--serve-fd") == 0)
    return serveDaemon(std::atoi(argv[2]), argv[3]);
  if (argc == 4 && std::strcmp(argv[1], "--peak") == 0)
    return runSurfaceOnce(argv[2], argv[3]);

  if (argc % 2 == 0)
    return printUsage();
  std::string Generate, Workload, CorpusDir, WorkDir;
  std::uint64_t Seed = 42;
  double Seconds = 4;
  int Trace = 0;
  for (int I = 1; I + 1 < argc; I += 2) {
    std::string Flag = argv[I], Value = argv[I + 1];
    if (Flag == "--generate")
      Generate = Value;
    else if (Flag == "--workload")
      Workload = Value;
    else if (Flag == "--seed")
      Seed = std::strtoull(Value.c_str(), nullptr, 10);
    else if (Flag == "--seconds")
      Seconds = std::strtod(Value.c_str(), nullptr);
    else if (Flag == "--trace")
      Trace = std::atoi(Value.c_str());
    else if (Flag == "--corpus")
      CorpusDir = Value;
    else if (Flag == "--work")
      WorkDir = Value;
    else
      return printUsage();
  }

  try {
    if (!Generate.empty()) {
      corpus::CorpusOptions Opts;
      Opts.NumProjects = CorpusProjects;
      Opts.Seed = Seed;
      std::string Error;
      if (!corpus::writeCorpus(corpus::CorpusGenerator(Opts).generate(),
                               Generate, &Error)) {
        std::fprintf(stderr, "perfbench: %s\n", Error.c_str());
        return 1;
      }
      return 0;
    }
    if (CorpusDir.empty() || WorkDir.empty() || Seconds <= 0 ||
        (Workload != "batch_corpus600" && Workload != "session_append" &&
         Workload != "scan_projects"))
      return printUsage();
    RunResult R = Trace ? runTraced(CorpusDir, WorkDir, Seed)
                        : runEndToEnd(Workload, CorpusDir, WorkDir, Seed,
                                      Seconds);
    printResult(R);
    return 0;
  } catch (const std::exception &E) {
    std::fprintf(stderr, "perfbench: %s\n", E.what());
    return 1;
  }
}
