//===- perfbench/Layers.cpp - The traced per-layer run --------------------===//
//
// Part of the DiffCode project, a reproduction of "Inferring Crypto API
// Rules from Code Changes" (PLDI'18).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run behind `--trace 1`. It calls each layer's public entry
/// point from this file, under obs::Span spans kept in memory; the last
/// pass of each layer group is written at the end to
/// <work>/trace-<group>.json (Chrome trace_event format):
///
///   * corpus   — readCorpus, Miner::mine;
///   * javaast  — Lexer::lexAll, Parser::parseCompilationUnit;
///   * analysis — AbstractInterpreter::analyze;
///   * usage    — DiffCode::dagsForClass, usage::deriveUsageChanges
///                (the five together are processChange, taken apart);
///   * core     — serial processChange, analyzeChanges at 1 and 4
///                threads, filterClass, computeCorpusHealth,
///                corpusReportToJson; cluster — clusterClass;
///   * service  — AnalysisSession::ingest and reportJson in process over
///                the session stream, and the same stream over the socket;
///   * rules/scan — analyzeSourceChecked, rules::digestUnit,
///                rules::evaluateProject, scanReportToJson.
///
/// Each decomposition runs twice, each pass a traced run of its own
/// with a fresh tracer. Timings are medians; every count must repeat
/// exactly across the passes.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "core/DiffCode.h"
#include "core/ReportWriter.h"
#include "corpus/CorpusIO.h"
#include "corpus/Miner.h"
#include "javaast/Lexer.h"
#include "javaast/Parser.h"
#include "obs/Trace.h"
#include "rules/BuiltinRules.h"
#include "rules/RuleCompiler.h"
#include "scan/ScanReportWriter.h"
#include "scan/Scanner.h"
#include "service/AnalysisSession.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>

using namespace diffcode;

namespace perfbench {

namespace {

constexpr unsigned Passes = 2;
/// Session ops replayed per traced pass (p99 then has ten samples beyond).
constexpr std::size_t TracedIngests = 1000;

/// Summed duration of the spans named \p Name, in ms.
double totalMs(const obs::Tracer &Log, std::string_view Name) {
  for (const obs::Tracer::StageTotal &S : Log.aggregate())
    if (S.Name == Name)
      return S.TotalNs / 1e6;
  return 0;
}

/// Durations of the spans named \p Name, in ms.
std::vector<double> durationsMs(const obs::Tracer &Log, std::string_view Name) {
  std::vector<double> Out;
  for (const obs::Tracer::Event &E : Log.eventsFrom(0))
    if (Name == E.Name)
      Out.push_back(E.DurNs / 1e6);
  return Out;
}

/// The last pass's tracer of each layer group, written at the end.
using Traces = std::vector<std::pair<std::string, std::unique_ptr<obs::Tracer>>>;

/// Per-pass results: timings (medians are taken across passes) and counts
/// (which must repeat exactly).
using Sample = std::map<std::string, double>;

/// Folds the passes into metrics: medians of the timings, the counts of
/// pass 0, and a failure when any count differs between passes.
void fold(const std::vector<Sample> &PassTimes,
          const std::vector<Sample> &PassCounts,
          const std::map<std::string, std::string> &Units, MetricMap &M,
          Tally &T) {
  for (const auto &[Name, Unused] : PassTimes.front()) {
    std::vector<double> Values;
    for (const Sample &S : PassTimes)
      Values.push_back(S.at(Name));
    M[Name] = {median(Values), Units.count(Name) ? Units.at(Name) : "ms"};
  }
  for (const auto &[Name, Value] : PassCounts.front()) {
    for (const Sample &S : PassCounts)
      if (S.at(Name) != Value)
        T.fail("traced count " + Name + " differs between passes");
    M[Name] = {Value, Units.count(Name) ? Units.at(Name) : "count"};
  }
}

//===----------------------------------------------------------------------===//
// corpus
//===----------------------------------------------------------------------===//

void corpusLayer(const Inputs &In, MetricMap &M, Tally &T) {
  Sample OnDisk = {{"corpus.files", 0}, {"corpus.bytes", 0}};
  for (const auto &Entry :
       std::filesystem::recursive_directory_iterator(In.CorpusDir))
    if (Entry.is_regular_file()) {
      OnDisk["corpus.files"] += 1;
      OnDisk["corpus.bytes"] += static_cast<double>(Entry.file_size());
    }
  std::vector<Sample> Times, Cnt;
  for (unsigned P = 0; P < Passes; ++P) {
    Sample Tm, C = OnDisk;
    auto T0 = Clock::now();
    std::optional<corpus::Corpus> Loaded = corpus::readCorpus(In.CorpusDir);
    Tm["corpus.read_ms"] = msSince(T0);
    if (!Loaded)
      throw std::runtime_error("readCorpus failed");
    corpus::MinerOptions MinerOpts;
    MinerOpts.MinCommitsPerProject = 1;
    T0 = Clock::now();
    std::size_t Mined = corpus::Miner(api(), MinerOpts).mine(*Loaded).size();
    Tm["corpus.mine_ms"] = msSince(T0);
    C["corpus.changes"] = static_cast<double>(Mined);
    Times.push_back(Tm);
    Cnt.push_back(C);
  }
  fold(Times, Cnt, {{"corpus.bytes", "bytes"}}, M, T);
}

//===----------------------------------------------------------------------===//
// javaast + analysis + usage + support: processChange taken apart
//===----------------------------------------------------------------------===//

/// One serial pass over \p Changes calling each layer's entry point under
/// its own span. Returns the pass's counts; \p NotOk counts versions that
/// did not parse or analyze cleanly.
Sample decomposeChanges(const std::vector<const corpus::CodeChange *> &Changes,
                        const core::DiffCode &System, obs::Tracer &Log,
                        double &NotOk) {
  const core::PipelineConfig &Config = System.config();
  const std::vector<std::string> &Classes = api().targetClasses();
  support::Interner Table;
  double Tokens = 0, Steps = 0, Objects = 0, Dags = 0, Usage = 0;
  for (const corpus::CodeChange *Change : Changes) {
    obs::Span Whole(&Log, "change");
    java::AstContext Ctx;
    analysis::AnalysisResult Results[2];
    for (int Side = 0; Side < 2; ++Side) {
      const std::string &Code = Side ? Change->NewCode : Change->OldCode;
      if (Code.empty())
        continue;
      Ctx.reset();
      java::DiagnosticsEngine Diags;
      java::TokenStream Stream;
      {
        obs::Span S(&Log, "javaast.lex");
        Stream = java::Lexer(Code, Diags).lexAll();
      }
      Tokens += static_cast<double>(Stream.size());
      java::CompilationUnit *Unit;
      {
        obs::Span S(&Log, "javaast.parse");
        Unit = java::Parser(std::move(Stream), Ctx, Diags, Config.Limits.Parse)
                   .parseCompilationUnit();
      }
      if (!Unit) {
        ++NotOk;
        continue;
      }
      {
        obs::Span S(&Log, "analysis.interp");
        Results[Side] =
            analysis::AbstractInterpreter(api(), Config.Limits.Analysis)
                .analyze(Unit);
      }
      if (Diags.hasErrors() || Results[Side].Stats.anyBudgetHit())
        ++NotOk;
      Steps += static_cast<double>(Results[Side].Stats.StepsUsed);
      Objects += static_cast<double>(Results[Side].Stats.ObjectsTracked);
    }
    std::vector<std::vector<usage::UsageDag>> ClassDags[2];
    {
      obs::Span S(&Log, "usage.dag");
      for (const std::string &Class : Classes)
        for (int Side = 0; Side < 2; ++Side) {
          ClassDags[Side].push_back(System.dagsForClass(Results[Side], Class));
          Dags += static_cast<double>(ClassDags[Side].back().size());
        }
    }
    {
      obs::Span S(&Log, "usage.diff");
      for (std::size_t C = 0; C < Classes.size(); ++C)
        Usage += static_cast<double>(
            usage::deriveUsageChanges(ClassDags[0][C], ClassDags[1][C],
                                      Classes[C], Table)
                .size());
    }
  }
  return {{"javaast.tokens", Tokens},
          {"analysis.steps", Steps},
          {"analysis.objects", Objects},
          {"usage.dags", Dags},
          {"usage.changes", Usage},
          {"support.interner_labels", static_cast<double>(Table.labelCount())},
          {"support.interner_paths", static_cast<double>(Table.pathCount())},
          {"support.interner_bytes", static_cast<double>(Table.memoryBytes())}};
}

/// Core + cluster: serial processChange, analyzeChanges at 4 threads and
/// at 1, then the downstream stages over the 4-thread records.
void batchLayers(const Inputs &In, MetricMap &M, Traces &Keep, Tally &T) {
  std::vector<const corpus::CodeChange *> Changes;
  for (const std::vector<const corpus::CodeChange *> &Commit : In.Commits)
    Changes.insert(Changes.end(), Commit.begin(), Commit.end());
  T.Attempted += Changes.size();
  core::PipelineConfig Config4, Config1;
  Config4.Threads = 0;
  Config1.Threads = 1;
  core::DiffCode System4(api(), Config4), System1(api(), Config1);
  const std::vector<std::string> &Classes = api().targetClasses();

  // The reference the recomposed pipeline must reproduce.
  const core::PipelineRequest Request = pipelineRequest(Changes);
  std::string Reference = core::corpusReportToJson(System4.run(Request));

  std::vector<Sample> Times, Cnt;
  std::vector<double> Overhead;
  for (unsigned P = 0; P < Passes; ++P) {
    Sample Tm;
    auto Log = std::make_unique<obs::Tracer>();
    double NotOk = 0;
    auto T0 = Clock::now();
    Sample C = decomposeChanges(Changes, System1, *Log, NotOk);
    double TracedMs = msSince(T0);
    if (NotOk != 0)
      T.fail("traced decomposition saw versions that are not ok");
    Tm["javaast.lex_ms"] = totalMs(*Log, "javaast.lex");
    Tm["javaast.parse_ms"] = totalMs(*Log, "javaast.parse");
    Tm["analysis.interp_ms"] = totalMs(*Log, "analysis.interp");
    Tm["usage.dag_ms"] = totalMs(*Log, "usage.dag");
    Tm["usage.diff_ms"] = totalMs(*Log, "usage.diff");

    // The same stage untraced, through the one per-change entry point.
    support::Interner Table;
    double Usage = 0;
    T0 = Clock::now();
    for (const corpus::CodeChange *Change : Changes) {
      core::ChangeRecord R =
          System1.processChange(*Change, Classes, {}, Table);
      for (const auto &[Class, List] : R.PerClass)
        Usage += static_cast<double>(List.size());
    }
    Tm["core.change_ms"] = msSince(T0);
    Overhead.push_back(TracedMs - Tm["core.change_ms"]);
    if (Usage != C.at("usage.changes"))
      T.fail("traced decomposition derived a different usage-change count");

    double Cpu0 = processCpuSeconds();
    std::vector<core::ChangeRecord> Records = System1.analyzeChanges(Request);
    Tm["core.analyze_cpu_1t_ms"] = (processCpuSeconds() - Cpu0) * 1000;
    Records.clear();
    Cpu0 = processCpuSeconds();
    T0 = Clock::now();
    Records = System4.analyzeChanges(Request);
    Tm["core.analyze_wall_ms"] = msSince(T0);
    Tm["core.analyze_cpu_ms"] = (processCpuSeconds() - Cpu0) * 1000;

    core::CorpusReport Report;
    Report.Labels = System4.labels();
    Report.Changes = std::move(Records);
    double Total = 0, Kept = 0, Leaves = 0;
    {
      obs::Span S(Log.get(), "core.filter");
      for (const std::string &Class : Classes)
        Report.PerClass.push_back(System4.filterClass(Report.Changes, Class));
    }
    {
      obs::Span S(Log.get(), "cluster.cluster");
      for (core::ClassReport &Class : Report.PerClass)
        System4.clusterClass(Class);
    }
    for (const core::ClassReport &Class : Report.PerClass) {
      Total += static_cast<double>(Class.Filtered.Total);
      Kept += static_cast<double>(Class.Filtered.Kept.size());
      Leaves += static_cast<double>(Class.Tree.leafCount());
    }
    {
      obs::Span S(Log.get(), "core.health");
      core::computeCorpusHealth(Report);
    }
    std::string Json;
    {
      obs::Span S(Log.get(), "core.emit");
      Json = core::corpusReportToJson(Report);
    }
    if (Json != Reference)
      T.fail("recomposed pipeline report differs from DiffCode::run");
    Tm["core.filter_ms"] = totalMs(*Log, "core.filter");
    Tm["cluster.cluster_ms"] = totalMs(*Log, "cluster.cluster");
    Tm["core.health_ms"] = totalMs(*Log, "core.health");
    Tm["core.emit_ms"] = totalMs(*Log, "core.emit");
    C["core.emit_bytes"] = static_cast<double>(Json.size());
    C["core.filter_kept_ratio"] = Total ? Kept / Total : 0;
    C["cluster.leaves"] = Leaves;
    Times.push_back(Tm);
    Cnt.push_back(C);
    if (P + 1 == Passes)
      Keep.emplace_back("batch", std::move(Log));
  }
  fold(Times, Cnt,
       {{"core.emit_bytes", "bytes"},
        {"core.filter_kept_ratio", "ratio"},
        {"support.interner_bytes", "bytes"}},
       M, T);

  double Layers = M["javaast.lex_ms"].Value + M["javaast.parse_ms"].Value +
                  M["analysis.interp_ms"].Value + M["usage.dag_ms"].Value +
                  M["usage.diff_ms"].Value;
  double Change = M["core.change_ms"].Value;
  M["core.layer_coverage"] = {Layers / Change, "ratio"};
  M["core.analyze_cpu_inflation"] = {M["core.analyze_cpu_ms"].Value /
                                         M["core.analyze_cpu_1t_ms"].Value,
                                     "ratio"};
  M["javaast.tokens_per_s"] = {M["javaast.tokens"].Value /
                                   (M["javaast.lex_ms"].Value / 1000),
                               "1/s"};
  // Paired per pass: the traced pass minus the untraced one.
  M["trace.overhead_ms"] = {median(Overhead), "ms"};
  M["trace.overhead_pct"] = {100 * median(Overhead) / Change, "%"};
}

//===----------------------------------------------------------------------===//
// service
//===----------------------------------------------------------------------===//

void serviceLayer(const Inputs &In, const std::string &WorkDir, MetricMap &M,
                  Traces &Keep, Tally &T) {
  service::SessionOptions Opts;
  Opts.Config.Threads = 0;
  std::vector<const corpus::CodeChange *> WarmChanges;
  for (std::size_t I = 0; I < In.WarmCommits; ++I)
    WarmChanges.insert(WarmChanges.end(), In.Commits[I].begin(),
                       In.Commits[I].end());
  std::vector<corpus::CodeChange> Warm = copyChanges(WarmChanges);
  // processChange twin of each ingest (the analysis share of an ingest).
  core::DiffCode System(api());
  support::Interner Scratch;

  std::vector<Sample> Times, Cnt;
  for (unsigned P = 0; P < Passes; ++P) {
    auto Log = std::make_unique<obs::Tracer>();
    service::AnalysisSession S(api(), Opts);
    S.ingest(Warm);
    std::vector<double> IngestMs, AnalyzeMs, RepairMs;
    double Hits = 0, Misses = 0, Repaired = 0, Computed = 0, Reused = 0;
    for (std::size_t I = 0; I < TracedIngests; ++I) {
      const SessionOp &Op = In.Ops[I];
      std::vector<corpus::CodeChange> Commit =
          copyChanges(In.Commits[Op.Commit]);
      auto T0 = Clock::now();
      service::IngestStats St;
      {
        obs::Span Sp(Log.get(), "service.ingest");
        St = S.ingest(Commit);
      }
      double Ms = msSince(T0);
      T0 = Clock::now();
      for (const corpus::CodeChange &C : Commit)
        System.processChange(C, S.targetClasses(), {}, Scratch);
      double Analyze = St.Ingested ? msSince(T0) * static_cast<double>(
                                                       St.CacheMisses) /
                                         static_cast<double>(St.Ingested)
                                   : 0;
      IngestMs.push_back(Ms);
      AnalyzeMs.push_back(Analyze);
      RepairMs.push_back(Ms - Analyze);
      Hits += static_cast<double>(St.CacheHits);
      Misses += static_cast<double>(St.CacheMisses);
      Repaired += static_cast<double>(St.ClassesRepaired);
      Computed += static_cast<double>(St.PairsComputed);
      Reused += static_cast<double>(St.PairsReused);
      if (Op.Read == "snapshot") {
        obs::Span Sp(Log.get(), "service.report_json");
        S.reportJson();
      }
    }
    Times.push_back({{"service.ingest_ms_p50", median(IngestMs)},
                     {"service.ingest_ms_p99", quantile(IngestMs, 0.99)},
                     {"service.ingest_analyze_ms", median(AnalyzeMs)},
                     {"service.ingest_repair_ms", median(RepairMs)},
                     {"service.report_json_ms",
                      median(durationsMs(*Log, "service.report_json"))}});
    Cnt.push_back({{"service.cache_hit_ratio", Hits / (Hits + Misses)},
                   {"service.classes_repaired", Repaired},
                   {"service.pairs_computed", Computed},
                   {"service.pairs_reused", Reused}});
    if (P + 1 == Passes)
      Keep.emplace_back("service", std::move(Log));
  }
  fold(Times, Cnt, {{"service.cache_hit_ratio", "ratio"}}, M, T);

  // The same stream over the socket, untraced: its ingest median minus
  // the in-process one is what transport and framing cost.
  std::vector<std::unique_ptr<Daemon>> Ds;
  Ds.push_back(std::make_unique<Daemon>(WorkDir + "/daemon.sock"));
  Daemon &D = *Ds.front();
  if (!warmSession(In, D))
    T.fail("session: warm-up ingest failed");
  SessionLoop L;
  streamSession(In, Ds, L, TracedIngests);
  T.Attempted += L.Frames;
  T.Failed += L.FramesFailed;
  if (daemonSnapshot(D) != coldSessionJson(In, L.Ops))
    T.fail("session: final snapshot differs from a cold run");
  double Unused = 0;
  if (!D.shutdown(Unused))
    T.fail("session: daemon did not shut down cleanly");
  M["service.transport_ms_p50"] = {
      median(L.IngestMs) - M["service.ingest_ms_p50"].Value, "ms"};
}

//===----------------------------------------------------------------------===//
// rules + scan
//===----------------------------------------------------------------------===//

void scanLayers(const Inputs &In, MetricMap &M, Traces &Keep, Tally &T) {
  core::DiffCode System(api());
  std::vector<Sample> Times, Cnt;
  for (unsigned P = 0; P < Passes; ++P) {
    auto Log = std::make_unique<obs::Tracer>();
    rules::CompiledRuleSet Rules = rules::CompiledRuleSet::compile(
        rules::elicitedRules(), std::make_shared<rules::ScanSymbols>());
    double Violations = 0;
    for (bool Refine : {false, true}) {
      for (const corpus::Project &Project : In.Corpus.Projects) {
        obs::Span Whole(Log.get(), "scan.project");
        java::AstContext Ctx;
        std::vector<rules::UnitScanFacts> Facts;
        for (const corpus::ProjectFile &File : Project.Files) {
          core::DiffCode::SourceAnalysis SA;
          {
            obs::Span S(Log.get(), "scan.frontend");
            SA = System.analyzeSourceChecked(File.Code, Ctx);
          }
          if (SA.Status != core::ChangeStatus::Ok)
            T.fail("scan: unit of " + Project.Name + " not ok");
          obs::Span S(Log.get(), "rules.digest");
          Facts.push_back(
              rules::digestUnit(SA.Result, *Rules.symbols(), Refine));
        }
        std::vector<const rules::UnitScanFacts *> Units;
        for (const rules::UnitScanFacts &F : Facts)
          Units.push_back(&F);
        obs::Span S(Log.get(), "rules.evaluate");
        rules::ProjectReport Report =
            rules::evaluateProject(Rules, Units, Project.Meta, Refine);
        for (const rules::RuleVerdict &V : Report.verdicts())
          Violations += static_cast<double>(V.Violations.size());
      }
    }

    // A real scanner, cold then warm over both settings: its totals must
    // match the decomposition, and its counters give the cache hit ratio.
    obs::Observer Obs;
    scan::ScanConfig Config;
    Config.Threads = 0;
    Config.Metrics = &Obs;
    scan::Scanner Scanner(api(), Config);
    double ScannerViolations = 0;
    std::vector<double> EmitMs;
    for (bool Refine : {false, true}) {
      scan::ScanRequest Request;
      for (const corpus::Project &Project : In.Corpus.Projects)
        Request.Projects.push_back(&Project);
      Request.Refine = Refine;
      for (int Pass = 0; Pass < 2; ++Pass) {
        scan::ScanReport Report = Scanner.scan(Request);
        {
          obs::Span S(Log.get(), "scan.emit");
          scan::scanReportToJson(Report);
        }
        if (Pass == 0)
          for (const scan::RuleTotal &R : Report.Rules)
            ScannerViolations += static_cast<double>(R.Violations);
      }
    }
    if (ScannerViolations != Violations)
      T.fail("scan: decomposed violations differ from the scanner's");
    double Hits = static_cast<double>(
        Obs.Metrics.counter("scan.unit_cache_hits").get());
    double Misses = static_cast<double>(
        Obs.Metrics.counter("scan.unit_cache_misses").get());
    Times.push_back({{"scan.frontend_ms", totalMs(*Log, "scan.frontend")},
                     {"rules.digest_ms", totalMs(*Log, "rules.digest")},
                     {"rules.evaluate_ms", totalMs(*Log, "rules.evaluate")},
                     {"scan.emit_ms", median(durationsMs(*Log, "scan.emit"))}});
    Cnt.push_back({{"rules.violations", Violations},
                   {"scan.unit_cache_hit_ratio", Hits / (Hits + Misses)}});
    T.Attempted += 2 * In.Corpus.Projects.size();
    if (P + 1 == Passes)
      Keep.emplace_back("scan", std::move(Log));
  }
  fold(Times, Cnt, {{"scan.unit_cache_hit_ratio", "ratio"}}, M, T);
}

//===----------------------------------------------------------------------===//
// Reporting
//===----------------------------------------------------------------------===//

/// The re-anchor layer table of ROADMAP.md ("Baseline at this re-anchor"),
/// with this run's medians beside the committed single-run numbers.
void printLayerTable(const MetricMap &M) {
  struct Row {
    const char *Label, *Metric;
    double Baseline;
  };
  const Row Rows[] = {{"corpus load (readCorpus)", "corpus.read_ms", 544},
                      {"lex", "javaast.lex_ms", 95},
                      {"parse", "javaast.parse_ms", 93},
                      {"abstract interpretation", "analysis.interp_ms", 208},
                      {"usage-DAG build (dagsForClass)", "usage.dag_ms", 128},
                      {"DAG match + diff (deriveUsageChanges)",
                       "usage.diff_ms", 371}};
  double PerChange = 0;
  for (const Row &R : Rows)
    if (std::string_view(R.Metric) != "corpus.read_ms")
      PerChange += M.at(R.Metric).Value;
  std::printf("%-40s %12s %10s %14s\n", "layer", "serial ms", "share",
              "re-anchor ms");
  for (const Row &R : Rows) {
    double Ms = M.at(R.Metric).Value;
    if (std::string_view(R.Metric) == "corpus.read_ms")
      std::printf("%-40s %12.1f %10s %14.0f\n", R.Label, Ms, "-", R.Baseline);
    else
      std::printf("%-40s %12.1f %9.1f%% %14.0f\n", R.Label, Ms,
                  100 * Ms / PerChange, R.Baseline);
  }
  std::printf("processChange, serial: %.1f ms; layers cover %.1f%%\n",
              M.at("core.change_ms").Value,
              100 * M.at("core.layer_coverage").Value);
  std::printf("analyzeChanges CPU: %.1f ms at 1 thread, %.1f ms at 4 "
              "threads (%.1f ms wall): %+.1f%% CPU for the same output\n",
              M.at("core.analyze_cpu_1t_ms").Value,
              M.at("core.analyze_cpu_ms").Value,
              M.at("core.analyze_wall_ms").Value,
              100 * (M.at("core.analyze_cpu_inflation").Value - 1));
  std::printf("tracing overhead: %.1f ms (%.2f%%) over the serial "
              "per-change stage\n",
              M.at("trace.overhead_ms").Value, M.at("trace.overhead_pct").Value);
}

} // namespace

RunResult runTraced(const std::string &CorpusDir, const std::string &WorkDir,
                    std::uint64_t Seed) {
  RunResult R;
  Inputs In = prepareInputs(CorpusDir, Seed);
  Traces Keep;
  corpusLayer(In, R.Metrics, R.Ops);
  batchLayers(In, R.Metrics, Keep, R.Ops);
  serviceLayer(In, WorkDir, R.Metrics, Keep, R.Ops);
  scanLayers(In, R.Metrics, Keep, R.Ops);
  for (const auto &[Group, Log] : Keep) {
    std::string Path = WorkDir + "/trace-" + Group + ".json";
    if (!(std::ofstream(Path) << Log->traceJson()))
      R.Ops.fail("cannot write " + Path);
  }
  printLayerTable(R.Metrics);
  return R;
}

} // namespace perfbench
