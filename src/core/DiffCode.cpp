//===- core/DiffCode.cpp ---------------------------------------------------===//

#include "core/DiffCode.h"

#include "cluster/ShardedClustering.h"
#include "exec/Supervisor.h"
#include "javaast/Parser.h"
#include "obs/Observer.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <set>

using namespace diffcode;
using namespace diffcode::core;

const char *core::changeStatusName(ChangeStatus Status) {
  switch (Status) {
  case ChangeStatus::Ok:
    return "ok";
  case ChangeStatus::Degraded:
    return "degraded";
  case ChangeStatus::ParseError:
    return "parse-error";
  case ChangeStatus::BudgetExceeded:
    return "budget-exceeded";
  case ChangeStatus::AnalysisThrow:
    return "analysis-throw";
  case ChangeStatus::WorkerCrash:
    return "worker-crash";
  case ChangeStatus::WorkerTimeout:
    return "worker-timeout";
  case ChangeStatus::WorkerOom:
    return "worker-oom";
  }
  return "unknown";
}

bool core::changeStatusFromName(std::string_view Name, ChangeStatus &Out) {
  for (std::size_t I = 0; I < NumChangeStatuses; ++I) {
    ChangeStatus Status = static_cast<ChangeStatus>(I);
    if (Name == changeStatusName(Status)) {
      Out = Status;
      return true;
    }
  }
  return false;
}

std::size_t CorpusHealth::troubled() const {
  std::size_t N = 0;
  for (std::size_t I = 1; I < NumChangeStatuses; ++I)
    N += StatusCounts[I];
  return N;
}

void core::computeCorpusHealth(CorpusReport &Report, std::size_t MaxOffenders) {
  CorpusHealth Health;
  for (const ChangeRecord &Record : Report.Changes)
    ++Health.StatusCounts[static_cast<std::size_t>(Record.Status)];
  for (const ClassReport &Class : Report.PerClass)
    if (!Class.ClusteringError.empty())
      ++Health.ClusteringFailures;

  for (const ChangeRecord &Record : Report.Changes)
    if (Record.StepsUsed > 0)
      Health.WorstOffenders.push_back(WorstOffender{
          Record.Origin, Record.StepsUsed, Record.Status, Record.WallNanos});
  std::sort(Health.WorstOffenders.begin(), Health.WorstOffenders.end(),
            [](const WorstOffender &A, const WorstOffender &B) {
              if (A.Steps != B.Steps)
                return A.Steps > B.Steps;
              return A.Origin < B.Origin;
            });
  if (Health.WorstOffenders.size() > MaxOffenders)
    Health.WorstOffenders.resize(MaxOffenders);
  Report.Health = Health;
}

DiffCode::DiffCode(const apimodel::CryptoApiModel &Api, PipelineConfig Config)
    : Api(Api), Config(Config),
      DefaultLabels(std::make_shared<support::Interner>()) {}

support::Interner &DiffCode::internerFor(const PipelineRequest &Request) const {
  return Request.Labels ? *Request.Labels : *DefaultLabels;
}

DiffCode::SourceAnalysis
DiffCode::analyzeSourceChecked(std::string_view Source) const {
  java::AstContext Ctx;
  return analyzeSourceChecked(Source, Ctx);
}

DiffCode::SourceAnalysis
DiffCode::analyzeSourceChecked(std::string_view Source,
                               java::AstContext &Ctx) const {
  SourceAnalysis Out;
  if (Source.empty())
    return Out;
  Ctx.reset();
  java::DiagnosticsEngine Diags;
  java::CompilationUnit *Unit =
      java::parseJava(Source, Ctx, Diags, Config.Limits.Parse);
  auto FirstError = [&Diags]() -> std::string {
    for (const java::Diagnostic &D : Diags.all())
      if (D.Level == java::DiagLevel::Error)
        return D.str();
    return "unknown parse failure";
  };
  if (!Unit) {
    Out.Status = Diags.budgetExceeded() ? ChangeStatus::BudgetExceeded
                                        : ChangeStatus::ParseError;
    Out.Detail = FirstError();
    return Out;
  }
  analysis::AbstractInterpreter Interp(Api, Config.Limits.Analysis);
  Out.Result = Interp.analyze(Unit);
  if (Out.Result.Stats.anyBudgetHit()) {
    Out.Status = ChangeStatus::BudgetExceeded;
    Out.Detail = Out.Result.Stats.FuelExhausted ? "interpreter fuel exhausted"
                                                : "abstract-object cap hit";
  } else if (Diags.hasErrors()) {
    Out.Status = ChangeStatus::Degraded;
    Out.Detail = FirstError();
  }
  return Out;
}

std::vector<usage::UsageDag>
DiffCode::dagsForClass(const analysis::AnalysisResult &Result,
                       const std::string &TargetClass) const {
  std::vector<usage::UsageDag> Dags;
  std::set<std::string> Seen;
  for (const analysis::UsageLog &Log : Result.Executions) {
    for (const auto &[ObjId, Events] : Log) {
      if (Events.empty())
        continue;
      if (Result.Objects.get(ObjId).TypeName != TargetClass)
        continue;
      usage::UsageDag Dag =
          usage::UsageDag::build(Result.Objects, Log, ObjId, Config.Limits.DagDepth);
      if (Seen.insert(Dag.canonicalString()).second)
        Dags.push_back(std::move(Dag));
    }
  }
  return Dags;
}

ChangeRecord DiffCode::processChange(
    const corpus::CodeChange &Change,
    const std::vector<std::string> &TargetClasses,
    const std::vector<const rules::Rule *> &ClassifyWith,
    support::Interner &Table, obs::Registry *Reg) const {
  ChangeRecord Record;
  Record.Origin = Change.origin();
  Record.GroundTruthKind = Change.Kind;

  try {
    java::AstContext Ctx; // shared across both versions (reset in between)
    SourceAnalysis Old = analyzeSourceChecked(Change.OldCode, Ctx);
    SourceAnalysis New = analyzeSourceChecked(Change.NewCode, Ctx);

    // Worst of the two versions wins; keep the detail of the losing side.
    const SourceAnalysis &Worst = New.Status > Old.Status ? New : Old;
    Record.Status = Worst.Status;
    Record.StatusDetail = Worst.Detail;
    Record.StepsUsed =
        Old.Result.Stats.StepsUsed + New.Result.Stats.StepsUsed;

    if (Reg) {
      // All of these are pure functions of the change's source text, so
      // they stay in the deterministic snapshot projection.
      auto &Steps = Reg->histogram("analysis.steps_per_version");
      auto &Entries = Reg->histogram("analysis.entries_per_version");
      auto &Objects = Reg->histogram("analysis.objects_per_version");
      for (const SourceAnalysis *Side : {&Old, &New}) {
        Steps.record(Side->Result.Stats.StepsUsed);
        Entries.record(Side->Result.Stats.Entries);
        Objects.record(Side->Result.Stats.ObjectsTracked);
      }
      Reg->counter("analysis.steps_total").add(Record.StepsUsed);
      Reg->counter("analysis.fuel_exhausted")
          .add(unsigned(Old.Result.Stats.FuelExhausted) +
               unsigned(New.Result.Stats.FuelExhausted));
      Reg->counter("analysis.object_budget_hits")
          .add(unsigned(Old.Result.Stats.ObjectBudgetHit) +
               unsigned(New.Result.Stats.ObjectBudgetHit));
    }

    for (const std::string &TargetClass : TargetClasses) {
      std::vector<usage::UsageChange> Changes = usage::deriveUsageChanges(
          dagsForClass(Old.Result, TargetClass),
          dagsForClass(New.Result, TargetClass), TargetClass, Table);
      for (usage::UsageChange &C : Changes)
        C.Origin = Record.Origin;
      if (Reg && !Changes.empty())
        Reg->counter("usage.changes").add(Changes.size());
      if (!Changes.empty())
        Record.PerClass.emplace(TargetClass, std::move(Changes));
    }

    if (!ClassifyWith.empty()) {
      rules::UnitFacts OldFacts = rules::UnitFacts::from(Old.Result);
      rules::UnitFacts NewFacts = rules::UnitFacts::from(New.Result);
      for (const rules::Rule *R : ClassifyWith)
        Record.Classification.emplace(
            R->Id, rules::classifyChange(*R, OldFacts, NewFacts));
    }
  } catch (const std::exception &E) {
    Record.StatusDetail = E.what();
    Record.Status = ChangeStatus::AnalysisThrow;
  } catch (...) {
    Record.StatusDetail = "unknown exception";
    Record.Status = ChangeStatus::AnalysisThrow;
  }
  if (Record.Status == ChangeStatus::AnalysisThrow) {
    // Containment: this change contributes nothing, but its slot in the
    // report survives with a structured status — the rest of the corpus
    // is unaffected.
    Record.PerClass.clear();
    Record.Classification.clear();
    Record.StepsUsed = 0;
  }
  return Record;
}

std::vector<ChangeRecord>
DiffCode::analyzeChanges(const PipelineRequest &Request) const {
  std::vector<ChangeRecord> Records(Request.Changes.size());

  // Each change is independent; workers claim indices from the pool's
  // shared cursor and write into their own slot, so the result order
  // (and therefore every downstream number) is identical to the serial
  // run for any thread count.
  unsigned Threads =
      std::min<unsigned>(support::resolveThreads(Config.Threads),
                         std::max<std::size_t>(Request.Changes.size(), 1));
  // Workers intern into one shared table concurrently; id *values* are
  // therefore scheduling dependent, which is fine — everything downstream
  // is id-value independent (support/Interner.h, determinism contract).
  support::Interner &Table = internerFor(Request);
  obs::Observer *Obs = Request.Metrics;
  obs::Registry *Reg = Obs ? &Obs->Metrics : nullptr;
  support::ThreadPool Pool(Threads, /*CollectStats=*/Obs != nullptr);
  Pool.parallelForChunked(
      Request.Changes.size(), 1, [&](std::size_t Begin, std::size_t Stop) {
        for (std::size_t I = Begin; I < Stop; ++I) {
          // Scope key = change index, so an armed fault plan hits the
          // same changes whether one thread or sixteen claim the work.
          support::FaultScope Scope(&Config.Faults, I);
          obs::Span S(Obs ? &Obs->Trace : nullptr, "processChange");
          auto T0 = std::chrono::steady_clock::now();
          Records[I] = processChange(*Request.Changes[I],
                                     Request.TargetClasses,
                                     Request.ClassifyWith, Table, Reg);
          if (Obs)
            Records[I].WallNanos = std::uint64_t(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - T0)
                    .count());
        }
      });
  if (Obs) {
    // Pool utilization. Everything except the batch count depends on
    // scheduling (chunk claims, wall time), hence PerRun.
    support::ThreadPool::Stats PS = Pool.statsSnapshot();
    auto &R = *Reg;
    R.counter("threadpool.batches").add(PS.Batches);
    R.counter("threadpool.chunks", obs::Unit::None, obs::Stability::PerRun)
        .add(PS.Chunks);
    R.counter("threadpool.queue_wait_ns", obs::Unit::Nanoseconds,
              obs::Stability::PerRun)
        .add(PS.QueueWaitNs);
    R.gauge("threadpool.threads", obs::Unit::None, obs::Stability::PerRun)
        .set(Pool.threadCount());
    auto &Busy = R.histogram("threadpool.worker_busy_ns",
                             obs::Unit::Nanoseconds, obs::Stability::PerRun);
    for (std::uint64_t Ns : PS.WorkerBusyNs)
      Busy.record(Ns);
  }
  return Records;
}

ClassReport DiffCode::filterClass(const std::vector<ChangeRecord> &Records,
                                  const std::string &TargetClass) const {
  ClassReport ClassOut;
  ClassOut.TargetClass = TargetClass;
  for (const ChangeRecord &Record : Records) {
    auto It = Record.PerClass.find(TargetClass);
    if (It == Record.PerClass.end())
      continue;
    ClassOut.AllChanges.insert(ClassOut.AllChanges.end(), It->second.begin(),
                               It->second.end());
  }
  ClassOut.Filtered = applyFilters(ClassOut.AllChanges);
  return ClassOut;
}

void DiffCode::clusterClass(ClassReport &Class) const {
  Class.Tree = cluster::Dendrogram();
  Class.ClusteringError.clear();
  Class.Sharding = cluster::ShardingStats();
  if (Class.Filtered.Kept.empty())
    return;
  // Scope key = class-name hash (FNV-1a), distinct from any change
  // index scope so campaigns can target clustering alone.
  std::uint64_t ClassKey = 0xcbf29ce484222325ull;
  for (char C : Class.TargetClass)
    ClassKey = (ClassKey ^ static_cast<unsigned char>(C)) * 0x100000001b3ull;
  support::FaultScope Scope(&Config.Faults, ClassKey);
  cluster::ClusteringOptions Engine{.Threads = Config.Clustering.Threads,
                                    .Sharding = Config.Sharding};
  try {
    if (Engine.Sharding.Enabled)
      Class.Tree = cluster::clusterUsageChangesSharded(
          Class.Filtered.Kept, Engine, &Class.Sharding);
    else
      Class.Tree = cluster::clusterUsageChanges(Class.Filtered.Kept, Engine);
  } catch (const std::exception &E) {
    Class.Tree = cluster::Dendrogram();
    Class.Sharding = cluster::ShardingStats();
    Class.ClusteringError = E.what();
  }
}

/// Folds one class's filter attrition and clustering shape into the
/// metrics registry. Counters accumulate across classes; shard sizes go
/// into one corpus-wide histogram.
static void recordClassMetrics(obs::Registry &R, const ClassReport &Class) {
  const FilterResult &F = Class.Filtered;
  R.counter("filter.input").add(F.Total);
  R.counter("filter.after_fsame").add(F.AfterSame);
  R.counter("filter.after_fadd").add(F.AfterAdd);
  R.counter("filter.after_frem").add(F.AfterRem);
  R.counter("filter.after_fdup").add(F.AfterDup);
  R.counter("cluster.leaves").add(Class.Tree.leafCount());
  if (!Class.ClusteringError.empty())
    R.counter("cluster.failures").add(1);
  const cluster::ShardingStats &Sh = Class.Sharding;
  if (Sh.NumShards > 0) {
    R.counter("cluster.shards").add(Sh.NumShards);
    R.counter("cluster.representatives").add(Sh.Representatives);
    auto &Sizes = R.histogram("cluster.shard_size");
    for (std::size_t Size : Sh.ShardSizes)
      Sizes.record(Size);
    // Concurrent per-shard matrices make the high-water mark
    // scheduling-dependent.
    R.gauge("cluster.peak_matrix_bytes", obs::Unit::Bytes,
            obs::Stability::PerRun)
        .max(std::int64_t(Sh.PeakMatrixBytes));
  }
}

CorpusReport DiffCode::run(const PipelineRequest &Request) const {
  CorpusReport Report;
  Report.Labels = Request.Labels ? Request.Labels : DefaultLabels;
  obs::Observer *Obs = Request.Metrics;
  obs::Tracer *T = Obs ? &Obs->Trace : nullptr;
  {
    obs::Span Whole(T, "pipeline");
    {
      obs::Span S(T, "analyzeChanges");
      Report.Changes = Request.Exec.Mode == ExecutionMode::Supervised
                           ? exec::superviseChanges(*this, Request)
                           : analyzeChanges(Request);
    }
    for (const std::string &TargetClass : Request.TargetClasses) {
      ClassReport ClassOut;
      {
        obs::Span S(T, "filterClass");
        ClassOut = filterClass(Report.Changes, TargetClass);
      }
      if (Request.BuildDendrograms) {
        obs::Span S(T, "clusterClass");
        clusterClass(ClassOut);
      }
      if (Obs)
        recordClassMetrics(Obs->Metrics, ClassOut);
      Report.PerClass.push_back(std::move(ClassOut));
    }
    {
      obs::Span S(T, "computeCorpusHealth");
      computeCorpusHealth(Report);
    }
  }
  if (Obs) {
    auto &R = Obs->Metrics;
    R.counter("pipeline.changes").add(Report.Changes.size());
    R.counter("pipeline.classes").add(Report.PerClass.size());
    for (std::size_t I = 0; I < NumChangeStatuses; ++I)
      R.counter(std::string("pipeline.status.") +
                changeStatusName(static_cast<ChangeStatus>(I)))
          .add(Report.Health.StatusCounts[I]);
    R.counter("pipeline.clustering_failures")
        .add(Report.Health.ClusteringFailures);
    if (const support::FaultStats *FS = Config.Faults.Stats) {
      // A poisoned batch can abort mid-loop, so how many armed points
      // were even reached depends on scheduling: PerRun.
      for (unsigned I = 0; I < support::NumFaultSites; ++I) {
        auto Site = static_cast<support::FaultSite>(I);
        R.counter(std::string("faults.evaluated.") +
                      support::faultSiteName(Site),
                  obs::Unit::None, obs::Stability::PerRun)
            .add(FS->evaluated(Site));
        R.counter(std::string("faults.fired.") + support::faultSiteName(Site),
                  obs::Unit::None, obs::Stability::PerRun)
            .add(FS->fired(Site));
      }
    }
    Report.Metrics = Obs->summarize();
  }
  return Report;
}
