//===- core/DiffCode.h - The end-to-end DiffCode pipeline ------------------===//
//
// Part of the DiffCode project, a reproduction of "Inferring Crypto API
// Rules from Code Changes" (PLDI'18).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The DiffCode system (Section 5): parse both versions of each code
/// change, analyze them with the abstract interpreter, derive usage DAGs
/// per target class, pair and diff them into usage changes, filter, and
/// cluster — producing everything the paper's evaluation reports.
///
//===----------------------------------------------------------------------===//

#ifndef DIFFCODE_CORE_DIFFCODE_H
#define DIFFCODE_CORE_DIFFCODE_H

#include "analysis/AbstractInterpreter.h"
#include "cluster/HierarchicalClustering.h"
#include "core/Filters.h"
#include "corpus/RepoModel.h"
#include "javaast/Parser.h"
#include "obs/Observer.h"
#include "rules/ChangeClassifier.h"
#include "support/FaultInjection.h"
#include "support/Interner.h"
#include "usage/UsageChange.h"

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace diffcode {
namespace core {

/// How the per-change analysis stage executes.
enum class ExecutionMode {
  InProcess,  ///< analyzeChanges on a thread pool in this process.
  Supervised, ///< exec/Supervisor worker subprocesses with containment.
};

/// Supervised-execution policy (exec/Supervisor.h consumes it). Lives in
/// core so a PipelineRequest fully describes a run without the caller
/// naming anything in the exec layer.
struct ExecutionPolicy {
  ExecutionMode Mode = ExecutionMode::InProcess;
  /// Worker subprocesses; support::resolveThreads semantics (0 = one per
  /// hardware thread), additionally clamped to the number of work units.
  unsigned Workers = 0;
  /// Changes per work unit (serialized batch). 0 means the default (32).
  /// Larger units amortize the per-unit dispatch round-trip (a unit
  /// completion context-switches worker -> coordinator -> worker); on
  /// failure, half-batch bisection recovers single-change granularity,
  /// so the batch size only prices the clean path.
  std::size_t BatchSize = 32;
  /// Wall-clock watchdog per dispatched unit; a worker that exceeds it is
  /// SIGKILLed and the unit enters retry/bisection. 0 disables the
  /// watchdog.
  std::uint64_t UnitDeadlineMs = 10000;
  /// Terminal-failure bar: a single poisoned change is retried this many
  /// times (with exponential backoff) before its record is stamped
  /// WorkerCrash/WorkerTimeout/WorkerOom.
  unsigned MaxRetries = 2;
  /// Backoff before the Nth retry of a singleton unit:
  /// min(BackoffBaseMs << (N-1), BackoffCapMs).
  std::uint64_t BackoffBaseMs = 10;
  std::uint64_t BackoffCapMs = 1000;
  /// RLIMIT_AS for each worker in MiB (0 = unlimited). A worker that
  /// cannot allocate takes a distinguished exit, reported as WorkerOom.
  std::uint64_t WorkerMemoryLimitMb = 0;
};

/// The system's knob surface for what a DiffCode instance computes. Four
/// groups — threads, limits, clustering, sharding — plus the
/// fault-injection campaign, all designed for designated-initializer
/// construction:
///
///   core::DiffCode System(Api, {.Threads = 8,
///                               .Clustering = {.Cut = 0.3},
///                               .Sharding = {.Enabled = true}});
///
/// Every thread knob shares support::resolveThreads semantics (0 = one
/// per hardware thread), and no knob changes report bytes except through
/// its documented effect (sharding estimates cross-shard linkage; the
/// cut threshold moves flat-cluster boundaries). How one run executes —
/// in process or supervised, observed or not — is set on the
/// PipelineRequest, and only there.
struct PipelineConfig {
  /// -- threads: worker threads for the per-change analysis stage (each
  /// change is independent: parse + analyze + diff). Results are
  /// deterministic regardless.
  unsigned Threads = 1;

  /// -- limits: deterministic frontend/interpreter budgets applied to
  /// every parsed version (0 = unlimited), and the usage-DAG depth.
  struct LimitsGroup {
    /// Frontend budgets applied to every parsed version.
    java::ParseLimits Parse;
    /// Abstract-interpreter fuel and object caps.
    analysis::AnalysisOptions Analysis;
    unsigned DagDepth = 5; ///< Section 3.4's n.
  };
  LimitsGroup Limits;

  /// -- clustering: the agglomeration engine. Matrix threads never
  /// change the dendrogram; Cut is the threshold for flat clusters
  /// (manual-inspection aid).
  struct ClusteringGroup {
    double Cut = 0.4;
    /// Threads for the pairwise distance matrix and cache warm-up.
    unsigned Threads = 1;
  };
  ClusteringGroup Clustering;

  /// -- sharding: the shard-and-merge engine for corpora whose dense
  /// matrix would not fit; clustering dispatches on Sharding.Enabled.
  cluster::ShardingOptions Sharding;

  /// Fault-injection campaign (testing only; disabled by default). When
  /// armed, every per-change worker and the per-class clustering step run
  /// under a deterministic FaultScope, so injected failures land on the
  /// same changes at any thread count.
  support::FaultPlan Faults;
};

/// Outcome taxonomy for one processed code change. Ordered by severity:
/// combining the old/new version outcomes takes the maximum. The first
/// five are in-process containment outcomes (PR 2); the Worker* statuses
/// are terminal verdicts of the supervised multi-process engine
/// (exec/Supervisor): the subprocess holding this change died, overran
/// its deadline, or hit its memory limit even after bounded retry and
/// half-batch bisection.
enum class ChangeStatus {
  Ok = 0,         ///< Both versions parsed and analyzed cleanly.
  Degraded,       ///< Parse diagnostics; analysis ran on a partial tree.
  ParseError,     ///< A version produced no usable compilation unit.
  BudgetExceeded, ///< A ParseLimits or AnalysisOptions budget truncated it.
  AnalysisThrow,  ///< The worker threw; the record is empty but present.
  WorkerCrash,    ///< Worker subprocess died (signal/exit/protocol error).
  WorkerTimeout,  ///< Worker overran the per-unit wall-clock deadline.
  WorkerOom,      ///< Worker hit its memory limit and took the OOM exit.
};

/// Number of ChangeStatus values (for count arrays).
inline constexpr std::size_t NumChangeStatuses = 8;

/// Stable lowercase name ("ok", "parse-error", ...) for reports.
const char *changeStatusName(ChangeStatus Status);

/// Inverse of changeStatusName, for consumers that round-trip reports
/// through JSON (returns false for unknown names).
bool changeStatusFromName(std::string_view Name, ChangeStatus &Out);

/// The per-code-change output: usage changes per target class, the
/// rule-based classification, and provenance.
struct ChangeRecord {
  std::string Origin;
  std::string GroundTruthKind; ///< Generator kind; empty for mined code.
  /// Target class -> usage changes this code change produced.
  std::map<std::string, std::vector<usage::UsageChange>> PerClass;
  /// Rule id -> fix/bug/none classification (Section 6.2).
  std::map<std::string, rules::ChangeClass> Classification;
  /// How processing this change went (worst of the two versions).
  ChangeStatus Status = ChangeStatus::Ok;
  /// Human-readable cause for non-Ok statuses (first diagnostic, the
  /// budget that tripped, or the exception message).
  std::string StatusDetail;
  /// Interpreter steps consumed across both versions (worst-offender
  /// ranking in the corpus-health summary).
  std::uint64_t StepsUsed = 0;
  /// Wall nanoseconds processChange spent on this change. Only measured
  /// when the run is observed (PipelineRequest::Metrics); run-dependent,
  /// so it feeds the CLI table and the "metrics" JSON block — never the
  /// deterministic "health" block.
  std::uint64_t WallNanos = 0;
};

/// Aggregated per-target-class results (Figure 6 row + Figure 8 input).
struct ClassReport {
  std::string TargetClass;
  std::vector<usage::UsageChange> AllChanges;
  FilterResult Filtered;
  cluster::Dendrogram Tree; ///< Over Filtered.Kept (empty if not built).
  /// Non-empty when dendrogram construction failed; Tree is then empty
  /// but AllChanges/Filtered are still valid.
  std::string ClusteringError;
  /// What the sharded engine did (NumShards == 0 when clustering ran
  /// unsharded or not at all).
  cluster::ShardingStats Sharding;
};

/// One row of the corpus-health worst-offender table.
struct WorstOffender {
  std::string Origin;
  std::uint64_t Steps = 0;
  ChangeStatus Status = ChangeStatus::Ok;
  /// Wall nanoseconds from the record (0 unless the run was observed;
  /// PerRun — reported in the CLI table and the "metrics" JSON block,
  /// deliberately absent from the deterministic "health" block).
  std::uint64_t WallNanos = 0;
};

/// Corpus-health summary: how many changes landed in each status bucket,
/// which classes failed to cluster, and where the analysis budgets went.
struct CorpusHealth {
  /// Indexed by static_cast<size_t>(ChangeStatus).
  std::array<std::size_t, NumChangeStatuses> StatusCounts{};
  /// Classes whose clustering step failed (ClusteringError non-empty).
  std::size_t ClusteringFailures = 0;
  /// Top changes by interpreter steps consumed, descending; ties broken
  /// by origin for determinism.
  std::vector<WorstOffender> WorstOffenders;

  std::size_t count(ChangeStatus Status) const {
    return StatusCounts[static_cast<std::size_t>(Status)];
  }
  /// Changes that did not complete cleanly (everything but Ok).
  std::size_t troubled() const;
};

/// Whole-corpus pipeline output.
struct CorpusReport {
  std::vector<ChangeRecord> Changes;
  std::vector<ClassReport> PerClass;
  CorpusHealth Health;
  /// The interner every usage change in this report resolves through,
  /// pinned here so the report stays self-contained even if the DiffCode
  /// instance (or the request's interner) goes away first.
  std::shared_ptr<const support::Interner> Labels;
  /// Observability summary of the run: metrics snapshot + per-stage
  /// timing table. Empty unless the request carried an Observer; rendered
  /// as the report's "metrics" JSON block.
  obs::RunSummary Metrics;
};

/// Everything one pipeline run needs, replacing run's former positional
/// parameter list. Aggregate-initializable:
///
///   System.run({.Changes = Mined,
///               .TargetClasses = Api.targetClasses()});
///
/// Pointed-to changes and rules must outlive the call. A request
/// describes exactly one run; service::AnalysisSession is the stateful
/// extension of this model — a session is a request whose Changes
/// accumulate across ingests and whose intermediate products persist.
struct PipelineRequest {
  std::vector<const corpus::CodeChange *> Changes;
  std::vector<std::string> TargetClasses;
  /// Rules to classify each change under (may be empty).
  std::vector<const rules::Rule *> ClassifyWith;
  /// Whether the (quadratic-distance) clustering stage runs.
  bool BuildDendrograms = true;
  /// Interner the run's labels and feature paths resolve through. Null
  /// (the default) uses the DiffCode instance's own corpus interner;
  /// callers that compare or combine reports across pipeline runs pass a
  /// shared one so id-based equality spans the runs.
  std::shared_ptr<support::Interner> Labels;
  /// Observability sink. Null (the default) turns instrumentation off —
  /// every site reduces to one pointer test and the report's Metrics
  /// summary stays empty. When set, stages open spans in Metrics->Trace,
  /// counters/histograms land in Metrics->Metrics, and run()
  /// freezes the result into CorpusReport::Metrics. Must outlive the
  /// call.
  obs::Observer *Metrics = nullptr;
  /// Execution mode + supervision knobs. DiffCode::run dispatches on
  /// Exec.Mode; the stage entry points ignore it.
  ExecutionPolicy Exec;
};

/// Recomputes \p Report's health summary from its records (at most
/// \p MaxOffenders worst-offender entries). run() calls this;
/// exposed for tests and for callers that post-edit reports.
void computeCorpusHealth(CorpusReport &Report, std::size_t MaxOffenders = 5);

/// The system facade.
class DiffCode {
public:
  explicit DiffCode(const apimodel::CryptoApiModel &Api,
                    PipelineConfig Config = PipelineConfig());

  const PipelineConfig &config() const { return Config; }

  /// One parsed-and-analyzed program version plus how it went. Frontend
  /// problems are recorded, never silently swallowed.
  struct SourceAnalysis {
    analysis::AnalysisResult Result;
    ChangeStatus Status = ChangeStatus::Ok;
    std::string Detail; ///< First diagnostic / budget cause when non-Ok.
  };

  /// The one checked analysis entry point: parses and abstractly
  /// interprets one Java source (empty source yields an empty Ok result —
  /// new/deleted files diff against nothing), recording parser
  /// diagnostics and budget hits in the status. Callers that only need
  /// the result use analyzeSourceChecked(Source).Result.
  SourceAnalysis analyzeSourceChecked(std::string_view Source) const;

  /// Arena-reuse variant: parses into \p Ctx after resetting it, so a
  /// caller analyzing several versions (processChange does old + new)
  /// recycles the same slab memory instead of re-allocating per parse.
  /// The AnalysisResult holds no AST pointers, so the returned value
  /// remains valid after the next reset.
  SourceAnalysis analyzeSourceChecked(std::string_view Source,
                                      java::AstContext &Ctx) const;

  /// Deduplicated usage DAGs of \p TargetClass across all executions.
  std::vector<usage::UsageDag>
  dagsForClass(const analysis::AnalysisResult &Result,
               const std::string &TargetClass) const;

  /// The instance's corpus interner: every usage change produced through
  /// this facade without an explicit PipelineRequest::Labels resolves
  /// through it.
  const std::shared_ptr<support::Interner> &labels() const {
    return DefaultLabels;
  }

  /// The one per-change entry point (Section 5): parses and analyzes
  /// both versions of \p Change, then builds and diffs the usage DAGs of
  /// every class in \p TargetClasses and classifies the change under
  /// \p ClassifyWith (may be empty). Feature paths intern into \p Table
  /// (pass *labels() for the instance interner). When \p Reg is set it
  /// also records per-version interpreter metrics (steps/entries/objects
  /// histograms, budget-hit counters) and usage-change counts there.
  /// Never throws: any escaping exception is contained into an empty
  /// record with Status == AnalysisThrow, so one poisoned change cannot
  /// take down a corpus run.
  ChangeRecord
  processChange(const corpus::CodeChange &Change,
                const std::vector<std::string> &TargetClasses,
                const std::vector<const rules::Rule *> &ClassifyWith,
                support::Interner &Table, obs::Registry *Reg = nullptr) const;

  //===--------------------------------------------------------------------===//
  // Stage entry points. run() composes exactly these three, so
  // callers can run any prefix (analysis only, analysis + filters) or
  // re-cluster a filtered class under different options without
  // re-analyzing the corpus.
  //===--------------------------------------------------------------------===//

  /// Stage 1 — per-change analysis: processChange over
  /// Request.Changes in parallel (config().Threads workers), one record
  /// per input in input order, each under a deterministic fault scope.
  /// Request.BuildDendrograms is ignored here.
  std::vector<ChangeRecord> analyzeChanges(const PipelineRequest &Request) const;

  /// Stage 2 — per-class gather + filter: concatenates \p TargetClass's
  /// usage changes from \p Records (record order) and runs the
  /// fsame/fadd/frem/fdup pipeline. Tree is left empty.
  ClassReport filterClass(const std::vector<ChangeRecord> &Records,
                          const std::string &TargetClass) const;

  /// Stage 3 — clustering: builds \p Class.Tree over Class.Filtered.Kept
  /// under config's clustering/sharding groups (sharded when
  /// config().Sharding.Enabled, filling Class.Sharding). A failure
  /// empties the Tree and sets Class.ClusteringError instead of throwing.
  void clusterClass(ClassReport &Class) const;

  /// The one pipeline entry point: takes the per-change records from
  /// analyzeChanges, or from the exec/Supervisor worker pool when
  /// Request.Exec.Mode is Supervised, then runs filterClass and (when
  /// Request.BuildDendrograms) clusterClass per target class, then the
  /// corpus-health rollup. Per-change failures are contained in the
  /// corresponding ChangeRecord and tallied in the report's Health
  /// summary; a clustering failure empties that class's Tree and sets
  /// ClusteringError. Both execution modes produce byte-identical
  /// reports.
  CorpusReport run(const PipelineRequest &Request) const;

private:
  /// Request.Labels when set, the instance interner otherwise.
  support::Interner &internerFor(const PipelineRequest &Request) const;

  const apimodel::CryptoApiModel &Api;
  PipelineConfig Config;
  /// Corpus interner backing every change this instance derives (unless
  /// a request supplies its own). shared_ptr so reports can outlive the
  /// facade.
  std::shared_ptr<support::Interner> DefaultLabels;
};

} // namespace core
} // namespace diffcode

#endif // DIFFCODE_CORE_DIFFCODE_H
