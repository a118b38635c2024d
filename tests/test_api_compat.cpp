//===- tests/test_api_compat.cpp - Deprecated API spellings are gone ------===//
//
// Part of the DiffCode project, a reproduction of "Inferring Crypto API
// Rules from Code Changes" (PLDI'18).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// PR 8 collapsed the pipeline knobs into core::PipelineConfig and the
/// two entry points into DiffCode::run, keeping the old spellings —
/// DiffCodeOptions, the DiffCode(Api, DiffCodeOptions) constructor,
/// options(), and runPipeline() — [[deprecated]] for one release. That
/// release has passed: this suite is now the removal gate. It asserts,
/// via unevaluated requires-expressions, that the old names no longer
/// exist (someone re-adding one breaks the build here first) and that
/// the replacement surface stands.
///
/// The same gate holds the "one path per job" collapse: processChange is
/// the one per-change entry point (no usageChangesFor, no overload
/// without an interner), run() is the one pipeline entry point (no
/// runPipelineFrom seam), the execution policy and observer are set on
/// the PipelineRequest only, and NN-chain is the only clustering engine
/// (no algorithm knob).
///
//===----------------------------------------------------------------------===//

#include "core/DiffCode.h"

#include "core/ReportWriter.h"

#include <gtest/gtest.h>

#include <string>
#include <type_traits>
#include <vector>

using namespace diffcode;
using namespace diffcode::core;

namespace {

const apimodel::CryptoApiModel &api() {
  return apimodel::CryptoApiModel::javaCryptoApi();
}

// Removal probes for the member spellings: each concept is true only if
// the old name still resolves on DiffCode.
template <typename System>
concept HasOptionsAccessor = requires(const System &S) { S.options(); };

template <typename System>
concept HasRunPipeline =
    requires(const System &S, const PipelineRequest &R) { S.runPipeline(R); };

template <typename System>
concept HasUsageChangesFor =
    requires(const System &S, const corpus::CodeChange &C) {
      S.usageChangesFor(C, std::string("Cipher"));
    };

template <typename System>
concept HasRunPipelineFrom =
    requires(const System &S, const PipelineRequest &R) {
      S.runPipelineFrom(R, [] { return std::vector<ChangeRecord>(); });
    };

template <typename System>
concept HasProcessChangeWithoutInterner =
    requires(const System &S, const corpus::CodeChange &C,
             const std::vector<std::string> &Classes) {
      S.processChange(C, Classes, {});
    };

template <typename System>
concept HasProcessChangeWithInterner =
    requires(const System &S, const corpus::CodeChange &C,
             const std::vector<std::string> &Classes,
             support::Interner &Table) {
      S.processChange(C, Classes, {}, Table);
    };

// Naming the member without arguments only resolves when it is not
// overloaded.
template <typename System>
concept HasSingleProcessChange = requires { &System::processChange; };

template <typename Config>
concept HasExec = requires(Config &C) { C.Exec; };

template <typename Config>
concept HasMetrics = requires(Config &C) { C.Metrics; };

template <typename Options>
concept HasAlgo = requires(Options &O) { O.Algo; };

} // namespace

// Removal probe for the struct itself: a sentinel is using-declared into
// diffcode::core under the old name. If someone resurrects a real
// core::DiffCodeOptions, that using-declaration becomes a conflicting
// redeclaration and this file stops compiling — the removal gate fires
// at build time, before any test runs.
namespace compat_sentinel {
struct DiffCodeOptions {
  static constexpr bool IsRemovalSentinel = true;
};
} // namespace compat_sentinel

namespace diffcode::core {
using ::compat_sentinel::DiffCodeOptions;
} // namespace diffcode::core

TEST(ApiCompat, DeprecatedSpellingsAreGone) {
  static_assert(!HasOptionsAccessor<DiffCode>,
                "DiffCode::options() was removed in PR 9; use config()");
  static_assert(!HasRunPipeline<DiffCode>,
                "DiffCode::runPipeline() was removed in PR 9; use run()");
  static_assert(diffcode::core::DiffCodeOptions::IsRemovalSentinel,
                "core::DiffCodeOptions was removed in PR 9; construct from "
                "core::PipelineConfig");

  static_assert(!HasUsageChangesFor<DiffCode>,
                "DiffCode::usageChangesFor() is gone; use "
                "processChange(...).PerClass");
  static_assert(!HasRunPipelineFrom<DiffCode>,
                "DiffCode::runPipelineFrom() is gone; run() is the one "
                "pipeline entry point");
  static_assert(!HasProcessChangeWithoutInterner<DiffCode>,
                "processChange takes the interner explicitly; pass "
                "*System.labels()");
  static_assert(HasProcessChangeWithInterner<DiffCode>,
                "processChange(Change, Classes, {}, Table) must stay "
                "callable");
  static_assert(HasSingleProcessChange<DiffCode>,
                "DiffCode declares exactly one processChange");
  static_assert(!HasExec<PipelineConfig> && HasExec<PipelineRequest>,
                "the execution policy is set on PipelineRequest only");
  static_assert(!HasMetrics<PipelineConfig> && HasMetrics<PipelineRequest>,
                "the observer is set on PipelineRequest only");
  static_assert(!HasAlgo<cluster::ClusteringOptions> &&
                    !HasAlgo<PipelineConfig::ClusteringGroup>,
                "NN-chain is the only clustering engine; the naive "
                "reference lives in tests/oracles");
  SUCCEED();
}

TEST(ApiCompat, ReplacementSurfaceStands) {
  // The replacement spellings, exercised end to end: PipelineConfig
  // construction, config() round-trip, and run() as the one entry point.
  PipelineConfig Config;
  Config.Threads = 2;
  Config.Limits.DagDepth = 4;
  Config.Clustering.Cut = 0.5;
  DiffCode System(api(), Config);
  EXPECT_EQ(System.config().Threads, 2u);
  EXPECT_EQ(System.config().Limits.DagDepth, 4u);
  EXPECT_DOUBLE_EQ(System.config().Clustering.Cut, 0.5);

  corpus::CodeChange Fix;
  Fix.ProjectName = "proj";
  Fix.CommitIndex = 1;
  Fix.FileName = "A.java";
  Fix.OldCode = "class A { void m() { MessageDigest d = "
                "MessageDigest.getInstance(\"MD5\"); } }";
  Fix.NewCode = "class A { void m() { MessageDigest d = "
                "MessageDigest.getInstance(\"SHA-256\"); } }";
  PipelineRequest Request;
  Request.Changes = {&Fix};
  Request.TargetClasses = api().targetClasses();
  std::string Json = corpusReportToJson(System.run(Request));
  EXPECT_FALSE(Json.empty());
  EXPECT_NE(Json.find("\"changes\":1"), std::string::npos) << Json;
}
