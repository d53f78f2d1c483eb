//===- analysis/Analyzer.h - One-call schedulability analysis ---*- C++ -*-===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The top of the pipeline the paper describes in §4: configuration in,
/// verdict out. Runs Algorithm 1 (core::buildModel), simulates one run of
/// the NSA over a hyperperiod, maps the NSA trace to the system trace, and
/// checks the schedulability criterion.
///
//===----------------------------------------------------------------------===//

#ifndef SWA_ANALYSIS_ANALYZER_H
#define SWA_ANALYSIS_ANALYZER_H

#include "analysis/Schedulability.h"
#include "core/InstanceBuilder.h"
#include "nsa/Simulator.h"

namespace swa {
namespace analysis {

struct AnalyzeOutcome {
  AnalyzeOutcome() = default;
  AnalyzeOutcome(AnalyzeOutcome &&) = default;
  AnalyzeOutcome &operator=(AnalyzeOutcome &&) = default;
  /// Frees the model under the "teardown" phase.
  ~AnalyzeOutcome();

  core::BuiltModel Model;
  nsa::SimResult Sim;
  core::SystemTrace Trace;
  AnalysisResult Analysis;

  /// Cross-check: the criterion verdict must agree with the model's
  /// is_failed flags in the final state (a disagreement indicates an
  /// engine or model bug).
  bool failureFlagsConsistent() const;
};

/// Builds, simulates and analyzes \p Config over one hyperperiod.
Result<AnalyzeOutcome>
analyzeConfiguration(const cfg::Config &Config,
                     const nsa::SimOptions &SimOptions = {});

/// Verdict-only analysis: no synchronization trace is materialized and no
/// per-job statistics are computed.
struct VerdictOutcome {
  bool Schedulable = false;
  /// Tasks whose is_failed flag tripped (0 when schedulable). Under a
  /// StopOnFirstMiss run this counts only the tasks that miss at the
  /// first-miss instant — a subset of the full-run count; the
  /// instant-exact fields below are the ones identical across full,
  /// early-exit and decomposed evaluation.
  int64_t FailedTasks = 0;
  /// Per-task-gid failure flags (same caveat as FailedTasks).
  std::vector<char> TaskFailed;
  uint64_t ActionCount = 0;
  /// Model time of the first deadline miss; -1 when schedulable or
  /// undecided. A full run, a StopOnFirstMiss run and a merged
  /// per-component evaluation all compute the same value.
  int64_t FirstMissTime = -1;
  /// Global task ids missing exactly at FirstMissTime, sorted ascending
  /// (empty when schedulable or undecided). Same invariance as
  /// FirstMissTime.
  std::vector<int32_t> FirstMissTasks;
  /// Why the underlying run stopped. Cancelled/BudgetExceeded mean the
  /// guard rails ended the run before a verdict existed: Schedulable is
  /// false and TaskFailed is all-clear, but neither is a judgement on the
  /// configuration. DeadlineMiss is a decided unschedulable verdict (the
  /// first-miss early exit fired).
  nsa::StopReason Stop = nsa::StopReason::Completed;

  /// True when the run finished and the verdict fields are meaningful.
  bool decided() const {
    return Stop == nsa::StopReason::Completed ||
           Stop == nsa::StopReason::DeadlineMiss;
  }
};

/// The config-search inner loop: simulates with SimOptions::RecordTrace
/// off and reads the verdict from the model's is_failed flags in the
/// final state. Over a full hyperperiod the deadline-miss edges make the
/// flags agree with the trace criterion (the invariant
/// AnalyzeOutcome::failureFlagsConsistent checks), so this is the same
/// verdict as analyzeConfiguration at a fraction of the cost. Falls back
/// to the full pipeline for models without failure flags.
///
/// \p SimOptions carries the guard rails (wall-clock budget, cancel
/// token); RecordTrace is forced internally. A run the guard rails ended
/// returns *success* with VerdictOutcome::decided() == false — callers
/// distinguish "no verdict" from a model error without string matching.
Result<VerdictOutcome>
analyzeVerdictOnly(const cfg::Config &Config,
                   const nsa::SimOptions &SimOptions = {});

class ModelArena;

/// Arena-accelerated variant: when \p Arena is non-null and a model of
/// the same shape (cfg::fingerprintShape) is cached, the candidate's
/// window tables are patched into the cached model (core::rebindWindows)
/// and its simulator is reused — no Algorithm-1 rebuild. Misses build
/// fresh (with build metrics suppressed; see ModelArena.h on why) and
/// seed the arena. The verdict is identical to the plain overload for
/// every config; a null \p Arena is exactly the plain overload.
Result<VerdictOutcome> analyzeVerdictOnly(const cfg::Config &Config,
                                          const nsa::SimOptions &SimOptions,
                                          ModelArena *Arena);

/// One decomposed component's verdict plus the map from its local task
/// gids to the gids of the original (pre-decomposition) configuration.
struct ComponentVerdict {
  VerdictOutcome Verdict;
  /// GidMap[local gid] = original gid; size == component task count.
  std::vector<int32_t> GidMap;
};

/// Merges per-component verdicts back into the verdict the monolithic
/// simulation of the original configuration would produce (components are
/// independent — no messages cross them — so their traces interleave
/// without interaction; see DESIGN.md, "Search-side caching, early exit &
/// decomposition"). \p TotalTasks is the original config's task count.
///
/// Merge rules: an undecided component (guard-rail stop) makes the whole
/// verdict undecided with that component's StopReason; otherwise
/// Schedulable is the conjunction, TaskFailed/FailedTasks the union,
/// ActionCount the sum, FirstMissTime the minimum over components, and
/// FirstMissTasks the sorted union over the components attaining that
/// minimum. Stop is Completed when all components completed, DeadlineMiss
/// when any early-exited.
VerdictOutcome
mergeComponentVerdicts(const std::vector<ComponentVerdict> &Components,
                       int TotalTasks);

} // namespace analysis
} // namespace swa

#endif // SWA_ANALYSIS_ANALYZER_H
