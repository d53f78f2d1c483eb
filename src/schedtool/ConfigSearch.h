//===- schedtool/ConfigSearch.h - Model-in-the-loop config search -*- C++ -*-===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The integration the paper describes in §4: an IMA scheduling tool
/// iterates over candidate configurations (partition-to-core bindings and
/// window layouts); each candidate is handed to the parametric model,
/// whose trace yields the schedulability verdict; unschedulable candidates
/// are discarded and drive the next move.
///
/// The search here is a greedy first-fit-decreasing binding followed by a
/// seeded local search over bindings and per-partition window shares —
/// deliberately simple, since the subject of the reproduction is the
/// model-in-the-loop protocol and its cost, not the optimizer.
///
//===----------------------------------------------------------------------===//

#ifndef SWA_SCHEDTOOL_CONFIGSEARCH_H
#define SWA_SCHEDTOOL_CONFIGSEARCH_H

#include "analysis/Schedulability.h"
#include "config/Config.h"
#include "nsa/Simulator.h"
#include "obs/RunReport.h"
#include "support/CancelToken.h"

#include <array>
#include <string>
#include <vector>

namespace swa {
namespace schedtool {

struct Snapshot;      // schedtool/Snapshot.h
struct SnapshotStats; // schedtool/Snapshot.h
class Strategy;       // schedtool/Strategy.h

struct SearchProblem {
  /// Cores/partitions/tasks/messages; bindings (Partition::Core) and
  /// windows are ignored and chosen by the search.
  cfg::Config Base;
  uint64_t Seed = 1;
  int MaxIterations = 100;
  /// Window over-provisioning range explored by the search.
  double MinBoost = 1.1;
  double MaxBoost = 2.5;
  /// Threads used to evaluate each candidate batch (1 = fully serial, no
  /// threads spawned). The result is byte-identical for every value: the
  /// candidate sequence is fixed by (Seed, BatchSize) alone and batch
  /// results are reduced in candidate order.
  int Workers = 1;
  /// Candidates generated and evaluated per round. Deliberately
  /// independent of Workers so changing the thread count never changes
  /// which configurations are explored.
  int BatchSize = 4;
  /// Wall-clock budget in milliseconds for each Simulator::run the search
  /// makes — a whole candidate or one of its components, each with its
  /// own budget, so a candidate split into K components can take up to K
  /// budgets; negative = none. A candidate with a simulation that
  /// outlives its budget is recorded as skipped (with the reason in the
  /// log) and the search continues — the batch is never aborted. When no
  /// budget ever fires, the SearchResult is byte-identical to a run
  /// without a budget, for any worker count.
  int64_t CandidateBudgetMs = -1;
  /// Cooperative cancellation for the whole search: polled between rounds
  /// and passed to every candidate simulation, so an in-flight batch winds
  /// down quickly.
  const CancelToken *Cancel = nullptr;
  /// Memoize component verdicts (VerdictCache.h) under
  /// cfg::fingerprintComponent — a decomposition component, or the whole
  /// config when the candidate does not split: revisited and
  /// symmetry-equivalent components skip the simulation, and a candidate
  /// whose components all hit never constructs a simulator. Missing
  /// components are simulated once per distinct fingerprint per round
  /// and shared by every candidate in the batch that needs them. Hits
  /// are observationally identical to re-evaluation — the verdict stream
  /// is identical with the cache on or off, and the SearchResult is
  /// byte-identical for any Workers/BatchSize (the cache is consulted and
  /// filled only on the serial path). Off, nothing is fingerprinted and
  /// every component of every valid candidate is simulated.
  bool UseVerdictCache = true;
  /// Stop each candidate simulation at the first deadline miss
  /// (nsa::SimOptions::StopOnFirstMiss) instead of running to the
  /// hyperperiod. The verdict, badness and adaptive move are derived
  /// from first-miss data that a full run computes identically.
  bool UseEarlyExit = true;
  /// Split candidates along the inter-core message graph
  /// (cfg::decomposeConfig) and simulate the independent components as
  /// separate, smaller NSA instances — in parallel across the worker
  /// pool — then merge (analysis::mergeComponentVerdicts). A candidate
  /// that does not decompose is evaluated as one whole-config component.
  bool UseDecomposition = true;
  /// Ignored. Component verdicts used to sit in a second cache level
  /// beside whole-config ones; UseVerdictCache now governs the one
  /// cache. The member stays only so existing callers that assign it
  /// still compile.
  bool UseComponentCache = true;
  /// Ignored. Component planning used to be derived from each
  /// candidate's mutation delta; every decomposed candidate is now
  /// planned by cfg::decomposeConfig. The member stays only so existing
  /// callers that assign it still compile.
  bool UseDirtyTracking = true;
  /// Reuse NSA instances across candidates: each worker leases an arena
  /// of built models keyed by cfg::fingerprintShape and retargets a
  /// same-shape model by patching its CoreScheduler window tables
  /// (core::rebindWindows) instead of rebuilding — Algorithm 1 drops out
  /// of the steady-state per-candidate cost. Verdicts are identical with
  /// the flag on or off (the simulator fully resets per run), and no
  /// SearchResult field depends on arena state, so flipping this flag
  /// alone never changes the result byte-wise.
  bool UseInstanceReuse = true;
  /// Durable search (schedtool/Snapshot.h). When non-empty, the search
  /// checkpoints to this path at round boundaries — atomically (see
  /// support::AtomicFile), so a crash at any instant leaves the previous
  /// checkpoint intact. A checkpoint captures the verdict cache and the
  /// full loop state; resuming from it replays the remaining rounds
  /// exactly, so a search killed at any checkpoint and resumed produces
  /// a SearchResult byte-identical to the uninterrupted run, for any
  /// Workers value and any acceleration-layer mask. A checkpoint *write*
  /// failure is recorded in CkptStats and the search continues
  /// unchanged: durability is best-effort, results are not.
  std::string CheckpointPath;
  /// Minimum milliseconds between periodic checkpoints; 0 writes one at
  /// every round boundary. The terminal flush (found / iterations
  /// exhausted / cancelled) ignores the throttle, so a cancelled run
  /// always leaves its latest state on disk.
  int64_t CheckpointEveryMs = 0;
  /// A previously loaded snapshot to start from. With search state, the
  /// identity triple (Seed, BatchSize, CRC of the encoded Base) must
  /// match this problem — a foreign snapshot is a typed
  /// ErrorCode::SnapshotMismatch, never a silent wrong answer — and the
  /// search resumes mid-stream. Without search state the snapshot only
  /// pre-warms the verdict cache: the verdict stream, Found/Best and
  /// trajectory are invariant (hits replay identical verdicts); only
  /// the cache-statistics fields and their log lines can differ.
  const Snapshot *Resume = nullptr;
  /// Checkpoint/snapshot traffic of this run (optional out-param).
  /// Deliberately separate from SearchResult: checkpoint cadence is
  /// wall-clock dependent, and SearchResult stays byte-identical
  /// whether, and how often, a run checkpoints.
  SnapshotStats *CkptStats = nullptr;
  /// The metaheuristic driving perturbation and adaptation (Strategy.h);
  /// null = the built-in "local" strategy, draw-for-draw identical to
  /// the historical loop. The search mutates the strategy (adapt moves
  /// its internal state), so one instance serves one search at a time.
  /// A checkpoint records the strategy's name and opaque state; resuming
  /// under a different strategy is a typed SnapshotMismatch.
  Strategy *Strat = nullptr;
};

struct SearchResult {
  bool Found = false;
  cfg::Config Best;              ///< Schedulable configuration when Found.
  /// Decided candidates (verdict obtained by simulation *or* cache hit);
  /// invalid and guard-rail-skipped candidates are excluded.
  int ConfigurationsEvaluated = 0;
  int SchedulableSeen = 0;
  /// Badness of the best candidate seen: 0 when schedulable, otherwise
  /// L - FirstMissTime + 1 (hyperperiod minus the first-miss instant, so
  /// "misses later" is "less bad" and the value is positive). Chosen
  /// because a first-miss early-exit run computes it exactly — unlike the
  /// full-run failed-task count earlier revisions used (the field has
  /// been renamed/redefined before: BestMissedJobs -> BestBadness as
  /// failed tasks -> this first-miss metric).
  int64_t BestBadness = 0;
  /// Best-so-far trajectory: (iteration, badness of the best candidate
  /// seen up to then), appended whenever the best improves. The last entry
  /// is (finding iteration, 0) when Found.
  std::vector<std::pair<int, int64_t>> BestTrajectory;
  /// Candidates whose evaluation the guard rails ended (a simulation's
  /// budget or cancellation) before a verdict existed. Each is logged with
  /// its reason; none aborts the batch.
  int CandidatesSkipped = 0;
  /// The search stopped because SearchProblem::Cancel fired.
  bool Cancelled = false;
  /// Verdict-cache statistics per candidate (all zero when
  /// UseVerdictCache is off). DuplicateCandidates counts the candidates
  /// whose component keys were all planned by earlier candidates of the
  /// same round — decided before any lookup, so independent of the cache
  /// contents. Of the others, CacheHits counts those whose every
  /// component hit and CacheMisses the rest. SymmetryFolds counts the
  /// component hits whose stored raw fingerprint differs: hits that only
  /// exist because of core-relabeling canonicalization.
  int CacheHits = 0;
  int CacheMisses = 0;
  int SymmetryFolds = 0;
  int DuplicateCandidates = 0;
  /// Compositional-evaluation statistics (zero when UseDecomposition is
  /// off): valid candidates that split, and component NSA instances
  /// *actually simulated* for them — cache hits and intra-round
  /// duplicate components are excluded, so the count can be far below
  /// DecomposedCandidates times the component count.
  int DecomposedCandidates = 0;
  int ComponentsSimulated = 0;
  /// Component lookups of the non-duplicate candidates (a candidate that
  /// does not split is one component); zero when UseVerdictCache is off.
  /// Misses >= ComponentsSimulated + SimulationsRun because intra-round
  /// duplicate components are simulated once.
  int ComponentCacheHits = 0;
  int ComponentCacheMisses = 0;
  /// Whole-config simulations actually run (candidates that did not
  /// decompose). SimulationsRun + ComponentsSimulated is the number of
  /// Simulator::run calls the search made.
  int SimulationsRun = 0;
  /// How candidate evaluations ended, indexed by nsa::StopReason: decided
  /// candidates land on Completed/DeadlineMiss, guard-rail skips on
  /// Cancelled/BudgetExceeded. Tallied on the serial reduce path (cache
  /// hits replay the cached verdict's reason), so the taxonomy — like
  /// every other field — is identical for any Workers/BatchSize.
  std::array<int, nsa::NumStopReasons> StopReasonCounts{};
  std::vector<std::string> Log;
};

/// Assigns partitions to cores first-fit-decreasing by utilization.
/// Returns false when some partition fits on no core.
bool bindFirstFitDecreasing(cfg::Config &Config);

/// Synthesizes windows: per core, each minor frame (shortest period on
/// the core) is carved into slices proportional to partition utilization
/// times its boost factor (indexed by partition).
void synthesizeWindows(cfg::Config &Config,
                       const std::vector<double> &Boost);

/// Runs the search.
Result<SearchResult> searchConfiguration(const SearchProblem &Problem);

/// Populates \p Report with the search outcome: evaluation counts, cache
/// hit/miss/fold numbers and rates, decomposition stats, the StopReason
/// taxonomy, and candidates/s when \p ElapsedSec is positive. The numbers
/// are read from \p Res alone, so the report matches the stats the search
/// prints whether or not observability was on.
void fillSearchReport(obs::RunReport &Report, const SearchResult &Res,
                      double ElapsedSec);

} // namespace schedtool
} // namespace swa

#endif // SWA_SCHEDTOOL_CONFIGSEARCH_H
