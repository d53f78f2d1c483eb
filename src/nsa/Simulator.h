//===- nsa/Simulator.h - Deterministic NSA simulator ------------*- C++ -*-===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The trace-generating engine at the heart of the paper's approach: a
/// single run of the NSA is simulated and its synchronization trace
/// recorded. Because the model is proven trace-deterministic, *any* run
/// yields the schedulability-relevant trace; this simulator resolves all
/// nondeterminism by a fixed total order (or, in randomized mode, by a
/// seeded RNG — used by tests and the determinism benchmark to confirm the
/// trace-equivalence theorem empirically).
///
/// The engine is event-driven: automata are re-examined only when they
/// moved, when a shared variable they watch changed (slot watch lists built
/// from static read sets), or when model time reaches their next clock
/// bound (indexed min-heap of wake times). Work is therefore proportional
/// to the number of events, which is what makes 12500-job configurations
/// simulate in seconds (paper §4).
///
/// Hot data structures are dense and sized once at construction — bitsets
/// for the initiator/committed sets, sorted flat vectors for per-channel
/// receiver sets, an indexed heap for wake times — so the steady-state
/// loop is allocation-free and a Simulator can be reset() and re-run
/// without reconstructing anything (see DESIGN.md, "Engine data
/// structures").
///
//===----------------------------------------------------------------------===//

#ifndef SWA_NSA_SIMULATOR_H
#define SWA_NSA_SIMULATOR_H

#include "nsa/Exec.h"
#include "support/BitSet.h"
#include "support/CancelToken.h"
#include "support/IndexedHeap.h"
#include "support/Rng.h"

#include <memory>
#include <string>

namespace swa {
namespace obs {
class EventSink;
} // namespace obs

namespace nsa {

struct Step;

/// Online run-invariant observer (the differential-testing harness's
/// oracle-inside-the-engine, see src/difftest/). The simulator calls the
/// hooks after every applied action step and every delay; a hook returns
/// an empty string when the invariant holds, or a description of the
/// violation, which stops the run with StopReason::InvariantViolation.
///
/// Checkers are pure observers like obs::EventSink: the engine hands them
/// const references to what it already decided and never reads anything
/// back, so a clean checker cannot perturb the run (asserted by the
/// trace-identity test in tests/DiffTest.cpp).
class RunChecker {
public:
  virtual ~RunChecker();

  /// The run was reset to the network's initial state.
  virtual void onRunStart(const State &Initial);

  /// An action step was applied; \p Post is the post-state and \p Writes
  /// the store slots the step's updates wrote (possibly unchanged).
  virtual std::string onStep(const State &Post, const Step &St,
                             const std::vector<int32_t> &Writes);

  /// Model time advanced from \p From to Post.Now.
  virtual std::string onDelay(int64_t From, const State &Post);

  /// The run ended normally with \p Final as the final state (not called
  /// after an error or guard-rail stop — the state is then incomplete).
  virtual std::string onRunEnd(const State &Final);
};

/// A deliberate, one-shot perturbation of engine state, injected mid-run
/// to prove a RunChecker actually detects the corresponding corruption
/// class (a self-test of the oracle, not of the engine; see DESIGN.md,
/// "Differential testing & fault injection"). The injection bypasses the
/// engine's own bookkeeping on purpose: no dirty marks, no write log.
struct FaultPlan {
  enum class Kind {
    FlipVariable, ///< Add Delta to store slot Index after action AtAction.
    SkipSync,     ///< Drop the receivers of action AtAction before applying.
    SkewClock,    ///< Add Delta to clock Index after action AtAction.
  };
  Kind FaultKind = Kind::FlipVariable;
  /// 1-based count of the action step to perturb (or perturb after).
  uint64_t AtAction = 1;
  /// Store slot (FlipVariable) or clock index (SkewClock).
  int32_t Index = 0;
  /// Perturbation magnitude for FlipVariable / SkewClock.
  int64_t Delta = 1;
  /// Output: set once the fault was actually injected.
  bool Fired = false;
};

const char *faultKindName(FaultPlan::Kind K);

struct SimOptions {
  /// Stop time; -1 means use the network's "horizon" metadata (and run
  /// forever if that is absent).
  int64_t Horizon = -1;
  /// Safety valve on the number of action transitions.
  uint64_t MaxActions = 100000000ULL;
  /// Materialize the synchronization trace in SimResult::Events. Callers
  /// that only need the verdict/final state (e.g. the config-search inner
  /// loop) turn this off to skip the per-event allocations entirely.
  bool RecordTrace = true;
  /// Record internal (unsynchronized) transitions in the trace.
  bool RecordInternal = false;
  /// When non-null, fireable steps are chosen uniformly at random instead
  /// of by the deterministic order (trace-equivalence testing).
  Rng *RandomOrder = nullptr;
  /// Publish engine counters (examined instances, dirty refreshes, heap
  /// traffic, receiver-set churn, per-automaton step counts) into
  /// obs::Registry::global() after the run. Also implied by the
  /// process-wide obs::enabled() switch.
  bool MetricsEnabled = false;
  /// When non-null, every applied step is streamed to this sink as
  /// structured action / delay / variable-write events. Sinks are pure
  /// observers; attaching one never changes the run (see DESIGN.md,
  /// "Observability").
  obs::EventSink *Sink = nullptr;
  /// Wall-clock budget for the whole run, in milliseconds; negative means
  /// unlimited (the default). 0 expires at the first guard check, i.e.
  /// before any step — deterministic, which the budget tests exploit. The
  /// deadline is polled every few thousand loop iterations, so an expired
  /// run stops with StopReason::BudgetExceeded shortly after the budget
  /// elapses; the guard never perturbs which steps fire before that.
  int64_t WallClockBudgetMs = -1;
  /// Cooperative cancellation: when non-null the main loop polls the token
  /// periodically and stops with StopReason::Cancelled once it fires.
  const CancelToken *Cancel = nullptr;
  /// Online invariant checker (differential-testing harness). Null — the
  /// default — keeps the hot path free of the checking branches, so traces
  /// are byte-identical to a build without the harness.
  RunChecker *Checker = nullptr;
  /// One-shot deliberate state corruption (checker self-test). Null means
  /// no fault is injected.
  FaultPlan *Fault = nullptr;
  /// First-miss watch: when FailSlotBase >= 0, every applied step's write
  /// log is scanned for stores into the contiguous slot range
  /// [FailSlotBase, FailSlotBase + FailSlotCount). The first instant at
  /// which a watched slot holds a nonzero value is recorded in
  /// SimResult::FirstMissTime, and every watched slot written nonzero at
  /// that instant lands in SimResult::FirstMissSlots (as offsets from
  /// FailSlotBase). The builder lays out `is_failed[gid]` contiguously, so
  /// offsets are global task ids.
  int32_t FailSlotBase = -1;
  int32_t FailSlotCount = 0;
  /// Online first-miss early exit (the search fast path): once the first
  /// miss instant has been fully processed — i.e. no further action fires
  /// at that model time, so *every* task that misses at the first-miss
  /// instant has been recorded — the run stops with
  /// StopReason::DeadlineMiss instead of simulating to the horizon.
  /// Requires the fail-slot watch above; a truncated run is still a valid
  /// prefix of the deterministic trace.
  bool StopOnFirstMiss = false;
};

/// Why a run ended, one level more structured than the ok()/Error split:
/// guard-rail stops (Cancelled/BudgetExceeded) mean "no verdict, through
/// no fault of the model" and are distinct from model errors and from the
/// action-budget livelock valve.
enum class StopReason {
  Completed,      ///< Quiescent or horizon reached: the trace is complete.
  MaxActions,     ///< SimOptions::MaxActions exhausted (livelock suspicion).
  Cancelled,      ///< SimOptions::Cancel fired.
  BudgetExceeded, ///< SimOptions::WallClockBudgetMs elapsed.
  ModelError,     ///< Deadlock, time-lock or invariant violation.
  /// SimOptions::Checker reported a trace-invariant violation. Distinct
  /// from ModelError so the differential harness can tell "the engine's
  /// own guards tripped" from "the independent oracle caught it".
  InvariantViolation,
  /// SimOptions::StopOnFirstMiss fired: a watched fail slot went nonzero
  /// and the miss instant completed. Unlike the other non-Completed stops
  /// this is a *successful* early verdict, not an error — SimResult::Error
  /// stays empty and ok() stays true; the trace is a faithful prefix of
  /// the full run truncated at the first-miss instant.
  DeadlineMiss,
};

/// Number of StopReason values — sized for taxonomy arrays (run reports,
/// per-reason counters). Keep in step with the enum above.
constexpr int NumStopReasons = static_cast<int>(StopReason::DeadlineMiss) + 1;

/// Short stable name for a StopReason ("completed", "budget-exceeded", ...).
const char *stopReasonName(StopReason R);

struct SimResult {
  Trace Events;
  State Final;
  uint64_t ActionCount = 0;
  uint64_t DelayCount = 0;
  bool HorizonReached = false;
  /// The network became quiescent (no action possible, no pending clock
  /// bound) before the horizon.
  bool Quiescent = false;
  /// How the run ended. Anything but Completed or DeadlineMiss also sets
  /// Error, so ok() callers keep treating guard-rail stops as "no usable
  /// trace"; DeadlineMiss is a successful early verdict and leaves Error
  /// empty.
  StopReason Stop = StopReason::Completed;
  /// Nonempty on a model error (committed deadlock, time-lock, invariant
  /// violation, action budget exhausted) and on guard-rail stops.
  std::string Error;
  /// First instant at which a watched fail slot (SimOptions::FailSlotBase)
  /// was written nonzero; -1 when none was, or when the watch is off.
  int64_t FirstMissTime = -1;
  /// Watched slots written nonzero at FirstMissTime, as offsets from
  /// FailSlotBase (= global task ids for builder-produced models), sorted
  /// ascending and deduplicated. Identical for a full run and a
  /// StopOnFirstMiss run over the same network.
  std::vector<int32_t> FirstMissSlots;

  bool ok() const { return Error.empty(); }

  /// One-line human-readable outcome: how the run ended (quiescent /
  /// horizon / error), the final model time, and the action/delay/event
  /// totals. Used by the examples and the profiler.
  std::string summary() const;
};

class Simulator {
public:
  explicit Simulator(const sa::Network &Net);

  /// A simulator for \p Net, its construction timed as the "sim_setup"
  /// phase.
  static std::unique_ptr<Simulator> create(const sa::Network &Net);

  /// Runs from the initial state to the horizon. Restartable: each call
  /// first reset()s, so one Simulator (and its allocations) can be reused
  /// for repeated runs over the same network.
  SimResult run(const SimOptions &Options = {});

  /// Returns the simulator to the network's initial state, keeping every
  /// allocation (enabled lists, receiver sets, heap, scratch buffers).
  /// run() calls this itself; it is public so callers can drop transient
  /// state eagerly between runs.
  void reset();

private:
  void markDirty(int Aut);
  void refreshAutomaton(int Aut);
  void refreshDirty();
  bool committedOk(const Step &St) const;
  bool pickStepDeterministic(Step &Out);
  bool pickStepRandom(Step &Out, Rng &R);
  bool buildStepFrom(int Aut, const EnabledInst &Inst, Step &Out,
                     Rng *RandomRecv);
  /// Fills receivers; returns false when a binary send has no partner.
  bool attachReceivers(int Aut, const EnabledInst &Inst, Step &Out,
                       Rng *RandomRecv);

  const sa::Network &Net;
  Exec Ex;
  State S;

  std::vector<std::vector<EnabledInst>> Enabled;
  /// Automata currently offering a receive on each channel id. Tiny sorted
  /// vectors (ascending ids — the deterministic partner order).
  std::vector<SortedIdVec> ReceiversByChan;
  /// Channels each automaton currently contributes receives to, sorted
  /// ascending (diffed against the fresh offer list on refresh).
  std::vector<std::vector<int32_t>> RecvContrib;
  /// Scratch for the fresh offer list built during refreshAutomaton.
  std::vector<int32_t> RecvContribScratch;
  /// Automata that currently have an internal or send instance enabled.
  DenseBitSet Initiators;
  DenseBitSet Committed;

  std::vector<std::vector<int32_t>> WatchersBySlot;
  std::vector<char> Dirty;
  std::vector<int32_t> DirtyStack;

  /// Wake deadlines: one live heap entry per time-bounded automaton;
  /// re-arming a timer re-keys the entry in place instead of pushing a
  /// stale duplicate.
  IndexedMinHeap WakeHeap;

  std::vector<int32_t> WriteLog;

  /// Per-step scratch reused across the whole run (steady state is
  /// allocation-free).
  Step StepScratch;
  std::vector<const EnabledInst *> RecvOptionScratch;

  /// Engine statistics for the observability layer. Plain local integers
  /// bumped unconditionally (the adds are noise next to the work they
  /// count); published to obs::Registry only when metrics are enabled.
  struct EngineStats {
    uint64_t Refreshes = 0;       ///< Dirty-automaton re-examinations.
    uint64_t EnabledExamined = 0; ///< Edge instances collected.
    uint64_t HeapPushes = 0;      ///< New heap entries (re-keys excluded).
    uint64_t HeapPops = 0;
    uint64_t RecvInserts = 0; ///< Receiver-set churn (inserts).
    uint64_t RecvErases = 0;  ///< Receiver-set churn (erases).
  };
  EngineStats Stats;
  /// Action steps initiated per automaton; sized only when metrics are on.
  std::vector<uint64_t> StepsPerAut;

  void publishMetrics(const SimResult &Res) const;
  void emitActionToSink(obs::EventSink &Sink, const Step &St,
                        int64_t Time) const;
};

} // namespace nsa
} // namespace swa

#endif // SWA_NSA_SIMULATOR_H
