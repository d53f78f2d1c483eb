//===- analysis/Analyzer.cpp - One-call schedulability analysis ------------===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//

#include "analysis/Analyzer.h"

#include "analysis/ModelArena.h"
#include "obs/Metrics.h"
#include "obs/Timer.h"

#include <algorithm>

using namespace swa;
using namespace swa::analysis;

AnalyzeOutcome::~AnalyzeOutcome() {
  if (!Model.Net)
    return; // Moved from.
  obs::ScopedTimer Timer("teardown");
  Model.Net.reset();
}

bool AnalyzeOutcome::failureFlagsConsistent() const {
  if (Model.IsFailedSlot < 0)
    return true;
  int NT = static_cast<int>(Model.TaskAutomaton.size());
  bool AnyFailed = false;
  for (int G = 0; G < NT; ++G)
    if (Sim.Final.Store[static_cast<size_t>(Model.IsFailedSlot + G)] != 0)
      AnyFailed = true;
  // A job can also miss by never completing without tripping is_failed
  // only if the horizon cut it off; within a full hyperperiod the deadline
  // edges guarantee agreement.
  return AnyFailed == !Analysis.Schedulable;
}

Result<AnalyzeOutcome>
swa::analysis::analyzeConfiguration(const cfg::Config &Config,
                                    const nsa::SimOptions &SimOptions) {
  Result<core::BuiltModel> Model = core::buildModel(Config);
  if (!Model.ok())
    return Model.takeError();

  AnalyzeOutcome Out;
  Out.Model = std::move(*Model);

  Out.Sim = nsa::Simulator::create(*Out.Model.Net)->run(SimOptions);
  if (!Out.Sim.ok())
    return Error::failure("simulation failed: " + Out.Sim.Error);

  {
    obs::ScopedTimer Timer("analyze");
    {
      obs::ScopedTimer MapTimer("map_trace");
      Out.Trace = core::mapTrace(Out.Model, Out.Sim.Events);
    }
    Out.Analysis = analyzeTrace(Config, Out.Trace);
  }
  if (obs::enabled())
    obs::Registry::global().counter("analysis.configurations").add(1);
  return Out;
}

namespace {

/// The shared back half of both analyzeVerdictOnly overloads: run \p Sim
/// over \p Model and extract the verdict. The caller owns model and
/// simulator so the arena overload can substitute cached ones.
Result<VerdictOutcome> runVerdictOn(const core::BuiltModel &Model,
                                    nsa::Simulator &Sim,
                                    const cfg::Config &Config,
                                    const nsa::SimOptions &SimOptions) {
  int NT = static_cast<int>(Model.TaskAutomaton.size());
  VerdictOutcome Out;
  Out.TaskFailed.assign(static_cast<size_t>(NT), 0);

  // With failure flags the trace is never needed; without them the trace
  // feeds the criterion fallback. Either way the run is executed here so
  // a guard-rail stop (budget/cancel) surfaces structurally instead of as
  // an opaque error string.
  const bool HasFlags = Model.IsFailedSlot >= 0;
  nsa::SimOptions Opt = SimOptions;
  Opt.RecordTrace = !HasFlags;
  if (HasFlags) {
    // Watch the contiguous is_failed block so every run — early-exit or
    // full — reports the first-miss instant and its task set.
    Opt.FailSlotBase = Model.IsFailedSlot;
    Opt.FailSlotCount = NT;
  } else {
    // Early exit needs the flags; without them fall through to the full
    // trace criterion.
    Opt.StopOnFirstMiss = false;
  }
  nsa::SimResult R = Sim.run(Opt);
  Out.ActionCount = R.ActionCount;
  if (!R.ok()) {
    if (R.Stop == nsa::StopReason::Cancelled ||
        R.Stop == nsa::StopReason::BudgetExceeded) {
      Out.Stop = R.Stop;
      return Out; // No verdict: decided() == false.
    }
    return Error::failure("simulation failed: " + R.Error);
  }

  if (HasFlags) {
    Out.Stop = R.Stop;
    for (int G = 0; G < NT; ++G) {
      if (R.Final.Store[static_cast<size_t>(Model.IsFailedSlot + G)] !=
          0) {
        Out.TaskFailed[static_cast<size_t>(G)] = 1;
        ++Out.FailedTasks;
      }
    }
    Out.Schedulable = Out.FailedTasks == 0;
    Out.FirstMissTime = R.FirstMissTime;
    Out.FirstMissTasks = R.FirstMissSlots;
  } else {
    // No failure flags in this model: run the criterion on the mapped
    // trace and derive the per-task flags from the job statistics. The
    // first-miss instant is the earliest absolute deadline among missed
    // jobs — exactly when the watch would have seen the flag trip.
    core::SystemTrace Trace = core::mapTrace(Model, R.Events);
    AnalysisResult Analysis = analyzeTrace(Config, Trace);
    Out.Schedulable = Analysis.Schedulable;
    for (const JobStats &J : Analysis.Jobs) {
      if (J.Completed || J.TaskGid < 0 || J.TaskGid >= NT)
        continue;
      Out.TaskFailed[static_cast<size_t>(J.TaskGid)] = 1;
      int64_t MissAt =
          J.ReleaseTime + Config.taskOf(Config.taskRefOf(J.TaskGid)).Deadline;
      if (Out.FirstMissTime < 0 || MissAt < Out.FirstMissTime) {
        Out.FirstMissTime = MissAt;
        Out.FirstMissTasks.clear();
      }
      if (MissAt == Out.FirstMissTime)
        Out.FirstMissTasks.push_back(J.TaskGid);
    }
    std::sort(Out.FirstMissTasks.begin(), Out.FirstMissTasks.end());
    Out.FirstMissTasks.erase(
        std::unique(Out.FirstMissTasks.begin(), Out.FirstMissTasks.end()),
        Out.FirstMissTasks.end());
    for (char F : Out.TaskFailed)
      Out.FailedTasks += F ? 1 : 0;
  }
  if (obs::enabled())
    obs::Registry::global().counter("analysis.configurations").add(1);
  return Out;
}

} // namespace

Result<VerdictOutcome>
swa::analysis::analyzeVerdictOnly(const cfg::Config &Config,
                                  const nsa::SimOptions &SimOptions) {
  return analyzeVerdictOnly(Config, SimOptions, nullptr);
}

Result<VerdictOutcome>
swa::analysis::analyzeVerdictOnly(const cfg::Config &Config,
                                  const nsa::SimOptions &SimOptions,
                                  ModelArena *Arena) {
  if (Arena) {
    cfg::Fingerprint Shape = cfg::fingerprintShape(Config);
    if (ModelArena::Slot *S = Arena->find(Shape)) {
      // On any rebind failure (invalid config, shape-fingerprint
      // collision) fall through to a fresh build, which reproduces the
      // plain overload's behavior — including its error — exactly.
      if (!core::rebindWindows(S->Model, S->Rebinder, Config))
        return runVerdictOn(S->Model, *S->Sim, Config, SimOptions);
    }
  }

  Result<core::BuiltModel> Model =
      core::buildModel(Config, /*PublishMetrics=*/Arena == nullptr,
                       Arena ? Arena->sharedBytecode() : nullptr);
  if (!Model.ok())
    return Model.takeError();

  // Seed the arena only with models the rebinder can retarget and the
  // flags fast path can evaluate; anything else is used once, as the
  // plain overload would.
  if (Arena && Model->IsFailedSlot >= 0) {
    if (ModelArena::Slot *S =
            Arena->emplace(cfg::fingerprintShape(Config), std::move(*Model)))
      return runVerdictOn(S->Model, *S->Sim, Config, SimOptions);
    // emplace declined (foreign model): *Model was consumed, rebuild.
    Result<core::BuiltModel> Fresh =
        core::buildModel(Config, /*PublishMetrics=*/false,
                         Arena->sharedBytecode());
    if (!Fresh.ok())
      return Fresh.takeError();
    return runVerdictOn(*Fresh, *nsa::Simulator::create(*Fresh->Net), Config,
                        SimOptions);
  }

  return runVerdictOn(*Model, *nsa::Simulator::create(*Model->Net), Config,
                      SimOptions);
}

VerdictOutcome swa::analysis::mergeComponentVerdicts(
    const std::vector<ComponentVerdict> &Components, int TotalTasks) {
  VerdictOutcome Out;
  Out.TaskFailed.assign(static_cast<size_t>(TotalTasks), 0);
  Out.Schedulable = true;

  // An undecided component (guard-rail stop) poisons the whole verdict:
  // report that component's StopReason so callers see the same taxonomy a
  // monolithic guarded run produces. Decided components are still summed
  // into ActionCount first, so diagnostics stay meaningful.
  for (const ComponentVerdict &C : Components) {
    Out.ActionCount += C.Verdict.ActionCount;
    if (!C.Verdict.decided()) {
      Out.Stop = C.Verdict.Stop;
      Out.Schedulable = false;
      Out.FailedTasks = 0;
      std::fill(Out.TaskFailed.begin(), Out.TaskFailed.end(), 0);
      Out.FirstMissTime = -1;
      Out.FirstMissTasks.clear();
      return Out;
    }
  }

  bool AnyEarly = false;
  for (const ComponentVerdict &C : Components) {
    const VerdictOutcome &V = C.Verdict;
    if (V.Stop == nsa::StopReason::DeadlineMiss)
      AnyEarly = true;
    for (size_t L = 0; L < V.TaskFailed.size(); ++L) {
      if (!V.TaskFailed[L])
        continue;
      int32_t G = L < C.GidMap.size() ? C.GidMap[L] : -1;
      if (G >= 0 && G < TotalTasks)
        Out.TaskFailed[static_cast<size_t>(G)] = 1;
    }
    if (V.FirstMissTime >= 0 &&
        (Out.FirstMissTime < 0 || V.FirstMissTime < Out.FirstMissTime))
      Out.FirstMissTime = V.FirstMissTime;
  }
  for (const ComponentVerdict &C : Components) {
    if (C.Verdict.FirstMissTime != Out.FirstMissTime ||
        Out.FirstMissTime < 0)
      continue;
    for (int32_t L : C.Verdict.FirstMissTasks) {
      int32_t G =
          L >= 0 && static_cast<size_t>(L) < C.GidMap.size() ? C.GidMap[L] : -1;
      if (G >= 0 && G < TotalTasks)
        Out.FirstMissTasks.push_back(G);
    }
  }
  std::sort(Out.FirstMissTasks.begin(), Out.FirstMissTasks.end());
  Out.FirstMissTasks.erase(
      std::unique(Out.FirstMissTasks.begin(), Out.FirstMissTasks.end()),
      Out.FirstMissTasks.end());
  for (char F : Out.TaskFailed)
    Out.FailedTasks += F ? 1 : 0;
  Out.Schedulable = Out.FailedTasks == 0 && Out.FirstMissTime < 0;
  Out.Stop = AnyEarly ? nsa::StopReason::DeadlineMiss
                      : nsa::StopReason::Completed;
  return Out;
}
