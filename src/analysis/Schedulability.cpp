//===- analysis/Schedulability.cpp - Criterion and job statistics ----------===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//

#include "analysis/Schedulability.h"

#include "obs/Timer.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cassert>

using namespace swa;
using namespace swa::analysis;

namespace {

/// Per-task accumulation state while scanning the trace.
struct TaskScan {
  cfg::TaskRef Ref;
  const cfg::Task *Task = nullptr;
  int64_t OpenStart = -1; ///< Start of the currently executing interval.
  std::vector<JobStats> Jobs;
};

} // namespace

AnalysisResult swa::analysis::analyzeTrace(const cfg::Config &Config,
                                           const core::SystemTrace &Trace) {
  obs::ScopedTimer Timer("criterion");
  AnalysisResult Res;
  int NT = Config.numTasks();
  cfg::TimeValue L = Config.hyperperiod();

  // Pre-create the full job table: every job of the hyperperiod must be
  // accounted for, including jobs that never produced any event. Global
  // ids number the tasks partition by partition.
  std::vector<TaskScan> Scan;
  Scan.reserve(static_cast<size_t>(NT));
  for (size_t P = 0; P < Config.Partitions.size(); ++P)
    for (size_t T = 0; T < Config.Partitions[P].Tasks.size(); ++T)
      Scan.push_back({{static_cast<int>(P), static_cast<int>(T)},
                      &Config.Partitions[P].Tasks[T]});
  for (int G = 0; G < NT; ++G) {
    TaskScan &TS = Scan[static_cast<size_t>(G)];
    int64_t NumJobs = L / TS.Task->Period;
    TS.Jobs.resize(static_cast<size_t>(NumJobs));
    for (int64_t K = 0; K < NumJobs; ++K) {
      JobStats &J = TS.Jobs[static_cast<size_t>(K)];
      J.TaskGid = G;
      J.JobIndex = static_cast<int>(K);
      J.ReleaseTime = K * TS.Task->Period;
    }
  }

  auto JobOf = [&](int Gid, int64_t Time,
                   bool EndsJob) -> JobStats * {
    const cfg::Task &T = *Scan[static_cast<size_t>(Gid)].Task;
    int64_t K = Time / T.Period;
    // A FIN landing exactly on a release boundary belongs to the previous
    // job (deadline == period); a new job cannot finish at its release.
    if (EndsJob && Time % T.Period == 0 && Time > 0)
      K = Time / T.Period - 1;
    auto &Jobs = Scan[static_cast<size_t>(Gid)].Jobs;
    if (K < 0 || static_cast<size_t>(K) >= Jobs.size())
      return nullptr; // Event beyond the analyzed hyperperiod.
    return &Jobs[static_cast<size_t>(K)];
  };

  for (const core::SysEvent &E : Trace) {
    TaskScan &TS = Scan[static_cast<size_t>(E.TaskGid)];
    switch (E.Type) {
    case core::SysEventType::READY: {
      if (JobStats *J = JobOf(E.TaskGid, E.Time, /*EndsJob=*/false))
        if (J->ReadyTime < 0)
          J->ReadyTime = E.Time;
      break;
    }
    case core::SysEventType::EX: {
      // Nested EX without PR/FIN would be a model error; keep the first.
      if (TS.OpenStart < 0)
        TS.OpenStart = E.Time;
      break;
    }
    case core::SysEventType::PR: {
      if (TS.OpenStart < 0)
        break; // PR without EX: ignore (cannot happen in our models).
      if (JobStats *J = JobOf(E.TaskGid, TS.OpenStart, /*EndsJob=*/false)) {
        if (E.Time > TS.OpenStart) {
          J->Intervals.push_back({TS.OpenStart, E.Time});
          J->ExecTotal += E.Time - TS.OpenStart;
          ++J->Preemptions;
        }
      }
      TS.OpenStart = -1;
      break;
    }
    case core::SysEventType::FIN: {
      JobStats *J = nullptr;
      if (TS.OpenStart >= 0) {
        J = JobOf(E.TaskGid, TS.OpenStart, /*EndsJob=*/false);
        if (J && E.Time > TS.OpenStart) {
          J->Intervals.push_back({TS.OpenStart, E.Time});
          J->ExecTotal += E.Time - TS.OpenStart;
        }
        TS.OpenStart = -1;
      } else {
        J = JobOf(E.TaskGid, E.Time, /*EndsJob=*/true);
      }
      if (J && J->FinishTime < 0)
        J->FinishTime = E.Time;
      break;
    }
    }
  }

  // Evaluate the criterion.
  Res.WorstResponse.assign(static_cast<size_t>(NT), 0);
  Res.Schedulable = true;
  for (int G = 0; G < NT; ++G) {
    const cfg::Task &T = *Scan[static_cast<size_t>(G)].Task;
    cfg::TimeValue C = Config.boundWcet(Scan[static_cast<size_t>(G)].Ref);
    bool AnyMiss = false;
    for (JobStats &J : Scan[static_cast<size_t>(G)].Jobs) {
      ++Res.TotalJobs;
      int64_t AbsDeadline = J.ReleaseTime + T.Deadline;
      J.Completed = J.ExecTotal == C && J.FinishTime >= 0 &&
                    J.FinishTime <= AbsDeadline;
      if (!J.Completed) {
        AnyMiss = true;
        ++Res.MissedJobs;
        if (Res.Schedulable) {
          Res.Schedulable = false;
          Res.FirstViolation = formatString(
              "task %d ('%s') job %d: executed %lld of %lld ticks by its "
              "deadline %lld",
              G, T.Name.c_str(), J.JobIndex,
              static_cast<long long>(J.ExecTotal),
              static_cast<long long>(C),
              static_cast<long long>(AbsDeadline));
        }
      } else {
        Res.WorstResponse[static_cast<size_t>(G)] =
            std::max(Res.WorstResponse[static_cast<size_t>(G)],
                     J.responseTime());
      }
      Res.Jobs.push_back(std::move(J));
    }
    // Worst response is undefined for tasks with missed jobs.
    if (AnyMiss)
      Res.WorstResponse[static_cast<size_t>(G)] = -1;
  }
  return Res;
}

bool swa::analysis::jobTracesEquivalent(const AnalysisResult &A,
                                        const AnalysisResult &B) {
  if (A.Jobs.size() != B.Jobs.size())
    return false;
  // Jobs are emitted in (task, job-index) order by construction.
  for (size_t I = 0; I < A.Jobs.size(); ++I) {
    const JobStats &JA = A.Jobs[I];
    const JobStats &JB = B.Jobs[I];
    if (JA.TaskGid != JB.TaskGid || JA.JobIndex != JB.JobIndex ||
        JA.ReadyTime != JB.ReadyTime || JA.FinishTime != JB.FinishTime ||
        !(JA.Intervals == JB.Intervals))
      return false;
  }
  return true;
}
