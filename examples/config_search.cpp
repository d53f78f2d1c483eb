//===- examples/config_search.cpp - Scheduling-tool integration demo -------===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//
//
// Reproduces the §4 integration scenario: a scheduling tool explores
// candidate configurations (bindings + window layouts) for a task set and
// uses the stopwatch-automata model as its schedulability oracle.
//
//   $ ./config_search [seed] [--workers N] [--budget-ms MS]
//                     [--no-cache] [--no-early-exit] [--no-decompose]
//                     [--no-incremental]
//                     [--checkpoint FILE] [--checkpoint-every-ms MS]
//                     [--resume] [--trace-out FILE] [--report-out FILE]
//                     [--strategy NAME]
//
// --workers evaluates candidate batches on N threads; the result is
// byte-identical for every N. --budget-ms caps the wall-clock time of
// each simulation (a whole candidate or one of its components): a
// candidate with a simulation that exceeds it is logged as skipped and
// the search keeps going. The --no-* flags switch off the acceleration
// layers: --no-cache the one verdict cache (whole configs and
// decomposition components alike), --no-early-exit the first-miss early
// exit, --no-decompose per-core compositional evaluation, and
// --no-incremental NSA instance reuse; the verdict stream is identical
// either way, only the cost changes. --trace-out records
// per-candidate / per-component spans and writes a chrome://tracing
// (Perfetto) timeline; --report-out writes a machine-readable
// obs::RunReport JSON. Both turn observability on; neither changes the
// search result.
//
// --checkpoint makes the search durable: it writes an atomic snapshot of
// the verdict cache and loop state to FILE at round boundaries (every
// round, or throttled by --checkpoint-every-ms) and on exit. --resume
// loads FILE first and continues mid-stream: a run killed at any point
// and resumed this way prints the same verdicts the uninterrupted run
// prints. A corrupt, truncated or foreign snapshot is rejected with a
// typed error and the search starts cold — never a wrong answer.
//
// --strategy picks the metaheuristic (local | annealing | genetic).
//
// An argument that is not one of these flags or a decimal seed, a flag
// missing its value and a non-numeric value for a numeric flag are errors
// (exit 1); exit 2 means the search ran cleanly and found nothing
// schedulable.
//
//===----------------------------------------------------------------------===//

#include "analysis/Report.h"
#include "gen/Workload.h"
#include "obs/Metrics.h"
#include "obs/RunReport.h"
#include "obs/Span.h"
#include "schedtool/ConfigSearch.h"
#include "schedtool/Snapshot.h"
#include "schedtool/Strategy.h"
#include "support/StringUtils.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

using namespace swa;

[[noreturn]] static void rejectArgument(const char *Arg) {
  std::fprintf(stderr, "error: unknown argument '%s'\n", Arg);
  std::exit(1);
}

int main(int argc, char **argv) {
  uint64_t Seed = 7;
  int Workers = 1;
  int64_t BudgetMs = -1;
  bool UseCache = true, UseEarlyExit = true, UseDecompose = true;
  bool UseInstanceReuse = true;
  const char *TraceOut = nullptr, *ReportOut = nullptr;
  const char *CheckpointPath = nullptr;
  int64_t CheckpointEveryMs = 0;
  bool Resume = false;
  std::string StrategyName;
  for (int I = 1; I < argc; ++I) {
    const char *Arg = argv[I];
    auto NextArg = [&]() -> const char * {
      if (I + 1 >= argc)
        rejectArgument(Arg);
      return argv[++I];
    };
    auto NextInt = [&]() -> int64_t {
      const char *V = NextArg();
      int64_t N = 0;
      if (!parseInt64(V, N))
        rejectArgument(V);
      return N;
    };
    if (std::strcmp(Arg, "--workers") == 0)
      Workers = static_cast<int>(NextInt());
    else if (std::strcmp(Arg, "--budget-ms") == 0)
      BudgetMs = NextInt();
    else if (std::strcmp(Arg, "--no-cache") == 0)
      UseCache = false;
    else if (std::strcmp(Arg, "--no-early-exit") == 0)
      UseEarlyExit = false;
    else if (std::strcmp(Arg, "--no-decompose") == 0)
      UseDecompose = false;
    else if (std::strcmp(Arg, "--no-incremental") == 0)
      UseInstanceReuse = false;
    else if (std::strcmp(Arg, "--checkpoint") == 0)
      CheckpointPath = NextArg();
    else if (std::strcmp(Arg, "--checkpoint-every-ms") == 0)
      CheckpointEveryMs = NextInt();
    else if (std::strcmp(Arg, "--resume") == 0)
      Resume = true;
    else if (std::strcmp(Arg, "--trace-out") == 0)
      TraceOut = NextArg();
    else if (std::strcmp(Arg, "--report-out") == 0)
      ReportOut = NextArg();
    else if (std::strcmp(Arg, "--strategy") == 0)
      StrategyName = NextArg();
    else if (!parseUInt64(Arg, Seed))
      rejectArgument(Arg);
  }

  if (TraceOut || ReportOut)
    obs::setEnabled(true);
  if (TraceOut)
    obs::setSpansEnabled(true);

  // A generated task set whose bindings and windows we discard: the search
  // must find a feasible layout on its own.
  gen::IndustrialParams Params;
  Params.Modules = 2;
  Params.CoresPerModule = 2;
  Params.PartitionsPerCore = 2;
  Params.CoreUtilization = 0.55;
  Params.Seed = Seed;
  cfg::Config Base = gen::industrialConfig(Params);
  for (cfg::Partition &P : Base.Partitions) {
    P.Core = -1;
    P.Windows.clear();
  }

  std::printf("problem: %zu partitions, %d tasks, %zu messages on %zu "
              "cores\n",
              Base.Partitions.size(), Base.numTasks(),
              Base.Messages.size(), Base.Cores.size());

  schedtool::SearchProblem Problem;
  Problem.Base = Base;
  Problem.Seed = Seed;
  Problem.MaxIterations = 40;
  Problem.Workers = Workers;
  Problem.CandidateBudgetMs = BudgetMs;
  Problem.UseVerdictCache = UseCache;
  Problem.UseEarlyExit = UseEarlyExit;
  Problem.UseDecomposition = UseDecompose;
  Problem.UseInstanceReuse = UseInstanceReuse;

  std::unique_ptr<schedtool::Strategy> Strat;
  if (!StrategyName.empty()) {
    Strat = schedtool::makeStrategy(StrategyName);
    if (!Strat) {
      std::fprintf(stderr, "error: unknown strategy '%s'\n",
                   StrategyName.c_str());
      return 1;
    }
    Problem.Strat = Strat.get();
  }

  // Durable search: load the previous checkpoint when asked, and degrade
  // to a cold start — with the rejection reason — when the file is
  // corrupt, truncated, version-skewed or missing. A snapshot written by
  // a *different* search (other seed/batch/base) is only detectable by
  // the search itself, so that case retries cold below.
  schedtool::SnapshotStats CkptStats;
  schedtool::Snapshot Loaded;
  if (Resume && CheckpointPath) {
    Result<schedtool::Snapshot> S =
        schedtool::loadSnapshot(CheckpointPath, &CkptStats);
    if (S.ok()) {
      Loaded = S.takeValue();
      Problem.Resume = &Loaded;
      std::printf("resume: loaded %s (%zu cache entries, %s search "
                  "state)\n",
                  CheckpointPath, Loaded.Entries.size(),
                  Loaded.HasSearchState ? "with" : "no");
    } else {
      std::fprintf(stderr, "resume: %s [%s] -- starting cold\n",
                   S.error().message().c_str(),
                   errorCodeName(S.error().code()));
    }
  }
  if (CheckpointPath) {
    Problem.CheckpointPath = CheckpointPath;
    Problem.CheckpointEveryMs = CheckpointEveryMs;
    Problem.CkptStats = &CkptStats;
  }

  auto T0 = std::chrono::steady_clock::now();
  Result<schedtool::SearchResult> Res =
      schedtool::searchConfiguration(Problem);
  if (!Res.ok() && Res.error().code() == ErrorCode::SnapshotMismatch) {
    std::fprintf(stderr, "resume: %s [%s] -- rerunning cold\n",
                 Res.error().message().c_str(),
                 errorCodeName(Res.error().code()));
    Problem.Resume = nullptr;
    T0 = std::chrono::steady_clock::now();
    Res = schedtool::searchConfiguration(Problem);
  }
  double ElapsedSec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
          .count();
  if (!Res.ok()) {
    std::fprintf(stderr, "error: %s\n", Res.error().message().c_str());
    return 1;
  }

  for (const std::string &Line : Res->Log)
    std::printf("  %s\n", Line.c_str());
  std::printf("\nevaluated %d configurations (%d skipped by budget); %s\n",
              Res->ConfigurationsEvaluated, Res->CandidatesSkipped,
              Res->Found ? "found a schedulable one"
                         : "no schedulable configuration found");
  if (UseCache) {
    int Lookups = Res->ComponentCacheHits + Res->ComponentCacheMisses;
    std::printf("cache: %d hits / %d misses (%d symmetry folds, %d "
                "intra-batch duplicates); components %d hits / %d misses "
                "(%.0f%% hit rate)\n",
                Res->CacheHits, Res->CacheMisses, Res->SymmetryFolds,
                Res->DuplicateCandidates, Res->ComponentCacheHits,
                Res->ComponentCacheMisses,
                Lookups > 0 ? 100.0 * Res->ComponentCacheHits / Lookups
                            : 0.0);
  }
  if (UseDecompose)
    std::printf("decomposition: %d candidates split, %d components "
                "simulated (%d whole-config simulations)\n",
                Res->DecomposedCandidates, Res->ComponentsSimulated,
                Res->SimulationsRun);
  if (CheckpointPath) {
    std::printf("checkpoint: %llu snapshots written (%llu bytes), %llu "
                "loaded (%llu bytes), %llu entries merged, %llu warm hits\n",
                static_cast<unsigned long long>(CkptStats.SnapshotsWritten),
                static_cast<unsigned long long>(CkptStats.BytesWritten),
                static_cast<unsigned long long>(CkptStats.SnapshotsLoaded),
                static_cast<unsigned long long>(CkptStats.BytesLoaded),
                static_cast<unsigned long long>(CkptStats.EntriesMerged),
                static_cast<unsigned long long>(CkptStats.SnapshotHits));
    if (CkptStats.WriteFailures > 0)
      std::fprintf(stderr,
                   "checkpoint: %llu write failures (last: %s) -- search "
                   "result unaffected\n",
                   static_cast<unsigned long long>(CkptStats.WriteFailures),
                   CkptStats.LastError.c_str());
  }

  if (TraceOut) {
    std::ofstream OS(TraceOut);
    if (!OS) {
      std::fprintf(stderr, "error: cannot write %s\n", TraceOut);
      return 1;
    }
    obs::writeChromeTrace(OS);
    std::printf("trace: %zu spans -> %s (load in chrome://tracing or "
                "ui.perfetto.dev)\n",
                obs::spanCount(), TraceOut);
  }
  if (ReportOut) {
    obs::RunReport Report("config_search");
    schedtool::fillSearchReport(Report, *Res, ElapsedSec);
    if (CheckpointPath)
      schedtool::fillSnapshotReport(Report, CkptStats);
    std::string Err;
    if (!Report.writeFile(ReportOut, Err)) {
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      return 1;
    }
    std::printf("report: %s\n", ReportOut);
  }

  if (Res->Found) {
    std::printf("\nchosen binding and windows:\n");
    for (size_t P = 0; P < Res->Best.Partitions.size(); ++P) {
      const cfg::Partition &Part = Res->Best.Partitions[P];
      std::printf("  %-10s -> core %s, windows:", Part.Name.c_str(),
                  Res->Best.Cores[static_cast<size_t>(Part.Core)]
                      .Name.c_str());
      for (const cfg::Window &W : Part.Windows)
        std::printf(" [%lld,%lld)", static_cast<long long>(W.Start),
                    static_cast<long long>(W.End));
      std::printf("\n");
    }
  }
  return Res->Found ? 0 : 2;
}
