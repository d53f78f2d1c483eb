//===- examples/sensitivity.cpp - Parametric sensitivity demo -------------===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//
//
// Asks the engine *how far* a schedulable configuration is from the edge
// instead of the paper's binary verdict: per-task WCET slack (with its
// certificate pair), period and window-offset feasibility intervals, and
// the uniform-inflation breakdown frontier — each computed by monotone
// binary search driving the early-exit simulator as an oracle.
//
//   $ ./sensitivity [seed] [--param wcet|period|offset|frontier|all]
//                   [--tolerance TICKS] [--workers N] [--budget-ms MS]
//                   [--report-out FILE] [--trace-out FILE]
//
// --param restricts the query families (default all). --tolerance sets
// the convergence granularity of the tick-valued searches (default 1:
// adjacent certificates). --workers fans the (task, parameter) queries
// out over N threads; the printed summary is byte-identical for every N.
// An argument that is not one of these flags or a decimal seed, a flag
// missing its value and a non-numeric value for a numeric flag are errors
// (exit 1).
//
//===----------------------------------------------------------------------===//

#include "analysis/Sensitivity.h"
#include "gen/Workload.h"
#include "obs/Metrics.h"
#include "obs/RunReport.h"
#include "obs/Span.h"
#include "support/StringUtils.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

using namespace swa;

[[noreturn]] static void rejectArgument(const char *Arg) {
  std::fprintf(stderr, "error: unknown argument '%s'\n", Arg);
  std::exit(1);
}

int main(int argc, char **argv) {
  uint64_t Seed = 7;
  const char *Param = "all";
  cfg::TimeValue Tolerance = 1;
  int Workers = 1;
  int64_t BudgetMs = -1;
  const char *TraceOut = nullptr, *ReportOut = nullptr;
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
    if (std::strcmp(Arg, "--param") == 0)
      Param = NextArg();
    else if (std::strcmp(Arg, "--tolerance") == 0)
      Tolerance = NextInt();
    else if (std::strcmp(Arg, "--workers") == 0)
      Workers = static_cast<int>(NextInt());
    else if (std::strcmp(Arg, "--budget-ms") == 0)
      BudgetMs = NextInt();
    else if (std::strcmp(Arg, "--trace-out") == 0)
      TraceOut = NextArg();
    else if (std::strcmp(Arg, "--report-out") == 0)
      ReportOut = NextArg();
    else if (!parseUInt64(Arg, Seed))
      rejectArgument(Arg);
  }

  if (TraceOut || ReportOut)
    obs::setEnabled(true);
  if (TraceOut)
    obs::setSpansEnabled(true);

  // A generated task set at moderate utilization, bound windows kept —
  // the sensitivity questions only make sense on a concrete layout.
  gen::IndustrialParams Params;
  Params.Modules = 2;
  Params.CoresPerModule = 2;
  Params.PartitionsPerCore = 2;
  Params.CoreUtilization = 0.45;
  Params.Seed = Seed;
  cfg::Config Config = gen::industrialConfig(Params);

  std::printf("config: %zu partitions, %d tasks, %zu messages on %zu "
              "cores, L=%lld\n",
              Config.Partitions.size(), Config.numTasks(),
              Config.Messages.size(), Config.Cores.size(),
              static_cast<long long>(Config.hyperperiod()));

  analysis::SensitivityOptions Opts;
  Opts.ToleranceTicks = Tolerance;
  Opts.Workers = Workers;
  Opts.ProbeBudgetMs = BudgetMs;
  if (std::strcmp(Param, "all") != 0) {
    Opts.QueryWcet = std::strcmp(Param, "wcet") == 0;
    Opts.QueryPeriod = std::strcmp(Param, "period") == 0;
    Opts.QueryOffset = std::strcmp(Param, "offset") == 0;
    Opts.QueryFrontier = std::strcmp(Param, "frontier") == 0;
    if (!Opts.QueryWcet && !Opts.QueryPeriod && !Opts.QueryOffset &&
        !Opts.QueryFrontier) {
      std::fprintf(stderr,
                   "error: --param must be wcet|period|offset|frontier|all, "
                   "got '%s'\n",
                   Param);
      return 1;
    }
  }

  auto T0 = std::chrono::steady_clock::now();
  Result<analysis::SensitivityResult> Res =
      analysis::analyzeSensitivity(Config, Opts);
  double ElapsedSec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
          .count();
  if (!Res.ok()) {
    std::fprintf(stderr, "error: %s\n", Res.error().message().c_str());
    return 1;
  }

  std::printf("\n%s", Res->summary().c_str());
  std::printf("\n%d probes in %.3f s (%.0f probes/s, workers=%d)\n",
              Res->TotalProbes, ElapsedSec,
              ElapsedSec > 0 ? Res->TotalProbes / ElapsedSec : 0.0,
              Workers);

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
    obs::RunReport Report("sensitivity");
    analysis::fillSensitivityReport(Report, *Res, ElapsedSec);
    std::string Err;
    if (!Report.writeFile(ReportOut, Err)) {
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      return 1;
    }
    std::printf("report: %s\n", ReportOut);
  }

  if (!Res->BaseDecided)
    return 2;
  return 0;
}
