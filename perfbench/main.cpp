//===- perfbench/main.cpp - Time-to-verdict benchmark binary --------------===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//
//
// Measures one workload in one process and prints one JSON object (the
// last line of stdout) with the raw samples; perfbench/run.py turns the
// samples into the reported metrics.
//
//   swa_perfbench --workload NAME --seed N --seconds S [--trace 0|1]
//                 [--setup-only] [--min-rounds N]
//
// A run is: set-up (generate and validate the inputs, then one untimed
// warm-up answer), a closed loop of rounds for S seconds with tracing off
// (a round answers every input of the workload's pool once), and with
// --trace 1 the loop is split: half untraced, half with the obs layer on,
// whose phase totals and counters give the per-layer split. Every answer,
// the warm-up included, is then checked. --setup-only stops after the
// warm-up answer; run.py samples set-up in separate processes so that it
// includes process start-up.
//
//===----------------------------------------------------------------------===//

#include "workloads.h"

#include "obs/Metrics.h"
#include "obs/Timer.h"

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

using namespace swa;
using Clock = std::chrono::steady_clock;

#ifndef SWA_PERFBENCH_BUILD_TYPE
#define SWA_PERFBENCH_BUILD_TYPE ""
#endif

namespace {

// Taken during static initialization, before main().
const Clock::time_point ProcessStart = Clock::now();

double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

/// User+system CPU seconds of the whole process, all threads.
double processCpuSeconds() {
  timespec TS{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &TS);
  return static_cast<double>(TS.tv_sec) + static_cast<double>(TS.tv_nsec) * 1e-9;
}

double peakRssMb() {
  rusage RU{};
  getrusage(RUSAGE_SELF, &RU);
  return static_cast<double>(RU.ru_maxrss) / 1024.0; // ru_maxrss is KiB.
}

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      Out += Buf;
    } else {
      Out += C;
    }
  }
  return Out + "\"";
}

std::string jsonNumber(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.9g", V);
  return Buf;
}

std::string jsonArray(const std::vector<double> &Vs) {
  std::string Out = "[";
  for (size_t I = 0; I < Vs.size(); ++I)
    Out += (I ? "," : "") + jsonNumber(Vs[I]);
  return Out + "]";
}

std::string jsonObject(const std::map<std::string, double> &M) {
  std::string Out = "{";
  for (const auto &[K, V] : M)
    Out += (Out.size() > 1 ? "," : "") + jsonString(K) + ":" + jsonNumber(V);
  return Out + "}";
}

/// nproc, CPU model and clock of this host, from /proc/cpuinfo.
std::string hostJson() {
  std::string Model, Mhz;
  std::ifstream In("/proc/cpuinfo");
  for (std::string Line; std::getline(In, Line);) {
    auto Value = [&Line] {
      size_t C = Line.find(':');
      return C == std::string::npos ? std::string() : Line.substr(C + 2);
    };
    if (Model.empty() && Line.rfind("model name", 0) == 0)
      Model = Value();
    else if (Mhz.empty() && Line.rfind("cpu MHz", 0) == 0)
      Mhz = Value();
  }
  return "{\"nproc\":" + std::to_string(std::thread::hardware_concurrency()) +
         ",\"cpu_model\":" + jsonString(Model) +
         ",\"cpu_mhz\":" + jsonString(Mhz) + "}";
}

/// Steal and total jiffies of all CPUs, from the "cpu" line of /proc/stat
/// (zeros where it cannot be read).
std::pair<double, double> cpuStealAndTotal() {
  std::ifstream In("/proc/stat");
  std::string Label;
  In >> Label;
  double Total = 0, Steal = 0, V = 0;
  // user nice system idle iowait irq softirq steal (guest time is already
  // counted in user).
  for (int I = 0; I < 8 && In >> V; ++I) {
    Total += V;
    if (I == 7)
      Steal = V;
  }
  return {Steal, Total};
}

bool isReleaseBuild() {
#ifdef NDEBUG
  return std::strcmp(SWA_PERFBENCH_BUILD_TYPE, "Release") == 0;
#else
  return false;
#endif
}

struct PhaseSum {
  double Sec = 0;
  uint64_t Count = 0;
};

/// Totals of every phase named \p Name below \p N (a matching phase's own
/// subtree is not searched again, so nothing is counted twice).
void sumPhase(const obs::PhaseTree::Node &N, std::string_view Name,
              PhaseSum &Out) {
  for (const auto &C : N.Children) {
    if (C->Name == Name) {
      Out.Sec += static_cast<double>(C->Nanos) * 1e-9;
      Out.Count += C->Count;
    } else {
      sumPhase(*C, Name, Out);
    }
  }
}

PhaseSum phase(const obs::PhaseTree::Node &Root, std::string_view Name) {
  PhaseSum S;
  sumPhase(Root, Name, S);
  return S;
}

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0.0; }

/// The per-layer split of one traced round of \p Answers answers, from
/// the merged phase tree, the calling thread's own tree and the merged
/// counters. Times and counts are per answer; ratios are over the round.
std::map<std::string, double>
layerMetrics(int DuplicateCandidates, double Wall, size_t Answers,
             int Workers) {
  obs::PhaseTree::Node All = obs::PhaseTree::mergedRoot();
  const obs::PhaseTree::Node &Own = obs::PhaseTree::current().root();
  std::map<std::string, double> C;
  for (const auto &[Name, Value] : obs::Registry::global().counterValues())
    C[Name] = static_cast<double>(Value);

  std::map<std::string, double> M;
  PhaseSum Build = phase(All, "build"), Sim = phase(All, "simulate");
  M["core.build_s"] = Build.Sec;
  M["core.builds"] = static_cast<double>(Build.Count);
  // Arena builds do not publish core.automata.instantiated, so the
  // per-automaton cost is only defined when every build published.
  M["core.build_us_per_automaton"] =
      C["core.models.built"] == static_cast<double>(Build.Count)
          ? ratio(Build.Sec * 1e6, C["core.automata.instantiated"])
          : 0.0;

  PhaseSum Compile = phase(All, "compile");
  M["sa.compile_s"] = Compile.Sec;
  M["sa.compiles"] = static_cast<double>(Compile.Count);

  double Actions = C["nsa.steps.action"];
  M["nsa.sim_s"] = Sim.Sec;
  M["nsa.runs"] = C["nsa.runs"];
  M["nsa.actions"] = Actions;
  M["nsa.actions_per_run"] = ratio(Actions, C["nsa.runs"]);
  M["nsa.us_per_action"] = ratio(Sim.Sec * 1e6, Actions);
  M["nsa.enabled_examined_per_action"] =
      ratio(C["nsa.enabled.examined"], Actions);
  M["nsa.refreshes_per_action"] = ratio(C["nsa.refresh.automaton"], Actions);

  M["analysis.trace_s"] = phase(All, "analyze").Sec;
  double Hits = C["sensitivity.cache.hits"];
  M["analysis.probes"] = C["sensitivity.probes"];
  M["analysis.probe_hit_rate"] =
      ratio(Hits, Hits + C["sensitivity.cache.misses"]);
  M["analysis.invalid_probes"] = C["sensitivity.invalid_probes"];
  for (const char *Family : {"wcet", "period", "offset", "frontier"})
    M[std::string("analysis.query_s.") + Family] =
        phase(All, std::string("sensitivity.") + Family).Sec;

  double Candidates = C["schedtool.candidates.evaluated"];
  M["schedtool.candidates"] = Candidates;
  // The search's own work on the calling thread: its phase minus the
  // builds and simulations nested in it there.
  const obs::PhaseTree::Node *Search = Own.child("schedtool.search");
  M["schedtool.self_s"] =
      Search ? static_cast<double>(Search->Nanos) * 1e-9 -
                   phase(*Search, "build").Sec - phase(*Search, "simulate").Sec
             : 0.0;
  M["schedtool.cache_hit_rate"] =
      ratio(C["schedtool.cache.hits"] + DuplicateCandidates, Candidates);
  double CompHits = C["schedtool.component_cache.hits"];
  M["schedtool.component_hit_rate"] =
      ratio(CompHits, CompHits + C["schedtool.component_cache.misses"]);
  M["schedtool.components_simulated"] = C["schedtool.components.simulated"];

  M["support.busy_frac"] = ratio(Build.Sec + Sim.Sec, Workers * Wall);
  M["unattributed_frac"] =
      1.0 - ratio(static_cast<double>(obs::PhaseTree::totalNanos(Own)) * 1e-9,
                  Wall);

  for (const char *PerAnswer :
       {"core.build_s", "core.builds", "sa.compile_s", "sa.compiles",
        "nsa.sim_s", "nsa.runs", "nsa.actions", "analysis.trace_s",
        "analysis.probes", "analysis.invalid_probes", "analysis.query_s.wcet",
        "analysis.query_s.period", "analysis.query_s.offset",
        "analysis.query_s.frontier", "schedtool.candidates",
        "schedtool.self_s", "schedtool.components_simulated"})
    M[PerAnswer] /= static_cast<double>(Answers);
  return M;
}

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  bool SetupOnly = false;
  size_t MinRounds = 2;
};

bool parseArgs(int Argc, char **Argv, Args &Out) {
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    bool HasValue = I + 1 < Argc;
    if (A == "--workload" && HasValue)
      Out.Workload = Argv[++I];
    else if (A == "--seed" && HasValue)
      Out.Seed = std::strtoull(Argv[++I], nullptr, 10);
    else if (A == "--seconds" && HasValue)
      Out.Seconds = std::strtod(Argv[++I], nullptr);
    else if (A == "--trace" && HasValue)
      Out.Trace = std::strcmp(Argv[++I], "0") != 0;
    else if (A == "--setup-only")
      Out.SetupOnly = true;
    else if (A == "--min-rounds" && HasValue)
      Out.MinRounds = std::strtoull(Argv[++I], nullptr, 10);
    else
      return false;
  }
  return !Out.Workload.empty() && Out.Seconds > 0;
}

/// What the check needs of one answer. The digest is kept hashed so the
/// answers a run stores do not show in its peak memory.
struct Checked {
  size_t Item = 0;
  bool Decided = false;
  size_t Digest = 0;
  std::string Problem;
  bool InRegime = true;
  /// The regime description, kept only when the answer left the regime.
  std::string Regime;
};

Checked checked(size_t Item, const perfbench::Answer &A) {
  return {Item,     A.Decided,
          std::hash<std::string>()(A.Digest),
          A.Problem, A.InRegime,
          A.InRegime ? std::string() : A.Regime};
}

/// One closed loop over the workload's input pool: whole rounds back to
/// back until \p Budget seconds passed and at least \p MinRounds ran.
struct Loop {
  std::vector<double> AnswerWall;
  /// Per-answer means of each round.
  std::vector<double> RoundWall, RoundCpu;
  std::vector<std::map<std::string, double>> Layers;
  std::vector<Checked> Answers;
};

void runLoop(perfbench::Workload &W, double Budget, size_t MinRounds,
             bool Traced, Loop &L) {
  const size_t Pool = W.poolSize();
  Clock::time_point Start = Clock::now();
  while (L.RoundWall.size() < MinRounds || secondsSince(Start) < Budget) {
    if (Traced) {
      obs::Registry::global().reset();
      obs::PhaseTree::resetAll();
    }
    double Wall = 0, Cpu = 0;
    int Duplicates = 0;
    for (size_t I = 0; I < Pool; ++I) {
      double Cpu0 = processCpuSeconds();
      Clock::time_point T0 = Clock::now();
      perfbench::Answer A = W.answer(I);
      double AnswerWall = secondsSince(T0);
      Cpu += processCpuSeconds() - Cpu0;
      Wall += AnswerWall;
      L.AnswerWall.push_back(AnswerWall);
      Duplicates += A.DuplicateCandidates;
      L.Answers.push_back(checked(I, A));
    }
    L.RoundWall.push_back(Wall / static_cast<double>(Pool));
    L.RoundCpu.push_back(Cpu / static_cast<double>(Pool));
    if (Traced)
      L.Layers.push_back(layerMetrics(Duplicates, Wall, Pool, W.workers()));
  }
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  if (!parseArgs(Argc, Argv, A)) {
    std::fprintf(stderr,
                 "usage: swa_perfbench --workload NAME --seed N --seconds S "
                 "[--trace 0|1] [--setup-only] [--min-rounds N]\n");
    return 2;
  }
  if (!isReleaseBuild()) {
    std::fprintf(stderr,
                 "error: measured code is not a Release build (build type "
                 "'%s'); refusing to measure\n",
                 SWA_PERFBENCH_BUILD_TYPE);
    return 2;
  }
  std::unique_ptr<perfbench::Workload> W = perfbench::makeWorkload(A.Workload);
  if (!W) {
    std::fprintf(stderr, "error: unknown workload '%s'\n", A.Workload.c_str());
    return 2;
  }

  // Set-up: input generation and validation, then the first (untimed)
  // answer.
  Clock::time_point GenStart = Clock::now();
  if (Error E = W->prepare(A.Seed)) {
    std::fprintf(stderr, "error: input does not validate: %s\n",
                 E.message().c_str());
    return 1;
  }
  double GenSec = secondsSince(GenStart);
  perfbench::Answer First = W->answer(0);
  Loop Warm;
  Warm.Answers.push_back(checked(0, First));
  double SetupSec = secondsSince(ProcessStart);
  if (A.SetupOnly) {
    std::printf("{\"setup_s\":%s}\n", jsonNumber(SetupSec).c_str());
    return 0;
  }

  Loop Plain, Traced;
  double PlainBudget = A.Trace ? A.Seconds / 2 : A.Seconds;
  auto [Steal0, Total0] = cpuStealAndTotal();
  runLoop(*W, PlainBudget, A.MinRounds, false, Plain);
  auto [Steal1, Total1] = cpuStealAndTotal();
  double PeakRss = peakRssMb();
  if (A.Trace) {
    obs::setEnabled(true);
    runLoop(*W, A.Seconds - PlainBudget, A.MinRounds, true, Traced);
    obs::setEnabled(false);
  }

  // The check. Answers for the reference items must match the plain
  // path's digest; every other answer must match the first answer given
  // for its input.
  std::map<size_t, Checked> Expected;
  std::vector<std::string> Problems;
  for (size_t Item : W->referenceItems()) {
    perfbench::Answer Ref = W->reference(Item);
    if (!Ref.Decided)
      Problems.push_back("reference: " + Ref.Problem);
    Expected.emplace(Item, checked(Item, Ref));
  }
  size_t Attempted = 0, Failed = 0, OutOfRegime = 0;
  std::string Regime = First.Regime;
  for (const Loop *L : {&Warm, &Plain, &Traced}) {
    for (const Checked &Ans : L->Answers) {
      ++Attempted;
      if (!Ans.InRegime && OutOfRegime++ == 0)
        Regime = Ans.Regime;
      const Checked &Exp = Expected.emplace(Ans.Item, Ans).first->second;
      std::string Why = !Ans.Decided   ? Ans.Problem
                        : !Exp.Decided ? "no reference answer"
                        : Ans.Digest != Exp.Digest
                            ? "answer differs from the reference"
                            : "";
      if (!Why.empty()) {
        ++Failed;
        if (Problems.size() < 5)
          Problems.push_back(Why);
      }
    }
  }

  std::string Out = "{\"workload\":" + jsonString(A.Workload);
  Out += ",\"input\":" + jsonString(W->describe());
  Out += ",\"regime\":" + jsonString(Regime);
  Out += ",\"out_of_regime\":" + std::to_string(OutOfRegime);
  Out += ",\"host\":" + hostJson();
  // The share of all CPUs' time the hypervisor gave to other guests while
  // the untraced loop ran: the host's load, which the timings include.
  Out += ",\"steal_frac\":" +
         jsonNumber(ratio(Steal1 - Steal0, Total1 - Total0));
  Out += ",\"build_type\":" + jsonString(SWA_PERFBENCH_BUILD_TYPE);
  Out += ",\"workers\":" + std::to_string(W->workers());
  Out += ",\"pool\":" + std::to_string(W->poolSize());
  Out += ",\"reference_items\":" + std::to_string(W->referenceItems().size());
  Out += ",\"attempted\":" + std::to_string(Attempted);
  Out += ",\"failed\":" + std::to_string(Failed);
  Out += ",\"problems\":[";
  for (size_t I = 0; I < Problems.size(); ++I)
    Out += (I ? "," : "") + jsonString(Problems[I]);
  Out += "],\"setup_s\":" + jsonNumber(SetupSec);
  Out += ",\"gen_s\":" + jsonNumber(GenSec);
  Out += ",\"peak_rss_mb\":" + jsonNumber(PeakRss);
  Out += ",\"answer_s\":" + jsonArray(Plain.AnswerWall);
  Out += ",\"round_s\":" + jsonArray(Plain.RoundWall);
  Out += ",\"round_cpu_s\":" + jsonArray(Plain.RoundCpu);
  Out += ",\"traced_round_s\":" + jsonArray(Traced.RoundWall);
  Out += ",\"layers\":[";
  for (size_t I = 0; I < Traced.Layers.size(); ++I)
    Out += (I ? "," : "") + jsonObject(Traced.Layers[I]);
  Out += "]}";
  std::printf("%s\n", Out.c_str());
  return 0;
}
