//===- tests/SchedtoolTest.cpp - Configuration search tests ----------------===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//

#include "analysis/Analyzer.h"
#include "gen/Workload.h"
#include "schedtool/ConfigSearch.h"
#include "schedtool/Strategy.h"
#include "tests/TestConfigs.h"

#include <gtest/gtest.h>

using namespace swa;
using namespace swa::schedtool;

namespace {

cfg::Config unboundProblem(double Utilization, uint64_t Seed) {
  gen::IndustrialParams P;
  P.Modules = 2;
  P.CoresPerModule = 2;
  P.PartitionsPerCore = 2;
  P.CoreUtilization = Utilization;
  P.Seed = Seed;
  cfg::Config C = gen::industrialConfig(P);
  for (cfg::Partition &Part : C.Partitions) {
    Part.Core = -1;
    Part.Windows.clear();
  }
  return C;
}

} // namespace

TEST(FirstFit, BindsAllPartitionsUnderCapacity) {
  cfg::Config C = unboundProblem(0.4, 1);
  ASSERT_TRUE(bindFirstFitDecreasing(C));
  for (const cfg::Partition &P : C.Partitions) {
    EXPECT_GE(P.Core, 0);
    EXPECT_LT(P.Core, static_cast<int>(C.Cores.size()));
  }
  // No core may end up over unit utilization.
  for (size_t Core = 0; Core < C.Cores.size(); ++Core) {
    double U = 0;
    for (size_t P = 0; P < C.Partitions.size(); ++P)
      if (C.Partitions[P].Core == static_cast<int>(Core))
        U += C.partitionUtilization(static_cast<int>(P));
    EXPECT_LE(U, 1.0) << "core " << Core;
  }
}

TEST(FirstFit, FailsWhenDemandExceedsCapacity) {
  cfg::Config C = testcfg::twoTasksOneCore();
  // One core, three copies of a 60%-utilization partition.
  C.Partitions[0].Tasks = {{"t", 1, {6}, 10, 10}};
  C.Partitions.push_back(C.Partitions[0]);
  C.Partitions.push_back(C.Partitions[0]);
  for (cfg::Partition &P : C.Partitions)
    P.Core = -1;
  EXPECT_FALSE(bindFirstFitDecreasing(C));
}

TEST(Windows, SynthesisProducesValidLayouts) {
  cfg::Config C = unboundProblem(0.5, 2);
  ASSERT_TRUE(bindFirstFitDecreasing(C));
  synthesizeWindows(C, std::vector<double>(C.Partitions.size(), 1.5));
  Error E = C.validate();
  EXPECT_FALSE(E.isFailure()) << E.message();
  for (const cfg::Partition &P : C.Partitions)
    EXPECT_FALSE(P.Windows.empty()) << P.Name;
}

TEST(Search, FindsScheduleAtModerateUtilization) {
  SearchProblem Problem;
  Problem.Base = unboundProblem(0.35, 3);
  Problem.Seed = 3;
  Problem.MaxIterations = 30;
  auto Res = searchConfiguration(Problem);
  ASSERT_TRUE(Res.ok()) << Res.error().message();
  EXPECT_TRUE(Res->Found);
  EXPECT_GE(Res->ConfigurationsEvaluated, 1);
  // The returned configuration must itself re-verify as schedulable.
  auto Recheck = analysis::analyzeConfiguration(Res->Best);
  ASSERT_TRUE(Recheck.ok()) << Recheck.error().message();
  EXPECT_TRUE(Recheck->Analysis.Schedulable);
}

TEST(Search, DiscardsUnschedulableCandidates) {
  // At very high utilization the search evaluates and rejects candidates;
  // whether it succeeds is workload-dependent, but every iteration must be
  // logged and counted.
  SearchProblem Problem;
  Problem.Base = unboundProblem(0.8, 4);
  Problem.Seed = 4;
  Problem.MaxIterations = 6;
  auto Res = searchConfiguration(Problem);
  ASSERT_TRUE(Res.ok()) << Res.error().message();
  EXPECT_GE(Res->ConfigurationsEvaluated, 1);
  EXPECT_EQ(Res->Log.empty(), false);
  if (!Res->Found) {
    EXPECT_GT(Res->BestBadness, 0);
  }
}

TEST(Search, IsDeterministicPerSeed) {
  SearchProblem Problem;
  Problem.Base = unboundProblem(0.5, 5);
  Problem.Seed = 9;
  Problem.MaxIterations = 10;
  auto A = searchConfiguration(Problem);
  auto B = searchConfiguration(Problem);
  ASSERT_TRUE(A.ok());
  ASSERT_TRUE(B.ok());
  EXPECT_EQ(A->Found, B->Found);
  EXPECT_EQ(A->ConfigurationsEvaluated, B->ConfigurationsEvaluated);
  EXPECT_EQ(A->Log, B->Log);
}

namespace {

void expectSameResult(const SearchResult &A, const SearchResult &B) {
  EXPECT_EQ(A.Found, B.Found);
  EXPECT_EQ(A.ConfigurationsEvaluated, B.ConfigurationsEvaluated);
  EXPECT_EQ(A.SchedulableSeen, B.SchedulableSeen);
  EXPECT_EQ(A.BestBadness, B.BestBadness);
  EXPECT_EQ(A.BestTrajectory, B.BestTrajectory);
  EXPECT_EQ(A.Log, B.Log);
  // The chosen configuration must be identical, not merely equivalent.
  ASSERT_EQ(A.Best.Partitions.size(), B.Best.Partitions.size());
  for (size_t P = 0; P < A.Best.Partitions.size(); ++P) {
    EXPECT_EQ(A.Best.Partitions[P].Core, B.Best.Partitions[P].Core);
    ASSERT_EQ(A.Best.Partitions[P].Windows.size(),
              B.Best.Partitions[P].Windows.size());
    for (size_t W = 0; W < A.Best.Partitions[P].Windows.size(); ++W) {
      EXPECT_EQ(A.Best.Partitions[P].Windows[W].Start,
                B.Best.Partitions[P].Windows[W].Start);
      EXPECT_EQ(A.Best.Partitions[P].Windows[W].End,
                B.Best.Partitions[P].Windows[W].End);
    }
  }
}

} // namespace

TEST(Search, ResultIndependentOfWorkerCount) {
  // The candidate sequence is fixed by (Seed, BatchSize) and batches are
  // reduced in candidate order, so every Workers value must produce the
  // byte-identical SearchResult — including at a utilization where the
  // search has to iterate.
  for (double Util : {0.45, 0.8}) {
    SearchProblem Problem;
    Problem.Base = unboundProblem(Util, 6);
    Problem.Seed = 13;
    Problem.MaxIterations = 12;

    Problem.Workers = 1;
    auto Serial = searchConfiguration(Problem);
    ASSERT_TRUE(Serial.ok()) << Serial.error().message();

    for (int Workers : {2, 4}) {
      Problem.Workers = Workers;
      auto Parallel = searchConfiguration(Problem);
      ASSERT_TRUE(Parallel.ok()) << Parallel.error().message();
      expectSameResult(*Serial, *Parallel);
    }
  }
}

TEST(Search, EveryStrategyIsDeterministic) {
  // Each metaheuristic is a pure function of its RNG draws: two runs of
  // the same problem under one strategy give the same SearchResult. Over
  // 32 iterations genetic (which needs a filled population) departs from
  // local, so the check is not satisfied by one shared trajectory.
  SearchProblem Problem;
  Problem.Base = unboundProblem(0.8, 4);
  Problem.Seed = 4;
  Problem.MaxIterations = 32;
  std::vector<SearchResult> PerStrategy;
  for (const char *Name : {"local", "annealing", "genetic"}) {
    std::unique_ptr<Strategy> S1 = makeStrategy(Name);
    std::unique_ptr<Strategy> S2 = makeStrategy(Name);
    ASSERT_TRUE(S1 && S2) << Name;
    Problem.Strat = S1.get();
    auto A = searchConfiguration(Problem);
    Problem.Strat = S2.get();
    auto B = searchConfiguration(Problem);
    ASSERT_TRUE(A.ok()) << Name << ": " << A.error().message();
    ASSERT_TRUE(B.ok()) << Name << ": " << B.error().message();
    expectSameResult(*A, *B);
    EXPECT_EQ(A->CacheHits, B->CacheHits) << Name;
    EXPECT_EQ(A->ComponentsSimulated, B->ComponentsSimulated) << Name;
    EXPECT_EQ(A->SimulationsRun, B->SimulationsRun) << Name;
    EXPECT_EQ(A->StopReasonCounts, B->StopReasonCounts) << Name;
    PerStrategy.push_back(std::move(*A));
  }
  EXPECT_NE(PerStrategy[0].Log, PerStrategy[2].Log)
      << "local and genetic explored the same candidates";
}

TEST(Search, BudgetFiresAndSearchStillTerminates) {
  // A zero budget expires at every candidate's first guard check: every
  // evaluation is skipped, none aborts the batch, and the search ends
  // cleanly reporting what it skipped.
  SearchProblem Problem;
  Problem.Base = unboundProblem(0.5, 5);
  Problem.Seed = 9;
  Problem.MaxIterations = 8;
  Problem.CandidateBudgetMs = 0;
  for (int Workers : {1, 2}) {
    Problem.Workers = Workers;
    auto Res = searchConfiguration(Problem);
    ASSERT_TRUE(Res.ok()) << Res.error().message();
    EXPECT_FALSE(Res->Found);
    EXPECT_EQ(Res->ConfigurationsEvaluated, 0);
    EXPECT_GT(Res->CandidatesSkipped, 0);
    bool Logged = false;
    for (const std::string &Line : Res->Log)
      if (Line.find("skipped") != std::string::npos &&
          Line.find("budget-exceeded") != std::string::npos)
        Logged = true;
    EXPECT_TRUE(Logged) << "no skip reason in the search log";
  }
}

TEST(Search, UnfiredBudgetPreservesDeterminism) {
  // When the budget never fires the SearchResult must be byte-identical
  // to a no-budget run, for every worker count.
  SearchProblem Problem;
  Problem.Base = unboundProblem(0.45, 6);
  Problem.Seed = 13;
  Problem.MaxIterations = 12;

  Problem.Workers = 1;
  Problem.CandidateBudgetMs = -1;
  auto Baseline = searchConfiguration(Problem);
  ASSERT_TRUE(Baseline.ok()) << Baseline.error().message();

  Problem.CandidateBudgetMs = 600000; // Ten minutes: never fires here.
  for (int Workers : {1, 2, 4}) {
    Problem.Workers = Workers;
    auto Budgeted = searchConfiguration(Problem);
    ASSERT_TRUE(Budgeted.ok()) << Budgeted.error().message();
    EXPECT_EQ(Budgeted->CandidatesSkipped, 0);
    EXPECT_FALSE(Budgeted->Cancelled);
    expectSameResult(*Baseline, *Budgeted);
  }
}

TEST(Search, PreCancelledSearchStopsImmediately) {
  SearchProblem Problem;
  Problem.Base = unboundProblem(0.5, 7);
  Problem.Seed = 11;
  Problem.MaxIterations = 20;
  CancelToken Tok;
  Tok.cancel();
  Problem.Cancel = &Tok;
  auto Res = searchConfiguration(Problem);
  ASSERT_TRUE(Res.ok()) << Res.error().message();
  EXPECT_TRUE(Res->Cancelled);
  EXPECT_FALSE(Res->Found);
  EXPECT_EQ(Res->ConfigurationsEvaluated, 0);
}

TEST(Search, VerdictOnlyAgreesWithFullAnalysis) {
  // The fast verdict path used inside the search must agree with the full
  // trace-based criterion for both schedulable and unschedulable layouts.
  for (double Util : {0.35, 0.85}) {
    cfg::Config C = unboundProblem(Util, 8);
    ASSERT_TRUE(bindFirstFitDecreasing(C));
    synthesizeWindows(C, std::vector<double>(C.Partitions.size(), 1.5));
    ASSERT_FALSE(C.validate().isFailure());

    auto Full = analysis::analyzeConfiguration(C);
    ASSERT_TRUE(Full.ok()) << Full.error().message();
    auto Fast = analysis::analyzeVerdictOnly(C);
    ASSERT_TRUE(Fast.ok()) << Fast.error().message();
    EXPECT_EQ(Fast->Schedulable, Full->Analysis.Schedulable);
    EXPECT_EQ(Fast->Schedulable, Fast->FailedTasks == 0);
  }
}

namespace {

/// Like unboundProblem but with no messages: every core group is an
/// independent component, so the decomposition layer engages.
cfg::Config decoupledProblem(double Utilization, uint64_t Seed) {
  gen::IndustrialParams P;
  P.Modules = 2;
  P.CoresPerModule = 2;
  P.PartitionsPerCore = 2;
  P.CoreUtilization = Utilization;
  P.MessageProbability = 0.0;
  P.Seed = Seed;
  cfg::Config C = gen::industrialConfig(P);
  for (cfg::Partition &Part : C.Partitions) {
    Part.Core = -1;
    Part.Windows.clear();
  }
  return C;
}

/// The per-iteration lines of the search log. The acceleration layers add
/// per-round statistics lines, so cross-flag comparisons look at these
/// (and the scalar fields); full byte-identity of the Log is only asserted
/// when the flags are held fixed.
std::vector<std::string> iterLines(const SearchResult &R) {
  std::vector<std::string> Out;
  for (const std::string &L : R.Log)
    if (L.rfind("iter ", 0) == 0)
      Out.push_back(L);
  return Out;
}

/// Everything an accelerated run must reproduce exactly: the verdict
/// stream, the counters derived from it, the trajectory and the chosen
/// configuration.
void expectSameObservable(const SearchResult &A, const SearchResult &B) {
  EXPECT_EQ(A.Found, B.Found);
  EXPECT_EQ(A.ConfigurationsEvaluated, B.ConfigurationsEvaluated);
  EXPECT_EQ(A.SchedulableSeen, B.SchedulableSeen);
  EXPECT_EQ(A.BestBadness, B.BestBadness);
  EXPECT_EQ(A.BestTrajectory, B.BestTrajectory);
  EXPECT_EQ(iterLines(A), iterLines(B));
  ASSERT_EQ(A.Best.Partitions.size(), B.Best.Partitions.size());
  for (size_t P = 0; P < A.Best.Partitions.size(); ++P) {
    EXPECT_EQ(A.Best.Partitions[P].Core, B.Best.Partitions[P].Core);
    ASSERT_EQ(A.Best.Partitions[P].Windows.size(),
              B.Best.Partitions[P].Windows.size());
    for (size_t W = 0; W < A.Best.Partitions[P].Windows.size(); ++W) {
      EXPECT_EQ(A.Best.Partitions[P].Windows[W].Start,
                B.Best.Partitions[P].Windows[W].Start);
      EXPECT_EQ(A.Best.Partitions[P].Windows[W].End,
                B.Best.Partitions[P].Windows[W].End);
    }
  }
}

SearchProblem layeredProblem(cfg::Config Base, uint64_t Seed, int Iters,
                             bool Cache, bool Early, bool Decompose) {
  SearchProblem Problem;
  Problem.Base = std::move(Base);
  Problem.Seed = Seed;
  Problem.MaxIterations = Iters;
  Problem.UseVerdictCache = Cache;
  Problem.UseEarlyExit = Early;
  Problem.UseDecomposition = Decompose;
  return Problem;
}

} // namespace

TEST(Search, AccelerationLayersAreObservationallyTransparent) {
  // Every combination of the three layers must reproduce the plain
  // search's verdict stream, trajectory, counters and chosen
  // configuration — on a workload that decomposes and at a utilization
  // where candidates fail (so the early exit actually fires).
  for (double Util : {0.45, 0.8}) {
    auto Plain = searchConfiguration(layeredProblem(
        decoupledProblem(Util, 21), 17, 12, false, false, false));
    ASSERT_TRUE(Plain.ok()) << Plain.error().message();

    for (int Mask = 1; Mask < 8; ++Mask) {
      auto Fast = searchConfiguration(layeredProblem(
          decoupledProblem(Util, 21), 17, 12, (Mask & 1) != 0,
          (Mask & 2) != 0, (Mask & 4) != 0));
      ASSERT_TRUE(Fast.ok()) << Fast.error().message();
      expectSameObservable(*Plain, *Fast);
    }
  }
}

TEST(Search, AcceleratedResultIndependentOfWorkerCount) {
  // With every layer on (the default), the SearchResult — including the
  // cache and decomposition statistics, which are serial-path facts —
  // must stay byte-identical for every worker count.
  SearchProblem Problem;
  Problem.Base = decoupledProblem(0.8, 22);
  Problem.Seed = 19;
  Problem.MaxIterations = 12;

  Problem.Workers = 1;
  auto Serial = searchConfiguration(Problem);
  ASSERT_TRUE(Serial.ok()) << Serial.error().message();

  for (int Workers : {2, 4}) {
    Problem.Workers = Workers;
    auto Parallel = searchConfiguration(Problem);
    ASSERT_TRUE(Parallel.ok()) << Parallel.error().message();
    expectSameResult(*Serial, *Parallel);
    EXPECT_EQ(Serial->CacheHits, Parallel->CacheHits);
    EXPECT_EQ(Serial->CacheMisses, Parallel->CacheMisses);
    EXPECT_EQ(Serial->SymmetryFolds, Parallel->SymmetryFolds);
    EXPECT_EQ(Serial->DuplicateCandidates, Parallel->DuplicateCandidates);
    EXPECT_EQ(Serial->DecomposedCandidates, Parallel->DecomposedCandidates);
    EXPECT_EQ(Serial->ComponentsSimulated, Parallel->ComponentsSimulated);
    EXPECT_EQ(Serial->SimulationsRun, Parallel->SimulationsRun);
  }
}

TEST(Search, PlainResultIndependentOfWorkerCount) {
  // The same guarantee with every layer off: the acceleration rewrite
  // must not have cost the original worker-count determinism.
  SearchProblem Problem;
  Problem.Base = unboundProblem(0.8, 23);
  Problem.Seed = 19;
  Problem.MaxIterations = 12;
  Problem.UseVerdictCache = false;
  Problem.UseEarlyExit = false;
  Problem.UseDecomposition = false;

  Problem.Workers = 1;
  auto Serial = searchConfiguration(Problem);
  ASSERT_TRUE(Serial.ok()) << Serial.error().message();
  for (int Workers : {2, 4}) {
    Problem.Workers = Workers;
    auto Parallel = searchConfiguration(Problem);
    ASSERT_TRUE(Parallel.ok()) << Parallel.error().message();
    expectSameResult(*Serial, *Parallel);
  }
}

TEST(Search, CacheHitsHappenAndAreCounted) {
  // At high utilization the boost vector saturates after a few rounds and
  // candidate 0 (the unperturbed adaptive state) starts repeating — the
  // cache must catch those revisits, and the statistics must be coherent:
  // every decided candidate was a hit, a miss that simulated, or an
  // intra-batch duplicate of one.
  SearchProblem Problem;
  Problem.Base = unboundProblem(0.8, 99);
  Problem.Seed = 29;
  Problem.MaxIterations = 60;
  auto Res = searchConfiguration(Problem);
  ASSERT_TRUE(Res.ok()) << Res.error().message();
  ASSERT_GT(Res->ConfigurationsEvaluated, 0);
  ASSERT_FALSE(Res->Found); // overloaded on purpose
  EXPECT_GT(Res->CacheHits, 0);
  EXPECT_GT(Res->CacheMisses, 0);
  EXPECT_EQ(Res->ConfigurationsEvaluated,
            Res->CacheHits + Res->CacheMisses + Res->DuplicateCandidates);
  bool StatsLogged = false;
  for (const std::string &Line : Res->Log)
    if (Line.rfind("round ", 0) == 0 &&
        Line.find("cache") != std::string::npos)
      StatsLogged = true;
  EXPECT_TRUE(StatsLogged) << "no cache statistics in the search log";
}

TEST(Search, DecompositionEngagesOnDecoupledWorkloads) {
  SearchProblem Problem;
  Problem.Base = decoupledProblem(0.8, 25);
  Problem.Seed = 31;
  Problem.MaxIterations = 12;
  auto Res = searchConfiguration(Problem);
  ASSERT_TRUE(Res.ok()) << Res.error().message();
  EXPECT_GT(Res->DecomposedCandidates, 0);
  // A decomposed candidate has at least two components, each resolved
  // against the component cache. (ComponentsSimulated can fall below
  // two-per-candidate: hits and intra-round duplicates are not re-run.)
  EXPECT_GE(Res->ComponentCacheHits + Res->ComponentCacheMisses,
            2 * Res->DecomposedCandidates);
  EXPECT_GE(Res->ComponentCacheMisses, Res->ComponentsSimulated);
  // The per-round statistics lines appear once a round completes (a
  // search that succeeds mid-round returns before logging them).
  if (!Res->Found) {
    bool StatsLogged = false;
    for (const std::string &Line : Res->Log)
      if (Line.rfind("round ", 0) == 0 &&
          Line.find("decomposed") != std::string::npos)
        StatsLogged = true;
    EXPECT_TRUE(StatsLogged) << "no decomposition statistics in the log";
  }
}

namespace {

SearchProblem incrementalProblem(cfg::Config Base, uint64_t Seed, int Iters,
                                 bool CompCache, bool Dirty, bool Reuse) {
  SearchProblem Problem;
  Problem.Base = std::move(Base);
  Problem.Seed = Seed;
  Problem.MaxIterations = Iters;
  Problem.UseComponentCache = CompCache;
  Problem.UseDirtyTracking = Dirty;
  Problem.UseInstanceReuse = Reuse;
  return Problem;
}

} // namespace

TEST(Search, IncrementalLayersAreObservationallyTransparent) {
  // Every combination of the three incremental layers (component cache,
  // dirty tracking, instance reuse) must reproduce the all-off verdict
  // stream, trajectory and chosen configuration, for every worker count
  // — on a workload that decomposes, at a utilization where candidates
  // fail and the adaptive loop actually iterates. Within one mask the
  // full SearchResult must be byte-identical across worker counts.
  std::vector<SearchResult> PerMask;
  for (int Mask = 0; Mask < 8; ++Mask) {
    SearchProblem Problem = incrementalProblem(
        decoupledProblem(0.8, 26), 23, 10, (Mask & 1) != 0, (Mask & 2) != 0,
        (Mask & 4) != 0);
    Problem.Workers = 1;
    auto Serial = searchConfiguration(Problem);
    ASSERT_TRUE(Serial.ok()) << Serial.error().message();
    for (int Workers : {2, 4}) {
      Problem.Workers = Workers;
      auto Parallel = searchConfiguration(Problem);
      ASSERT_TRUE(Parallel.ok()) << Parallel.error().message();
      expectSameResult(*Serial, *Parallel);
      EXPECT_EQ(Serial->ComponentCacheHits, Parallel->ComponentCacheHits);
      EXPECT_EQ(Serial->ComponentCacheMisses,
                Parallel->ComponentCacheMisses);
      EXPECT_EQ(Serial->DirtyComponents, Parallel->DirtyComponents);
      EXPECT_EQ(Serial->CleanComponentsReused,
                Parallel->CleanComponentsReused);
      EXPECT_EQ(Serial->ComponentsSimulated, Parallel->ComponentsSimulated);
      EXPECT_EQ(Serial->SimulationsRun, Parallel->SimulationsRun);
    }
    PerMask.push_back(std::move(*Serial));
  }
  for (int Mask = 1; Mask < 8; ++Mask) {
    expectSameObservable(PerMask[0], PerMask[static_cast<size_t>(Mask)]);
    // The layers rearrange *how* verdicts are obtained, never which
    // candidates decompose or what the whole-config cache sees.
    EXPECT_EQ(PerMask[0].CacheHits, PerMask[static_cast<size_t>(Mask)].CacheHits);
    EXPECT_EQ(PerMask[0].CacheMisses,
              PerMask[static_cast<size_t>(Mask)].CacheMisses);
    EXPECT_EQ(PerMask[0].DecomposedCandidates,
              PerMask[static_cast<size_t>(Mask)].DecomposedCandidates);
    EXPECT_EQ(PerMask[0].SimulationsRun,
              PerMask[static_cast<size_t>(Mask)].SimulationsRun);
    EXPECT_EQ(PerMask[0].StopReasonCounts,
              PerMask[static_cast<size_t>(Mask)].StopReasonCounts);
  }
  // Instance reuse alone never changes a single byte: compare each mask
  // with its reuse-flipped twin, full Log included.
  for (int Mask = 0; Mask < 4; ++Mask) {
    expectSameResult(PerMask[static_cast<size_t>(Mask)],
                     PerMask[static_cast<size_t>(Mask | 4)]);
    EXPECT_EQ(PerMask[static_cast<size_t>(Mask)].ComponentsSimulated,
              PerMask[static_cast<size_t>(Mask | 4)].ComponentsSimulated);
  }
}

TEST(Search, ComponentCacheAndDirtyTrackingEngage) {
  // On a decoupled workload with the default flags the component cache
  // must produce cross-round hits (the adaptive state mutates a few
  // components per step, the rest repeat), dirty tracking must reuse
  // clean components, and the statistics must be coherent.
  SearchProblem Problem;
  Problem.Base = decoupledProblem(0.8, 27);
  Problem.Seed = 37;
  Problem.MaxIterations = 16;
  auto Res = searchConfiguration(Problem);
  ASSERT_TRUE(Res.ok()) << Res.error().message();
  ASSERT_GT(Res->DecomposedCandidates, 0);
  EXPECT_GT(Res->ComponentCacheHits, 0);
  EXPECT_GT(Res->ComponentCacheMisses, 0);
  EXPECT_GE(Res->ComponentCacheMisses, Res->ComponentsSimulated);
  EXPECT_GT(Res->DirtyComponents, 0);
  EXPECT_GT(Res->CleanComponentsReused, 0);
  // With both layers on, every decomposed candidate plans incrementally
  // and every planned component meets the cache exactly once.
  EXPECT_EQ(Res->ComponentCacheHits + Res->ComponentCacheMisses,
            Res->DirtyComponents + Res->CleanComponentsReused);
  if (!Res->Found) {
    bool CacheLine = false, IncLine = false;
    for (const std::string &Line : Res->Log) {
      if (Line.rfind("round ", 0) != 0)
        continue;
      if (Line.find("component cache") != std::string::npos)
        CacheLine = true;
      if (Line.find("incremental") != std::string::npos)
        IncLine = true;
    }
    EXPECT_TRUE(CacheLine) << "no component-cache statistics in the log";
    EXPECT_TRUE(IncLine) << "no incremental statistics in the log";
  }
}

int main(int argc, char **argv) {
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
