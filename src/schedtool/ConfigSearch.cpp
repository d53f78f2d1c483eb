//===- schedtool/ConfigSearch.cpp - Model-in-the-loop config search ---------===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//

#include "schedtool/ConfigSearch.h"

#include "analysis/Analyzer.h"
#include "analysis/ModelArena.h"
#include "config/Decompose.h"
#include "config/Fingerprint.h"
#include "obs/Metrics.h"
#include "obs/Span.h"
#include "obs/Timer.h"
#include "schedtool/Snapshot.h"
#include "schedtool/Strategy.h"
#include "schedtool/VerdictCache.h"
#include "support/Rng.h"
#include "support/StringUtils.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <mutex>
#include <unordered_map>

using namespace swa;
using namespace swa::schedtool;

bool swa::schedtool::bindFirstFitDecreasing(cfg::Config &Config) {
  // Order partitions by demand (utilization with type-0 WCETs).
  std::vector<std::pair<double, int>> Order;
  for (size_t P = 0; P < Config.Partitions.size(); ++P) {
    double U = 0;
    for (const cfg::Task &T : Config.Partitions[P].Tasks)
      U += static_cast<double>(T.Wcet[0]) /
           static_cast<double>(T.Period);
    Order.push_back({U, static_cast<int>(P)});
  }
  std::sort(Order.begin(), Order.end(),
            [](const auto &A, const auto &B) { return A.first > B.first; });

  std::vector<double> CoreLoad(Config.Cores.size(), 0.0);
  for (auto &[U, P] : Order) {
    int Best = -1;
    for (size_t C = 0; C < Config.Cores.size(); ++C) {
      int Type = Config.Cores[C].CoreType;
      double UC = 0;
      for (const cfg::Task &T :
           Config.Partitions[static_cast<size_t>(P)].Tasks)
        UC += static_cast<double>(T.Wcet[static_cast<size_t>(Type)]) /
              static_cast<double>(T.Period);
      if (CoreLoad[C] + UC <= 1.0 &&
          (Best < 0 || CoreLoad[C] < CoreLoad[static_cast<size_t>(Best)]))
        Best = static_cast<int>(C);
    }
    if (Best < 0)
      return false;
    Config.Partitions[static_cast<size_t>(P)].Core = Best;
    int Type = Config.Cores[static_cast<size_t>(Best)].CoreType;
    for (const cfg::Task &T :
         Config.Partitions[static_cast<size_t>(P)].Tasks)
      CoreLoad[static_cast<size_t>(Best)] +=
          static_cast<double>(T.Wcet[static_cast<size_t>(Type)]) /
          static_cast<double>(T.Period);
  }
  return true;
}

void swa::schedtool::synthesizeWindows(cfg::Config &Config,
                                       const std::vector<double> &Boost) {
  cfg::TimeValue L = Config.hyperperiod();
  for (cfg::Partition &P : Config.Partitions)
    P.Windows.clear();

  for (size_t C = 0; C < Config.Cores.size(); ++C) {
    std::vector<int> Parts;
    cfg::TimeValue Minor = L;
    for (size_t P = 0; P < Config.Partitions.size(); ++P) {
      if (Config.Partitions[P].Core != static_cast<int>(C))
        continue;
      Parts.push_back(static_cast<int>(P));
      for (const cfg::Task &T : Config.Partitions[P].Tasks)
        Minor = std::min(Minor, T.Period);
    }
    if (Parts.empty())
      continue;

    std::vector<double> Raw;
    double RawSum = 0;
    for (int P : Parts) {
      double B = static_cast<size_t>(P) < Boost.size()
                     ? Boost[static_cast<size_t>(P)]
                     : 1.5;
      double Slice = std::max(
          1.0, Config.partitionUtilization(P) *
                   static_cast<double>(Minor) * B);
      Raw.push_back(Slice);
      RawSum += Slice;
    }
    double Scale = RawSum > static_cast<double>(Minor)
                       ? static_cast<double>(Minor) / RawSum
                       : 1.0;

    cfg::TimeValue Cursor = 0;
    for (size_t I = 0; I < Parts.size(); ++I) {
      cfg::TimeValue Len = std::max<cfg::TimeValue>(
          1, static_cast<cfg::TimeValue>(Raw[I] * Scale));
      if (Cursor + Len > Minor)
        Len = Minor - Cursor;
      if (Len <= 0)
        break;
      for (cfg::TimeValue Off = 0; Off < L; Off += Minor)
        Config.Partitions[static_cast<size_t>(Parts[I])]
            .Windows.push_back({Off + Cursor, Off + Cursor + Len});
      Cursor += Len;
    }
  }
}

namespace {

/// One candidate of a round: a concrete binding + window layout plus the
/// boost vector that produced it.
struct Candidate {
  cfg::Config Config;
  std::vector<double> Boost;
  bool Valid = false;
  std::string InvalidReason;
};

/// Evaluation slot; written by exactly one worker (or filled serially
/// from the cache / an intra-batch duplicate), read only after the whole
/// batch finished.
struct Eval {
  bool Ok = false;
  std::string ErrMsg;
  analysis::VerdictOutcome V;
};

/// One unit of parallel work: a candidate evaluated monolithically
/// (Comp == kMonolithic), one decomposed component of it (Comp >= 0), a
/// whole decomposed candidate whose components run sequentially inside
/// the item under a shrinking first-miss horizon cap (Comp ==
/// kCappedChain, used when early exit and decomposition combine without
/// the component cache), or one deduplicated component shared by every
/// candidate in the batch that needs it (Comp == kUniqueComp, Unique
/// indexes the round's unique-sim list). The flattened item list keeps
/// ThreadPool::parallelFor non-reentrant while work of different
/// candidates still overlaps.
struct WorkItem {
  static constexpr int kMonolithic = -1;
  static constexpr int kCappedChain = -2;
  static constexpr int kUniqueComp = -3;
  int Cand = -1;
  int Comp = kMonolithic;
  int Unique = -1;
};

/// How the component cache resolved one component of a candidate.
struct PlannedComp {
  /// Cache hit: the verdict replays from this entry (stable address —
  /// see VerdictCache.h on entry immutability).
  const VerdictCache::ComponentEntry *Hit = nullptr;
  /// Cache miss: index into the round's unique-sim list.
  int Unique = -1;
};

/// A candidate's evaluation plan: its decomposition (monolithic item
/// when D.Decomposed is false) and, with the component cache, how each
/// component resolved against it (Comps[K] for D.Components[K]).
struct CandPlan {
  cfg::Decomposition D;
  std::vector<PlannedComp> Comps;
};

/// One deduplicated component simulation of a round: the first candidate
/// needing the fingerprint contributes the sub-config pointer; every
/// later one shares the verdict.
struct UniqueSim {
  const cfg::Config *Sub = nullptr;
  cfg::Fingerprint Canon, Raw;
  int FirstCand = -1;
  int ItemSlot = -1;
};

/// A pool of model arenas for instance reuse. ThreadPool::parallelFor
/// exposes no worker identity, so items lease an arena per evaluation;
/// with W workers at most W arenas ever exist and the steady state is
/// one per worker. Verdicts are arena-independent (ModelArena.h), so
/// which item draws which arena — a timing fact — cannot influence any
/// result.
class ArenaPool {
public:
  std::unique_ptr<analysis::ModelArena> acquire() {
    std::lock_guard<std::mutex> Lock(M);
    if (Free.empty()) {
      // Every arena of the pool shares one compiled-bytecode cache:
      // compilation is shape-keyed and its output immutable, so one
      // worker's compile pays for every worker's rebuild of that shape
      // (core::BytecodeCache — wall-clock only, never verdicts).
      auto A = std::make_unique<analysis::ModelArena>();
      A->setSharedBytecode(&Bytecode);
      return A;
    }
    std::unique_ptr<analysis::ModelArena> A = std::move(Free.back());
    Free.pop_back();
    return A;
  }
  void release(std::unique_ptr<analysis::ModelArena> A) {
    std::lock_guard<std::mutex> Lock(M);
    Free.push_back(std::move(A));
  }

private:
  std::mutex M;
  std::vector<std::unique_ptr<analysis::ModelArena>> Free;
  core::BytecodeCache Bytecode;
};

/// RAII lease of one arena for one work item (no-op on a null pool).
class ArenaLease {
public:
  explicit ArenaLease(ArenaPool *Pool) : Pool(Pool) {
    if (Pool)
      A = Pool->acquire();
  }
  ~ArenaLease() {
    if (Pool && A)
      Pool->release(std::move(A));
  }
  ArenaLease(const ArenaLease &) = delete;
  ArenaLease &operator=(const ArenaLease &) = delete;
  analysis::ModelArena *get() const { return A.get(); }

private:
  ArenaPool *Pool;
  std::unique_ptr<analysis::ModelArena> A;
};

/// Deterministic evaluation order for a capped chain: most-starved
/// component first (largest demand-to-window-share ratio over its
/// partitions), so the earliest deadline miss is usually discovered
/// before the comfortably-provisioned components run — their horizons
/// then collapse to that miss instant. A pure function of the
/// decomposition: worker count and batch order cannot change it, and any
/// order yields the same merged verdict (the heuristic only moves cost).
std::vector<size_t> chainOrder(const std::vector<cfg::Component> &Comps) {
  std::vector<double> Score(Comps.size(), 0.0);
  for (size_t K = 0; K < Comps.size(); ++K) {
    const cfg::Config &Sub = Comps[K].Sub;
    for (size_t P = 0; P < Sub.Partitions.size(); ++P) {
      double Demand = Sub.partitionUtilization(static_cast<int>(P));
      double Supply = Sub.windowShare(static_cast<int>(P));
      double S = Supply > 0.0 ? Demand / Supply
                              : (Demand > 0.0 ? 1e18 : 0.0);
      Score[K] = std::max(Score[K], S);
    }
  }
  std::vector<size_t> Order(Comps.size());
  for (size_t K = 0; K < Order.size(); ++K)
    Order[K] = K;
  std::stable_sort(Order.begin(), Order.end(), [&](size_t A, size_t B) {
    return Score[A] > Score[B];
  });
  return Order;
}

/// Per-candidate perturbation seed: a pure function of (Seed, Round, J),
/// never of the thread that evaluates the candidate.
uint64_t candidateSeed(uint64_t Seed, int Round, int J) {
  uint64_t X = static_cast<uint64_t>(Round) * 0x100000001b3ULL +
               static_cast<uint64_t>(J) + 1;
  return Seed ^ (X * 0x9e3779b97f4a7c15ULL);
}

} // namespace

Result<SearchResult>
swa::schedtool::searchConfiguration(const SearchProblem &Problem) {
  obs::ScopedTimer Timer("schedtool.search");
  SearchResult Res;
  Rng R(Problem.Seed);

  // The metaheuristic: explicit (Problem.Strat) or the built-in local
  // search, which reproduces the historical loop draw for draw.
  std::unique_ptr<Strategy> DefaultStrat;
  Strategy *Strat = Problem.Strat;
  if (!Strat) {
    DefaultStrat = makeStrategy("local");
    Strat = DefaultStrat.get();
  }

  // Counters live in the registry (stable addresses within this thread's
  // shard), cached here so the loop pays one pointer test per event when
  // metrics are off. Only the calling thread touches these; workers
  // publish engine-level counters into their own shards, and the merged
  // totals are identical for every Workers value because the work-item
  // set and each item's publications are fixed by (Seed, BatchSize).
  obs::Counter *CandC = nullptr, *SimC = nullptr, *SchedC = nullptr;
  obs::Counter *HitC = nullptr, *MissC = nullptr, *FoldC = nullptr;
  obs::Counter *DecompC = nullptr, *CompC = nullptr;
  obs::Counter *CompHitC = nullptr, *CompMissC = nullptr;
  obs::Counter *SnapHitC = nullptr, *CkptC = nullptr;
  if (obs::enabled()) {
    obs::Registry &Reg = obs::Registry::global();
    CandC = &Reg.counter("schedtool.candidates.evaluated");
    SimC = &Reg.counter("schedtool.simulations.run");
    SchedC = &Reg.counter("schedtool.schedulable.seen");
    HitC = &Reg.counter("schedtool.cache.hits");
    MissC = &Reg.counter("schedtool.cache.misses");
    FoldC = &Reg.counter("schedtool.cache.folds");
    DecompC = &Reg.counter("schedtool.decomposed.candidates");
    CompC = &Reg.counter("schedtool.components.simulated");
    CompHitC = &Reg.counter("schedtool.component_cache.hits");
    CompMissC = &Reg.counter("schedtool.component_cache.misses");
    // Warm-from-disk hits vs same-run memoization, and checkpoints
    // actually written — durable-search traffic, outside SearchResult.
    SnapHitC = &Reg.counter("verdict_cache.snapshot_hits");
    CkptC = &Reg.counter("schedtool.checkpoints.written");
  }

  cfg::Config Current = Problem.Base;
  if (!bindFirstFitDecreasing(Current)) {
    Res.Log.push_back("initial binding failed: insufficient capacity");
    return Res;
  }
  std::vector<double> Boost(Current.Partitions.size(), 1.5);

  const int Batch = std::max(1, Problem.BatchSize);
  ThreadPool Pool(std::max(1, Problem.Workers));

  std::vector<Candidate> Cands;
  std::vector<Eval> Evals;

  // Candidate badness is L - FirstMissTime + 1 (0 when schedulable): a
  // metric both a full run and a first-miss early exit compute exactly,
  // so flipping UseEarlyExit cannot change the SearchResult. L depends
  // only on the task periods, which no search move touches.
  const int64_t L = Current.hyperperiod();
  auto BadnessOf = [L](const analysis::VerdictOutcome &V) -> int64_t {
    if (V.Schedulable)
      return 0;
    return V.FirstMissTime >= 0 ? L - V.FirstMissTime + 1 : L + 2;
  };

  VerdictCache Cache;
  // Per-round scratch for the cache / decomposition pipeline.
  std::vector<cfg::Fingerprint> Canon, Raw;
  std::vector<int> DupOf;
  // Verdict provenance per candidate, for the "candidate" span: 0 =
  // simulated, 1 = cache hit, 2 = symmetry fold, 3 = intra-batch dup.
  std::vector<int> Src;
  std::vector<int> SimList;
  std::vector<CandPlan> Plans;
  std::vector<UniqueSim> UniqueSims;
  std::unordered_map<cfg::Fingerprint, int, cfg::FingerprintHash> UniqueOf;
  std::vector<WorkItem> Items;
  std::vector<Eval> ItemEvals;

  const bool CompCache = Problem.UseDecomposition && Problem.UseComponentCache;
  ArenaPool Arenas;

  // Guard rails handed to every candidate simulation. When neither is set
  // the options are all-default and the evaluation path is bit-for-bit
  // the pre-guard-rail one.
  nsa::SimOptions CandOpts;
  CandOpts.WallClockBudgetMs = Problem.CandidateBudgetMs;
  CandOpts.Cancel = Problem.Cancel;

  // --- Durable search: resume + checkpoint plumbing --------------------
  // The identity CRC guards both directions: a snapshot resumes only the
  // (Seed, BatchSize, Base) search that wrote it.
  const bool Checkpointing = !Problem.CheckpointPath.empty();
  const uint32_t BaseCrc =
      (Checkpointing || (Problem.Resume && Problem.Resume->HasSearchState))
          ? snapshotBaseCrc(Problem.Base)
          : 0;

  Res.BestBadness = -1;
  int Iter = 0;
  int Round = 0;
  if (Problem.Resume) {
    const Snapshot &S = *Problem.Resume;
    if (S.HasSearchState) {
      if (S.Seed != Problem.Seed || S.BatchSize != Batch ||
          S.BaseCrc != BaseCrc)
        return Error::failure(
            ErrorCode::SnapshotMismatch,
            formatString("snapshot belongs to a different search: snapshot "
                         "(seed=%llu batch=%d base=%08x) vs problem "
                         "(seed=%llu batch=%d base=%08x)",
                         static_cast<unsigned long long>(S.Seed), S.BatchSize,
                         S.BaseCrc,
                         static_cast<unsigned long long>(Problem.Seed), Batch,
                         BaseCrc));
      // Restore the full loop state: incumbent, boosts, the RNG
      // mid-stream, the partial result, and the loop position. The
      // remaining rounds then recompute exactly what the uninterrupted
      // run computed — the headline byte-identity contract.
      Current = S.Current;
      Boost = S.Boost;
      R.restoreState(S.RngState);
      Res = S.Res;
      Iter = S.Iter;
      Round = S.NextRound;
      // The strategy resumes mid-stream too: a snapshot written under a
      // different metaheuristic must not silently continue as this one
      // (the candidate stream would diverge from both runs). Pre-PR-10
      // snapshots carry no name; they were always the local strategy.
      std::string SnapStrat =
          S.StrategyName.empty() ? "local" : S.StrategyName;
      if (SnapStrat != Strat->name())
        return Error::failure(
            ErrorCode::SnapshotMismatch,
            formatString("snapshot strategy '%s' does not match this "
                         "search's strategy '%s'",
                         SnapStrat.c_str(), Strat->name()));
      if (!Strat->loadState(S.StrategyState.data(), S.StrategyState.size()))
        return Error::failure(ErrorCode::SnapshotCorrupt,
                              "malformed strategy state in snapshot");
    }
    auto [NCfg, NComp] = S.seedCache(Cache);
    if (Problem.CkptStats) {
      Problem.CkptStats->ConfigEntriesMerged += NCfg;
      Problem.CkptStats->ComponentEntriesMerged += NComp;
    }
    // A snapshot of a *finished* search restores a final result; nothing
    // is left to run, and replaying the finding round would double-count
    // its candidates into the restored counters.
    if (S.HasSearchState && Res.Found)
      return Res;
  }

  // One checkpoint = cache contents + loop state at a round boundary,
  // written atomically (old-or-new, never torn). A write failure is
  // recorded and swallowed: a full disk or read-only filesystem must not
  // change what the search computes — durability is best-effort, results
  // are not. Nothing here touches Res: checkpoint cadence is wall-clock
  // dependent, and SearchResult stays byte-identical with checkpointing
  // on, off, or failing.
  auto WriteCheckpoint = [&](int NextRound) {
    obs::Span CkptSpan("checkpoint", "search");
    CkptSpan.arg("iter", Iter);
    Snapshot S;
    S.captureCache(Cache);
    S.HasSearchState = true;
    S.Seed = Problem.Seed;
    S.BatchSize = Batch;
    S.BaseCrc = BaseCrc;
    S.NextRound = NextRound;
    S.Iter = Iter;
    S.RngState = R.saveState();
    S.Current = Current;
    S.Boost = Boost;
    S.Res = Res;
    S.StrategyName = Strat->name();
    Strat->saveState(S.StrategyState);
    if (Error E =
            saveSnapshot(S, Problem.CheckpointPath, Problem.CkptStats)) {
      if (Problem.CkptStats) {
        ++Problem.CkptStats->WriteFailures;
        Problem.CkptStats->LastError = E.message();
      }
      return;
    }
    if (CkptC)
      CkptC->add(1);
  };
  auto LastCkpt = std::chrono::steady_clock::now();

  for (; Iter < Problem.MaxIterations; ++Round) {
    if (Problem.Cancel && Problem.Cancel->isCancelled()) {
      Res.Cancelled = true;
      Res.Log.push_back(
          formatString("search cancelled before iter %d", Iter));
      break;
    }
    // Periodic checkpoint at the round boundary (the top of the loop is
    // one for round == NextRound), throttled by CheckpointEveryMs; 0
    // checkpoints every round.
    if (Checkpointing) {
      auto Now = std::chrono::steady_clock::now();
      if (Problem.CheckpointEveryMs <= 0 ||
          std::chrono::duration_cast<std::chrono::milliseconds>(Now - LastCkpt)
                  .count() >= Problem.CheckpointEveryMs) {
        WriteCheckpoint(Round);
        LastCkpt = Now;
      }
    }
    int N = std::min(Batch, Problem.MaxIterations - Iter);
    obs::Span RoundSpan("batch", "search");
    RoundSpan.arg("round", Round);
    RoundSpan.arg("n", N);

    // Candidate 0 is the current adaptive state; candidates 1..N-1 are
    // seeded perturbations of it, delegated to the strategy. Generation
    // is serial and depends only on (Seed, Round, J) and the strategy's
    // deterministic state.
    Cands.assign(static_cast<size_t>(N), Candidate());
    Evals.assign(static_cast<size_t>(N), Eval());
    for (int J = 0; J < N; ++J) {
      Candidate &C = Cands[static_cast<size_t>(J)];
      C.Config = Current;
      C.Boost = Boost;
      if (J > 0) {
        Rng PJ(candidateSeed(Problem.Seed, Round, J));
        Strat->perturb(PJ, Problem, C.Config, C.Boost);
      }
      synthesizeWindows(C.Config, C.Boost);
      if (Error E = C.Config.validate())
        C.InvalidReason = E.message();
      else
        C.Valid = true;
    }

    // Cache consultation — strictly serial and against the pre-batch
    // cache state, so the hit pattern is a pure function of the candidate
    // sequence (independent of Workers/BatchSize timing). Intra-batch
    // fingerprint collisions are marked as duplicates and resolved after
    // the batch from the first occurrence's verdict.
    const int RoundHits0 = Res.CacheHits, RoundMisses0 = Res.CacheMisses;
    const int RoundFolds0 = Res.SymmetryFolds;
    const int RoundDups0 = Res.DuplicateCandidates;
    const int RoundDecomp0 = Res.DecomposedCandidates;
    const int RoundComps0 = Res.ComponentsSimulated;
    const int RoundSims0 = Res.SimulationsRun;
    const int RoundCompHits0 = Res.ComponentCacheHits;
    const int RoundCompMisses0 = Res.ComponentCacheMisses;

    // Per-round acceleration statistics: round-summary log lines plus
    // the matching obs counter deltas. One flush per round, invoked both
    // at the normal round end and on the found-and-returning path — the
    // finding round's deltas used to be dropped on the latter, leaving
    // the schedtool.* counters short of the SearchResult stats the
    // report prints (the BENCH_PR9 stats-vs-counters skew). Only emitted
    // when the matching layer is on, so a layers-off log is exactly the
    // per-iteration lines — and the values themselves are serial-path
    // facts, identical for every Workers/BatchSize.
    auto FlushRoundStats = [&]() {
      if (Problem.UseVerdictCache) {
        Res.Log.push_back(formatString(
            "round %d: cache %d hits / %d misses / %d folds / %d dups "
            "(%d entries)",
            Round, Res.CacheHits - RoundHits0, Res.CacheMisses - RoundMisses0,
            Res.SymmetryFolds - RoundFolds0,
            Res.DuplicateCandidates - RoundDups0,
            static_cast<int>(Cache.size())));
        if (HitC) {
          HitC->add(static_cast<uint64_t>(Res.CacheHits - RoundHits0));
          MissC->add(static_cast<uint64_t>(Res.CacheMisses - RoundMisses0));
          FoldC->add(static_cast<uint64_t>(Res.SymmetryFolds - RoundFolds0));
        }
      }
      if (Problem.UseDecomposition) {
        Res.Log.push_back(formatString(
            "round %d: decomposed %d/%d simulated candidates into %d "
            "components",
            Round, Res.DecomposedCandidates - RoundDecomp0,
            static_cast<int>(SimList.size()),
            Res.ComponentsSimulated - RoundComps0));
        if (DecompC) {
          DecompC->add(
              static_cast<uint64_t>(Res.DecomposedCandidates - RoundDecomp0));
          CompC->add(
              static_cast<uint64_t>(Res.ComponentsSimulated - RoundComps0));
        }
      }
      if (CompCache) {
        Res.Log.push_back(formatString(
            "round %d: component cache %d hits / %d misses / %d simulated "
            "(%d entries)",
            Round, Res.ComponentCacheHits - RoundCompHits0,
            Res.ComponentCacheMisses - RoundCompMisses0,
            Res.ComponentsSimulated - RoundComps0,
            static_cast<int>(Cache.componentSize())));
        if (CompHitC) {
          CompHitC->add(
              static_cast<uint64_t>(Res.ComponentCacheHits - RoundCompHits0));
          CompMissC->add(static_cast<uint64_t>(Res.ComponentCacheMisses -
                                               RoundCompMisses0));
        }
      }
      if (SimC)
        SimC->add(
            static_cast<uint64_t>(Res.SimulationsRun - RoundSims0) +
            static_cast<uint64_t>(Res.ComponentsSimulated - RoundComps0));
    };
    SimList.clear();
    DupOf.assign(static_cast<size_t>(N), -1);
    Src.assign(static_cast<size_t>(N), 0);
    if (Problem.UseVerdictCache) {
      Canon.assign(static_cast<size_t>(N), {});
      Raw.assign(static_cast<size_t>(N), {});
      for (int J = 0; J < N; ++J) {
        Candidate &C = Cands[static_cast<size_t>(J)];
        if (!C.Valid)
          continue;
        Canon[static_cast<size_t>(J)] = cfg::fingerprintConfig(C.Config);
        Raw[static_cast<size_t>(J)] =
            cfg::fingerprintConfig(C.Config, /*CanonicalizeCores=*/false);
        int Dup = -1;
        for (int I = 0; I < J; ++I)
          if (Cands[static_cast<size_t>(I)].Valid &&
              Canon[static_cast<size_t>(I)] == Canon[static_cast<size_t>(J)]) {
            Dup = I;
            break;
          }
        if (Dup >= 0) {
          DupOf[static_cast<size_t>(J)] = Dup;
          Src[static_cast<size_t>(J)] = 3;
          ++Res.DuplicateCandidates;
          continue;
        }
        if (const VerdictCache::Entry *E =
                Cache.lookup(Canon[static_cast<size_t>(J)])) {
          Eval &EV = Evals[static_cast<size_t>(J)];
          EV.Ok = true;
          EV.V = E->Verdict;
          if (E->FromSnapshot) {
            // Warm-from-disk hit: counted outside SearchResult (the
            // provenance depends on resume, which the result must not).
            if (Problem.CkptStats)
              ++Problem.CkptStats->SnapshotHits;
            if (SnapHitC)
              SnapHitC->add(1);
          }
          ++Res.CacheHits;
          Src[static_cast<size_t>(J)] = 1;
          if (E->Raw != Raw[static_cast<size_t>(J)]) {
            ++Res.SymmetryFolds;
            Src[static_cast<size_t>(J)] = 2;
          }
        } else {
          ++Res.CacheMisses;
          SimList.push_back(J);
        }
      }
    } else {
      for (int J = 0; J < N; ++J)
        if (Cands[static_cast<size_t>(J)].Valid)
          SimList.push_back(J);
    }

    // Component planning — also serial: each to-be-simulated candidate
    // is decomposed (cfg::decomposeConfig) before any thread runs. With
    // the component cache the components are then resolved against the
    // cache and misses deduplicated into one unique-sim list for the
    // round, in order of first need, so the fill order — like the hit
    // pattern — is a pure function of the candidate sequence. Finally one
    // flattened item list (monolithic candidates, individual components,
    // capped chains and unique sims side by side) is dispatched in a
    // single parallelFor, so the pool is never re-entered and small
    // components of different candidates overlap freely.
    Plans.assign(static_cast<size_t>(N), CandPlan());
    UniqueSims.clear();
    UniqueOf.clear();
    Items.clear();

    for (int J : SimList) {
      CandPlan &Plan = Plans[static_cast<size_t>(J)];
      if (Problem.UseDecomposition)
        Plan.D = cfg::decomposeConfig(Cands[static_cast<size_t>(J)].Config);
      if (!Plan.D.Decomposed) {
        ++Res.SimulationsRun;
        Items.push_back({J, WorkItem::kMonolithic, -1});
        continue;
      }
      ++Res.DecomposedCandidates;
      const std::vector<cfg::Component> &Comps = Plan.D.Components;
      if (CompCache) {
        // Resolve each component against the cache. Misses join the
        // round's unique-sim list (first occurrence wins the slot); the
        // candidate contributes no work item of its own — its verdict is
        // stitched from hits and shared sims after the batch.
        Plan.Comps.assign(Comps.size(), PlannedComp());
        for (size_t K = 0; K < Comps.size(); ++K) {
          PlannedComp &PC = Plan.Comps[K];
          cfg::Fingerprint CanonK = cfg::fingerprintComponent(Comps[K].Sub, L);
          cfg::Fingerprint RawK = cfg::fingerprintComponent(
              Comps[K].Sub, L, /*CanonicalizeCores=*/false);
          if (const VerdictCache::ComponentEntry *CE =
                  Cache.lookupComponent(CanonK)) {
            PC.Hit = CE;
            if (CE->FromSnapshot) {
              if (Problem.CkptStats)
                ++Problem.CkptStats->SnapshotHits;
              if (SnapHitC)
                SnapHitC->add(1);
            }
            ++Res.ComponentCacheHits;
            continue;
          }
          ++Res.ComponentCacheMisses;
          auto Ins =
              UniqueOf.emplace(CanonK, static_cast<int>(UniqueSims.size()));
          if (Ins.second) {
            UniqueSims.push_back({&Comps[K].Sub, CanonK, RawK, J, -1});
            ++Res.ComponentsSimulated;
          }
          PC.Unique = Ins.first->second;
        }
        continue;
      }
      Res.ComponentsSimulated += static_cast<int>(Comps.size());
      // With early exit on, the candidate's components run sequentially
      // in one item so each later component inherits the earliest miss
      // found so far as its horizon cap — a passing component then costs
      // min(first miss, L) instead of L, exactly what the monolithic
      // early-exit run pays.
      if (Problem.UseEarlyExit) {
        Items.push_back({J, WorkItem::kCappedChain, -1});
      } else {
        for (size_t K = 0; K < Comps.size(); ++K)
          Items.push_back({J, static_cast<int>(K), -1});
      }
    }
    // Unique sims run full-horizon with the early exit the flags allow:
    // the verdict's invariant fields are cap-free, so the entry is valid
    // for any future candidate regardless of what its siblings miss.
    for (size_t U = 0; U < UniqueSims.size(); ++U) {
      UniqueSims[U].ItemSlot = static_cast<int>(Items.size());
      Items.push_back({UniqueSims[U].FirstCand, WorkItem::kUniqueComp,
                       static_cast<int>(U)});
    }

    // Evaluate the batch. Each worker builds its own model and simulator
    // (no shared mutable state) and publishes counters, phase timings and
    // spans into its own thread shard, so attaching more workers cannot
    // race on the registry — and the merged totals stay identical because
    // every item publishes the same numbers on whichever thread runs it.
    ItemEvals.assign(Items.size(), Eval());
    auto RunItem = [&](int I) {
      const WorkItem &It = Items[static_cast<size_t>(I)];
      obs::Span ItemSpan(It.Comp == WorkItem::kMonolithic
                             ? "simulate.monolithic"
                             : (It.Comp == WorkItem::kCappedChain
                                    ? "simulate.chain"
                                    : "simulate.component"),
                         "search");
      ItemSpan.arg("cand", It.Cand);
      if (It.Comp >= 0)
        ItemSpan.arg("comp", It.Comp);
      if (It.Unique >= 0)
        ItemSpan.arg("unique", It.Unique);
      // Each item leases a model arena for instance reuse and returns it
      // for whatever item runs next. Verdicts are arena-independent, so
      // the lease pattern — a timing fact — only moves wall-clock.
      ArenaLease Lease(Problem.UseInstanceReuse ? &Arenas : nullptr);
      analysis::ModelArena *Arena = Lease.get();
      nsa::SimOptions Opt = CandOpts;
      Opt.StopOnFirstMiss = Problem.UseEarlyExit;
      Eval &E = ItemEvals[static_cast<size_t>(I)];
      if (It.Unique >= 0) {
        // One deduplicated component at the full global horizon: the
        // verdict must be cap-free so the component cache can serve it
        // to any candidate.
        Opt.Horizon = L;
        Result<analysis::VerdictOutcome> Out = analysis::analyzeVerdictOnly(
            *UniqueSims[static_cast<size_t>(It.Unique)].Sub, Opt, Arena);
        if (Out.ok()) {
          E.Ok = true;
          E.V = std::move(*Out);
        } else {
          E.ErrMsg = Out.error().message();
        }
        return;
      }
      if (It.Comp == WorkItem::kCappedChain) {
        // Early exit + decomposition: run the components in index order,
        // shrinking the horizon to the earliest miss seen so far. A miss
        // at exactly the horizon is still detected (the simulator treats
        // actions at the horizon as inside the window), so the merged
        // FirstMissTime/FirstMissTasks are identical to independent
        // full-horizon component runs — later misses that the cap hides
        // cannot win the min and are invisible to the merge.
        const std::vector<cfg::Component> &Comps =
            Plans[static_cast<size_t>(It.Cand)].D.Components;
        std::vector<analysis::ComponentVerdict> Parts;
        Parts.reserve(Comps.size());
        int64_t Cap = L;
        bool AllOk = true;
        for (size_t K : chainOrder(Comps)) {
          const cfg::Component &Comp = Comps[K];
          obs::Span CompSpan("simulate.component", "search");
          CompSpan.arg("cand", It.Cand);
          CompSpan.arg("comp", static_cast<int64_t>(K));
          nsa::SimOptions ChainOpt = Opt;
          ChainOpt.Horizon = Cap;
          Result<analysis::VerdictOutcome> Out =
              analysis::analyzeVerdictOnly(Comp.Sub, ChainOpt, Arena);
          if (!Out.ok()) {
            if (AllOk) // first failing component wins, deterministically
              E.ErrMsg = Out.error().message();
            AllOk = false;
            continue;
          }
          if (Out->FirstMissTime >= 0 && Out->FirstMissTime < Cap)
            Cap = Out->FirstMissTime;
          bool Decided = Out->decided();
          Parts.push_back({std::move(*Out), Comp.GidMap});
          // A guard-rail stop (budget, cancel) already makes the merged
          // verdict undecided with this component's StopReason — running
          // the rest of the chain would spend a fresh per-run budget per
          // remaining component (a K-component candidate could take K×
          // CandidateBudgetMs) and would keep simulating after a cancel.
          if (!Decided)
            break;
        }
        if (AllOk) {
          E.Ok = true;
          E.V = analysis::mergeComponentVerdicts(
              Parts,
              Cands[static_cast<size_t>(It.Cand)].Config.numTasks());
        }
        return;
      }
      const cfg::Config *Cfg;
      if (It.Comp >= 0) {
        Cfg = &Plans[static_cast<size_t>(It.Cand)]
                   .D.Components[static_cast<size_t>(It.Comp)]
                   .Sub;
        // Components carry their own (smaller) hyperperiod; simulate to
        // the global one so backlog beyond it is observed exactly as the
        // monolithic run observes it.
        Opt.Horizon = L;
      } else {
        Cfg = &Cands[static_cast<size_t>(It.Cand)].Config;
      }
      Result<analysis::VerdictOutcome> Out =
          analysis::analyzeVerdictOnly(*Cfg, Opt, Arena);
      if (Out.ok()) {
        E.Ok = true;
        E.V = std::move(*Out);
      } else {
        E.ErrMsg = Out.error().message();
      }
    };

    Pool.parallelFor(static_cast<int>(Items.size()), RunItem);

    // Fill the component cache from the round's unique sims, in order of
    // first need — like the whole-config fills, a serial-path fact.
    // Undecided verdicts (guard-rail stops) are rejected by insertComponent
    // itself; failed items simply leave no entry.
    if (CompCache)
      for (const UniqueSim &U : UniqueSims) {
        const Eval &UE = ItemEvals[static_cast<size_t>(U.ItemSlot)];
        if (UE.Ok)
          Cache.insertComponent(U.Canon, U.Raw, UE.V);
      }

    // Assemble per-candidate verdicts in candidate order: merge component
    // results, insert decided verdicts into the cache, then resolve
    // intra-batch duplicates from their first occurrence.
    {
      size_t ItemAt = 0;
      for (int J : SimList) {
        Eval &E = Evals[static_cast<size_t>(J)];
        const CandPlan &Plan = Plans[static_cast<size_t>(J)];
        const std::vector<cfg::Component> &Comps = Plan.D.Components;
        if (Plan.D.Decomposed && CompCache) {
          // Stitch the verdict from cache hits and shared unique sims —
          // the candidate had no work item of its own. Verdicts are
          // copied, never moved: a unique sim's result may serve several
          // candidates of the batch.
          std::vector<analysis::ComponentVerdict> Parts;
          Parts.reserve(Comps.size());
          bool AllOk = true;
          for (size_t K = 0; K < Comps.size(); ++K) {
            const PlannedComp &PC = Plan.Comps[K];
            if (PC.Hit) {
              Parts.push_back({PC.Hit->Verdict, Comps[K].GidMap});
              continue;
            }
            const Eval &IE = ItemEvals[static_cast<size_t>(
                UniqueSims[static_cast<size_t>(PC.Unique)].ItemSlot)];
            if (!IE.Ok) {
              if (AllOk) // first failing component wins, deterministically
                E.ErrMsg = IE.ErrMsg;
              AllOk = false;
              continue;
            }
            Parts.push_back({IE.V, Comps[K].GidMap});
          }
          if (AllOk) {
            E.Ok = true;
            E.V = analysis::mergeComponentVerdicts(
                Parts, Cands[static_cast<size_t>(J)].Config.numTasks());
          }
        } else if (Plan.D.Decomposed && Problem.UseEarlyExit) {
          // Capped-chain items merged their components inside the worker;
          // the single slot already holds the candidate verdict.
          E = std::move(ItemEvals[ItemAt]);
          ++ItemAt;
        } else if (Plan.D.Decomposed) {
          std::vector<analysis::ComponentVerdict> Parts;
          Parts.reserve(Comps.size());
          bool AllOk = true;
          for (size_t K = 0; K < Comps.size(); ++K, ++ItemAt) {
            Eval &IE = ItemEvals[ItemAt];
            if (!IE.Ok) {
              if (AllOk) // first failing component wins, deterministically
                E.ErrMsg = IE.ErrMsg;
              AllOk = false;
              continue;
            }
            Parts.push_back({std::move(IE.V), Comps[K].GidMap});
          }
          if (AllOk) {
            E.Ok = true;
            E.V = analysis::mergeComponentVerdicts(
                Parts, Cands[static_cast<size_t>(J)].Config.numTasks());
          }
        } else {
          E = std::move(ItemEvals[ItemAt]);
          ++ItemAt;
        }
        if (Problem.UseVerdictCache && E.Ok)
          Cache.insert(Canon[static_cast<size_t>(J)],
                       Raw[static_cast<size_t>(J)], E.V);
      }
    }
    for (int J = 0; J < N; ++J)
      if (DupOf[static_cast<size_t>(J)] >= 0)
        Evals[static_cast<size_t>(J)] =
            Evals[static_cast<size_t>(DupOf[static_cast<size_t>(J)])];

    // Reduce in candidate order: logs, counters, best-so-far and the
    // returned error (if any) are those of the lowest-index candidate,
    // independent of evaluation order. Every logged quantity (badness,
    // first-miss instant, first-miss task count) is invariant under the
    // three acceleration layers, so the per-iteration log is identical
    // for any flag combination.
    int RoundBest = -1;
    int64_t RoundBestBadness = -1;
    for (int J = 0; J < N; ++J) {
      int IterJ = Iter + J;
      const Candidate &C = Cands[static_cast<size_t>(J)];
      if (!C.Valid) {
        Res.Log.push_back(formatString("iter %d: invalid candidate (%s)",
                                       IterJ, C.InvalidReason.c_str()));
        continue;
      }
      Eval &E = Evals[static_cast<size_t>(J)];
      if (!E.Ok)
        return Error::failure(E.ErrMsg);
      // Per-candidate metadata span: fingerprint, verdict provenance
      // (src: 0 sim / 1 hit / 2 fold / 3 dup), stop reason, badness. The
      // span rides the serial reduce, so its args — like the counters —
      // are identical for any worker count.
      obs::Span CandSpan("candidate", "search");
      if (Problem.UseVerdictCache) {
        CandSpan.arg("fp_hi", static_cast<int64_t>(
                                  Canon[static_cast<size_t>(J)].Hi));
        CandSpan.arg("fp_lo", static_cast<int64_t>(
                                  Canon[static_cast<size_t>(J)].Lo));
      }
      CandSpan.arg("src", Src[static_cast<size_t>(J)]);
      CandSpan.arg("stop", static_cast<int64_t>(E.V.Stop));
      ++Res.StopReasonCounts[static_cast<size_t>(E.V.Stop)];
      if (!E.V.decided()) {
        // The guard rails (per-candidate budget / cancellation) ended the
        // run before a verdict existed: record the reason and move on —
        // a timed-out candidate never aborts the batch.
        ++Res.CandidatesSkipped;
        Res.Log.push_back(formatString(
            "iter %d: skipped (%s after %llu actions)", IterJ,
            nsa::stopReasonName(E.V.Stop),
            static_cast<unsigned long long>(E.V.ActionCount)));
        continue;
      }
      ++Res.ConfigurationsEvaluated;
      if (CandC)
        CandC->add(1);
      int64_t Badness = BadnessOf(E.V);
      CandSpan.arg("badness", Badness);
      if (E.V.Schedulable)
        Res.Log.push_back(formatString("iter %d: schedulable", IterJ));
      else
        Res.Log.push_back(formatString(
            "iter %d: unschedulable (badness %lld, first miss at t=%lld, "
            "%d tasks)",
            IterJ, static_cast<long long>(Badness),
            static_cast<long long>(E.V.FirstMissTime),
            static_cast<int>(E.V.FirstMissTasks.size())));

      if (E.V.Schedulable) {
        ++Res.SchedulableSeen;
        if (SchedC)
          SchedC->add(1);
        Res.Found = true;
        Res.Best = C.Config;
        Res.BestBadness = 0;
        Res.BestTrajectory.push_back({IterJ, 0});
        // The finding round's statistics flush like any other round's:
        // the schedtool.* counters stay equal to the SearchResult stats
        // even when the search returns mid-reduce.
        FlushRoundStats();
        // Terminal flush: persist the finished result (and every verdict
        // earned) so a later --resume returns it without re-running.
        if (Checkpointing)
          WriteCheckpoint(Round);
        return Res;
      }
      if (Res.BestBadness < 0 || Badness < Res.BestBadness) {
        Res.BestBadness = Badness;
        Res.Best = C.Config;
        Res.BestTrajectory.push_back({IterJ, Badness});
      }
      if (RoundBest < 0 || Badness < RoundBestBadness) {
        RoundBest = J;
        RoundBestBadness = Badness;
      }
    }
    Iter += N;
    FlushRoundStats();

    if (RoundBest < 0) {
      // Every candidate in the round was invalid; the strategy's escape
      // move (the default resamples all boosts).
      Strat->adaptAllInvalid(R, Problem, Boost);
      continue;
    }

    // Adapt from the round's best candidate — the strategy's move (the
    // default greedily adopts it, grows the windows of the partitions
    // whose tasks miss at the first-miss instant, and occasionally
    // rebinds the worst partition to the least-loaded core).
    schedtool::RoundBest RB;
    RB.Config = &Cands[static_cast<size_t>(RoundBest)].Config;
    RB.Boost = &Cands[static_cast<size_t>(RoundBest)].Boost;
    RB.Verdict = &Evals[static_cast<size_t>(RoundBest)].V;
    RB.Badness = RoundBestBadness;
    Strat->adapt(R, Problem, RB, Current, Boost);
  }
  // The round-top poll only sees a cancel that fired *between* rounds; one
  // that fired during the final round left its mark as skipped candidates
  // but never set the flag. Record it so callers can tell "search ended
  // because it was told to" from "search exhausted its iterations".
  if (!Res.Cancelled && Problem.Cancel && Problem.Cancel->isCancelled()) {
    Res.Cancelled = true;
    Res.Log.push_back("search cancelled during final round");
  }
  // Terminal flush, throttle-free: a cancelled or exhausted run always
  // leaves its latest state (including the cancel marks and StopReason
  // tallies above) on disk. Resuming a cancelled snapshot continues the
  // search from the cancel point; the cancel log line stays in the
  // result as a record of the interruption.
  if (Checkpointing)
    WriteCheckpoint(Round);
  return Res;
}

void swa::schedtool::fillSearchReport(obs::RunReport &Report,
                                      const SearchResult &Res,
                                      double ElapsedSec) {
  Report.addCount("found", Res.Found ? 1 : 0);
  Report.addCount("cancelled", Res.Cancelled ? 1 : 0);
  Report.addCount("candidates.evaluated",
                  static_cast<uint64_t>(Res.ConfigurationsEvaluated));
  Report.addCount("candidates.skipped",
                  static_cast<uint64_t>(Res.CandidatesSkipped));
  Report.addCount("schedulable.seen",
                  static_cast<uint64_t>(Res.SchedulableSeen));
  Report.addCount("cache.hits", static_cast<uint64_t>(Res.CacheHits));
  Report.addCount("cache.misses", static_cast<uint64_t>(Res.CacheMisses));
  Report.addCount("cache.folds", static_cast<uint64_t>(Res.SymmetryFolds));
  Report.addCount("cache.duplicates",
                  static_cast<uint64_t>(Res.DuplicateCandidates));
  int Lookups = Res.CacheHits + Res.CacheMisses;
  if (Lookups > 0)
    Report.addStat("cache.hit_rate",
                   static_cast<double>(Res.CacheHits) /
                       static_cast<double>(Lookups));
  Report.addCount("decomposed.candidates",
                  static_cast<uint64_t>(Res.DecomposedCandidates));
  Report.addCount("components.simulated",
                  static_cast<uint64_t>(Res.ComponentsSimulated));
  Report.addCount("component_cache.hits",
                  static_cast<uint64_t>(Res.ComponentCacheHits));
  Report.addCount("component_cache.misses",
                  static_cast<uint64_t>(Res.ComponentCacheMisses));
  int CompLookups = Res.ComponentCacheHits + Res.ComponentCacheMisses;
  if (CompLookups > 0)
    Report.addStat("component_cache.hit_rate",
                   static_cast<double>(Res.ComponentCacheHits) /
                       static_cast<double>(CompLookups));
  Report.addCount("simulations.run",
                  static_cast<uint64_t>(Res.SimulationsRun));
  Report.addStat("best.badness", static_cast<double>(Res.BestBadness));
  for (int R = 0; R < nsa::NumStopReasons; ++R)
    if (Res.StopReasonCounts[static_cast<size_t>(R)] > 0)
      Report.addCount(
          std::string("stop.") +
              nsa::stopReasonName(static_cast<nsa::StopReason>(R)),
          static_cast<uint64_t>(
              Res.StopReasonCounts[static_cast<size_t>(R)]));
  if (ElapsedSec > 0)
    Report.addStat("candidates_per_sec",
                   static_cast<double>(Res.ConfigurationsEvaluated) /
                       ElapsedSec);
}
