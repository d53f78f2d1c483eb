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

/// Evaluation slot; written by exactly one worker (or stitched serially
/// from cache hits and shared simulations), read only after the whole
/// batch finished.
struct Eval {
  bool Ok = false;
  std::string ErrMsg;
  analysis::VerdictOutcome V;
};

/// How one component of a candidate resolved: a cache hit (stable entry
/// address, see VerdictCache.h on entry immutability) or one of the
/// round's simulations.
struct PlannedComp {
  const VerdictCache::Entry *Hit = nullptr;
  int Sim = -1;
};

/// A candidate's evaluation plan: its decomposition (not Decomposed when
/// the whole config is its one component) and how each component
/// resolved (Comps[K] for component K).
struct CandPlan {
  cfg::Decomposition D;
  std::vector<PlannedComp> Comps;
};

/// One component simulation of a round — the search's only unit of
/// parallel work. With the cache on, a key is simulated once per round
/// and its verdict shared by every candidate that planned it; the first
/// candidate needing it contributes the sub-config pointer.
struct ComponentSim {
  const cfg::Config *Sub = nullptr;
  cfg::Fingerprint Canon, Raw;
  int FirstCand = -1;
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
  // totals are identical for every Workers value because the simulation
  // list and each simulation's publications are fixed by (Seed,
  // BatchSize).
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
  // Per-round scratch for the plan / evaluate pipeline. Src is the
  // verdict provenance per candidate, for the "candidate" span: 0 =
  // simulated, 1 = cache hit, 2 = symmetry fold, 3 = intra-batch dup.
  // Planned resolves every component key the round has planned.
  std::vector<int> Src;
  std::vector<CandPlan> Plans;
  std::unordered_map<cfg::Fingerprint, PlannedComp, cfg::FingerprintHash>
      Planned;
  std::vector<ComponentSim> Sims;
  std::vector<Eval> SimEvals;
  ArenaPool Arenas;

  // Every simulation runs to the global horizon with the early exit the
  // flags allow, under the guard rails (each Simulator::run gets its own
  // CandidateBudgetMs). A verdict's decision fields are then cap-free, so
  // a cached one is valid for any later candidate.
  nsa::SimOptions SimOpts;
  SimOpts.WallClockBudgetMs = Problem.CandidateBudgetMs;
  SimOpts.Cancel = Problem.Cancel;
  SimOpts.StopOnFirstMiss = Problem.UseEarlyExit;
  SimOpts.Horizon = L;

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
    uint64_t Merged = S.seedCache(Cache);
    if (Problem.CkptStats)
      Problem.CkptStats->EntriesMerged += Merged;
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

    const int RoundHits0 = Res.CacheHits, RoundMisses0 = Res.CacheMisses;
    const int RoundFolds0 = Res.SymmetryFolds;
    const int RoundDups0 = Res.DuplicateCandidates;
    const int RoundDecomp0 = Res.DecomposedCandidates;
    const int RoundComps0 = Res.ComponentsSimulated;
    const int RoundSims0 = Res.SimulationsRun;
    const int RoundCompHits0 = Res.ComponentCacheHits;
    const int RoundCompMisses0 = Res.ComponentCacheMisses;
    int RoundValid = 0;

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
            "round %d: cache %d hits / %d misses / %d folds / %d dups; "
            "components %d hits / %d misses (%d entries)",
            Round, Res.CacheHits - RoundHits0, Res.CacheMisses - RoundMisses0,
            Res.SymmetryFolds - RoundFolds0,
            Res.DuplicateCandidates - RoundDups0,
            Res.ComponentCacheHits - RoundCompHits0,
            Res.ComponentCacheMisses - RoundCompMisses0,
            static_cast<int>(Cache.size())));
        if (HitC) {
          HitC->add(static_cast<uint64_t>(Res.CacheHits - RoundHits0));
          MissC->add(static_cast<uint64_t>(Res.CacheMisses - RoundMisses0));
          FoldC->add(static_cast<uint64_t>(Res.SymmetryFolds - RoundFolds0));
          CompHitC->add(
              static_cast<uint64_t>(Res.ComponentCacheHits - RoundCompHits0));
          CompMissC->add(static_cast<uint64_t>(Res.ComponentCacheMisses -
                                               RoundCompMisses0));
        }
      }
      if (Problem.UseDecomposition) {
        Res.Log.push_back(formatString(
            "round %d: decomposed %d/%d valid candidates; %d components "
            "simulated",
            Round, Res.DecomposedCandidates - RoundDecomp0, RoundValid,
            Res.ComponentsSimulated - RoundComps0));
        if (DecompC) {
          DecompC->add(
              static_cast<uint64_t>(Res.DecomposedCandidates - RoundDecomp0));
          CompC->add(
              static_cast<uint64_t>(Res.ComponentsSimulated - RoundComps0));
        }
      }
      if (SimC)
        SimC->add(
            static_cast<uint64_t>(Res.SimulationsRun - RoundSims0) +
            static_cast<uint64_t>(Res.ComponentsSimulated - RoundComps0));
    };

    // Planning — strictly serial and against the pre-batch cache state,
    // so the hit pattern and the simulation list are pure functions of
    // the candidate sequence (independent of Workers/BatchSize timing).
    // Every valid candidate is a list of components: its
    // cfg::decomposeConfig split, or the whole config as its one
    // component. With the cache on, a candidate whose component keys
    // were all planned by earlier candidates of the round is an
    // intra-batch duplicate, decided before any lookup; every other
    // candidate looks its components up, and each missing key joins the
    // round's simulation list once, in order of first need. With the
    // cache off nothing is fingerprinted: every component is simulated.
    Src.assign(static_cast<size_t>(N), 0);
    Plans.assign(static_cast<size_t>(N), CandPlan());
    Planned.clear();
    Sims.clear();
    auto AddSim = [&](const cfg::Config &Sub, const cfg::Fingerprint &Canon,
                      const cfg::Fingerprint &Raw, int J, bool Whole) {
      ++(Whole ? Res.SimulationsRun : Res.ComponentsSimulated);
      Sims.push_back({&Sub, Canon, Raw, J});
      return static_cast<int>(Sims.size()) - 1;
    };
    for (int J = 0; J < N; ++J) {
      const Candidate &C = Cands[static_cast<size_t>(J)];
      if (!C.Valid)
        continue;
      ++RoundValid;
      CandPlan &Plan = Plans[static_cast<size_t>(J)];
      if (Problem.UseDecomposition)
        Plan.D = cfg::decomposeConfig(C.Config);
      const bool Whole = !Plan.D.Decomposed;
      if (!Whole)
        ++Res.DecomposedCandidates;
      auto SubOf = [&](size_t K) -> const cfg::Config & {
        return Whole ? C.Config : Plan.D.Components[K].Sub;
      };
      const size_t NC = Whole ? 1 : Plan.D.Components.size();
      Plan.Comps.assign(NC, PlannedComp());
      if (!Problem.UseVerdictCache) {
        for (size_t K = 0; K < NC; ++K)
          Plan.Comps[K].Sim = AddSim(SubOf(K), {}, {}, J, Whole);
        continue;
      }
      bool AnyNew = false;
      for (size_t K = 0; K < NC; ++K) {
        cfg::Fingerprint Key = cfg::fingerprintComponent(SubOf(K), L);
        auto [It, New] = Planned.try_emplace(Key);
        PlannedComp &PC = It->second;
        if (New) {
          AnyNew = true;
          PC.Hit = Cache.lookup(Key);
          if (!PC.Hit)
            PC.Sim = AddSim(SubOf(K), Key,
                            cfg::fingerprintComponent(
                                SubOf(K), L, /*CanonicalizeCores=*/false),
                            J, Whole);
        }
        Plan.Comps[K] = PC;
      }
      if (!AnyNew) {
        ++Res.DuplicateCandidates;
        Src[static_cast<size_t>(J)] = 3;
        continue;
      }
      bool AllHit = true, Folded = false;
      for (size_t K = 0; K < NC; ++K) {
        const PlannedComp &PC = Plan.Comps[K];
        if (!PC.Hit) {
          ++Res.ComponentCacheMisses;
          AllHit = false;
          continue;
        }
        ++Res.ComponentCacheHits;
        if (PC.Hit->FromSnapshot) {
          // Warm-from-disk hit: counted outside SearchResult (the
          // provenance depends on resume, which the result must not).
          if (Problem.CkptStats)
            ++Problem.CkptStats->SnapshotHits;
          if (SnapHitC)
            SnapHitC->add(1);
        }
        if (PC.Hit->Raw != cfg::fingerprintComponent(
                               SubOf(K), L, /*CanonicalizeCores=*/false)) {
          ++Res.SymmetryFolds;
          Folded = true;
        }
      }
      if (AllHit) {
        ++Res.CacheHits;
        Src[static_cast<size_t>(J)] = Folded ? 2 : 1;
      } else {
        ++Res.CacheMisses;
      }
    }

    // Evaluate the round's simulations in a single parallelFor, so the
    // pool is never re-entered and small components of different
    // candidates overlap freely. Each worker builds its own model and
    // simulator (no shared mutable state) and publishes counters, phase
    // timings and spans into its own thread shard, so attaching more
    // workers cannot race on the registry — and the merged totals stay
    // identical because every simulation publishes the same numbers on
    // whichever thread runs it.
    SimEvals.assign(Sims.size(), Eval());
    auto RunSim = [&](int I) {
      const ComponentSim &S = Sims[static_cast<size_t>(I)];
      obs::Span SimSpan("simulate.component", "search");
      SimSpan.arg("cand", S.FirstCand);
      SimSpan.arg("sim", I);
      // Each simulation leases a model arena for instance reuse and
      // returns it for whatever simulation runs next. Verdicts are
      // arena-independent, so the lease pattern — a timing fact — only
      // moves wall-clock.
      ArenaLease Lease(Problem.UseInstanceReuse ? &Arenas : nullptr);
      Result<analysis::VerdictOutcome> Out =
          analysis::analyzeVerdictOnly(*S.Sub, SimOpts, Lease.get());
      Eval &E = SimEvals[static_cast<size_t>(I)];
      if (Out.ok()) {
        E.Ok = true;
        E.V = std::move(*Out);
      } else {
        E.ErrMsg = Out.error().message();
      }
    };
    Pool.parallelFor(static_cast<int>(Sims.size()), RunSim);

    // Fill the cache from the round's simulations, in order of first
    // need — a serial-path fact. Undecided verdicts (guard-rail stops)
    // are rejected by insert itself; failed simulations leave no entry.
    if (Problem.UseVerdictCache)
      for (size_t I = 0; I < Sims.size(); ++I)
        if (SimEvals[I].Ok)
          Cache.insert(Sims[I].Canon, Sims[I].Raw, SimEvals[I].V);

    // Assemble per-candidate verdicts from cache hits and the round's
    // simulations. A whole-config component's verdict is the candidate's
    // as-is; a decomposed candidate merges its components'. Verdicts are
    // copied, never moved: one simulation may serve several candidates.
    for (int J = 0; J < N; ++J) {
      const CandPlan &Plan = Plans[static_cast<size_t>(J)];
      if (Plan.Comps.empty())
        continue; // invalid candidate
      Eval &E = Evals[static_cast<size_t>(J)];
      std::vector<analysis::ComponentVerdict> Parts;
      Parts.reserve(Plan.Comps.size());
      for (size_t K = 0; K < Plan.Comps.size(); ++K) {
        const PlannedComp &PC = Plan.Comps[K];
        const Eval *SE =
            PC.Hit ? nullptr : &SimEvals[static_cast<size_t>(PC.Sim)];
        if (SE && !SE->Ok) { // the first failing component's error wins
          E.ErrMsg = SE->ErrMsg;
          break;
        }
        Parts.push_back({SE ? SE->V : PC.Hit->Verdict,
                         Plan.D.Decomposed ? Plan.D.Components[K].GidMap
                                           : std::vector<int32_t>()});
      }
      if (Parts.size() != Plan.Comps.size())
        continue;
      E.Ok = true;
      E.V = Plan.D.Decomposed
                ? analysis::mergeComponentVerdicts(
                      Parts, Cands[static_cast<size_t>(J)].Config.numTasks())
                : std::move(Parts.front().Verdict);
    }

    // Reduce in candidate order: logs, counters, best-so-far and the
    // returned error (if any) are those of the lowest-index candidate,
    // independent of evaluation order. Every logged quantity (badness,
    // first-miss instant, first-miss task count) is invariant under the
    // acceleration layers, so the per-iteration log is identical for any
    // flag combination.
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
      // Per-candidate metadata span: verdict provenance (src: 0 sim /
      // 1 hit / 2 fold / 3 dup), stop reason, badness. The span rides the
      // serial reduce, so its args — like the counters — are identical
      // for any worker count.
      obs::Span CandSpan("candidate", "search");
      CandSpan.arg("src", Src[static_cast<size_t>(J)]);
      CandSpan.arg("stop", static_cast<int64_t>(E.V.Stop));
      ++Res.StopReasonCounts[static_cast<size_t>(E.V.Stop)];
      if (!E.V.decided()) {
        // The guard rails (a simulation's budget / cancellation) ended a
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
