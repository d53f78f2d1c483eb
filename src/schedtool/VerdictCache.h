//===- schedtool/VerdictCache.h - Memoized candidate verdicts ---*- C++ -*-===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A thread-safe two-level verdict memo for the config search.
///
/// Level 1 maps canonical whole-config fingerprints
/// (cfg::fingerprintConfig) to decided analysis verdicts. The local
/// search revisits structurally identical candidates constantly — the
/// adaptive state changes slowly and symmetric rebinds collapse under
/// canonicalization — so memoizing the verdict makes those candidates
/// free.
///
/// Level 2 maps canonical *component* fingerprints
/// (cfg::fingerprintComponent — a decomposition sub-config keyed
/// together with the global horizon it is simulated to) to per-core-group
/// verdicts. A mutation dirties one or two components; every clean
/// component hits here, so a candidate whose components all hit never
/// constructs a simulator at all, and analysis::mergeComponentVerdicts
/// stitches the whole-config verdict from cached parts. The badness the
/// search ranks by (Horizon - FirstMissTime + 1) is derived from the
/// stored FirstMissTime, so hits reproduce it exactly.
///
/// Determinism: the search consults and fills the cache only from the
/// serial reduce thread, and only *before* dispatching a batch /
/// *after* reducing it in candidate order, so the hit pattern is a pure
/// function of the candidate sequence — independent of Workers and
/// BatchSize timing. The mutex makes the container safe for callers that
/// do share one cache across threads; it is uncontended in the search.
///
/// Entry immutability (load-bearing, both levels): entries are
/// WRITE-ONCE. `lookup` / `lookupComponent` return pointers into the
/// node-based std::unordered_map, whose nodes never relocate on rehash
/// or insert, and `insert` / `insertComponent` never overwrite an
/// existing entry — first insert wins, because re-evaluating the same
/// structure yields the same verdict. Callers therefore hold entry
/// pointers across later inserts (the search batches lookups before the
/// fills). Debug builds assert that a double-insert carries the same
/// verdict; a differing one would mean the fingerprint is not a
/// congruence for the simulator — a correctness bug, not a cache policy
/// question.
///
/// Only decided() verdicts are stored: guard-rail stops (budget, cancel)
/// depend on wall-clock timing and must never be replayed as facts.
///
//===----------------------------------------------------------------------===//

#ifndef SWA_SCHEDTOOL_VERDICTCACHE_H
#define SWA_SCHEDTOOL_VERDICTCACHE_H

#include "analysis/Analyzer.h"
#include "config/Fingerprint.h"

#include <cassert>
#include <mutex>
#include <unordered_map>

namespace swa {
namespace schedtool {

class VerdictCache {
public:
  struct Entry {
    /// The *raw* (non-canonicalized) fingerprint of the config that
    /// produced the verdict. A later lookup whose raw fingerprint
    /// differs hit through core-relabeling canonicalization — a
    /// symmetry fold, counted separately from plain revisits.
    cfg::Fingerprint Raw;
    analysis::VerdictOutcome Verdict;
    /// True when the entry arrived via insertSnapshot (warm-from-disk):
    /// a hit on it is a `verdict_cache.snapshot_hits` event, telling
    /// resume reuse apart from same-run memoization. Purely
    /// observational — no verdict or search decision reads it.
    bool FromSnapshot = false;
  };

  /// One memoized component verdict. GidMap is deliberately absent: the
  /// local-to-original gid mapping depends on where the component sits
  /// inside the *candidate*, not on the component itself, so the caller
  /// supplies its own GidMap when merging.
  struct ComponentEntry {
    cfg::Fingerprint Raw;
    analysis::VerdictOutcome Verdict;
    bool FromSnapshot = false; ///< Same contract as Entry::FromSnapshot.
  };

  /// Returns the entry for \p Key, or nullptr. The pointer stays valid
  /// until clear() (node-based container; inserts never move entries —
  /// the write-once invariant above).
  const Entry *lookup(const cfg::Fingerprint &Key) const {
    std::lock_guard<std::mutex> Lock(M);
    auto It = Map.find(Key);
    return It == Map.end() ? nullptr : &It->second;
  }

  /// Inserts \p Verdict under \p Key; first insert wins. Undecided
  /// verdicts are rejected.
  void insert(const cfg::Fingerprint &Key, const cfg::Fingerprint &Raw,
              const analysis::VerdictOutcome &Verdict) {
    if (!Verdict.decided())
      return;
    std::lock_guard<std::mutex> Lock(M);
    auto R = Map.emplace(Key, Entry{Raw, Verdict});
    assert((R.second || sameVerdict(R.first->second.Verdict, Verdict)) &&
           "double-insert with a differing verdict: fingerprint is not a "
           "congruence");
    (void)R;
  }

  /// Component-level lookup; same stability contract as lookup().
  const ComponentEntry *lookupComponent(const cfg::Fingerprint &Key) const {
    std::lock_guard<std::mutex> Lock(M);
    auto It = CompMap.find(Key);
    return It == CompMap.end() ? nullptr : &It->second;
  }

  /// Inserts a component verdict under \p Key (from
  /// cfg::fingerprintComponent); first insert wins, undecided rejected.
  void insertComponent(const cfg::Fingerprint &Key,
                       const cfg::Fingerprint &Raw,
                       const analysis::VerdictOutcome &Verdict) {
    if (!Verdict.decided())
      return;
    std::lock_guard<std::mutex> Lock(M);
    auto R = CompMap.emplace(Key, ComponentEntry{Raw, Verdict});
    assert((R.second || sameVerdict(R.first->second.Verdict, Verdict)) &&
           "component double-insert with a differing verdict: fingerprint "
           "is not a congruence");
    (void)R;
  }

  /// Snapshot import: like insert/insertComponent but marks the entry
  /// warm-from-disk. First insert still wins, so merging a snapshot into
  /// a cache that already decided a key is a no-op (and never flips an
  /// existing entry's provenance).
  void insertSnapshot(const cfg::Fingerprint &Key, const cfg::Fingerprint &Raw,
                      const analysis::VerdictOutcome &Verdict) {
    if (!Verdict.decided())
      return;
    std::lock_guard<std::mutex> Lock(M);
    Map.emplace(Key, Entry{Raw, Verdict, /*FromSnapshot=*/true});
  }
  void insertComponentSnapshot(const cfg::Fingerprint &Key,
                               const cfg::Fingerprint &Raw,
                               const analysis::VerdictOutcome &Verdict) {
    if (!Verdict.decided())
      return;
    std::lock_guard<std::mutex> Lock(M);
    CompMap.emplace(Key, ComponentEntry{Raw, Verdict, /*FromSnapshot=*/true});
  }

  /// Snapshot export: invokes \p Fn(Key, Entry) / \p Fn(Key,
  /// ComponentEntry) for every entry under the lock. Iteration order is
  /// the container's — serialization sorts by key, so snapshot bytes do
  /// not depend on it.
  template <typename Fn> void forEachConfig(Fn &&F) const {
    std::lock_guard<std::mutex> Lock(M);
    for (const auto &KV : Map)
      F(KV.first, KV.second);
  }
  template <typename Fn> void forEachComponent(Fn &&F) const {
    std::lock_guard<std::mutex> Lock(M);
    for (const auto &KV : CompMap)
      F(KV.first, KV.second);
  }

  size_t size() const {
    std::lock_guard<std::mutex> Lock(M);
    return Map.size();
  }

  size_t componentSize() const {
    std::lock_guard<std::mutex> Lock(M);
    return CompMap.size();
  }

  void clear() {
    std::lock_guard<std::mutex> Lock(M);
    Map.clear();
    CompMap.clear();
  }

private:
  /// Field-wise verdict equality for the debug double-insert assert.
  /// ActionCount is excluded: an early-exit run and a capped chain may
  /// legitimately count different action totals for the same decided
  /// verdict; the decision fields must agree exactly.
  static bool sameVerdict(const analysis::VerdictOutcome &A,
                          const analysis::VerdictOutcome &B) {
    return A.Schedulable == B.Schedulable && A.Stop == B.Stop &&
           A.FirstMissTime == B.FirstMissTime &&
           A.FirstMissTasks == B.FirstMissTasks;
  }

  mutable std::mutex M;
  std::unordered_map<cfg::Fingerprint, Entry, cfg::FingerprintHash> Map;
  std::unordered_map<cfg::Fingerprint, ComponentEntry, cfg::FingerprintHash>
      CompMap;
};

} // namespace schedtool
} // namespace swa

#endif // SWA_SCHEDTOOL_VERDICTCACHE_H
