//===- schedtool/VerdictCache.h - Memoized candidate verdicts ---*- C++ -*-===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A thread-safe verdict memo keyed by canonical structural fingerprints.
///
/// The config search keys it by cfg::fingerprintComponent(Sub, L): a
/// decomposition component simulated to the global horizon L, or — for a
/// candidate that does not split — the whole config as its one component
/// (that key equals cfg::fingerprintConfig, because L is the config's own
/// hyperperiod). A perturbation changes one or two components, so most
/// components of a candidate replay from here and a candidate whose
/// components all hit never constructs a simulator. The badness the
/// search ranks by (Horizon - FirstMissTime + 1) is derived from the
/// stored FirstMissTime, so hits reproduce it exactly.
/// analysis::Sensitivity keys its probes by cfg::fingerprintConfig into
/// the same kind of map.
///
/// Determinism: the search consults and fills the cache only from the
/// serial reduce thread, and only *before* dispatching a batch /
/// *after* reducing it in candidate order, so the hit pattern is a pure
/// function of the candidate sequence — independent of Workers and
/// BatchSize timing. The mutex makes the container safe for callers that
/// do share one cache across threads; it is uncontended in the search.
///
/// Entry immutability (load-bearing): entries are WRITE-ONCE. `lookup`
/// returns pointers into the node-based std::unordered_map, whose nodes
/// never relocate on rehash or insert, and `insert` never overwrites an
/// existing entry — first insert wins, because re-evaluating the same
/// structure yields the same verdict. Callers therefore hold entry
/// pointers across later inserts (the search batches lookups before the
/// fills). Debug builds assert that a double-insert carries the same
/// verdict; a differing one would mean the fingerprint is not a
/// congruence for the simulator — a correctness bug, not a cache policy
/// question. GidMap is deliberately not stored: the local-to-original gid
/// mapping depends on where a component sits inside a candidate, so the
/// caller supplies its own when merging.
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

  /// Snapshot import: like insert but marks the entry warm-from-disk.
  /// First insert still wins, so merging a snapshot into a cache that
  /// already decided a key is a no-op (and never flips an existing
  /// entry's provenance).
  void insertSnapshot(const cfg::Fingerprint &Key, const cfg::Fingerprint &Raw,
                      const analysis::VerdictOutcome &Verdict) {
    if (!Verdict.decided())
      return;
    std::lock_guard<std::mutex> Lock(M);
    Map.emplace(Key, Entry{Raw, Verdict, /*FromSnapshot=*/true});
  }

  /// Snapshot export: invokes \p Fn(Key, Entry) for every entry under the
  /// lock. Iteration order is the container's — serialization sorts by
  /// key, so snapshot bytes do not depend on it.
  template <typename Fn> void forEach(Fn &&F) const {
    std::lock_guard<std::mutex> Lock(M);
    for (const auto &KV : Map)
      F(KV.first, KV.second);
  }

  size_t size() const {
    std::lock_guard<std::mutex> Lock(M);
    return Map.size();
  }

  void clear() {
    std::lock_guard<std::mutex> Lock(M);
    Map.clear();
  }

private:
  /// Field-wise verdict equality for the debug double-insert assert.
  /// ActionCount is excluded: an early-exit run and a full run count
  /// different action totals for the same decided verdict; the decision
  /// fields must agree exactly.
  static bool sameVerdict(const analysis::VerdictOutcome &A,
                          const analysis::VerdictOutcome &B) {
    return A.Schedulable == B.Schedulable && A.Stop == B.Stop &&
           A.FirstMissTime == B.FirstMissTime &&
           A.FirstMissTasks == B.FirstMissTasks;
  }

  mutable std::mutex M;
  std::unordered_map<cfg::Fingerprint, Entry, cfg::FingerprintHash> Map;
};

} // namespace schedtool
} // namespace swa

#endif // SWA_SCHEDTOOL_VERDICTCACHE_H
