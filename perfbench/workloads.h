//===- perfbench/workloads.h - Time-to-verdict workloads -------*- C++ -*-===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's workloads. Each one turns the benchmark seed into a
/// small pool of inputs (outside the program), answers them through the
/// public entry point a user would call, and answers them once more
/// through the plain reference path (every acceleration layer off, one
/// worker, full horizon, no arena) so timed answers can be checked
/// against the reference digest.
///
//===----------------------------------------------------------------------===//

#ifndef SWA_PERFBENCH_WORKLOADS_H
#define SWA_PERFBENCH_WORKLOADS_H

#include "support/Error.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// One answer: the digest compared with the reference, or why there is
/// no decided answer (an error or an undecided verdict).
struct Answer {
  bool Decided = false;
  std::string Digest;
  std::string Problem;
  /// Intra-batch duplicate candidates of a search: verdict-cache hits that
  /// no obs counter holds.
  int DuplicateCandidates = 0;
  /// Human-readable regime description and whether it matches the regime
  /// the workload was chosen for.
  std::string Regime;
  bool InRegime = true;
};

class Workload {
public:
  virtual ~Workload() = default;

  /// Generates and validates the input for \p Seed (the benchmark's
  /// --seed). Part of set-up.
  virtual swa::Error prepare(uint64_t Seed) = 0;
  /// Inputs one run cycles through; a round answers each once.
  virtual size_t poolSize() const { return 1; }
  /// Pool items whose answers are checked against the reference path.
  /// The others are checked for repeatability only: the plain path costs
  /// many times the measured one, and a run must stay within its budget.
  virtual std::vector<size_t> referenceItems() const { return {0}; }
  /// One timed answer for pool item \p Item through the public call
  /// under test.
  virtual Answer answer(size_t Item) = 0;
  /// The same question through the plain reference path.
  virtual Answer reference(size_t Item) = 0;
  /// Threads the measured call uses.
  virtual int workers() const { return 1; }
  /// One line naming the generated input and its seeds.
  virtual std::string describe() const = 0;
};

std::unique_ptr<Workload> makeWorkload(const std::string &Name);

} // namespace perfbench

#endif // SWA_PERFBENCH_WORKLOADS_H
