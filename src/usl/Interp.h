//===- usl/Interp.h - Evaluation of bound USL trees -------------*- C++ -*-===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tree-walking evaluator for *bound* USL expressions and statements (see
/// Binder.h). Evaluation reads/writes the network's flat variable store;
/// writes are appended to an optional write log that the simulator uses for
/// dependency-based dirty tracking.
///
/// Runtime errors (out-of-bounds indices, division by zero, runaway
/// recursion or loops) are programming errors in a model; they print a
/// message and abort. Models from this repository's library are verified
/// never to trigger them.
///
//===----------------------------------------------------------------------===//

#ifndef SWA_USL_INTERP_H
#define SWA_USL_INTERP_H

#include "usl/Ast.h"

#include <cstdint>
#include <unordered_map>
#include <vector>

namespace swa {
namespace usl {

/// Shared evaluation state: the variable store, instance constant arrays,
/// the resolved function table, and the reusable frame stack.
struct EvalContext {
  std::vector<int64_t> *Store = nullptr;
  const std::vector<std::vector<int64_t>> *ConstArrays = nullptr;
  const std::vector<const FuncDecl *> *FuncTable = nullptr;
  /// When non-null, every written store slot is appended here.
  std::vector<int32_t> *WriteLog = nullptr;

  /// Frame stack shared by nested calls; FrameBase offsets index into it.
  std::vector<int64_t> FrameStack;
  int CallDepth = 0;
  /// Remaining statement/expression step budget for one top-level
  /// evaluation; reset by the engine before each guard/update.
  int64_t StepBudget = 0;
};

/// Default per-evaluation step budget.
inline constexpr int64_t DefaultStepBudget = 1 << 22;

/// Maximum call nesting depth.
inline constexpr int MaxCallDepth = 64;

/// Evaluates a bound expression. \p FrameBase is the offset of the current
/// frame within Ctx.FrameStack (select values for edge expressions, the
/// callee frame inside function bodies).
int64_t evalExpr(const Expr &E, EvalContext &Ctx, size_t FrameBase);

/// Executes a bound statement sequence (an update label or function body
/// fragment).
void execStmts(const std::vector<StmtPtr> &Stmts, EvalContext &Ctx,
               size_t FrameBase);

/// A half-open range [Lo, Hi) of store slots.
struct SlotRange {
  int32_t Lo = 0;
  int32_t Hi = 0;

  bool operator==(const SlotRange &O) const {
    return Lo == O.Lo && Hi == O.Hi;
  }
};

/// A set of store slots as ranges. Normalized form: sorted, non-empty,
/// and neither overlapping nor adjacent.
using SlotRanges = std::vector<SlotRange>;

/// Brings \p R into normalized form.
void normalizeRanges(SlotRanges &R);

/// The ascending slot list that normalized \p R covers.
std::vector<int32_t> expandRanges(const SlotRanges &R);

/// Computes, per function of a (growing) function table, the set of store
/// slots it may transitively read. Used to build the simulator's variable
/// watch lists. Array accesses with constant in-range indices contribute
/// a single slot; other indices conservatively contribute the whole array
/// as one range, so a read set's size depends on the number of reads, not
/// on array sizes.
///
/// The collector is incremental: refresh() processes only functions added
/// to the table since the last call (running the recursion fixpoint over
/// that suffix), so per-instance cost during network construction stays
/// proportional to the size of the instance's own functions.
class ReadSetCollector {
public:
  explicit ReadSetCollector(const std::vector<const FuncDecl *> &FuncTable);

  /// Processes newly appended functions.
  void refresh();

  /// Appends ranges covering every store slot \p E may read to \p Reads,
  /// which is left unnormalized.
  void collect(const Expr &E, SlotRanges &Reads);
  void collect(const Stmt &S, SlotRanges &Reads);

  /// Ranges appended so far, by refresh() and collect() together.
  uint64_t entriesProduced() const { return Produced; }

private:
  void scanExpr(const Expr &E, SlotRanges &Reads);
  void scanStmt(const Stmt &S, SlotRanges &Reads);

  const std::vector<const FuncDecl *> &FuncTable;
  /// Normalized read set of each processed function.
  std::vector<SlotRanges> FuncReads;
  uint64_t Produced = 0;
};

} // namespace usl
} // namespace swa

#endif // SWA_USL_INTERP_H
