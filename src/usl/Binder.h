//===- usl/Binder.h - Template instantiation binding ------------*- C++ -*-===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Binder turns type-checked USL trees into *bound* trees ready for
/// evaluation, implementing the parametric-automaton instantiation of the
/// paper's Algorithm 1 at the expression level:
///
///  * template parameters are replaced by the constants supplied at
///    instantiation (scalars fold into literals; arrays become entries of
///    the instance constant table);
///  * shared variables (global and template-local) resolve to absolute
///    slots of the flat network store — each template instance receives a
///    fresh copy of its local variables;
///  * clocks resolve to absolute clock indices;
///  * function references resolve to indices into the network function
///    table; template-local functions are bound per instance.
///
/// One Binder is used per automaton instance; it looks up the bindings of
/// a shared "global" binder (the network declarations) beneath its own.
///
/// Binding is one pass over the template tree. Only nodes that survive
/// into the bound tree are made, and they are placed in the target's
/// NodePool: a subexpression that folds to a constant is carried as a
/// value and gets a literal node only if its parent does not fold too.
///
//===----------------------------------------------------------------------===//

#ifndef SWA_USL_BINDER_H
#define SWA_USL_BINDER_H

#include "support/Error.h"
#include "usl/Ast.h"

#include <cstddef>
#include <memory>
#include <memory_resource>
#include <new>
#include <unordered_map>
#include <vector>

namespace swa {
namespace usl {

/// A bump arena holding the bound nodes of one network, child arrays
/// included. Nodes are placement-constructed into fixed-size blocks that
/// are freed together when the pool dies; nothing is returned earlier
/// (deallocate is a no-op), so the binder allocates only nodes that
/// survive. Blocks come from the default memory resource current when the
/// pool is made.
class NodePool final : public std::pmr::memory_resource {
public:
  NodePool() = default;
  NodePool(const NodePool &) = delete;
  NodePool &operator=(const NodePool &) = delete;
  ~NodePool() override;

  ExprPtr newExpr() {
    ++Nodes;
    return ExprPtr(new (allocate(sizeof(Expr), alignof(Expr))) Expr(this));
  }
  StmtPtr newStmt() {
    ++Nodes;
    return StmtPtr(new (allocate(sizeof(Stmt), alignof(Stmt))) Stmt(this));
  }

  /// Nodes placed so far.
  size_t nodes() const { return Nodes; }
  /// Bytes handed out so far (nodes and child arrays).
  size_t bytes() const { return Bytes; }

private:
  struct Block {
    std::byte *Data;
    size_t Size;
  };

  void *do_allocate(size_t Size, size_t Align) override;
  void do_deallocate(void *, size_t, size_t) override {}
  bool do_is_equal(const memory_resource &O) const noexcept override {
    return this == &O;
  }

  std::pmr::memory_resource *Upstream = std::pmr::get_default_resource();
  std::vector<Block> Blocks;
  std::byte *Next = nullptr;
  std::byte *End = nullptr;
  size_t Nodes = 0;
  size_t Bytes = 0;
};

/// Shared destination tables owned by the network being built.
struct BindTarget {
  /// Every bound node of the network. Declared first so it is freed last:
  /// the bound function bodies below live in it too.
  std::unique_ptr<NodePool> Pool = std::make_unique<NodePool>();
  std::vector<std::vector<int64_t>> ConstArrays;
  std::vector<std::unique_ptr<FuncDecl>> OwnedFuncs;
  std::vector<const FuncDecl *> FuncTable;
};

class Binder {
public:
  explicit Binder(BindTarget &Target) : Target(Target) {}

  /// A template-instance binder that sees the symbol maps of \p Global
  /// (network declarations) beneath its own. \p Global must outlive it.
  Binder(BindTarget &Target, const Binder &Global)
      : Target(Target), Global(&Global) {}

  /// Declares that \p Sym (a state variable) lives at store \p Slot.
  void mapStore(const Symbol *Sym, int Slot) { StoreMap[Sym] = Slot; }

  /// Declares that clock symbol \p Sym is absolute clock \p Index.
  void mapClock(const Symbol *Sym, int Index) { ClockMap[Sym] = Index; }

  /// Binds a template parameter to constant values (size 1 for scalars).
  void mapParam(const Symbol *Sym, std::vector<int64_t> Values) {
    ParamMap[Sym] = std::move(Values);
  }

  /// Binds an expression tree into the target's node pool.
  Result<ExprPtr> bindExpr(const Expr &E);

  /// Binds a statement tree into the target's node pool.
  Result<StmtPtr> bindStmt(const Stmt &S);

  /// Returns the absolute clock index for \p Sym.
  Result<int> clockIndex(const Symbol *Sym) const;

  /// Returns (binding if needed) the function-table index of \p F.
  Result<int> bindFunc(const FuncDecl *F);

  /// Binds and constant-folds an int expression. A foldable expression
  /// places no node in the pool.
  Result<int64_t> bindAndFold(const Expr &E);

  /// The BindTarget::ConstArrays slots this binder interned for array
  /// parameters and const arrays, keyed by symbol. Slots are
  /// per-instance (internConstArray never dedupes across binders), so a
  /// caller may patch `ConstArrays[slot]` to retarget one instance
  /// without affecting any other — the basis of window rebinding for
  /// model reuse. Only symbols actually referenced by the bound body
  /// appear here.
  const std::unordered_map<const Symbol *, int> &constArraySlots() const {
    return ConstArrayMap;
  }

private:
  /// A bound subexpression: a pool node, or (Node null) a folded literal
  /// that no node holds yet. A literal gets its node only when an
  /// enclosing expression fails to fold, so folded operands leave no
  /// garbage in the pool.
  struct Bound {
    ExprPtr Node;
    int64_t Value = 0;
    bool IsBool = false;
    SourceLoc Loc;
  };
  /// How a symbol reference resolves (VarRef, or the base of an Index).
  struct Resolved {
    RefKind Kind = RefKind::Unresolved;
    int Slot = -1;
    int ArraySize = 0;
    /// Scalar parameters and constants fold to a literal instead.
    bool Folded = false;
    bool IsBool = false;
    int64_t Value = 0;
  };

  Result<Bound> bind(const Expr &E);
  Error resolveRef(const Symbol *S, SourceLoc Loc, Resolved &Out);
  ExprPtr materialize(Bound B);
  static bool foldOperands(const Expr &E, const Bound *Ops, int64_t &Out);
  int internConstArray(const std::vector<int64_t> &Values);

  template <typename Map, typename Key>
  const typename Map::mapped_type *lookup(Map Binder::*M,
                                          const Key &K) const {
    for (const Binder *B = this; B; B = B->Global) {
      auto It = (B->*M).find(K);
      if (It != (B->*M).end())
        return &It->second;
    }
    return nullptr;
  }

  BindTarget &Target;
  const Binder *Global = nullptr;
  std::unordered_map<const Symbol *, int> StoreMap;
  std::unordered_map<const Symbol *, int> ClockMap;
  std::unordered_map<const Symbol *, std::vector<int64_t>> ParamMap;
  std::unordered_map<const FuncDecl *, int> FuncMap;
  std::unordered_map<const Symbol *, int> ConstArrayMap;
};

} // namespace usl
} // namespace swa

#endif // SWA_USL_BINDER_H
