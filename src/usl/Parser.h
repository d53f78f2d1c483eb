//===- usl/Parser.h - USL parser and type checker ---------------*- C++ -*-===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Recursive-descent parser for USL. Parsing, name resolution and type
/// checking happen in one pass: every returned AST node is typed and its
/// references point at Symbol objects from the supplied Declarations.
///
/// Entry points cover the different syntactic roles a snippet can play in an
/// automaton template: declaration blocks, template parameter lists, edge
/// select/guard/sync/update labels and location invariants.
///
//===----------------------------------------------------------------------===//

#ifndef SWA_USL_PARSER_H
#define SWA_USL_PARSER_H

#include "support/Error.h"
#include "usl/Ast.h"
#include "usl/Decls.h"

#include <string_view>

namespace swa {
namespace usl {

/// A guard split into its data part and clock comparisons.
///
/// USL follows UPPAAL's restriction: clock conditions may only occur as
/// top-level conjuncts of a guard/invariant, each of the form
/// `clock <op> int-expression`.
struct GuardAst {
  ExprPtr DataPart; ///< Boolean expression over variables; null means true.
  struct ClockRel {
    Symbol *Clock = nullptr;
    BinaryOp Op = BinaryOp::Ge; ///< Lt/Le/Gt/Ge/Eq.
    ExprPtr Bound;
  };
  std::vector<ClockRel> Clocks;
};

/// A location invariant: data conjuncts, clock upper bounds, and stopwatch
/// rate conditions (`c' == rate-expression`).
struct InvariantAst {
  ExprPtr DataPart; ///< Null means true.
  struct ClockUpper {
    Symbol *Clock = nullptr;
    bool Strict = false; ///< True for `<`, false for `<=`.
    ExprPtr Bound;
  };
  std::vector<ClockUpper> Uppers;
  struct RateCond {
    Symbol *Clock = nullptr;
    ExprPtr Rate; ///< Integer expression; 0 stops the clock, nonzero runs.
  };
  std::vector<RateCond> Rates;
};

/// A synchronization label: `chan!`, `chan?`, `chan[expr]!`, `chan[expr]?`.
struct SyncAst {
  Symbol *Chan = nullptr; ///< Null for an empty (internal) label.
  ExprPtr IndexExpr;      ///< Null for scalar channels.
  bool IsSend = false;
};

/// One `name : int[lo, hi]` select binding.
struct SelectAst {
  Symbol *Var = nullptr; ///< SelectVar symbol; Index = position in list.
  ExprPtr Lo;
  ExprPtr Hi;
};

/// An update label: a sequence of assignments / calls, with clock resets
/// separated out (clocks may only be assigned the constant 0).
struct UpdateAst {
  std::vector<StmtPtr> Stmts;    ///< Data assignments and calls, in order.
  std::vector<Symbol *> ClockResets;
};

/// All labels of one edge, parsed together so the select bindings are in
/// scope for the guard, sync index and update.
struct EdgeLabelsAst {
  std::vector<SelectAst> Selects;
  GuardAst Guard;
  SyncAst Sync;
  UpdateAst Update;
};

/// Parses a block of declarations into \p Out.
///
/// \p IsTemplate selects between global declarations (vars become
/// GlobalVar...) and template-local ones (TemplateVar...). Channels may only
/// be declared globally.
Error parseDeclarations(std::string_view Source, Declarations &Out,
                        bool IsTemplate);

/// Parses a template formal parameter list, e.g.
/// `int partId, int nTasks, int[] wcet, bool tracing`.
/// Parameters are registered in \p TemplateDecls.
Error parseTemplateParams(std::string_view Source,
                          Declarations &TemplateDecls);

/// Parses a bare boolean expression (no clocks allowed) in the scope of
/// \p Decls. Used for rate conditions and tests.
Result<ExprPtr> parseBoolExpr(std::string_view Source,
                              const Declarations &Decls);

/// Parses a bare integer expression in the scope of \p Decls.
Result<ExprPtr> parseIntExpr(std::string_view Source,
                             const Declarations &Decls);

/// Parses the four labels of an edge.
Result<EdgeLabelsAst> parseEdgeLabels(std::string_view SelectSrc,
                                      std::string_view GuardSrc,
                                      std::string_view SyncSrc,
                                      std::string_view UpdateSrc,
                                      Declarations &TemplateDecls);

/// Parses a location invariant.
Result<InvariantAst> parseInvariant(std::string_view Source,
                                    const Declarations &Decls);

/// Recomputes FuncDecl::WritesState for \p Decls (and, transitively, uses
/// final values for parent-scope functions). Must run after a declaration
/// block has been fully parsed and before guards referencing its functions
/// are parsed.
void computeWritesState(Declarations &Decls);

/// Attempts to fold \p E to a constant. Returns failure when the expression
/// references runtime state.
Result<int64_t> foldConst(const Expr &E);

/// foldConst without the diagnostic: true (and \p Out set) exactly when
/// foldConst succeeds. Formats and allocates nothing.
bool tryFoldConst(const Expr &E, int64_t &Out);

/// The value of `L Op R` for a binary operator other than a division or
/// remainder by zero (the caller rules those out).
int64_t applyBinary(BinaryOp Op, int64_t L, int64_t R);

} // namespace usl
} // namespace swa

#endif // SWA_USL_PARSER_H
