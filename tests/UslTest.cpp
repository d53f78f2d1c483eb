//===- tests/UslTest.cpp - USL front-end unit tests ------------------------===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//

#include "usl/Binder.h"
#include "usl/Compiler.h"
#include "usl/Disasm.h"
#include "usl/Interp.h"
#include "usl/Lexer.h"
#include "usl/Parser.h"

#include <gtest/gtest.h>

#include <memory_resource>

using namespace swa;
using namespace swa::usl;

//===----------------------------------------------------------------------===//
// Lexer
//===----------------------------------------------------------------------===//

TEST(Lexer, TokenizesPunctuationAndKeywords) {
  auto Toks = lex("int x = 3 <= 4 && !true || a');");
  ASSERT_TRUE(Toks.ok()) << Toks.error().message();
  std::vector<TokenKind> Kinds;
  for (const Token &T : *Toks)
    Kinds.push_back(T.Kind);
  std::vector<TokenKind> Expected = {
      TokenKind::KwInt,   TokenKind::Identifier, TokenKind::Assign,
      TokenKind::IntLiteral, TokenKind::Le,      TokenKind::IntLiteral,
      TokenKind::AndAnd,  TokenKind::Not,        TokenKind::KwTrue,
      TokenKind::OrOr,    TokenKind::Identifier, TokenKind::Prime,
      TokenKind::RParen,  TokenKind::Semi,       TokenKind::Eof};
  EXPECT_EQ(Kinds, Expected);
}

TEST(Lexer, SkipsComments) {
  auto Toks = lex("a // line\n /* block\n spans */ b");
  ASSERT_TRUE(Toks.ok());
  ASSERT_EQ(Toks->size(), 3u);
  EXPECT_EQ((*Toks)[0].Text, "a");
  EXPECT_EQ((*Toks)[1].Text, "b");
}

TEST(Lexer, ReportsUnterminatedComment) {
  auto Toks = lex("a /* never closed");
  ASSERT_FALSE(Toks.ok());
  EXPECT_NE(Toks.error().message().find("unterminated"), std::string::npos);
}

TEST(Lexer, ReportsUnknownCharacter) {
  auto Toks = lex("a $ b");
  ASSERT_FALSE(Toks.ok());
}

TEST(Lexer, ReportsIntegerOverflow) {
  auto Toks = lex("99999999999999999999999");
  ASSERT_FALSE(Toks.ok());
  EXPECT_NE(Toks.error().message().find("overflow"), std::string::npos);
}

TEST(Lexer, TracksLineAndColumn) {
  auto Toks = lex("a\n  b");
  ASSERT_TRUE(Toks.ok());
  EXPECT_EQ((*Toks)[1].Loc.Line, 2);
  EXPECT_EQ((*Toks)[1].Loc.Col, 3);
}

//===----------------------------------------------------------------------===//
// Declarations and types
//===----------------------------------------------------------------------===//

TEST(Decls, ParsesVariablesConstantsClocksChannels) {
  Declarations D;
  Error E = parseDeclarations("const int N = 4;"
                              "int x = 1, ys[N] = {1, 2, 3, 4};"
                              "bool flag;"
                              "clock c1, c2;"
                              "chan go;"
                              "broadcast chan tick[N];",
                              D, /*IsTemplate=*/false);
  ASSERT_FALSE(E) << E.message();
  EXPECT_EQ(D.Vars.size(), 3u);
  EXPECT_EQ(D.Clocks.size(), 2u);
  EXPECT_EQ(D.Channels.size(), 2u);
  EXPECT_EQ(D.Consts.size(), 1u);
  EXPECT_EQ(D.lookup("ys")->Ty.Kind, TypeKind::IntArray);
  EXPECT_EQ(D.lookup("ys")->Ty.Size, 4);
  EXPECT_TRUE(D.lookup("tick")->Broadcast);
  EXPECT_EQ(D.lookup("tick")->Ty.Size, 4);
}

TEST(Decls, RejectsRedefinition) {
  Declarations D;
  Error E = parseDeclarations("int x; bool x;", D, false);
  ASSERT_TRUE(E.isFailure());
  EXPECT_NE(E.message().find("redefinition"), std::string::npos);
}

TEST(Decls, RejectsChannelInTemplate) {
  Declarations D;
  Error E = parseDeclarations("chan go;", D, /*IsTemplate=*/true);
  ASSERT_TRUE(E.isFailure());
}

TEST(Decls, ParsesRangedInts) {
  Declarations D;
  Error E = parseDeclarations("int[0, 7] small;", D, false);
  ASSERT_FALSE(E) << E.message();
  Symbol *S = D.lookup("small");
  ASSERT_TRUE(S->HasRange);
  EXPECT_EQ(S->RangeLo, 0);
  EXPECT_EQ(S->RangeHi, 7);
}

TEST(Decls, ParsesFunctions) {
  Declarations D;
  Error E = parseDeclarations(
      "int total;"
      "int add(int a, int b) { return a + b; }"
      "void bump(int d) { total = total + d; }"
      "int pure2(int a) { return add(a, 1); }",
      D, false);
  ASSERT_FALSE(E) << E.message();
  ASSERT_EQ(D.Funcs.size(), 3u);
  EXPECT_FALSE(D.lookup("add")->Func->WritesState);
  EXPECT_TRUE(D.lookup("bump")->Func->WritesState);
  EXPECT_FALSE(D.lookup("pure2")->Func->WritesState);
}

TEST(Decls, TypeErrorsAreReported) {
  Declarations D;
  EXPECT_TRUE(parseDeclarations("int x = true;", D, false).isFailure());
  Declarations D2;
  EXPECT_TRUE(
      parseDeclarations("bool f() { return 3; }", D2, false).isFailure());
  Declarations D3;
  EXPECT_TRUE(
      parseDeclarations("int f() { return; }", D3, false).isFailure());
}

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

namespace {

/// Parses global declarations, lays out a store, binds and evaluates an
/// int expression against it.
class EvalFixture {
public:
  explicit EvalFixture(const std::string &DeclSrc) : Binder_(Target) {
    Error E = parseDeclarations(DeclSrc, D, false);
    EXPECT_FALSE(E) << E.message();
    for (const Declarations::VarInit &VI : D.Vars) {
      int Base = static_cast<int>(Store.size());
      int Size = VI.Sym->Ty.isArray() ? VI.Sym->Ty.Size : 1;
      for (int I = 0; I < Size; ++I) {
        int64_t Init = 0;
        if (static_cast<size_t>(I) < VI.Init.size()) {
          auto V = foldConst(*VI.Init[static_cast<size_t>(I)]);
          EXPECT_TRUE(V.ok());
          Init = *V;
        }
        Store.push_back(Init);
      }
      Binder_.mapStore(VI.Sym, Base);
    }
  }

  int64_t eval(const std::string &ExprSrc) {
    auto E = parseIntExpr(ExprSrc, D);
    EXPECT_TRUE(E.ok()) << E.error().message();
    auto B = Binder_.bindExpr(**E);
    EXPECT_TRUE(B.ok()) << B.error().message();
    EvalContext Ctx;
    Ctx.Store = &Store;
    Ctx.ConstArrays = &Target.ConstArrays;
    Ctx.FuncTable = &Target.FuncTable;
    Ctx.StepBudget = DefaultStepBudget;
    return evalExpr(**B, Ctx, 0);
  }

  Declarations D;
  BindTarget Target;
  Binder Binder_;
  std::vector<int64_t> Store;
};

} // namespace

TEST(Eval, ArithmeticAndPrecedence) {
  EvalFixture F("");
  EXPECT_EQ(F.eval("2 + 3 * 4"), 14);
  EXPECT_EQ(F.eval("(2 + 3) * 4"), 20);
  EXPECT_EQ(F.eval("10 / 3"), 3);
  EXPECT_EQ(F.eval("10 % 3"), 1);
  EXPECT_EQ(F.eval("-5 + 2"), -3);
  EXPECT_EQ(F.eval("1 < 2 ? 10 : 20"), 10);
}

TEST(Eval, VariablesAndArrays) {
  EvalFixture F("int x = 7; int a[3] = {10, 20, 30};");
  EXPECT_EQ(F.eval("x + a[2]"), 37);
  EXPECT_EQ(F.eval("a[x - 6]"), 20);
}

TEST(Eval, ConstantsFoldAtParseTime) {
  EvalFixture F("const int N = 6; const int T[3] = {5, 6, 7};");
  EXPECT_EQ(F.eval("N * 2"), 12);
  EXPECT_EQ(F.eval("T[1] + T[2]"), 13);
}

TEST(Eval, FunctionsWithControlFlow) {
  EvalFixture F("int fib(int n) {"
                "  if (n < 2) return n;"
                "  return fib(n - 1) + fib(n - 2);"
                "}"
                "int sumTo(int n) {"
                "  int acc = 0;"
                "  for (int i = 1; i <= n; i++) acc += i;"
                "  return acc;"
                "}"
                "int whileDown(int n) {"
                "  int steps = 0;"
                "  while (n > 1) { if (n % 2 == 0) n = n / 2;"
                "                  else n = 3 * n + 1; steps++; }"
                "  return steps;"
                "}");
  EXPECT_EQ(F.eval("fib(10)"), 55);
  EXPECT_EQ(F.eval("sumTo(100)"), 5050);
  EXPECT_EQ(F.eval("whileDown(6)"), 8);
}

TEST(Eval, FunctionArrayLocals) {
  EvalFixture F("int rev3(int a, int b, int c) {"
                "  int buf[3];"
                "  buf[0] = a; buf[1] = b; buf[2] = c;"
                "  return buf[2] * 100 + buf[1] * 10 + buf[0];"
                "}");
  EXPECT_EQ(F.eval("rev3(1, 2, 3)"), 321);
}

TEST(Eval, ShortCircuit) {
  // Division by zero on the unevaluated side must not trigger.
  EvalFixture F("int x = 0;");
  EXPECT_EQ(F.eval("(x == 0 || 1 / x > 0) ? 1 : 0"), 1);
  EXPECT_EQ(F.eval("(x != 0 && 1 / x > 0) ? 1 : 0"), 0);
}

TEST(Eval, GlobalStateMutationThroughFunctions) {
  EvalFixture F("int total = 0;"
                "void addTwice(int d) { total += d; total += d; }"
                "int get() { return total; }"
                "int probe(int d) { addTwice(d); return get(); }");
  EXPECT_EQ(F.eval("probe(21)"), 42);
}

TEST(Parser, RejectsClockMisuse) {
  Declarations D;
  ASSERT_FALSE(parseDeclarations("clock c; int x;", D, false).isFailure());
  EXPECT_FALSE(parseIntExpr("c + 1", D).ok());
  EXPECT_FALSE(parseBoolExpr("c == c", D).ok());
  EXPECT_FALSE(parseBoolExpr("(c >= 1) || x > 0", D).ok());
  EXPECT_FALSE(parseBoolExpr("!(c >= 1)", D).ok());
}

TEST(Parser, GuardSplitsClockConjuncts) {
  Declarations D;
  ASSERT_FALSE(
      parseDeclarations("clock c; int x; bool f;", D, false).isFailure());
  auto Labels = parseEdgeLabels("", "c >= 5 && x > 0 && f && c <= 9", "",
                                "", D);
  ASSERT_TRUE(Labels.ok()) << Labels.error().message();
  EXPECT_EQ(Labels->Guard.Clocks.size(), 2u);
  ASSERT_TRUE(Labels->Guard.DataPart != nullptr);
}

TEST(Parser, InvariantRatesAndUppers) {
  Declarations D;
  ASSERT_FALSE(
      parseDeclarations("clock c, e; int run;", D, false).isFailure());
  auto Inv = parseInvariant("c <= 10 && e' == run && run >= 0", D);
  ASSERT_TRUE(Inv.ok()) << Inv.error().message();
  EXPECT_EQ(Inv->Uppers.size(), 1u);
  EXPECT_EQ(Inv->Rates.size(), 1u);
  ASSERT_TRUE(Inv->DataPart != nullptr);
}

TEST(Parser, RejectsRateInGuard) {
  Declarations D;
  ASSERT_FALSE(parseDeclarations("clock c;", D, false).isFailure());
  auto Labels = parseEdgeLabels("", "c' == 0", "", "", D);
  EXPECT_FALSE(Labels.ok());
}

TEST(Parser, RejectsImpureGuards) {
  Declarations D;
  ASSERT_FALSE(parseDeclarations("int x;"
                                 "void poke() { x = 1; }"
                                 "bool probe() { poke(); return true; }",
                                 D, false)
                   .isFailure());
  auto Labels = parseEdgeLabels("", "probe()", "", "", D);
  ASSERT_FALSE(Labels.ok());
  EXPECT_NE(Labels.error().message().find("writes shared state"),
            std::string::npos);
}

TEST(Parser, UpdateSeparatesClockResets) {
  Declarations D;
  ASSERT_FALSE(
      parseDeclarations("clock c; int x;", D, false).isFailure());
  auto Labels = parseEdgeLabels("", "", "", "x = 3, c = 0, x += 1", D);
  ASSERT_TRUE(Labels.ok()) << Labels.error().message();
  EXPECT_EQ(Labels->Update.Stmts.size(), 2u);
  ASSERT_EQ(Labels->Update.ClockResets.size(), 1u);
  EXPECT_EQ(Labels->Update.ClockResets[0]->Name, "c");
}

TEST(Parser, RejectsNonZeroClockReset) {
  Declarations D;
  ASSERT_FALSE(parseDeclarations("clock c;", D, false).isFailure());
  auto Labels = parseEdgeLabels("", "", "", "c = 5", D);
  EXPECT_FALSE(Labels.ok());
}

TEST(Parser, SelectBindingsVisibleInGuardAndUpdate) {
  Declarations D;
  ASSERT_FALSE(parseDeclarations("int picked; chan go[8];", D, false)
                   .isFailure());
  auto Labels = parseEdgeLabels("i : int[0, 7]", "i % 2 == 0", "go[i]!",
                                "picked = i", D);
  ASSERT_TRUE(Labels.ok()) << Labels.error().message();
  ASSERT_EQ(Labels->Selects.size(), 1u);
  EXPECT_TRUE(Labels->Sync.IsSend);
  ASSERT_TRUE(Labels->Sync.IndexExpr != nullptr);
}

TEST(Parser, SyncLabelForms) {
  Declarations D;
  ASSERT_FALSE(
      parseDeclarations("chan a; chan b[3]; int k;", D, false).isFailure());
  EXPECT_TRUE(parseEdgeLabels("", "", "a!", "", D).ok());
  EXPECT_TRUE(parseEdgeLabels("", "", "a?", "", D).ok());
  EXPECT_TRUE(parseEdgeLabels("", "", "b[k + 1]?", "", D).ok());
  EXPECT_FALSE(parseEdgeLabels("", "", "a", "", D).ok());
  EXPECT_FALSE(parseEdgeLabels("", "", "k!", "", D).ok());
  // Indexing a scalar channel is rejected.
  EXPECT_FALSE(parseEdgeLabels("", "", "a[0]!", "", D).ok());
}

//===----------------------------------------------------------------------===//
// Binder
//===----------------------------------------------------------------------===//

TEST(Binder, FoldsScalarParams) {
  Declarations Globals;
  Declarations TDecls(&Globals);
  ASSERT_FALSE(parseTemplateParams("int period, int[] wcet", TDecls)
                   .isFailure());
  auto E = parseIntExpr("period * 2 + wcet[1]", TDecls);
  ASSERT_TRUE(E.ok()) << E.error().message();

  BindTarget Target;
  Binder B(Target);
  B.mapParam(TDecls.lookup("period"), {50});
  B.mapParam(TDecls.lookup("wcet"), {3, 4, 5});
  auto Bound = B.bindExpr(**E);
  ASSERT_TRUE(Bound.ok()) << Bound.error().message();
  // Everything folded to a literal at bind time.
  EXPECT_EQ((*Bound)->Kind, ExprKind::IntLit);
  EXPECT_EQ((*Bound)->Literal, 104);
}

TEST(Binder, ReportsMissingBindings) {
  Declarations Globals;
  ASSERT_FALSE(parseDeclarations("int x;", Globals, false).isFailure());
  auto E = parseIntExpr("x + 1", Globals);
  ASSERT_TRUE(E.ok());
  BindTarget Target;
  Binder B(Target); // No mapStore for x.
  auto Bound = B.bindExpr(**E);
  EXPECT_FALSE(Bound.ok());
}

namespace {

/// Every field of a bound tree that evaluation or compilation reads.
std::string dumpTree(const Expr &E) {
  static const char *const Kinds[] = {"int",  "bool",  "var",    "index",
                                      "call", "unary", "binary", "ternary"};
  std::string S = std::string("(") + Kinds[static_cast<int>(E.Kind)] + ":" +
                  E.Ty.str();
  switch (E.Kind) {
  case ExprKind::IntLit:
  case ExprKind::BoolLit:
    S += " " + std::to_string(E.Literal);
    break;
  case ExprKind::VarRef:
  case ExprKind::Index:
    S += " ref" + std::to_string(static_cast<int>(E.Ref)) + "@" +
         std::to_string(E.Slot) + "/" + std::to_string(E.ArraySize);
    break;
  case ExprKind::Call:
    S += " fn" + std::to_string(E.FuncIndex);
    break;
  case ExprKind::Unary:
    S += " u" + std::to_string(static_cast<int>(E.UOp));
    break;
  case ExprKind::Binary:
    S += " b" + std::to_string(static_cast<int>(E.BOp));
    break;
  case ExprKind::Ternary:
    break;
  }
  for (const ExprPtr &C : E.Children)
    S += " " + dumpTree(*C);
  return S + ")";
}

/// Globals x (slot 0) and y (never mapped), a constant and a constant
/// array; template parameters on = 1, off = 0, zero = 0 and w = {10,20,30}.
class FoldFixture {
public:
  FoldFixture() : TDecls(&Globals), B(Target) {
    EXPECT_FALSE(parseDeclarations("int x; int y; const int N = 4;"
                                   "const int T[3] = {5, 6, 7};",
                                   Globals, false));
    EXPECT_FALSE(
        parseTemplateParams("int on, int off, int zero, int[] w", TDecls));
    B.mapStore(Globals.lookup("x"), 0);
    B.mapParam(TDecls.lookup("on"), {1});
    B.mapParam(TDecls.lookup("off"), {0});
    B.mapParam(TDecls.lookup("zero"), {0});
    B.mapParam(TDecls.lookup("w"), {10, 20, 30});
  }

  /// "tree | disassembly" of the bound expression, or the bind error.
  std::string bind(const std::string &Src, bool IsBool = false) {
    Result<ExprPtr> E =
        IsBool ? parseBoolExpr(Src, TDecls) : parseIntExpr(Src, TDecls);
    EXPECT_TRUE(E.ok()) << E.error().message();
    Result<ExprPtr> Bound = B.bindExpr(**E);
    if (!Bound.ok())
      return "error: " + Bound.error().message();
    Result<Code> C = compileExpr(**Bound);
    EXPECT_TRUE(C.ok()) << C.error().message();
    return dumpTree(**Bound) + " | " + disassemble(*C);
  }

  Declarations Globals;
  Declarations TDecls;
  BindTarget Target;
  Binder B;
};

} // namespace

// The expected trees and listings below are those of the deep-clone
// binder this one-pass binder replaced.
TEST(BinderFold, ScalarParameter) {
  FoldFixture F;
  EXPECT_EQ(F.bind("on * 7 + x"),
            "(binary:int b0 (int:int 7) (var:int ref3@0/1)) | "
            "   0: push     7\n"
            "   1: ld.s     0\n"
            "   2: add     \n"
            "   3: halt    \n");
}

TEST(BinderFold, GlobalConstant) {
  FoldFixture F;
  EXPECT_EQ(F.bind("N * on - x"),
            "(binary:int b1 (int:int 4) (var:int ref3@0/1)) | "
            "   0: push     4\n"
            "   1: ld.s     0\n"
            "   2: sub     \n"
            "   3: halt    \n");
}

TEST(BinderFold, ConstantIndexIntoConstantArray) {
  FoldFixture F;
  EXPECT_EQ(F.bind("T[on] + w[on + 1] + x"),
            "(binary:int b0 (int:int 36) (var:int ref3@0/1)) | "
            "   0: push     36\n"
            "   1: ld.s     0\n"
            "   2: add     \n"
            "   3: halt    \n");
  EXPECT_EQ(F.bind("w[x]"),
            "(index:int ref2@1/3 (var:int ref3@0/1)) | "
            "   0: ld.s     0\n"
            "   1: ld.k[]   1 (n=3)\n"
            "   2: halt    \n");
  EXPECT_EQ(F.bind("w[3 * on]"),
            "error: 1:1: constant index 3 out of bounds (array size 3)");
}

TEST(BinderFold, ShortCircuitWithNonConstantRightHandSide) {
  FoldFixture F;
  EXPECT_EQ(F.bind("off == 1 && x > 0", true),
            "(bool:bool 0) | "
            "   0: push     0\n"
            "   1: halt    \n");
  EXPECT_EQ(F.bind("on == 1 && x > 0", true),
            "(binary:bool b11 (bool:bool 1) "
            "(binary:bool b7 (var:int ref3@0/1) (int:int 0))) | "
            "   0: push     1\n"
            "   1: jz       -> 8\n"
            "   2: ld.s     0\n"
            "   3: push     0\n"
            "   4: cgt     \n"
            "   5: jz       -> 8\n"
            "   6: push     1\n"
            "   7: jmp      -> 9\n"
            "   8: push     0\n"
            "   9: halt    \n");
  EXPECT_EQ(F.bind("on == 1 || x > 0", true),
            "(bool:bool 1) | "
            "   0: push     1\n"
            "   1: halt    \n");
  EXPECT_EQ(F.bind("off == 1 || x > 0", true),
            "(binary:bool b12 (bool:bool 0) "
            "(binary:bool b7 (var:int ref3@0/1) (int:int 0))) | "
            "   0: push     0\n"
            "   1: jnz      -> 8\n"
            "   2: ld.s     0\n"
            "   3: push     0\n"
            "   4: cgt     \n"
            "   5: jnz      -> 8\n"
            "   6: push     0\n"
            "   7: jmp      -> 9\n"
            "   8: push     1\n"
            "   9: halt    \n");
  EXPECT_EQ(F.bind("on == 1 ? x : 3"),
            "(ternary:int (bool:bool 1) (var:int ref3@0/1) (int:int 3)) | "
            "   0: push     1\n"
            "   1: jz       -> 4\n"
            "   2: ld.s     0\n"
            "   3: jmp      -> 5\n"
            "   4: push     3\n"
            "   5: halt    \n");
  EXPECT_EQ(F.bind("off == 1 ? x : 3"),
            "(int:int 3) | "
            "   0: push     3\n"
            "   1: halt    \n");
}

TEST(BinderFold, DivisionByZeroStaysUnfolded) {
  FoldFixture F;
  EXPECT_EQ(F.bind("10 / zero"),
            "(binary:int b3 (int:int 10) (int:int 0)) | "
            "   0: push     10\n"
            "   1: push     0\n"
            "   2: div     \n"
            "   3: halt    \n");
  EXPECT_EQ(F.bind("10 % (on - 1)"),
            "(binary:int b4 (int:int 10) (int:int 0)) | "
            "   0: push     10\n"
            "   1: push     0\n"
            "   2: rem     \n"
            "   3: halt    \n");
}

TEST(BinderFold, UnboundVariableInShortCircuitedOperandIsAnError) {
  FoldFixture F;
  EXPECT_EQ(F.bind("off == 1 && y > 0", true),
            "error: 1:13: unbound variable 'y'");
  EXPECT_EQ(F.bind("on == 1 || y > 0", true),
            "error: 1:12: unbound variable 'y'");
  EXPECT_EQ(F.bind("on == 1 ? 3 : y"),
            "error: 1:15: unbound variable 'y'");
}

/// A pmr resource that counts what is outstanding.
class CountingResource final : public std::pmr::memory_resource {
public:
  size_t Blocks = 0;
  size_t Bytes = 0;

private:
  void *do_allocate(size_t Size, size_t Align) override {
    ++Blocks;
    Bytes += Size;
    return std::pmr::new_delete_resource()->allocate(Size, Align);
  }
  void do_deallocate(void *P, size_t Size, size_t Align) override {
    --Blocks;
    Bytes -= Size;
    std::pmr::new_delete_resource()->deallocate(P, Size, Align);
  }
  bool do_is_equal(const memory_resource &O) const noexcept override {
    return this == &O;
  }
};

TEST(NodePool, TargetReleasesPooledNodesAndHeapNodesAreDeleted) {
  CountingResource Counting;
  std::pmr::memory_resource *Old = std::pmr::set_default_resource(&Counting);
  {
    Declarations D;
    ASSERT_FALSE(parseDeclarations("int x; int f(int a) { return a + x; }",
                                   D, false));
    const size_t DeclBlocks = Counting.Blocks;
    Result<ExprPtr> Heap = parseIntExpr("f(x * 2) + f(x - 1)", D);
    ASSERT_TRUE(Heap.ok()) << Heap.error().message();
    const size_t ParserBlocks = Counting.Blocks;
    EXPECT_GT(ParserBlocks, DeclBlocks); // The expression's child arrays.
    {
      BindTarget Target;
      Binder B(Target);
      B.mapStore(D.lookup("x"), 0);
      Result<ExprPtr> Bound = B.bindExpr(**Heap);
      ASSERT_TRUE(Bound.ok()) << Bound.error().message();
      EXPECT_TRUE((*Bound)->Pooled);
      EXPECT_GT(Target.Pool->nodes(), 10u); // Tree and function body.
      EXPECT_GT(Counting.Blocks, ParserBlocks);
      // A heap node hung under a pooled one is still deleted with it.
      const size_t BoundBlocks = Counting.Blocks;
      Result<ExprPtr> Extra = parseIntExpr("x + 1", D);
      ASSERT_TRUE(Extra.ok()) << Extra.error().message();
      const size_t ExtraBlocks = Counting.Blocks - BoundBlocks;
      EXPECT_GT(ExtraBlocks, 0u);
      (*Bound)->Children[0] = Extra.takeValue();
      Bound->reset(); // Pooled: destroyed in place, memory left to the pool.
      EXPECT_EQ(Counting.Blocks, BoundBlocks);
    }
    // The pool gave all its blocks back at once.
    EXPECT_EQ(Counting.Blocks, ParserBlocks);
    EXPECT_FALSE((*Heap)->Pooled);
    Heap->reset();
    // Deleting the heap tree freed its child arrays.
    EXPECT_EQ(Counting.Blocks, DeclBlocks);
  }
  std::pmr::set_default_resource(Old);
  EXPECT_EQ(Counting.Blocks, 0u);
  EXPECT_EQ(Counting.Bytes, 0u);
}

TEST(Interp, ReadSetCollectorSeesThroughCalls) {
  EvalFixture F("int a; int b[2];"
                "int readB(int i) { return b[i]; }"
                "int readBoth() { return a + readB(0); }");
  auto E = parseIntExpr("readBoth()", F.D);
  ASSERT_TRUE(E.ok());
  auto Bound = F.Binder_.bindExpr(**E);
  ASSERT_TRUE(Bound.ok()) << Bound.error().message();

  ReadSetCollector RSC(F.Target.FuncTable);
  SlotRanges Reads;
  RSC.collect(**Bound, Reads);
  normalizeRanges(Reads);
  std::vector<int32_t> Slots = expandRanges(Reads);
  // a is slot 0; b occupies slots 1..2; the dynamic index makes both b
  // slots count.
  EXPECT_EQ(Slots, (std::vector<int32_t>{0, 1, 2}));
}

int main(int argc, char **argv) {
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
