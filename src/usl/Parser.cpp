//===- usl/Parser.cpp - USL parser and type checker -----------------------===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//

#include "usl/Parser.h"

#include "support/StringUtils.h"
#include "usl/Lexer.h"

#include <unordered_map>
#include <unordered_set>

using namespace swa;
using namespace swa::usl;

//===----------------------------------------------------------------------===//
// Constant folding
//===----------------------------------------------------------------------===//

namespace {

/// The one constant folder. On failure it returns false and, when \p Why
/// is non-null, stores the reason; otherwise it formats nothing.
bool fold(const Expr &E, int64_t &Out, std::string *Why) {
  auto Fail = [&](const char *Msg) {
    if (Why)
      *Why = formatString("%d:%d: %s", E.Loc.Line, E.Loc.Col, Msg);
    return false;
  };
  auto NotConst = [&]() {
    return Fail("expression is not a compile-time constant");
  };
  switch (E.Kind) {
  case ExprKind::IntLit:
  case ExprKind::BoolLit:
    Out = E.Literal;
    return true;
  case ExprKind::VarRef:
    if (E.Ref == RefKind::Const) {
      Out = E.ConstValue;
      return true;
    }
    if (E.Sym && E.Sym->Kind == SymbolKind::GlobalConst &&
        !E.Sym->Ty.isArray()) {
      Out = E.Sym->ConstValues[0];
      return true;
    }
    return NotConst();
  case ExprKind::Index: {
    if (!E.Sym || E.Sym->Kind != SymbolKind::GlobalConst)
      return NotConst();
    int64_t Idx;
    if (!fold(*E.Children[0], Idx, Why))
      return false;
    if (Idx < 0 || static_cast<size_t>(Idx) >= E.Sym->ConstValues.size()) {
      if (Why)
        *Why = formatString("%d:%d: constant array index %lld out of bounds",
                            E.Loc.Line, E.Loc.Col,
                            static_cast<long long>(Idx));
      return false;
    }
    Out = E.Sym->ConstValues[static_cast<size_t>(Idx)];
    return true;
  }
  case ExprKind::Unary: {
    int64_t V;
    if (!fold(*E.Children[0], V, Why))
      return false;
    Out = E.UOp == UnaryOp::Neg ? -V : (V == 0 ? 1 : 0);
    return true;
  }
  case ExprKind::Binary: {
    int64_t L, R;
    if (!fold(*E.Children[0], L, Why))
      return false;
    // Short-circuit operators must not fold the other side eagerly when it
    // is non-constant but irrelevant.
    if ((E.BOp == BinaryOp::And && L == 0) ||
        (E.BOp == BinaryOp::Or && L != 0)) {
      Out = E.BOp == BinaryOp::Or;
      return true;
    }
    if (!fold(*E.Children[1], R, Why))
      return false;
    if (E.BOp == BinaryOp::Div && R == 0)
      return Fail("division by zero");
    if (E.BOp == BinaryOp::Rem && R == 0)
      return Fail("remainder by zero");
    Out = applyBinary(E.BOp, L, R);
    return true;
  }
  case ExprKind::Ternary: {
    int64_t C;
    if (!fold(*E.Children[0], C, Why))
      return false;
    return fold(C != 0 ? *E.Children[1] : *E.Children[2], Out, Why);
  }
  case ExprKind::Call:
    return NotConst();
  }
  return NotConst();
}

} // namespace

int64_t swa::usl::applyBinary(BinaryOp Op, int64_t L, int64_t R) {
  switch (Op) {
  case BinaryOp::Add:
    return L + R;
  case BinaryOp::Sub:
    return L - R;
  case BinaryOp::Mul:
    return L * R;
  case BinaryOp::Div:
    return L / R;
  case BinaryOp::Rem:
    return L % R;
  case BinaryOp::Lt:
    return L < R;
  case BinaryOp::Le:
    return L <= R;
  case BinaryOp::Gt:
    return L > R;
  case BinaryOp::Ge:
    return L >= R;
  case BinaryOp::Eq:
    return L == R;
  case BinaryOp::Ne:
    return L != R;
  case BinaryOp::And:
    return L != 0 && R != 0;
  case BinaryOp::Or:
    return L != 0 || R != 0;
  case BinaryOp::Min:
    return L < R ? L : R;
  case BinaryOp::Max:
    return L > R ? L : R;
  }
  return 0;
}

Result<int64_t> swa::usl::foldConst(const Expr &E) {
  int64_t V;
  std::string Why;
  if (fold(E, V, &Why))
    return V;
  return Error::failure(Why);
}

bool swa::usl::tryFoldConst(const Expr &E, int64_t &Out) {
  return fold(E, Out, nullptr);
}

//===----------------------------------------------------------------------===//
// Parser
//===----------------------------------------------------------------------===//

namespace {

class ParserImpl {
public:
  /// \p Mutable may be null for read-only expression parsing.
  ParserImpl(std::vector<Token> Tokens, Declarations *Mutable,
             const Declarations *Lookup)
      : Tokens(std::move(Tokens)), Mutable(Mutable), Lookup(Lookup) {}

  //===--------------------------------------------------------------------===//
  // Token plumbing
  //===--------------------------------------------------------------------===//

  const Token &peek(size_t Ahead = 0) const {
    size_t I = Pos + Ahead;
    if (I >= Tokens.size())
      I = Tokens.size() - 1; // Eof token.
    return Tokens[I];
  }
  bool at(TokenKind K) const { return peek().Kind == K; }
  bool atEof() const { return at(TokenKind::Eof); }
  Token consume() { return Tokens[Pos >= Tokens.size() ? Tokens.size() - 1
                                                       : Pos++]; }
  bool tryConsume(TokenKind K) {
    if (!at(K))
      return false;
    consume();
    return true;
  }

  Error err(const Token &T, const std::string &Msg) const {
    return Error::failure(
        formatString("%d:%d: %s", T.Loc.Line, T.Loc.Col, Msg.c_str()));
  }
  Error expectErr(TokenKind K) const {
    return err(peek(), formatString("expected %s, found %s", tokenKindName(K),
                                    tokenKindName(peek().Kind)));
  }
  Error expect(TokenKind K) {
    if (!at(K))
      return expectErr(K);
    consume();
    return Error::success();
  }

  //===--------------------------------------------------------------------===//
  // Scopes and symbol lookup
  //===--------------------------------------------------------------------===//

  Symbol *lookupName(const std::string &Name) const {
    for (auto It = Scopes.rbegin(); It != Scopes.rend(); ++It) {
      auto F = It->find(Name);
      if (F != It->end())
        return F->second;
    }
    return Lookup ? Lookup->lookup(Name) : nullptr;
  }

  bool nameTaken(const std::string &Name) const {
    return lookupName(Name) != nullptr;
  }

  Error expectEof() {
    if (!atEof())
      return err(peek(), "trailing tokens after expression");
    return Error::success();
  }

  void pushScope() { Scopes.emplace_back(); }
  void popScope() { Scopes.pop_back(); }
  void addToScope(Symbol *S) {
    assert(!Scopes.empty() && "no active scope");
    Scopes.back()[S->Name] = S;
  }

  //===--------------------------------------------------------------------===//
  // Expressions
  //===--------------------------------------------------------------------===//

  Result<ExprPtr> parseExpr() { return parseTernary(); }

  Result<ExprPtr> parseTernary() {
    Result<ExprPtr> Cond = parseOr();
    if (!Cond.ok())
      return Cond;
    if (!at(TokenKind::Question))
      return Cond;
    Token Q = consume();
    if ((*Cond)->HasClockAtom || (*Cond)->Ty.isClock())
      return err(Q, "clock conditions may not appear under '?:'");
    if (!(*Cond)->Ty.isBool())
      return err(Q, "condition of '?:' must be bool, got " +
                        (*Cond)->Ty.str());
    Result<ExprPtr> ThenE = parseExpr();
    if (!ThenE.ok())
      return ThenE;
    if (Error E = expect(TokenKind::Colon))
      return E;
    Result<ExprPtr> ElseE = parseTernary();
    if (!ElseE.ok())
      return ElseE;
    if (Error E = requireData(**ThenE, "'?:' branch"))
      return E;
    if (Error E = requireData(**ElseE, "'?:' branch"))
      return E;
    if ((*ThenE)->Ty.Kind != (*ElseE)->Ty.Kind)
      return err(Q, "branches of '?:' have mismatched types " +
                        (*ThenE)->Ty.str() + " and " + (*ElseE)->Ty.str());
    auto N = makeExpr();
    N->Kind = ExprKind::Ternary;
    N->Ty = (*ThenE)->Ty;
    N->Loc = Q.Loc;
    N->Children.push_back(Cond.takeValue());
    N->Children.push_back(ThenE.takeValue());
    N->Children.push_back(ElseE.takeValue());
    return foldIfConst(std::move(N));
  }

  Result<ExprPtr> parseOr() {
    Result<ExprPtr> L = parseAnd();
    if (!L.ok())
      return L;
    while (at(TokenKind::OrOr)) {
      Token Op = consume();
      Result<ExprPtr> R = parseAnd();
      if (!R.ok())
        return R;
      if ((*L)->HasClockAtom || (*R)->HasClockAtom)
        return err(Op, "clock conditions may not appear under '||'");
      Result<ExprPtr> N =
          makeBinary(BinaryOp::Or, Op, L.takeValue(), R.takeValue());
      if (!N.ok())
        return N;
      L = std::move(N);
    }
    return L;
  }

  Result<ExprPtr> parseAnd() {
    Result<ExprPtr> L = parseEquality();
    if (!L.ok())
      return L;
    while (at(TokenKind::AndAnd)) {
      Token Op = consume();
      Result<ExprPtr> R = parseEquality();
      if (!R.ok())
        return R;
      Result<ExprPtr> N =
          makeBinary(BinaryOp::And, Op, L.takeValue(), R.takeValue());
      if (!N.ok())
        return N;
      L = std::move(N);
    }
    return L;
  }

  Result<ExprPtr> parseEquality() {
    Result<ExprPtr> L = parseRelational();
    if (!L.ok())
      return L;
    while (at(TokenKind::EqEq) || at(TokenKind::NotEq)) {
      Token Op = consume();
      BinaryOp B = Op.Kind == TokenKind::EqEq ? BinaryOp::Eq : BinaryOp::Ne;
      Result<ExprPtr> R = parseRelational();
      if (!R.ok())
        return R;
      Result<ExprPtr> N = makeBinary(B, Op, L.takeValue(), R.takeValue());
      if (!N.ok())
        return N;
      L = std::move(N);
    }
    return L;
  }

  Result<ExprPtr> parseRelational() {
    Result<ExprPtr> L = parseAdditive();
    if (!L.ok())
      return L;
    while (at(TokenKind::Lt) || at(TokenKind::Le) || at(TokenKind::Gt) ||
           at(TokenKind::Ge)) {
      Token Op = consume();
      BinaryOp B = Op.Kind == TokenKind::Lt   ? BinaryOp::Lt
                   : Op.Kind == TokenKind::Le ? BinaryOp::Le
                   : Op.Kind == TokenKind::Gt ? BinaryOp::Gt
                                              : BinaryOp::Ge;
      Result<ExprPtr> R = parseAdditive();
      if (!R.ok())
        return R;
      Result<ExprPtr> N = makeBinary(B, Op, L.takeValue(), R.takeValue());
      if (!N.ok())
        return N;
      L = std::move(N);
    }
    return L;
  }

  Result<ExprPtr> parseAdditive() {
    Result<ExprPtr> L = parseMultiplicative();
    if (!L.ok())
      return L;
    while (at(TokenKind::Plus) || at(TokenKind::Minus)) {
      Token Op = consume();
      BinaryOp B = Op.Kind == TokenKind::Plus ? BinaryOp::Add : BinaryOp::Sub;
      Result<ExprPtr> R = parseMultiplicative();
      if (!R.ok())
        return R;
      Result<ExprPtr> N = makeBinary(B, Op, L.takeValue(), R.takeValue());
      if (!N.ok())
        return N;
      L = std::move(N);
    }
    return L;
  }

  Result<ExprPtr> parseMultiplicative() {
    Result<ExprPtr> L = parseUnary();
    if (!L.ok())
      return L;
    while (at(TokenKind::Star) || at(TokenKind::Slash) ||
           at(TokenKind::Percent)) {
      Token Op = consume();
      BinaryOp B = Op.Kind == TokenKind::Star    ? BinaryOp::Mul
                   : Op.Kind == TokenKind::Slash ? BinaryOp::Div
                                                 : BinaryOp::Rem;
      Result<ExprPtr> R = parseUnary();
      if (!R.ok())
        return R;
      Result<ExprPtr> N = makeBinary(B, Op, L.takeValue(), R.takeValue());
      if (!N.ok())
        return N;
      L = std::move(N);
    }
    return L;
  }

  Result<ExprPtr> parseUnary() {
    if (at(TokenKind::Minus)) {
      Token Op = consume();
      Result<ExprPtr> V = parseUnary();
      if (!V.ok())
        return V;
      if (!(*V)->Ty.isInt())
        return err(Op, "operand of unary '-' must be int, got " +
                           (*V)->Ty.str());
      auto N = makeExpr();
      N->Kind = ExprKind::Unary;
      N->UOp = UnaryOp::Neg;
      N->Ty = Type::makeInt();
      N->Loc = Op.Loc;
      N->Children.push_back(V.takeValue());
      return foldIfConst(std::move(N));
    }
    if (at(TokenKind::Not)) {
      Token Op = consume();
      Result<ExprPtr> V = parseUnary();
      if (!V.ok())
        return V;
      if ((*V)->HasClockAtom)
        return err(Op, "clock conditions may not appear under '!'");
      if (!(*V)->Ty.isBool())
        return err(Op, "operand of '!' must be bool, got " + (*V)->Ty.str());
      auto N = makeExpr();
      N->Kind = ExprKind::Unary;
      N->UOp = UnaryOp::Not;
      N->Ty = Type::makeBool();
      N->Loc = Op.Loc;
      N->Children.push_back(V.takeValue());
      return foldIfConst(std::move(N));
    }
    return parsePrimary();
  }

  Result<ExprPtr> parsePrimary() {
    Token T = peek();
    switch (T.Kind) {
    case TokenKind::IntLiteral:
      consume();
      return Expr::makeInt(T.IntValue, T.Loc);
    case TokenKind::KwTrue:
      consume();
      return Expr::makeBool(true, T.Loc);
    case TokenKind::KwFalse:
      consume();
      return Expr::makeBool(false, T.Loc);
    case TokenKind::LParen: {
      consume();
      Result<ExprPtr> E = parseExpr();
      if (!E.ok())
        return E;
      if (Error Err = expect(TokenKind::RParen))
        return Err;
      return E;
    }
    case TokenKind::Identifier:
      return parseIdentifierExpr();
    default:
      return err(T, formatString("expected expression, found %s",
                                 tokenKindName(T.Kind)));
    }
  }

  Result<ExprPtr> parseIdentifierExpr() {
    Token T = consume();
    Symbol *S = lookupName(T.Text);
    if (!S)
      return err(T, "use of undeclared identifier '" + T.Text + "'");
    if (S->Ty.isChan())
      return err(T, "channel '" + T.Text +
                        "' may only appear in a synchronization label");
    if (S->Kind == SymbolKind::Function)
      return parseCall(T, S);
    if (at(TokenKind::LParen))
      return err(T, "called object '" + T.Text + "' is not a function");

    if (at(TokenKind::LBracket)) {
      if (!S->Ty.isArray())
        return err(T, "subscripted value '" + T.Text + "' is not an array");
      consume();
      Result<ExprPtr> Idx = parseExpr();
      if (!Idx.ok())
        return Idx;
      if (Error E = expect(TokenKind::RBracket))
        return E;
      if (!(*Idx)->Ty.isInt())
        return err(T, "array index must be int, got " + (*Idx)->Ty.str());
      auto N = makeExpr();
      N->Kind = ExprKind::Index;
      N->Sym = S;
      N->Ty = S->Ty.element();
      N->Loc = T.Loc;
      N->Children.push_back(Idx.takeValue());
      return foldIfConst(std::move(N));
    }

    // Plain reference. Fold scalar constants immediately.
    if (S->Kind == SymbolKind::GlobalConst && !S->Ty.isArray()) {
      ExprPtr Lit = S->Ty.isBool() ? Expr::makeBool(S->ConstValues[0] != 0,
                                                    T.Loc)
                                   : Expr::makeInt(S->ConstValues[0], T.Loc);
      return Lit;
    }
    auto N = makeExpr();
    N->Kind = ExprKind::VarRef;
    N->Sym = S;
    N->Ty = S->Ty;
    N->Loc = T.Loc;
    return N;
  }

  Result<ExprPtr> parseCall(const Token &NameTok, Symbol *S) {
    FuncDecl *F = S->Func;
    assert(F && "function symbol without body");
    if (Error E = expect(TokenKind::LParen))
      return E;
    std::vector<ExprPtr> Args;
    if (!at(TokenKind::RParen)) {
      for (;;) {
        Result<ExprPtr> A = parseExpr();
        if (!A.ok())
          return A;
        if (Error E = requireData(**A, "function argument"))
          return E;
        Args.push_back(A.takeValue());
        if (!tryConsume(TokenKind::Comma))
          break;
      }
    }
    if (Error E = expect(TokenKind::RParen))
      return E;
    if (Args.size() != F->Params.size())
      return err(NameTok,
                 formatString("function '%s' expects %zu arguments, got %zu",
                              S->Name.c_str(), F->Params.size(),
                              Args.size()));
    for (size_t I = 0; I < Args.size(); ++I)
      if (Args[I]->Ty.Kind != F->Params[I]->Ty.Kind)
        return err(NameTok,
                   formatString("argument %zu of '%s' has type %s, expected "
                                "%s",
                                I + 1, S->Name.c_str(),
                                Args[I]->Ty.str().c_str(),
                                F->Params[I]->Ty.str().c_str()));
    auto N = makeExpr();
    N->Kind = ExprKind::Call;
    N->Sym = S;
    N->Ty = F->RetTy;
    N->Loc = NameTok.Loc;
    N->Children.assign(std::make_move_iterator(Args.begin()),
                       std::make_move_iterator(Args.end()));
    return N;
  }

  /// Builds a binary node with full type checking, handling clock atoms.
  Result<ExprPtr> makeBinary(BinaryOp B, const Token &Op, ExprPtr L,
                             ExprPtr R) {
    // Clock comparisons become clock atoms.
    bool IsCmp = B == BinaryOp::Lt || B == BinaryOp::Le || B == BinaryOp::Gt ||
                 B == BinaryOp::Ge || B == BinaryOp::Eq || B == BinaryOp::Ne;
    if (IsCmp && (L->Ty.isClock() || R->Ty.isClock())) {
      if (L->Ty.isClock() && R->Ty.isClock())
        return err(Op, "clock-to-clock comparisons are not supported");
      // Normalize to clock-on-the-left.
      if (R->Ty.isClock()) {
        std::swap(L, R);
        B = B == BinaryOp::Lt   ? BinaryOp::Gt
            : B == BinaryOp::Le ? BinaryOp::Ge
            : B == BinaryOp::Gt ? BinaryOp::Lt
            : B == BinaryOp::Ge ? BinaryOp::Le
                                : B;
      }
      if (B == BinaryOp::Ne)
        return err(Op, "'!=' comparisons with clocks are not supported");
      if (!R->Ty.isInt())
        return err(Op, "clock must be compared with an int expression, got " +
                           R->Ty.str());
      if (L->Kind != ExprKind::VarRef ||
          (L->ClockAtom == ClockAtomKind::Rate))
        return err(Op, "clock comparison requires a plain clock reference");
      bool IsRate = L->HasClockAtom; // Set by the prime marker below.
      auto N = makeExpr();
      N->Kind = ExprKind::Binary;
      N->BOp = B;
      N->Ty = Type::makeBool();
      N->Loc = Op.Loc;
      N->Sym = L->Sym;
      if (IsRate) {
        if (B != BinaryOp::Eq)
          return err(Op, "clock rate condition must use '=='");
        N->ClockAtom = ClockAtomKind::Rate;
      } else {
        N->ClockAtom = ClockAtomKind::Rel;
      }
      N->HasClockAtom = true;
      N->Children.push_back(std::move(L));
      N->Children.push_back(std::move(R));
      return N;
    }

    if (L->Ty.isClock() || R->Ty.isClock())
      return err(Op, "clocks may only appear in comparisons");
    if (B != BinaryOp::And && (L->HasClockAtom || R->HasClockAtom))
      return err(Op, "clock conditions may only be combined with '&&'");

    auto N = makeExpr();
    N->Kind = ExprKind::Binary;
    N->BOp = B;
    N->Loc = Op.Loc;
    switch (B) {
    case BinaryOp::Add:
    case BinaryOp::Sub:
    case BinaryOp::Mul:
    case BinaryOp::Div:
    case BinaryOp::Rem:
    case BinaryOp::Min:
    case BinaryOp::Max:
      if (!L->Ty.isInt() || !R->Ty.isInt())
        return err(Op, "arithmetic operands must be int, got " +
                           L->Ty.str() + " and " + R->Ty.str());
      N->Ty = Type::makeInt();
      break;
    case BinaryOp::Lt:
    case BinaryOp::Le:
    case BinaryOp::Gt:
    case BinaryOp::Ge:
      if (!L->Ty.isInt() || !R->Ty.isInt())
        return err(Op, "relational operands must be int, got " +
                           L->Ty.str() + " and " + R->Ty.str());
      N->Ty = Type::makeBool();
      break;
    case BinaryOp::Eq:
    case BinaryOp::Ne:
      if (!L->Ty.isData() || L->Ty.Kind != R->Ty.Kind)
        return err(Op, "'==' operands must both be int or both bool, got " +
                           L->Ty.str() + " and " + R->Ty.str());
      N->Ty = Type::makeBool();
      break;
    case BinaryOp::And:
    case BinaryOp::Or:
      if (!L->Ty.isBool() || !R->Ty.isBool())
        return err(Op, "logical operands must be bool, got " + L->Ty.str() +
                           " and " + R->Ty.str());
      N->Ty = Type::makeBool();
      N->HasClockAtom = L->HasClockAtom || R->HasClockAtom;
      break;
    }
    N->Children.push_back(std::move(L));
    N->Children.push_back(std::move(R));
    return foldIfConst(std::move(N));
  }

  /// Folds a freshly built node if all operands are constant.
  Result<ExprPtr> foldIfConst(ExprPtr N) {
    if (N->HasClockAtom)
      return N;
    Result<int64_t> V = foldConst(*N);
    if (!V.ok()) {
      // Distinguish "not constant" (keep node) from genuine fold errors
      // (constant division by zero, out-of-range const index).
      const std::string &Msg = V.error().message();
      if (Msg.find("division by zero") != std::string::npos ||
          Msg.find("remainder by zero") != std::string::npos ||
          Msg.find("out of bounds") != std::string::npos)
        return V.takeError();
      return N;
    }
    if (N->Ty.isBool())
      return Expr::makeBool(*V != 0, N->Loc);
    return Expr::makeInt(*V, N->Loc);
  }

  /// Requires a scalar data value (int or bool).
  Error requireData(const Expr &E, const char *What) const {
    if (E.HasClockAtom)
      return Error::failure(formatString(
          "%d:%d: clock conditions are not allowed in %s", E.Loc.Line,
          E.Loc.Col, What));
    if (!E.Ty.isData())
      return Error::failure(formatString("%d:%d: %s must be int or bool, "
                                         "got %s",
                                         E.Loc.Line, E.Loc.Col, What,
                                         E.Ty.str().c_str()));
    return Error::success();
  }

  //===--------------------------------------------------------------------===//
  // The prime marker (clock rates in invariants)
  //===--------------------------------------------------------------------===//
  //
  // `x' == 0` is lexed as Identifier Prime EqEq IntLiteral. parsePrimary
  // would reject the Prime; we pre-scan in parseInvariantSource by calling
  // parseRatePrefix at conjunct starts instead.

  //===--------------------------------------------------------------------===//
  // Statements (function bodies)
  //===--------------------------------------------------------------------===//

  Result<StmtPtr> parseBlock() {
    Token LB = peek();
    if (Error E = expect(TokenKind::LBrace))
      return E;
    pushScope();
    auto B = makeStmt();
    B->Kind = StmtKind::Block;
    B->Loc = LB.Loc;
    while (!at(TokenKind::RBrace)) {
      if (atEof()) {
        popScope();
        return err(peek(), "unterminated block");
      }
      Result<StmtPtr> S = parseStmt();
      if (!S.ok()) {
        popScope();
        return S;
      }
      B->Body.push_back(S.takeValue());
    }
    consume();
    popScope();
    return StmtPtr(std::move(B));
  }

  Result<StmtPtr> parseStmt() {
    switch (peek().Kind) {
    case TokenKind::LBrace:
      return parseBlock();
    case TokenKind::KwInt:
    case TokenKind::KwBool:
      return parseLocalDecl();
    case TokenKind::KwIf:
      return parseIf();
    case TokenKind::KwWhile:
      return parseWhile();
    case TokenKind::KwFor:
      return parseFor();
    case TokenKind::KwReturn:
      return parseReturn();
    default: {
      Result<StmtPtr> S = parseSimpleStmt(/*AllowEmpty=*/false);
      if (!S.ok())
        return S;
      if (Error E = expect(TokenKind::Semi))
        return E;
      return S;
    }
    }
  }

  /// Assignment / call / inc-dec, no trailing ';'. Used by plain statements
  /// and by for-headers and updates.
  Result<StmtPtr> parseSimpleStmt(bool AllowEmpty) {
    if (AllowEmpty &&
        (at(TokenKind::Semi) || at(TokenKind::RParen))) {
      auto S = makeStmt();
      S->Kind = StmtKind::Block;
      S->Loc = peek().Loc;
      return StmtPtr(std::move(S));
    }
    Token T = peek();
    if (!T.is(TokenKind::Identifier))
      return err(T, "expected statement");
    Symbol *S = lookupName(T.Text);
    if (!S)
      return err(T, "use of undeclared identifier '" + T.Text + "'");
    if (S->Kind == SymbolKind::Function) {
      // Call statement.
      consume();
      Result<ExprPtr> C = parseCall(T, S);
      if (!C.ok())
        return C.takeError();
      auto St = makeStmt();
      St->Kind = StmtKind::ExprStmt;
      St->Loc = T.Loc;
      St->Value = C.takeValue();
      return StmtPtr(std::move(St));
    }
    return parseAssignment();
  }

  /// Parses `lvalue (=|+=|-=) expr` or `lvalue (++|--)`.
  Result<StmtPtr> parseAssignment() {
    Token T = consume();
    Symbol *S = lookupName(T.Text);
    assert(S && "caller checked");
    if (S->Kind == SymbolKind::GlobalConst ||
        S->Kind == SymbolKind::TemplateParam ||
        S->Kind == SymbolKind::SelectVar)
      return err(T, "cannot assign to read-only '" + T.Text + "'");
    ExprPtr Target;
    if (at(TokenKind::LBracket)) {
      if (!S->Ty.isArray())
        return err(T, "subscripted value '" + T.Text + "' is not an array");
      consume();
      Result<ExprPtr> Idx = parseExpr();
      if (!Idx.ok())
        return Idx.takeError();
      if (Error E = expect(TokenKind::RBracket))
        return E;
      if (!(*Idx)->Ty.isInt())
        return err(T, "array index must be int");
      Target = makeExpr();
      Target->Kind = ExprKind::Index;
      Target->Sym = S;
      Target->Ty = S->Ty.element();
      Target->Loc = T.Loc;
      Target->Children.push_back(Idx.takeValue());
    } else {
      if (S->Ty.isArray())
        return err(T, "cannot assign to whole array '" + T.Text + "'");
      Target = makeExpr();
      Target->Kind = ExprKind::VarRef;
      Target->Sym = S;
      Target->Ty = S->Ty;
      Target->Loc = T.Loc;
    }

    auto St = makeStmt();
    St->Kind = StmtKind::Assign;
    St->Loc = T.Loc;

    if (at(TokenKind::PlusPlus) || at(TokenKind::MinusMinus)) {
      Token Op = consume();
      if (!Target->Ty.isInt() && !Target->Ty.isClock())
        return err(Op, "'++'/'--' requires an int lvalue");
      if (Target->Ty.isClock())
        return err(Op, "clocks cannot be incremented");
      St->AOp = Op.Kind == TokenKind::PlusPlus ? AssignOp::Add
                                               : AssignOp::Sub;
      St->Target = std::move(Target);
      St->Value = Expr::makeInt(1, Op.Loc);
      return StmtPtr(std::move(St));
    }

    Token Op = peek();
    AssignOp A;
    if (tryConsume(TokenKind::Assign))
      A = AssignOp::Set;
    else if (tryConsume(TokenKind::PlusAssign))
      A = AssignOp::Add;
    else if (tryConsume(TokenKind::MinusAssign))
      A = AssignOp::Sub;
    else
      return err(Op, "expected assignment operator");

    Result<ExprPtr> V = parseExpr();
    if (!V.ok())
      return V.takeError();

    if (Target->Ty.isClock()) {
      // Clock reset: only `c = 0` is permitted, and only in edge updates
      // (function bodies cannot touch clocks).
      if (CurFunc)
        return err(Op, "clocks cannot be assigned inside functions");
      if (A != AssignOp::Set)
        return err(Op, "clocks may only be reset with '= 0'");
      Result<int64_t> Z = foldConst(**V);
      if (!Z.ok() || *Z != 0)
        return err(Op, "clocks may only be reset to the constant 0");
      St->AOp = AssignOp::Set;
      St->Target = std::move(Target);
      St->Value = V.takeValue();
      return StmtPtr(std::move(St));
    }

    if (Error E = requireData(**V, "assignment source"))
      return E;
    if (A != AssignOp::Set && !Target->Ty.isInt())
      return err(Op, "'+='/'-=' requires an int lvalue");
    if (A == AssignOp::Set && Target->Ty.Kind != (*V)->Ty.Kind)
      return err(Op, "cannot assign " + (*V)->Ty.str() + " to " +
                         Target->Ty.str());
    if (A != AssignOp::Set && !(*V)->Ty.isInt())
      return err(Op, "'+='/'-=' source must be int");
    St->AOp = A;
    St->Target = std::move(Target);
    St->Value = V.takeValue();
    return StmtPtr(std::move(St));
  }

  Result<StmtPtr> parseLocalDecl() {
    assert(CurFunc && "local declarations only allowed inside functions");
    Token TypeTok = consume();
    Result<Type> BaseTy = parseScalarTypeTail(TypeTok);
    if (!BaseTy.ok())
      return BaseTy.takeError();

    auto Outer = makeStmt();
    Outer->Kind = StmtKind::Block;
    Outer->Loc = TypeTok.Loc;

    for (;;) {
      Token NameTok = peek();
      if (Error E = expect(TokenKind::Identifier))
        return E;
      if (!Scopes.empty() && Scopes.back().count(NameTok.Text))
        return err(NameTok, "redefinition of '" + NameTok.Text + "'");

      Type Ty = *BaseTy;
      if (tryConsume(TokenKind::LBracket)) {
        Result<ExprPtr> SizeE = parseExpr();
        if (!SizeE.ok())
          return SizeE.takeError();
        if (Error E = expect(TokenKind::RBracket))
          return E;
        Result<int64_t> Size = foldConst(**SizeE);
        if (!Size.ok())
          return err(NameTok, "array size must be a compile-time constant");
        if (*Size <= 0 || *Size > (1 << 20))
          return err(NameTok, "array size out of range");
        Ty = Ty.isBool() ? Type::makeBoolArray(static_cast<int>(*Size))
                         : Type::makeIntArray(static_cast<int>(*Size));
      }

      Symbol *Sym = Mutable->createScoped(SymbolKind::FuncLocal,
                                          NameTok.Text, Ty);
      Sym->HasRange = BaseTy->isInt() && PendingRange.HasRange;
      Sym->RangeLo = PendingRange.Lo;
      Sym->RangeHi = PendingRange.Hi;
      Sym->Index = CurFunc->FrameSize;
      CurFunc->FrameSize += Ty.isArray() ? Ty.Size : 1;
      addToScope(Sym);

      auto DeclSt = makeStmt();
      DeclSt->Kind = StmtKind::LocalDecl;
      DeclSt->Loc = NameTok.Loc;
      DeclSt->DeclSym = Sym;
      if (tryConsume(TokenKind::Assign)) {
        if (Ty.isArray())
          return err(NameTok, "array locals cannot have initializers");
        Result<ExprPtr> Init = parseExpr();
        if (!Init.ok())
          return Init.takeError();
        if (Error E = requireData(**Init, "initializer"))
          return E;
        if ((*Init)->Ty.Kind != Ty.Kind)
          return err(NameTok, "initializer type mismatch");
        DeclSt->Value = Init.takeValue();
      }
      Outer->Body.push_back(std::move(DeclSt));
      if (!tryConsume(TokenKind::Comma))
        break;
    }
    if (Error E = expect(TokenKind::Semi))
      return E;
    return StmtPtr(std::move(Outer));
  }

  Result<StmtPtr> parseIf() {
    Token T = consume();
    if (Error E = expect(TokenKind::LParen))
      return E;
    Result<ExprPtr> Cond = parseExpr();
    if (!Cond.ok())
      return Cond.takeError();
    if (Error E = expect(TokenKind::RParen))
      return E;
    if ((*Cond)->HasClockAtom || !(*Cond)->Ty.isBool())
      return err(T, "'if' condition must be a clock-free bool expression");
    Result<StmtPtr> Then = parseStmt();
    if (!Then.ok())
      return Then;
    auto S = makeStmt();
    S->Kind = StmtKind::If;
    S->Loc = T.Loc;
    S->Cond = Cond.takeValue();
    S->Then = Then.takeValue();
    if (tryConsume(TokenKind::KwElse)) {
      Result<StmtPtr> Else = parseStmt();
      if (!Else.ok())
        return Else;
      S->Else = Else.takeValue();
    }
    return StmtPtr(std::move(S));
  }

  Result<StmtPtr> parseWhile() {
    Token T = consume();
    if (Error E = expect(TokenKind::LParen))
      return E;
    Result<ExprPtr> Cond = parseExpr();
    if (!Cond.ok())
      return Cond.takeError();
    if (Error E = expect(TokenKind::RParen))
      return E;
    if ((*Cond)->HasClockAtom || !(*Cond)->Ty.isBool())
      return err(T, "'while' condition must be a clock-free bool expression");
    Result<StmtPtr> Body = parseStmt();
    if (!Body.ok())
      return Body;
    auto S = makeStmt();
    S->Kind = StmtKind::While;
    S->Loc = T.Loc;
    S->Cond = Cond.takeValue();
    S->Then = Body.takeValue();
    return StmtPtr(std::move(S));
  }

  Result<StmtPtr> parseFor() {
    Token T = consume();
    if (Error E = expect(TokenKind::LParen))
      return E;
    pushScope(); // Allow `for (int i = ...)`-free form; decls via while.
    Result<StmtPtr> Init = at(TokenKind::KwInt) || at(TokenKind::KwBool)
                               ? parseLocalDecl()
                               : parseSimpleStmtSemi();
    if (!Init.ok()) {
      popScope();
      return Init;
    }
    Result<ExprPtr> Cond = parseExpr();
    if (!Cond.ok()) {
      popScope();
      return Cond.takeError();
    }
    if (Error E = expect(TokenKind::Semi)) {
      popScope();
      return E;
    }
    if ((*Cond)->HasClockAtom || !(*Cond)->Ty.isBool()) {
      popScope();
      return err(T, "'for' condition must be a clock-free bool expression");
    }
    Result<StmtPtr> Step = parseSimpleStmt(/*AllowEmpty=*/true);
    if (!Step.ok()) {
      popScope();
      return Step;
    }
    if (Error E = expect(TokenKind::RParen)) {
      popScope();
      return E;
    }
    Result<StmtPtr> Body = parseStmt();
    popScope();
    if (!Body.ok())
      return Body;
    auto S = makeStmt();
    S->Kind = StmtKind::For;
    S->Loc = T.Loc;
    S->Body.push_back(Init.takeValue());
    S->Body.push_back(Step.takeValue());
    S->Cond = Cond.takeValue();
    S->Then = Body.takeValue();
    return StmtPtr(std::move(S));
  }

  /// Simple statement followed by ';' (for-init position), possibly empty.
  Result<StmtPtr> parseSimpleStmtSemi() {
    Result<StmtPtr> S = parseSimpleStmt(/*AllowEmpty=*/true);
    if (!S.ok())
      return S;
    if (Error E = expect(TokenKind::Semi))
      return E;
    return S;
  }

  Result<StmtPtr> parseReturn() {
    Token T = consume();
    auto S = makeStmt();
    S->Kind = StmtKind::Return;
    S->Loc = T.Loc;
    if (!at(TokenKind::Semi)) {
      Result<ExprPtr> V = parseExpr();
      if (!V.ok())
        return V.takeError();
      if (Error E = requireData(**V, "return value"))
        return E;
      S->Value = V.takeValue();
    }
    if (Error E = expect(TokenKind::Semi))
      return E;
    if (CurFunc->RetTy.Kind == TypeKind::Void && S->Value)
      return err(T, "void function cannot return a value");
    if (CurFunc->RetTy.Kind != TypeKind::Void) {
      if (!S->Value)
        return err(T, "non-void function must return a value");
      if (S->Value->Ty.Kind != CurFunc->RetTy.Kind)
        return err(T, "return type mismatch: expected " +
                          CurFunc->RetTy.str() + ", got " +
                          S->Value->Ty.str());
    }
    return StmtPtr(std::move(S));
  }

  //===--------------------------------------------------------------------===//
  // Declarations
  //===--------------------------------------------------------------------===//

  /// Parses optional `[lo, hi]` range after 'int'. Stores into PendingRange.
  Result<Type> parseScalarTypeTail(const Token &TypeTok) {
    PendingRange = {};
    if (TypeTok.Kind == TokenKind::KwBool)
      return Type::makeBool();
    assert(TypeTok.Kind == TokenKind::KwInt);
    if (at(TokenKind::LBracket) && !isArraySizeBracket()) {
      consume();
      Result<ExprPtr> LoE = parseExpr();
      if (!LoE.ok())
        return LoE.takeError();
      if (Error E = expect(TokenKind::Comma))
        return E;
      Result<ExprPtr> HiE = parseExpr();
      if (!HiE.ok())
        return HiE.takeError();
      if (Error E = expect(TokenKind::RBracket))
        return E;
      Result<int64_t> Lo = foldConst(**LoE);
      Result<int64_t> Hi = foldConst(**HiE);
      if (!Lo.ok() || !Hi.ok())
        return err(TypeTok, "int range bounds must be compile-time constants");
      if (*Lo > *Hi)
        return err(TypeTok, "empty int range");
      PendingRange = {true, *Lo, *Hi};
    }
    return Type::makeInt();
  }

  /// Distinguishes `int[3] …`-style (not supported; arrays use postfix
  /// brackets) from ranges: a range always contains a comma at depth 1.
  bool isArraySizeBracket() const {
    size_t I = Pos + 1; // After '['.
    int Depth = 1;
    while (I < Tokens.size()) {
      TokenKind K = Tokens[I].Kind;
      if (K == TokenKind::LBracket)
        ++Depth;
      else if (K == TokenKind::RBracket) {
        if (--Depth == 0)
          return true; // No comma seen at depth 1: not a range.
      } else if (K == TokenKind::Comma && Depth == 1)
        return false;
      else if (K == TokenKind::Eof)
        break;
      ++I;
    }
    return true;
  }

  Error parseDeclBlock(bool IsTemplate) {
    while (!atEof()) {
      switch (peek().Kind) {
      case TokenKind::KwConst:
        if (Error E = parseConstDecl())
          return E;
        break;
      case TokenKind::KwClock:
        if (Error E = parseClockDecl(IsTemplate))
          return E;
        break;
      case TokenKind::KwBroadcast:
      case TokenKind::KwChan:
        if (IsTemplate)
          return err(peek(), "channels must be declared globally");
        if (Error E = parseChanDecl())
          return E;
        break;
      case TokenKind::KwInt:
      case TokenKind::KwBool:
      case TokenKind::KwVoid: {
        // Function if an identifier followed by '(' comes next.
        if (isFunctionHead()) {
          if (Error E = parseFuncDecl(IsTemplate))
            return E;
        } else {
          if (Error E = parseVarDecl(IsTemplate))
            return E;
        }
        break;
      }
      default:
        return err(peek(), formatString("expected declaration, found %s",
                                        tokenKindName(peek().Kind)));
      }
    }
    return Error::success();
  }

  /// Looks ahead: type [range] ident '(' means function definition.
  bool isFunctionHead() const {
    size_t I = Pos;
    auto K = [&](size_t J) {
      return J < Tokens.size() ? Tokens[J].Kind : TokenKind::Eof;
    };
    // Skip type keyword.
    ++I;
    // Skip an optional range bracket.
    if (K(I) == TokenKind::LBracket) {
      int Depth = 1;
      ++I;
      while (I < Tokens.size() && Depth > 0) {
        if (K(I) == TokenKind::LBracket)
          ++Depth;
        if (K(I) == TokenKind::RBracket)
          --Depth;
        ++I;
      }
    }
    return K(I) == TokenKind::Identifier && K(I + 1) == TokenKind::LParen;
  }

  Error parseConstDecl() {
    consume(); // 'const'
    Token TypeTok = peek();
    if (!at(TokenKind::KwInt) && !at(TokenKind::KwBool))
      return err(TypeTok, "expected 'int' or 'bool' after 'const'");
    consume();
    Result<Type> BaseTy = parseScalarTypeTail(TypeTok);
    if (!BaseTy.ok())
      return BaseTy.takeError();
    for (;;) {
      Token NameTok = peek();
      if (Error E = expect(TokenKind::Identifier))
        return E;
      if (nameTaken(NameTok.Text) || Mutable->declaresLocally(NameTok.Text))
        return err(NameTok, "redefinition of '" + NameTok.Text + "'");
      Type Ty = *BaseTy;
      int Size = 0;
      if (tryConsume(TokenKind::LBracket)) {
        Result<ExprPtr> SizeE = parseExpr();
        if (!SizeE.ok())
          return SizeE.takeError();
        if (Error E = expect(TokenKind::RBracket))
          return E;
        Result<int64_t> SizeV = foldConst(**SizeE);
        if (!SizeV.ok())
          return err(NameTok, "array size must be a compile-time constant");
        if (*SizeV <= 0 || *SizeV > (1 << 24))
          return err(NameTok, "array size out of range");
        Size = static_cast<int>(*SizeV);
        Ty = Ty.isBool() ? Type::makeBoolArray(Size)
                         : Type::makeIntArray(Size);
      }
      if (Error E = expect(TokenKind::Assign))
        return E;
      std::vector<int64_t> Values;
      if (Ty.isArray()) {
        if (Error E = expect(TokenKind::LBrace))
          return E;
        for (;;) {
          Result<ExprPtr> V = parseExpr();
          if (!V.ok())
            return V.takeError();
          Result<int64_t> C = foldConst(**V);
          if (!C.ok())
            return err(NameTok, "constant initializer must fold");
          Values.push_back(*C);
          if (!tryConsume(TokenKind::Comma))
            break;
        }
        if (Error E = expect(TokenKind::RBrace))
          return E;
        if (static_cast<int>(Values.size()) != Size)
          return err(NameTok,
                     formatString("array initializer has %zu elements, "
                                  "expected %d",
                                  Values.size(), Size));
      } else {
        Result<ExprPtr> V = parseExpr();
        if (!V.ok())
          return V.takeError();
        Result<int64_t> C = foldConst(**V);
        if (!C.ok())
          return err(NameTok, "constant initializer must fold");
        Values.push_back(*C);
      }
      Symbol *Sym =
          Mutable->create(SymbolKind::GlobalConst, NameTok.Text, Ty);
      Sym->ConstValues = std::move(Values);
      Sym->Index = static_cast<int>(Mutable->Consts.size());
      Mutable->Consts.push_back(Sym);
      if (!tryConsume(TokenKind::Comma))
        break;
    }
    return expect(TokenKind::Semi);
  }

  Error parseClockDecl(bool IsTemplate) {
    consume(); // 'clock'
    for (;;) {
      Token NameTok = peek();
      if (Error E = expect(TokenKind::Identifier))
        return E;
      if (nameTaken(NameTok.Text) || Mutable->declaresLocally(NameTok.Text))
        return err(NameTok, "redefinition of '" + NameTok.Text + "'");
      Symbol *Sym = Mutable->create(IsTemplate ? SymbolKind::TemplateClock
                                               : SymbolKind::GlobalClock,
                                    NameTok.Text, Type::makeClock());
      Sym->Index = static_cast<int>(Mutable->Clocks.size());
      Mutable->Clocks.push_back(Sym);
      if (!tryConsume(TokenKind::Comma))
        break;
    }
    return expect(TokenKind::Semi);
  }

  Error parseChanDecl() {
    bool Broadcast = tryConsume(TokenKind::KwBroadcast);
    if (Error E = expect(TokenKind::KwChan))
      return E;
    for (;;) {
      Token NameTok = peek();
      if (Error E = expect(TokenKind::Identifier))
        return E;
      if (nameTaken(NameTok.Text) || Mutable->declaresLocally(NameTok.Text))
        return err(NameTok, "redefinition of '" + NameTok.Text + "'");
      Type Ty = Type::makeChan();
      if (tryConsume(TokenKind::LBracket)) {
        Result<ExprPtr> SizeE = parseExpr();
        if (!SizeE.ok())
          return SizeE.takeError();
        if (Error E = expect(TokenKind::RBracket))
          return E;
        Result<int64_t> Size = foldConst(**SizeE);
        if (!Size.ok())
          return err(NameTok, "channel array size must be constant");
        if (*Size <= 0 || *Size > (1 << 24))
          return err(NameTok, "channel array size out of range");
        Ty = Type::makeChanArray(static_cast<int>(*Size));
      }
      Symbol *Sym = Mutable->create(SymbolKind::Channel, NameTok.Text, Ty);
      Sym->Broadcast = Broadcast;
      Sym->Index = static_cast<int>(Mutable->Channels.size());
      Mutable->Channels.push_back(Sym);
      if (!tryConsume(TokenKind::Comma))
        break;
    }
    return expect(TokenKind::Semi);
  }

  Error parseVarDecl(bool IsTemplate) {
    Token TypeTok = consume();
    if (TypeTok.Kind == TokenKind::KwVoid)
      return err(TypeTok, "variables cannot have void type");
    Result<Type> BaseTy = parseScalarTypeTail(TypeTok);
    if (!BaseTy.ok())
      return BaseTy.takeError();
    RangeInfo Range = PendingRange;
    for (;;) {
      Token NameTok = peek();
      if (Error E = expect(TokenKind::Identifier))
        return E;
      if (nameTaken(NameTok.Text) || Mutable->declaresLocally(NameTok.Text))
        return err(NameTok, "redefinition of '" + NameTok.Text + "'");
      Type Ty = *BaseTy;
      if (tryConsume(TokenKind::LBracket)) {
        Result<ExprPtr> SizeE = parseExpr();
        if (!SizeE.ok())
          return SizeE.takeError();
        if (Error E = expect(TokenKind::RBracket))
          return E;
        Result<int64_t> Size = foldConst(**SizeE);
        if (!Size.ok())
          return err(NameTok, "array size must be a compile-time constant");
        if (*Size <= 0 || *Size > (1 << 24))
          return err(NameTok, "array size out of range");
        Ty = Ty.isBool() ? Type::makeBoolArray(static_cast<int>(*Size))
                         : Type::makeIntArray(static_cast<int>(*Size));
      }
      Declarations::VarInit VI;
      if (tryConsume(TokenKind::Assign)) {
        if (Ty.isArray()) {
          if (Error E = expect(TokenKind::LBrace))
            return E;
          for (;;) {
            Result<ExprPtr> V = parseExpr();
            if (!V.ok())
              return V.takeError();
            if (Error E = requireData(**V, "initializer"))
              return E;
            VI.Init.push_back(V.takeValue());
            if (!tryConsume(TokenKind::Comma))
              break;
          }
          if (Error E = expect(TokenKind::RBrace))
            return E;
          if (static_cast<int>(VI.Init.size()) > Ty.Size)
            return err(NameTok, "too many array initializer elements");
        } else {
          Result<ExprPtr> V = parseExpr();
          if (!V.ok())
            return V.takeError();
          if (Error E = requireData(**V, "initializer"))
            return E;
          if ((*V)->Ty.Kind != Ty.Kind)
            return err(NameTok, "initializer type mismatch");
          VI.Init.push_back(V.takeValue());
        }
      }
      Symbol *Sym = Mutable->create(IsTemplate ? SymbolKind::TemplateVar
                                               : SymbolKind::GlobalVar,
                                    NameTok.Text, Ty);
      Sym->HasRange = Range.HasRange;
      Sym->RangeLo = Range.Lo;
      Sym->RangeHi = Range.Hi;
      Sym->Index = static_cast<int>(Mutable->Vars.size());
      VI.Sym = Sym;
      Mutable->Vars.push_back(std::move(VI));
      if (!tryConsume(TokenKind::Comma))
        break;
    }
    return expect(TokenKind::Semi);
  }

  Error parseFuncDecl(bool IsTemplate) {
    Token TypeTok = consume();
    Type RetTy = TypeTok.Kind == TokenKind::KwVoid   ? Type::makeVoid()
                 : TypeTok.Kind == TokenKind::KwBool ? Type::makeBool()
                                                     : Type::makeInt();
    if (TypeTok.Kind == TokenKind::KwInt &&
        at(TokenKind::LBracket) && !isArraySizeBracket()) {
      // Consume and ignore a return range annotation.
      Result<Type> T = parseScalarTypeTail(TypeTok);
      if (!T.ok())
        return T.takeError();
    }
    Token NameTok = peek();
    if (Error E = expect(TokenKind::Identifier))
      return E;
    if (nameTaken(NameTok.Text) || Mutable->declaresLocally(NameTok.Text))
      return err(NameTok, "redefinition of '" + NameTok.Text + "'");
    if (Error E = expect(TokenKind::LParen))
      return E;

    FuncDecl *F = Mutable->createFunc();
    F->RetTy = RetTy;
    Symbol *Sym =
        Mutable->create(SymbolKind::Function, NameTok.Text, Type::makeVoid());
    Sym->Func = F;
    F->Sym = Sym;
    Mutable->Funcs.push_back(F);

    pushScope();
    if (!at(TokenKind::RParen)) {
      for (;;) {
        Token PTok = peek();
        if (!at(TokenKind::KwInt) && !at(TokenKind::KwBool)) {
          popScope();
          return err(PTok, "expected parameter type");
        }
        consume();
        Result<Type> PTy = parseScalarTypeTail(PTok);
        if (!PTy.ok()) {
          popScope();
          return PTy.takeError();
        }
        Token PName = peek();
        if (Error E = expect(TokenKind::Identifier)) {
          popScope();
          return E;
        }
        if (Scopes.back().count(PName.Text)) {
          popScope();
          return err(PName, "duplicate parameter '" + PName.Text + "'");
        }
        Symbol *P =
            Mutable->createScoped(SymbolKind::FuncParam, PName.Text, *PTy);
        P->Index = F->FrameSize++;
        F->Params.push_back(P);
        addToScope(P);
        if (!tryConsume(TokenKind::Comma))
          break;
      }
    }
    if (Error E = expect(TokenKind::RParen)) {
      popScope();
      return E;
    }

    FuncDecl *PrevFunc = CurFunc;
    CurFunc = F;
    Result<StmtPtr> Body = parseBlock();
    CurFunc = PrevFunc;
    popScope();
    if (!Body.ok())
      return Body.takeError();
    F->Body = Body.takeValue();
    return Error::success();
  }

  //===--------------------------------------------------------------------===//
  // Template params, selects, sync, updates, guards, invariants
  //===--------------------------------------------------------------------===//

  Error parseParamList() {
    if (atEof())
      return Error::success();
    for (;;) {
      tryConsume(TokenKind::KwConst); // Optional, ignored.
      Token TypeTok = peek();
      if (!at(TokenKind::KwInt) && !at(TokenKind::KwBool))
        return err(TypeTok, "expected parameter type ('int' or 'bool')");
      consume();
      Type Ty = TypeTok.Kind == TokenKind::KwBool ? Type::makeBool()
                                                  : Type::makeInt();
      // `int[]` marks an unsized constant array parameter.
      if (at(TokenKind::LBracket) && peek(1).Kind == TokenKind::RBracket) {
        consume();
        consume();
        if (Ty.isBool())
          return err(TypeTok, "bool array parameters are not supported");
        Ty = Type::makeIntArray(-1);
      }
      Token NameTok = peek();
      if (Error E = expect(TokenKind::Identifier))
        return E;
      if (nameTaken(NameTok.Text) || Mutable->declaresLocally(NameTok.Text))
        return err(NameTok, "redefinition of '" + NameTok.Text + "'");
      Symbol *Sym =
          Mutable->create(SymbolKind::TemplateParam, NameTok.Text, Ty);
      Sym->Index = static_cast<int>(Mutable->Params.size());
      Mutable->Params.push_back(Sym);
      if (!tryConsume(TokenKind::Comma))
        break;
    }
    if (!atEof())
      return err(peek(), "trailing tokens after parameter list");
    return Error::success();
  }

  Result<std::vector<SelectAst>> parseSelects() {
    std::vector<SelectAst> Out;
    if (atEof())
      return Out;
    for (;;) {
      Token NameTok = peek();
      if (Error E = expect(TokenKind::Identifier))
        return E;
      if (nameTaken(NameTok.Text))
        return err(NameTok, "select variable '" + NameTok.Text +
                                "' shadows an existing name");
      if (Error E = expect(TokenKind::Colon))
        return E;
      if (Error E = expect(TokenKind::KwInt))
        return E;
      if (Error E = expect(TokenKind::LBracket))
        return E;
      Result<ExprPtr> Lo = parseExpr();
      if (!Lo.ok())
        return Lo.takeError();
      if (Error E = expect(TokenKind::Comma))
        return E;
      Result<ExprPtr> Hi = parseExpr();
      if (!Hi.ok())
        return Hi.takeError();
      if (Error E = expect(TokenKind::RBracket))
        return E;
      if (!(*Lo)->Ty.isInt() || !(*Hi)->Ty.isInt())
        return err(NameTok, "select bounds must be int");
      SelectAst Sel;
      Symbol *Sym = Mutable->createScoped(SymbolKind::SelectVar, NameTok.Text,
                                          Type::makeInt());
      Sym->Index = static_cast<int>(Out.size());
      addToScope(Sym);
      Sel.Var = Sym;
      Sel.Lo = Lo.takeValue();
      Sel.Hi = Hi.takeValue();
      Out.push_back(std::move(Sel));
      if (!tryConsume(TokenKind::Comma))
        break;
    }
    if (!atEof())
      return err(peek(), "trailing tokens after select bindings");
    return Out;
  }

  Result<SyncAst> parseSyncLabel() {
    SyncAst Out;
    if (atEof())
      return Out;
    Token NameTok = peek();
    if (Error E = expect(TokenKind::Identifier))
      return E;
    Symbol *S = lookupName(NameTok.Text);
    if (!S)
      return err(NameTok, "use of undeclared channel '" + NameTok.Text + "'");
    if (!S->Ty.isChan())
      return err(NameTok, "'" + NameTok.Text + "' is not a channel");
    Out.Chan = S;
    if (S->Ty.Kind == TypeKind::ChanArray) {
      if (Error E = expect(TokenKind::LBracket))
        return E;
      Result<ExprPtr> Idx = parseExpr();
      if (!Idx.ok())
        return Idx.takeError();
      if (Error E = expect(TokenKind::RBracket))
        return E;
      if (!(*Idx)->Ty.isInt())
        return err(NameTok, "channel index must be int");
      if (Error E = requirePure(**Idx, "channel index"))
        return E;
      Out.IndexExpr = Idx.takeValue();
    }
    if (tryConsume(TokenKind::Not) || tryConsume(TokenKind::Exclaim)) {
      Out.IsSend = true;
    } else if (tryConsume(TokenKind::Question)) {
      Out.IsSend = false;
    } else {
      return err(peek(), "expected '!' or '?' after channel");
    }
    if (!atEof())
      return err(peek(), "trailing tokens after synchronization label");
    return Out;
  }

  Result<UpdateAst> parseUpdateLabel() {
    UpdateAst Out;
    if (atEof())
      return Out;
    for (;;) {
      Result<StmtPtr> S = parseSimpleStmt(/*AllowEmpty=*/false);
      if (!S.ok())
        return S.takeError();
      StmtPtr St = S.takeValue();
      if (St->Kind == StmtKind::Assign && St->Target->Ty.isClock()) {
        Out.ClockResets.push_back(St->Target->Sym);
      } else {
        Out.Stmts.push_back(std::move(St));
      }
      if (!tryConsume(TokenKind::Comma))
        break;
    }
    if (!atEof())
      return err(peek(), "trailing tokens after update");
    return Out;
  }

  Result<GuardAst> parseGuardLabel() {
    GuardAst Out;
    if (atEof())
      return Out;
    Result<ExprPtr> E = parseExpr();
    if (!E.ok())
      return E.takeError();
    if (!atEof())
      return err(peek(), "trailing tokens after guard");
    if (!(*E)->Ty.isBool())
      return err(peek(), "guard must be a bool expression, got " +
                             (*E)->Ty.str());
    if (Error Err = requirePure(**E, "guard"))
      return Err;
    // Split top-level conjuncts into clock atoms and the data part.
    ExprPtr Root = E.takeValue();
    Error SplitErr = Error::success();
    splitConjuncts(std::move(Root), [&](ExprPtr C) {
      if (C->ClockAtom == ClockAtomKind::Rel) {
        GuardAst::ClockRel Rel;
        Rel.Clock = C->Sym;
        Rel.Op = C->BOp;
        Rel.Bound = std::move(C->Children[1]);
        Out.Clocks.push_back(std::move(Rel));
        return;
      }
      if (C->ClockAtom == ClockAtomKind::Rate) {
        if (!SplitErr)
          SplitErr = Error::failure(formatString(
              "%d:%d: clock rate conditions are only allowed in invariants",
              C->Loc.Line, C->Loc.Col));
        return;
      }
      appendConjunct(Out.DataPart, std::move(C));
    });
    if (SplitErr)
      return SplitErr;
    return Out;
  }

  Result<InvariantAst> parseInvariantLabel() {
    InvariantAst Out;
    if (atEof())
      return Out;
    // Pre-pass: rewrite `c' ==` by marking the VarRef; handled inline via
    // parseExpr and the Prime token: the primary parser does not accept
    // Prime, so we scan conjunct-wise ourselves.
    Result<ExprPtr> E = parseInvariantExpr();
    if (!E.ok())
      return E.takeError();
    if (!atEof())
      return err(peek(), "trailing tokens after invariant");
    if (!(*E)->Ty.isBool())
      return err(peek(), "invariant must be a bool expression");
    if (Error Err = requirePure(**E, "invariant"))
      return Err;
    Error SplitErr = Error::success();
    splitConjuncts(E.takeValue(), [&](ExprPtr C) {
      if (C->ClockAtom == ClockAtomKind::Rel) {
        if (C->BOp != BinaryOp::Le && C->BOp != BinaryOp::Lt) {
          if (!SplitErr)
            SplitErr = Error::failure(formatString(
                "%d:%d: invariant clock conditions must be upper bounds "
                "('<=' or '<')",
                C->Loc.Line, C->Loc.Col));
          return;
        }
        InvariantAst::ClockUpper U;
        U.Clock = C->Sym;
        U.Strict = C->BOp == BinaryOp::Lt;
        U.Bound = std::move(C->Children[1]);
        Out.Uppers.push_back(std::move(U));
        return;
      }
      if (C->ClockAtom == ClockAtomKind::Rate) {
        InvariantAst::RateCond RC;
        RC.Clock = C->Sym;
        RC.Rate = std::move(C->Children[1]);
        Out.Rates.push_back(std::move(RC));
        return;
      }
      appendConjunct(Out.DataPart, std::move(C));
    });
    if (SplitErr)
      return SplitErr;
    return Out;
  }

  /// Like parseExpr but accepts `ident' == e` rate conjuncts.
  Result<ExprPtr> parseInvariantExpr() {
    // Handle rate atoms at conjunct boundaries: ident Prime EqEq expr.
    auto ParseOne = [&]() -> Result<ExprPtr> {
      if (at(TokenKind::Identifier) && peek(1).Kind == TokenKind::Prime) {
        Token NameTok = consume();
        consume(); // Prime.
        Symbol *S = lookupName(NameTok.Text);
        if (!S)
          return err(NameTok,
                     "use of undeclared identifier '" + NameTok.Text + "'");
        if (!S->Ty.isClock())
          return err(NameTok, "rate condition on non-clock '" +
                                  NameTok.Text + "'");
        if (Error E = expect(TokenKind::EqEq))
          return E;
        Result<ExprPtr> Rate = parseAdditive();
        if (!Rate.ok())
          return Rate;
        if (!(*Rate)->Ty.isInt())
          return err(NameTok, "clock rate must be an int expression");
        auto N = makeExpr();
        N->Kind = ExprKind::Binary;
        N->BOp = BinaryOp::Eq;
        N->Ty = Type::makeBool();
        N->Loc = NameTok.Loc;
        N->Sym = S;
        N->ClockAtom = ClockAtomKind::Rate;
        N->HasClockAtom = true;
        auto ClockRef = makeExpr();
        ClockRef->Kind = ExprKind::VarRef;
        ClockRef->Sym = S;
        ClockRef->Ty = Type::makeClock();
        ClockRef->Loc = NameTok.Loc;
        N->Children.push_back(std::move(ClockRef));
        N->Children.push_back(Rate.takeValue());
        return ExprPtr(std::move(N));
      }
      return parseEquality();
    };

    Result<ExprPtr> L = ParseOne();
    if (!L.ok())
      return L;
    while (at(TokenKind::AndAnd)) {
      Token Op = consume();
      Result<ExprPtr> R = ParseOne();
      if (!R.ok())
        return R;
      Result<ExprPtr> N =
          makeBinary(BinaryOp::And, Op, L.takeValue(), R.takeValue());
      if (!N.ok())
        return N;
      L = std::move(N);
    }
    return L;
  }

  /// Splits an && tree into conjuncts.
  template <typename Fn> void splitConjuncts(ExprPtr E, Fn &&Callback) {
    if (E->Kind == ExprKind::Binary && E->BOp == BinaryOp::And &&
        E->ClockAtom == ClockAtomKind::None && E->HasClockAtom) {
      ExprPtr L = std::move(E->Children[0]);
      ExprPtr R = std::move(E->Children[1]);
      splitConjuncts(std::move(L), Callback);
      splitConjuncts(std::move(R), Callback);
      return;
    }
    Callback(std::move(E));
  }

  /// Conjoins \p C onto \p Into.
  static void appendConjunct(ExprPtr &Into, ExprPtr C) {
    if (!Into) {
      Into = std::move(C);
      return;
    }
    auto N = makeExpr();
    N->Kind = ExprKind::Binary;
    N->BOp = BinaryOp::And;
    N->Ty = Type::makeBool();
    N->Loc = Into->Loc;
    N->Children.push_back(std::move(Into));
    N->Children.push_back(std::move(C));
    Into = std::move(N);
  }

  /// Rejects calls to state-writing functions (for guards/invariants).
  Error requirePure(const Expr &E, const char *What) const {
    if (E.Kind == ExprKind::Call && E.Sym && E.Sym->Func &&
        E.Sym->Func->WritesState)
      return Error::failure(formatString(
          "%d:%d: %s may not call '%s', which writes shared state",
          E.Loc.Line, E.Loc.Col, What, E.Sym->Name.c_str()));
    for (const ExprPtr &C : E.Children)
      if (Error Err = requirePure(*C, What))
        return Err;
    return Error::success();
  }

  struct RangeInfo {
    bool HasRange = false;
    int64_t Lo = 0;
    int64_t Hi = 0;
  };
  RangeInfo PendingRange;

private:
  std::vector<Token> Tokens;
  size_t Pos = 0;
  Declarations *Mutable;
  const Declarations *Lookup;
  std::vector<std::unordered_map<std::string, Symbol *>> Scopes;
  FuncDecl *CurFunc = nullptr;
};

//===----------------------------------------------------------------------===//
// WritesState fixpoint
//===----------------------------------------------------------------------===//

bool exprCallsWriter(const Expr &E);

bool stmtWritesState(const Stmt &S) {
  switch (S.Kind) {
  case StmtKind::Assign: {
    SymbolKind K = S.Target->Sym->Kind;
    if (K == SymbolKind::GlobalVar || K == SymbolKind::TemplateVar)
      return true;
    return (S.Value && exprCallsWriter(*S.Value)) ||
           exprCallsWriter(*S.Target);
  }
  case StmtKind::ExprStmt:
    return exprCallsWriter(*S.Value);
  default:
    break;
  }
  if (S.Value && exprCallsWriter(*S.Value))
    return true;
  if (S.Cond && exprCallsWriter(*S.Cond))
    return true;
  if (S.Then && stmtWritesState(*S.Then))
    return true;
  if (S.Else && stmtWritesState(*S.Else))
    return true;
  for (const StmtPtr &B : S.Body)
    if (stmtWritesState(*B))
      return true;
  return false;
}

bool exprCallsWriter(const Expr &E) {
  if (E.Kind == ExprKind::Call && E.Sym && E.Sym->Func &&
      E.Sym->Func->WritesState)
    return true;
  for (const ExprPtr &C : E.Children)
    if (exprCallsWriter(*C))
      return true;
  return false;
}

} // namespace

void swa::usl::computeWritesState(Declarations &Decls) {
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (FuncDecl *F : Decls.Funcs) {
      if (F->WritesState || !F->Body)
        continue;
      if (stmtWritesState(*F->Body)) {
        F->WritesState = true;
        Changed = true;
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Public entry points
//===----------------------------------------------------------------------===//

static Result<std::vector<Token>> lexFor(std::string_view Source,
                                         const char *What) {
  Result<std::vector<Token>> Toks = lex(Source);
  if (!Toks.ok())
    return Toks.takeError().withContext(What);
  return Toks;
}

Error swa::usl::parseDeclarations(std::string_view Source, Declarations &Out,
                                  bool IsTemplate) {
  Result<std::vector<Token>> Toks = lexFor(Source, "declarations");
  if (!Toks.ok())
    return Toks.takeError();
  ParserImpl P(Toks.takeValue(), &Out, &Out);
  if (Error E = P.parseDeclBlock(IsTemplate))
    return E;
  computeWritesState(Out);
  return Error::success();
}

Error swa::usl::parseTemplateParams(std::string_view Source,
                                    Declarations &TemplateDecls) {
  Result<std::vector<Token>> Toks = lexFor(Source, "parameters");
  if (!Toks.ok())
    return Toks.takeError();
  ParserImpl P(Toks.takeValue(), &TemplateDecls, &TemplateDecls);
  return P.parseParamList();
}

Result<ExprPtr> swa::usl::parseBoolExpr(std::string_view Source,
                                        const Declarations &Decls) {
  Result<std::vector<Token>> Toks = lexFor(Source, "expression");
  if (!Toks.ok())
    return Toks.takeError();
  ParserImpl P(Toks.takeValue(), nullptr, &Decls);
  Result<ExprPtr> E = P.parseExpr();
  if (!E.ok())
    return E;
  if (Error Err = P.expectEof())
    return Err;
  if ((*E)->HasClockAtom)
    return Error::failure("clock conditions are not allowed here");
  if (!(*E)->Ty.isBool())
    return Error::failure("expected a bool expression, got " +
                          (*E)->Ty.str());
  return E;
}

Result<ExprPtr> swa::usl::parseIntExpr(std::string_view Source,
                                       const Declarations &Decls) {
  Result<std::vector<Token>> Toks = lexFor(Source, "expression");
  if (!Toks.ok())
    return Toks.takeError();
  ParserImpl P(Toks.takeValue(), nullptr, &Decls);
  Result<ExprPtr> E = P.parseExpr();
  if (!E.ok())
    return E;
  if (Error Err = P.expectEof())
    return Err;
  if ((*E)->HasClockAtom || !(*E)->Ty.isInt())
    return Error::failure("expected an int expression");
  return E;
}

Result<EdgeLabelsAst> swa::usl::parseEdgeLabels(std::string_view SelectSrc,
                                                std::string_view GuardSrc,
                                                std::string_view SyncSrc,
                                                std::string_view UpdateSrc,
                                                Declarations &TemplateDecls) {
  EdgeLabelsAst Out;

  // All four labels share one parser so the select scope is visible.
  // We lex each snippet separately and re-seed the parser's token stream.
  Result<std::vector<Token>> SelToks = lexFor(SelectSrc, "select");
  if (!SelToks.ok())
    return SelToks.takeError();
  ParserImpl SelP(SelToks.takeValue(), &TemplateDecls, &TemplateDecls);
  SelP.pushScope();
  Result<std::vector<SelectAst>> Selects = SelP.parseSelects();
  if (!Selects.ok())
    return Selects.takeError().withContext("select");
  Out.Selects = std::move(*Selects);

  auto WithSelectScope = [&](auto &&ParserRef) {
    ParserRef.pushScope();
    for (SelectAst &S : Out.Selects)
      ParserRef.addToScope(S.Var);
  };

  {
    Result<std::vector<Token>> Toks = lexFor(GuardSrc, "guard");
    if (!Toks.ok())
      return Toks.takeError();
    ParserImpl P(Toks.takeValue(), &TemplateDecls, &TemplateDecls);
    WithSelectScope(P);
    Result<GuardAst> G = P.parseGuardLabel();
    if (!G.ok())
      return G.takeError().withContext("guard");
    Out.Guard = std::move(*G);
  }
  {
    Result<std::vector<Token>> Toks = lexFor(SyncSrc, "sync");
    if (!Toks.ok())
      return Toks.takeError();
    ParserImpl P(Toks.takeValue(), &TemplateDecls, &TemplateDecls);
    WithSelectScope(P);
    Result<SyncAst> S = P.parseSyncLabel();
    if (!S.ok())
      return S.takeError().withContext("sync");
    Out.Sync = std::move(*S);
  }
  {
    Result<std::vector<Token>> Toks = lexFor(UpdateSrc, "update");
    if (!Toks.ok())
      return Toks.takeError();
    ParserImpl P(Toks.takeValue(), &TemplateDecls, &TemplateDecls);
    WithSelectScope(P);
    Result<UpdateAst> U = P.parseUpdateLabel();
    if (!U.ok())
      return U.takeError().withContext("update");
    Out.Update = std::move(*U);
  }
  return Out;
}

Result<InvariantAst> swa::usl::parseInvariant(std::string_view Source,
                                              const Declarations &Decls) {
  Result<std::vector<Token>> Toks = lexFor(Source, "invariant");
  if (!Toks.ok())
    return Toks.takeError();
  ParserImpl P(Toks.takeValue(), nullptr, &Decls);
  Result<InvariantAst> I = P.parseInvariantLabel();
  if (!I.ok())
    return I.takeError().withContext("invariant");
  return I;
}
