//===- usl/Binder.cpp - Template instantiation binding ---------------------===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//

#include "usl/Binder.h"

#include "support/StringUtils.h"
#include "usl/Parser.h"

#include <algorithm>
#include <iterator>

using namespace swa;
using namespace swa::usl;

namespace {

/// Pool blocks are one size, so a freed network's blocks are reused whole
/// by the next build instead of fragmenting the heap.
constexpr size_t PoolBlockBytes = size_t(1) << 16;

} // namespace

NodePool::~NodePool() {
  for (const Block &B : Blocks)
    Upstream->deallocate(B.Data, B.Size, alignof(std::max_align_t));
}

void *NodePool::do_allocate(size_t Size, size_t Align) {
  Bytes += Size;
  auto Aligned = [&]() {
    auto P = reinterpret_cast<uintptr_t>(Next);
    return reinterpret_cast<std::byte *>((P + Align - 1) & ~(Align - 1));
  };
  if (!Next || Aligned() + Size > End) {
    size_t BlockSize = std::max(PoolBlockBytes, Size + Align);
    auto *Data = static_cast<std::byte *>(
        Upstream->allocate(BlockSize, alignof(std::max_align_t)));
    Blocks.push_back({Data, BlockSize});
    Next = Data;
    End = Data + BlockSize;
  }
  std::byte *P = Aligned();
  Next = P + Size;
  return P;
}

int Binder::internConstArray(const std::vector<int64_t> &Values) {
  Target.ConstArrays.push_back(Values);
  return static_cast<int>(Target.ConstArrays.size() - 1);
}

Result<int> Binder::clockIndex(const Symbol *Sym) const {
  if (const int *Index = lookup(&Binder::ClockMap, Sym))
    return *Index;
  return Error::failure("unbound clock '" + Sym->Name + "'");
}

Result<int> Binder::bindFunc(const FuncDecl *F) {
  if (const int *Index = lookup(&Binder::FuncMap, F))
    return *Index;
  // Reserve the slot before binding the body so direct recursion resolves.
  auto Bound = std::make_unique<FuncDecl>();
  Bound->Sym = F->Sym;
  Bound->RetTy = F->RetTy;
  Bound->Params = F->Params;
  Bound->FrameSize = F->FrameSize;
  Bound->WritesState = F->WritesState;
  FuncDecl *BoundRaw = Bound.get();
  Target.OwnedFuncs.push_back(std::move(Bound));
  Target.FuncTable.push_back(BoundRaw);
  int Index = static_cast<int>(Target.FuncTable.size() - 1);
  FuncMap[F] = Index;

  assert(F->Body && "binding a function without a body");
  Result<StmtPtr> Body = bindStmt(*F->Body);
  if (!Body.ok())
    return Body.takeError().withContext("in function '" + F->Sym->Name +
                                        "'");
  BoundRaw->Body = Body.takeValue();
  return Index;
}

Error Binder::resolveRef(const Symbol *S, SourceLoc Loc, Resolved &Out) {
  auto ErrAt = [&](const std::string &Msg) {
    return Error::failure(
        formatString("%d:%d: %s", Loc.Line, Loc.Col, Msg.c_str()));
  };
  auto ConstArray = [&](const std::vector<int64_t> &Values) {
    auto [It, Inserted] = ConstArrayMap.try_emplace(S, 0);
    if (Inserted)
      It->second = internConstArray(Values);
    Out.Kind = RefKind::ConstArray;
    Out.Slot = It->second;
    Out.ArraySize = static_cast<int>(Values.size());
  };

  switch (S->Kind) {
  case SymbolKind::GlobalVar:
  case SymbolKind::TemplateVar: {
    const int *Slot = lookup(&Binder::StoreMap, S);
    if (!Slot)
      return ErrAt("unbound variable '" + S->Name + "'");
    Out.Kind = RefKind::Store;
    Out.Slot = *Slot;
    Out.ArraySize = S->Ty.isArray() ? S->Ty.Size : 1;
    return Error::success();
  }
  case SymbolKind::TemplateParam: {
    const std::vector<int64_t> *Values = lookup(&Binder::ParamMap, S);
    if (!Values)
      return ErrAt("unbound template parameter '" + S->Name + "'");
    if (S->Ty.isArray()) {
      ConstArray(*Values);
      return Error::success();
    }
    if (Values->size() != 1)
      return ErrAt("scalar parameter '" + S->Name +
                   "' bound to an array value");
    Out.Folded = true;
    Out.IsBool = S->Ty.isBool();
    Out.Value = Out.IsBool ? (*Values)[0] != 0 : (*Values)[0];
    return Error::success();
  }
  case SymbolKind::GlobalConst:
    // Scalar consts are folded by the parser; arrays flow through Index.
    if (!S->Ty.isArray()) {
      Out.Folded = true;
      Out.Value = S->ConstValues[0];
      return Error::success();
    }
    ConstArray(S->ConstValues);
    return Error::success();
  case SymbolKind::FuncParam:
  case SymbolKind::FuncLocal:
  case SymbolKind::SelectVar:
    Out.Kind = RefKind::Frame;
    Out.Slot = S->Index;
    Out.ArraySize = S->Ty.isArray() ? S->Ty.Size : 1;
    return Error::success();
  case SymbolKind::GlobalClock:
  case SymbolKind::TemplateClock: {
    Result<int> CI = clockIndex(S);
    if (!CI.ok())
      return CI.takeError();
    Out.Kind = RefKind::ClockRef;
    Out.Slot = *CI;
    return Error::success();
  }
  case SymbolKind::Channel:
  case SymbolKind::Function:
    break;
  }
  return ErrAt("'" + S->Name + "' cannot be used as a value");
}

ExprPtr Binder::materialize(Bound B) {
  if (B.Node)
    return std::move(B.Node);
  ExprPtr Lit = Target.Pool->newExpr();
  Lit->Kind = B.IsBool ? ExprKind::BoolLit : ExprKind::IntLit;
  Lit->Ty = B.IsBool ? Type::makeBool() : Type::makeInt();
  Lit->Literal = B.Value;
  Lit->Loc = B.Loc;
  return Lit;
}

bool Binder::foldOperands(const Expr &E, const Bound *Ops, int64_t &Out) {
  // foldConst's rules over operands that are already bound: an operand
  // with a node did not fold.
  switch (E.Kind) {
  case ExprKind::IntLit:
  case ExprKind::BoolLit:
    Out = E.Literal;
    return true;
  case ExprKind::Unary:
    if (Ops[0].Node)
      return false;
    Out = E.UOp == UnaryOp::Neg ? -Ops[0].Value : (Ops[0].Value == 0);
    return true;
  case ExprKind::Binary: {
    if (Ops[0].Node)
      return false;
    int64_t L = Ops[0].Value;
    if ((E.BOp == BinaryOp::And && L == 0) ||
        (E.BOp == BinaryOp::Or && L != 0)) {
      Out = E.BOp == BinaryOp::Or;
      return true;
    }
    if (Ops[1].Node)
      return false;
    int64_t R = Ops[1].Value;
    if ((E.BOp == BinaryOp::Div || E.BOp == BinaryOp::Rem) && R == 0)
      return false; // Left for the run-time check to report.
    Out = applyBinary(E.BOp, L, R);
    return true;
  }
  case ExprKind::Ternary: {
    if (Ops[0].Node)
      return false;
    const Bound &Taken = Ops[0].Value != 0 ? Ops[1] : Ops[2];
    if (Taken.Node)
      return false;
    Out = Taken.Value;
    return true;
  }
  default:
    return false;
  }
}

Result<Binder::Bound> Binder::bind(const Expr &E) {
  auto ErrAt = [&](const std::string &Msg) {
    return Error::failure(
        formatString("%d:%d: %s", E.Loc.Line, E.Loc.Col, Msg.c_str()));
  };
  // A node for E's own fields; the caller fills in its resolution.
  auto NewNode = [&]() {
    ExprPtr N = Target.Pool->newExpr();
    N->Kind = E.Kind;
    N->Ty = E.Ty;
    N->Loc = E.Loc;
    N->Literal = E.Literal;
    N->Sym = E.Sym;
    N->Ref = E.Ref;
    N->ConstValue = E.ConstValue;
    N->Slot = E.Slot;
    N->ArraySize = E.ArraySize;
    N->FuncIndex = E.FuncIndex;
    N->UOp = E.UOp;
    N->BOp = E.BOp;
    N->ClockAtom = E.ClockAtom;
    N->HasClockAtom = E.HasClockAtom;
    N->Children.reserve(E.Children.size());
    return N;
  };

  if (E.Kind == ExprKind::Call) {
    // Calls never fold, and take any number of arguments.
    ExprPtr N = NewNode();
    for (const ExprPtr &C : E.Children) {
      Result<Bound> A = bind(*C);
      if (!A.ok())
        return A.takeError();
      N->Children.push_back(materialize(A.takeValue()));
    }
    assert(E.Sym && E.Sym->Func && "unresolved call at bind time");
    Result<int> FI = bindFunc(E.Sym->Func);
    if (!FI.ok())
      return FI.takeError();
    N->FuncIndex = *FI;
    return Bound{std::move(N)};
  }

  // Operands first, left to right, so the first error is the leftmost.
  Bound Ops[3];
  if (E.Children.size() > std::size(Ops))
    return ErrAt("malformed expression");
  for (size_t I = 0; I < E.Children.size(); ++I) {
    Result<Bound> B = bind(*E.Children[I]);
    if (!B.ok())
      return B.takeError();
    Ops[I] = B.takeValue();
  }

  Resolved R{E.Ref, E.Slot, E.ArraySize};
  if (E.Kind == ExprKind::VarRef) {
    assert(E.Sym && "unresolved VarRef at bind time");
    if (Error Err = resolveRef(E.Sym, E.Loc, R))
      return Err;
    if (R.Folded)
      return Bound{nullptr, R.Value, R.IsBool, E.Loc};
  } else if (E.Kind == ExprKind::Index) {
    assert(E.Sym && "unresolved Index at bind time");
    // The base resolves exactly like a VarRef would.
    R = Resolved();
    if (Error Err = resolveRef(E.Sym, E.Loc, R))
      return Err;
    if (R.Kind != RefKind::Store && R.Kind != RefKind::ConstArray &&
        R.Kind != RefKind::Frame)
      return ErrAt("cannot index '" + E.Sym->Name + "'");
    // Fold constant indexing of constant arrays.
    if (R.Kind == RefKind::ConstArray && !Ops[0].Node) {
      int64_t Idx = Ops[0].Value;
      if (Idx < 0 || Idx >= R.ArraySize)
        return ErrAt(formatString("constant index %lld out of bounds "
                                  "(array size %d)",
                                  static_cast<long long>(Idx), R.ArraySize));
      return Bound{nullptr,
                   Target.ConstArrays[static_cast<size_t>(R.Slot)]
                                     [static_cast<size_t>(Idx)],
                   false, E.Loc};
    }
  } else if (!E.HasClockAtom && (E.Ty.isBool() || E.Ty.isInt())) {
    // Post-bind folding of pure arithmetic.
    int64_t V;
    if (foldOperands(E, Ops, V))
      return Bound{nullptr, E.Ty.isBool() ? V != 0 : V, E.Ty.isBool(),
                   E.Loc};
  }

  ExprPtr N = NewNode();
  N->Ref = R.Kind;
  N->Slot = R.Slot;
  N->ArraySize = R.ArraySize;
  for (size_t I = 0; I < E.Children.size(); ++I)
    N->Children.push_back(materialize(std::move(Ops[I])));
  return Bound{std::move(N)};
}

Result<ExprPtr> Binder::bindExpr(const Expr &E) {
  Result<Bound> B = bind(E);
  if (!B.ok())
    return B.takeError();
  return materialize(B.takeValue());
}

Result<StmtPtr> Binder::bindStmt(const Stmt &S) {
  StmtPtr Out = Target.Pool->newStmt();
  Out->Kind = S.Kind;
  Out->Loc = S.Loc;
  Out->AOp = S.AOp;
  Out->DeclSym = S.DeclSym;
  Out->DeclFrameSlot = S.DeclFrameSlot;
  Out->DeclFrameCount = S.DeclFrameCount;
  if (S.Kind == StmtKind::LocalDecl) {
    // Copy the frame extent out of the Symbol: bound trees must be usable
    // after the template's declarations are gone.
    Out->DeclFrameSlot = S.DeclSym->Index;
    Out->DeclFrameCount =
        S.DeclSym->Ty.isArray() ? S.DeclSym->Ty.Size : 1;
    Out->DeclSym = nullptr;
  }
  for (auto [From, To] : {std::pair{&S.Target, &Out->Target},
                          std::pair{&S.Value, &Out->Value},
                          std::pair{&S.Cond, &Out->Cond}}) {
    if (!*From)
      continue;
    Result<ExprPtr> B = bindExpr(**From);
    if (!B.ok())
      return B.takeError();
    *To = B.takeValue();
  }
  for (auto [From, To] :
       {std::pair{&S.Then, &Out->Then}, std::pair{&S.Else, &Out->Else}}) {
    if (!*From)
      continue;
    Result<StmtPtr> B = bindStmt(**From);
    if (!B.ok())
      return B;
    *To = B.takeValue();
  }
  Out->Body.reserve(S.Body.size());
  for (const StmtPtr &B : S.Body) {
    Result<StmtPtr> R = bindStmt(*B);
    if (!R.ok())
      return R;
    Out->Body.push_back(R.takeValue());
  }
  return Out;
}

Result<int64_t> Binder::bindAndFold(const Expr &E) {
  Result<Bound> B = bind(E);
  if (!B.ok())
    return B.takeError();
  if (!B->Node)
    return B->Value;
  return foldConst(*B->Node);
}
