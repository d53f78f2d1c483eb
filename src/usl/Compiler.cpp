//===- usl/Compiler.cpp - Bound USL trees -> bytecode -----------------------===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//

#include "usl/Compiler.h"

#include "support/StringUtils.h"

using namespace swa;
using namespace swa::usl;

namespace {

/// Emits into a per-thread scratch buffer that keeps its capacity across
/// compilations, and returns each unit as an exact-size copy.
class Compiler {
public:
  Compiler() : Out(Scratch) { Out.clear(); }

  Result<Code> expr(const Expr &E) {
    if (Error Err = emitExpr(E))
      return Err;
    emit(Op::Halt);
    return Code(Out);
  }

  Result<Code> stmts(const std::vector<StmtPtr> &Stmts) {
    for (const StmtPtr &S : Stmts)
      if (Error Err = emitStmt(*S))
        return Err;
    emit(Op::Halt);
    return Code(Out);
  }

  Result<Code> function(const FuncDecl &F) {
    if (Error Err = emitStmt(*F.Body))
      return Err;
    if (F.RetTy.Kind == TypeKind::Void) {
      emit(Op::PushConst, 0, 0);
      emit(Op::Ret);
    } else {
      emit(Op::Trap);
    }
    return Code(Out);
  }

private:
  static thread_local Code Scratch;

  size_t emit(Op O, int32_t A = 0, int64_t Imm = 0) {
    Out.push_back({O, A, Imm});
    return Out.size() - 1;
  }
  void patch(size_t At) {
    Out[At].A = static_cast<int32_t>(Out.size());
  }
  Error errAt(const SourceLoc &Loc, const char *Msg) {
    return Error::failure(
        formatString("%d:%d: %s", Loc.Line, Loc.Col, Msg));
  }

  Error emitExpr(const Expr &E) {
    switch (E.Kind) {
    case ExprKind::IntLit:
    case ExprKind::BoolLit:
      emit(Op::PushConst, 0, E.Literal);
      return Error::success();

    case ExprKind::VarRef:
      switch (E.Ref) {
      case RefKind::Const:
        emit(Op::PushConst, 0, E.ConstValue);
        return Error::success();
      case RefKind::Store:
        emit(Op::LoadStore, E.Slot);
        return Error::success();
      case RefKind::Frame:
        emit(Op::LoadFrame, E.Slot);
        return Error::success();
      default:
        return errAt(E.Loc, "cannot compile an unbound reference");
      }

    case ExprKind::Index: {
      if (Error Err = emitExpr(*E.Children[0]))
        return Err;
      switch (E.Ref) {
      case RefKind::Store:
        emit(Op::LoadStoreArr, E.Slot, E.ArraySize);
        return Error::success();
      case RefKind::Frame:
        emit(Op::LoadFrameArr, E.Slot, E.ArraySize);
        return Error::success();
      case RefKind::ConstArray:
        emit(Op::LoadConstArr, E.Slot, E.ArraySize);
        return Error::success();
      default:
        return errAt(E.Loc, "cannot compile an unbound array reference");
      }
    }

    case ExprKind::Call: {
      if (E.FuncIndex < 0)
        return errAt(E.Loc, "cannot compile an unbound call");
      for (const ExprPtr &A : E.Children)
        if (Error Err = emitExpr(*A))
          return Err;
      emit(Op::Call, E.FuncIndex,
           static_cast<int64_t>(E.Children.size()));
      return Error::success();
    }

    case ExprKind::Unary:
      if (Error Err = emitExpr(*E.Children[0]))
        return Err;
      emit(E.UOp == UnaryOp::Neg ? Op::Neg : Op::Not);
      return Error::success();

    case ExprKind::Binary: {
      if (E.HasClockAtom)
        return errAt(E.Loc, "cannot compile a clock condition");
      // Short-circuit forms compile to jumps.
      if (E.BOp == BinaryOp::And || E.BOp == BinaryOp::Or) {
        bool IsAnd = E.BOp == BinaryOp::And;
        if (Error Err = emitExpr(*E.Children[0]))
          return Err;
        size_t J1 = emit(IsAnd ? Op::JmpIfZero : Op::JmpIfNZ);
        if (Error Err = emitExpr(*E.Children[1]))
          return Err;
        size_t J2 = emit(IsAnd ? Op::JmpIfZero : Op::JmpIfNZ);
        emit(Op::PushConst, 0, IsAnd ? 1 : 0);
        size_t JEnd = emit(Op::Jmp);
        patch(J1);
        patch(J2);
        emit(Op::PushConst, 0, IsAnd ? 0 : 1);
        patch(JEnd);
        return Error::success();
      }
      if (Error Err = emitExpr(*E.Children[0]))
        return Err;
      if (Error Err = emitExpr(*E.Children[1]))
        return Err;
      switch (E.BOp) {
      case BinaryOp::Add:
        emit(Op::Add);
        break;
      case BinaryOp::Sub:
        emit(Op::Sub);
        break;
      case BinaryOp::Mul:
        emit(Op::Mul);
        break;
      case BinaryOp::Div:
        emit(Op::Div);
        break;
      case BinaryOp::Rem:
        emit(Op::Rem);
        break;
      case BinaryOp::Lt:
        emit(Op::CmpLt);
        break;
      case BinaryOp::Le:
        emit(Op::CmpLe);
        break;
      case BinaryOp::Gt:
        emit(Op::CmpGt);
        break;
      case BinaryOp::Ge:
        emit(Op::CmpGe);
        break;
      case BinaryOp::Eq:
        emit(Op::CmpEq);
        break;
      case BinaryOp::Ne:
        emit(Op::CmpNe);
        break;
      case BinaryOp::Min:
      case BinaryOp::Max: {
        // No dedicated opcode: a < b ? a : b needs re-evaluation; the
        // folded library helpers never reach here unfolded.
        return errAt(E.Loc, "min/max are internal-only operators");
      }
      case BinaryOp::And:
      case BinaryOp::Or:
        break; // Handled above.
      }
      return Error::success();
    }

    case ExprKind::Ternary: {
      if (Error Err = emitExpr(*E.Children[0]))
        return Err;
      size_t JElse = emit(Op::JmpIfZero);
      if (Error Err = emitExpr(*E.Children[1]))
        return Err;
      size_t JEnd = emit(Op::Jmp);
      patch(JElse);
      if (Error Err = emitExpr(*E.Children[2]))
        return Err;
      patch(JEnd);
      return Error::success();
    }
    }
    return errAt(E.Loc, "unknown expression kind");
  }

  Error emitStmt(const Stmt &S) {
    switch (S.Kind) {
    case StmtKind::Block:
      for (const StmtPtr &B : S.Body)
        if (Error Err = emitStmt(*B))
          return Err;
      return Error::success();

    case StmtKind::LocalDecl:
      if (S.Value) {
        if (Error Err = emitExpr(*S.Value))
          return Err;
        emit(Op::StoreFrame, S.DeclFrameSlot);
      } else {
        emit(Op::ZeroFrame, S.DeclFrameSlot, S.DeclFrameCount);
      }
      return Error::success();

    case StmtKind::Assign: {
      // Evaluation order matches the interpreter: source value first,
      // then the target index.
      if (Error Err = emitExpr(*S.Value))
        return Err;
      const Expr &T = *S.Target;
      bool IsArr = T.Kind == ExprKind::Index;
      if (IsArr)
        if (Error Err = emitExpr(*T.Children[0]))
          return Err;
      Op O;
      if (T.Ref == RefKind::Store) {
        if (IsArr)
          O = S.AOp == AssignOp::Set   ? Op::StoreStoreArr
              : S.AOp == AssignOp::Add ? Op::AddStoreArr
                                       : Op::SubStoreArr;
        else
          O = S.AOp == AssignOp::Set   ? Op::StoreStore
              : S.AOp == AssignOp::Add ? Op::AddStore
                                       : Op::SubStore;
      } else if (T.Ref == RefKind::Frame) {
        if (IsArr)
          O = S.AOp == AssignOp::Set   ? Op::StoreFrameArr
              : S.AOp == AssignOp::Add ? Op::AddFrameArr
                                       : Op::SubFrameArr;
        else
          O = S.AOp == AssignOp::Set   ? Op::StoreFrame
              : S.AOp == AssignOp::Add ? Op::AddFrame
                                       : Op::SubFrame;
      } else {
        return errAt(S.Loc, "cannot compile an unbound assignment");
      }
      emit(O, T.Slot, IsArr ? T.ArraySize : 0);
      return Error::success();
    }

    case StmtKind::If: {
      if (Error Err = emitExpr(*S.Cond))
        return Err;
      size_t JElse = emit(Op::JmpIfZero);
      if (Error Err = emitStmt(*S.Then))
        return Err;
      if (S.Else) {
        size_t JEnd = emit(Op::Jmp);
        patch(JElse);
        if (Error Err = emitStmt(*S.Else))
          return Err;
        patch(JEnd);
      } else {
        patch(JElse);
      }
      return Error::success();
    }

    case StmtKind::While: {
      size_t Top = Out.size();
      if (Error Err = emitExpr(*S.Cond))
        return Err;
      size_t JEnd = emit(Op::JmpIfZero);
      if (Error Err = emitStmt(*S.Then))
        return Err;
      emit(Op::Jmp, static_cast<int32_t>(Top));
      patch(JEnd);
      return Error::success();
    }

    case StmtKind::For: {
      if (Error Err = emitStmt(*S.Body[0])) // Init.
        return Err;
      size_t Top = Out.size();
      if (Error Err = emitExpr(*S.Cond))
        return Err;
      size_t JEnd = emit(Op::JmpIfZero);
      if (Error Err = emitStmt(*S.Then))
        return Err;
      if (Error Err = emitStmt(*S.Body[1])) // Step.
        return Err;
      emit(Op::Jmp, static_cast<int32_t>(Top));
      patch(JEnd);
      return Error::success();
    }

    case StmtKind::Return:
      if (S.Value) {
        if (Error Err = emitExpr(*S.Value))
          return Err;
      } else {
        emit(Op::PushConst, 0, 0);
      }
      emit(Op::Ret);
      return Error::success();

    case StmtKind::ExprStmt:
      if (Error Err = emitExpr(*S.Value))
        return Err;
      emit(Op::Pop);
      return Error::success();
    }
    return errAt(S.Loc, "unknown statement kind");
  }

  Code &Out;
};

thread_local Code Compiler::Scratch;

} // namespace

Result<Code> swa::usl::compileExpr(const Expr &E) {
  return Compiler().expr(E);
}

Result<Code> swa::usl::compileStmts(const std::vector<StmtPtr> &Stmts) {
  return Compiler().stmts(Stmts);
}

Result<Code> swa::usl::compileFunction(const FuncDecl &F) {
  return Compiler().function(F);
}
