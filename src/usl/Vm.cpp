//===- usl/Vm.cpp - Bytecode virtual machine ---------------------------------===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//

#include "usl/Vm.h"

#include <cstdio>
#include <cstdlib>

using namespace swa;
using namespace swa::usl;

namespace {

[[noreturn]] void fatalVm(const char *Msg) {
  std::fprintf(stderr, "swa-sched: fatal bytecode execution error: %s\n",
               Msg);
  std::abort();
}

struct CallRecord {
  const Code *C;
  size_t PC;
  size_t FrameBase;
};

} // namespace

int64_t swa::usl::runCode(const Code &TopCode,
                          const std::vector<Code> &FuncCode,
                          EvalContext &Ctx, size_t FrameBase) {
  // Local operand stack; sized generously for model code. Using a local
  // array keeps the hot loop free of vector bookkeeping.
  int64_t Stack[256];
  size_t SP = 0;
  auto Push = [&](int64_t V) {
    if (SP >= 256)
      fatalVm("operand stack overflow");
    Stack[SP++] = V;
  };
  auto Pop = [&]() -> int64_t {
    if (SP == 0)
      fatalVm("operand stack underflow");
    return Stack[--SP];
  };

  // Ctx.CallDepth caps nesting at MaxCallDepth, so a fixed array holds
  // every return address.
  CallRecord Calls[MaxCallDepth];
  size_t NumCalls = 0;
  const Code *C = &TopCode;
  size_t PC = 0;
  size_t FB = FrameBase;

  std::vector<int64_t> &Store = *Ctx.Store;
  std::vector<int64_t> &Frame = Ctx.FrameStack;

  for (;;) {
    if (--Ctx.StepBudget < 0)
      fatalVm("evaluation step budget exhausted (runaway loop in a model "
              "function?)");
    if (PC >= C->size())
      fatalVm("program counter out of range");
    const Insn &I = (*C)[PC++];
    switch (I.Code) {
    case Op::PushConst:
      Push(I.Imm);
      break;
    case Op::LoadStore:
      Push(Store[static_cast<size_t>(I.A)]);
      break;
    case Op::LoadStoreArr: {
      int64_t Idx = Pop();
      if (Idx < 0 || Idx >= I.Imm)
        fatalVm("array index out of bounds");
      Push(Store[static_cast<size_t>(I.A + Idx)]);
      break;
    }
    case Op::LoadFrame:
      Push(Frame[FB + static_cast<size_t>(I.A)]);
      break;
    case Op::LoadFrameArr: {
      int64_t Idx = Pop();
      if (Idx < 0 || Idx >= I.Imm)
        fatalVm("array index out of bounds");
      Push(Frame[FB + static_cast<size_t>(I.A + Idx)]);
      break;
    }
    case Op::LoadConstArr: {
      int64_t Idx = Pop();
      if (Idx < 0 || Idx >= I.Imm)
        fatalVm("constant array index out of bounds");
      Push((*Ctx.ConstArrays)[static_cast<size_t>(I.A)]
                             [static_cast<size_t>(Idx)]);
      break;
    }
    case Op::StoreStore:
    case Op::AddStore:
    case Op::SubStore: {
      int64_t V = Pop();
      size_t Slot = static_cast<size_t>(I.A);
      if (I.Code == Op::StoreStore)
        Store[Slot] = V;
      else if (I.Code == Op::AddStore)
        Store[Slot] += V;
      else
        Store[Slot] -= V;
      if (Ctx.WriteLog)
        Ctx.WriteLog->push_back(I.A);
      break;
    }
    case Op::StoreStoreArr:
    case Op::AddStoreArr:
    case Op::SubStoreArr: {
      int64_t Idx = Pop();
      int64_t V = Pop();
      if (Idx < 0 || Idx >= I.Imm)
        fatalVm("array index out of bounds in assignment");
      size_t Slot = static_cast<size_t>(I.A + Idx);
      if (I.Code == Op::StoreStoreArr)
        Store[Slot] = V;
      else if (I.Code == Op::AddStoreArr)
        Store[Slot] += V;
      else
        Store[Slot] -= V;
      if (Ctx.WriteLog)
        Ctx.WriteLog->push_back(static_cast<int32_t>(Slot));
      break;
    }
    case Op::StoreFrame:
      Frame[FB + static_cast<size_t>(I.A)] = Pop();
      break;
    case Op::AddFrame:
      Frame[FB + static_cast<size_t>(I.A)] += Pop();
      break;
    case Op::SubFrame:
      Frame[FB + static_cast<size_t>(I.A)] -= Pop();
      break;
    case Op::StoreFrameArr:
    case Op::AddFrameArr:
    case Op::SubFrameArr: {
      int64_t Idx = Pop();
      int64_t V = Pop();
      if (Idx < 0 || Idx >= I.Imm)
        fatalVm("array index out of bounds in assignment");
      size_t Slot = FB + static_cast<size_t>(I.A + Idx);
      if (I.Code == Op::StoreFrameArr)
        Frame[Slot] = V;
      else if (I.Code == Op::AddFrameArr)
        Frame[Slot] += V;
      else
        Frame[Slot] -= V;
      break;
    }
    case Op::ZeroFrame:
      for (int64_t K = 0; K < I.Imm; ++K)
        Frame[FB + static_cast<size_t>(I.A + K)] = 0;
      break;

    case Op::Add: {
      int64_t R = Pop();
      Stack[SP - 1] += R;
      break;
    }
    case Op::Sub: {
      int64_t R = Pop();
      Stack[SP - 1] -= R;
      break;
    }
    case Op::Mul: {
      int64_t R = Pop();
      Stack[SP - 1] *= R;
      break;
    }
    case Op::Div: {
      int64_t R = Pop();
      if (R == 0)
        fatalVm("division by zero");
      Stack[SP - 1] /= R;
      break;
    }
    case Op::Rem: {
      int64_t R = Pop();
      if (R == 0)
        fatalVm("remainder by zero");
      Stack[SP - 1] %= R;
      break;
    }
    case Op::Neg:
      Stack[SP - 1] = -Stack[SP - 1];
      break;
    case Op::Not:
      Stack[SP - 1] = Stack[SP - 1] == 0 ? 1 : 0;
      break;
    case Op::CmpLt: {
      int64_t R = Pop();
      Stack[SP - 1] = Stack[SP - 1] < R;
      break;
    }
    case Op::CmpLe: {
      int64_t R = Pop();
      Stack[SP - 1] = Stack[SP - 1] <= R;
      break;
    }
    case Op::CmpGt: {
      int64_t R = Pop();
      Stack[SP - 1] = Stack[SP - 1] > R;
      break;
    }
    case Op::CmpGe: {
      int64_t R = Pop();
      Stack[SP - 1] = Stack[SP - 1] >= R;
      break;
    }
    case Op::CmpEq: {
      int64_t R = Pop();
      Stack[SP - 1] = Stack[SP - 1] == R;
      break;
    }
    case Op::CmpNe: {
      int64_t R = Pop();
      Stack[SP - 1] = Stack[SP - 1] != R;
      break;
    }

    case Op::Jmp:
      PC = static_cast<size_t>(I.A);
      break;
    case Op::JmpIfZero:
      if (Pop() == 0)
        PC = static_cast<size_t>(I.A);
      break;
    case Op::JmpIfNZ:
      if (Pop() != 0)
        PC = static_cast<size_t>(I.A);
      break;
    case Op::Pop:
      (void)Pop();
      break;

    case Op::Call: {
      size_t FnIdx = static_cast<size_t>(I.A);
      if (FnIdx >= FuncCode.size() || FuncCode[FnIdx].empty())
        fatalVm("call to an uncompiled function");
      if (++Ctx.CallDepth > MaxCallDepth || NumCalls == MaxCallDepth)
        fatalVm("call depth limit exceeded");
      const FuncDecl *F = (*Ctx.FuncTable)[FnIdx];
      size_t NArgs = static_cast<size_t>(I.Imm);
      size_t NewBase = Frame.size();
      Frame.resize(NewBase + static_cast<size_t>(F->FrameSize), 0);
      for (size_t K = 0; K < NArgs; ++K)
        Frame[NewBase + NArgs - 1 - K] = Pop();
      for (size_t K = NArgs; K < static_cast<size_t>(F->FrameSize); ++K)
        Frame[NewBase + K] = 0;
      Calls[NumCalls++] = {C, PC, FB};
      C = &FuncCode[FnIdx];
      PC = 0;
      FB = NewBase;
      break;
    }
    case Op::Ret: {
      if (NumCalls == 0)
        fatalVm("return outside a function");
      int64_t V = Pop();
      Frame.resize(FB);
      --Ctx.CallDepth;
      const CallRecord &R = Calls[--NumCalls];
      C = R.C;
      PC = R.PC;
      FB = R.FrameBase;
      Push(V);
      break;
    }
    case Op::Halt:
      return SP > 0 ? Stack[SP - 1] : 0;
    case Op::Trap:
      fatalVm("non-void model function fell off the end");
    }
  }
}
