//===- tests/ReadSetTest.cpp - Static read sets against a per-slot oracle -===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Network construction computes every automaton's StaticReads from slot
/// ranges and applies the template's read hints before expanding them.
/// These tests pin the result to the plain per-slot computation that the
/// ranges replaced (kept here, and only here, as the oracle), on the
/// industrial models and on hand-built USL cases, and check that the
/// read-set work construction publishes grows with the automaton count.
///
//===----------------------------------------------------------------------===//

#include "core/InstanceBuilder.h"
#include "gen/Workload.h"
#include "models/ModelLibrary.h"
#include "obs/Metrics.h"
#include "sa/NetworkBuilder.h"
#include "usl/Binder.h"
#include "usl/Interp.h"
#include "usl/Parser.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <optional>

using namespace swa;

namespace {

void sortUnique(std::vector<int32_t> &Slots) {
  std::sort(Slots.begin(), Slots.end());
  Slots.erase(std::unique(Slots.begin(), Slots.end()), Slots.end());
}

/// The value of a constant bound expression. Binding folds every constant
/// subtree to a literal, so that is all a constant index can be here.
/// (usl::foldConst would also consult the Symbol pointers a bound tree
/// keeps, and those die with the builder's declarations once
/// core::buildModel returns.)
std::optional<int64_t> boundConst(const usl::Expr &E) {
  if (E.Kind == usl::ExprKind::IntLit || E.Kind == usl::ExprKind::BoolLit)
    return E.Literal;
  if (E.Kind == usl::ExprKind::VarRef && E.Ref == usl::RefKind::Const)
    return E.ConstValue;
  return std::nullopt;
}

/// The per-slot read-set collector: every read expands to the slots it
/// may touch, a dynamically indexed array to all of its elements.
/// Function read sets are a plain fixpoint over the whole table.
class SlotCollector {
public:
  explicit SlotCollector(const std::vector<const usl::FuncDecl *> &Funcs)
      : FuncReads(Funcs.size()) {
    for (bool Changed = true; Changed;) {
      Changed = false;
      for (size_t I = 0; I < Funcs.size(); ++I) {
        std::vector<int32_t> Slots;
        if (Funcs[I]->Body)
          scanStmt(*Funcs[I]->Body, Slots);
        sortUnique(Slots);
        if (Slots != FuncReads[I]) {
          FuncReads[I] = std::move(Slots);
          Changed = true;
        }
      }
    }
  }

  void scanExpr(const usl::Expr &E, std::vector<int32_t> &Slots) const {
    switch (E.Kind) {
    case usl::ExprKind::VarRef:
      if (E.Ref == usl::RefKind::Store)
        Slots.push_back(E.Slot);
      break;
    case usl::ExprKind::Index:
      if (E.Ref == usl::RefKind::Store) {
        std::optional<int64_t> Idx = boundConst(*E.Children[0]);
        if (Idx && *Idx >= 0 && *Idx < E.ArraySize) {
          Slots.push_back(E.Slot + static_cast<int32_t>(*Idx));
        } else {
          for (int I = 0; I < E.ArraySize; ++I)
            Slots.push_back(E.Slot + I);
        }
      }
      break;
    case usl::ExprKind::Call:
      if (E.FuncIndex >= 0 &&
          static_cast<size_t>(E.FuncIndex) < FuncReads.size()) {
        const std::vector<int32_t> &FR =
            FuncReads[static_cast<size_t>(E.FuncIndex)];
        Slots.insert(Slots.end(), FR.begin(), FR.end());
      }
      break;
    default:
      break;
    }
    for (const usl::ExprPtr &C : E.Children)
      scanExpr(*C, Slots);
  }

  void scanStmt(const usl::Stmt &S, std::vector<int32_t> &Slots) const {
    if (S.Target)
      scanExpr(*S.Target, Slots);
    if (S.Value)
      scanExpr(*S.Value, Slots);
    if (S.Cond)
      scanExpr(*S.Cond, Slots);
    if (S.Then)
      scanStmt(*S.Then, Slots);
    if (S.Else)
      scanStmt(*S.Else, Slots);
    for (const usl::StmtPtr &B : S.Body)
      scanStmt(*B, Slots);
  }

private:
  std::vector<std::vector<int32_t>> FuncReads;
};

/// The per-slot StaticReads of automaton \p A, an instance of \p T with
/// \p Params: every guard, sync index, clock bound, invariant and rate
/// expanded slot by slot, then each read hint erasing its array's slots
/// and adding back the promised elements.
std::vector<int32_t>
referenceStaticReads(const sa::Network &Net, const SlotCollector &RC,
                     const sa::Automaton &A, const sa::Template &T,
                     const sa::NetworkBuilder::ParamMap &Params) {
  std::vector<int32_t> Reads;
  for (const sa::Edge &E : A.Edges) {
    if (E.DataGuard)
      RC.scanExpr(*E.DataGuard, Reads);
    if (E.Sync && E.Sync->Index)
      RC.scanExpr(*E.Sync->Index, Reads);
    for (const sa::ClockGuard &CG : E.ClockGuards)
      RC.scanExpr(*CG.Bound, Reads);
  }
  for (const sa::Location &L : A.Locations) {
    if (L.DataInvariant)
      RC.scanExpr(*L.DataInvariant, Reads);
    for (const sa::ClockUpper &U : L.Uppers)
      RC.scanExpr(*U.Bound, Reads);
    for (const sa::RateCond &R : L.Rates)
      RC.scanExpr(*R.Rate, Reads);
  }

  // Hint expressions only name parameters, so a scratch binder folds them.
  usl::BindTarget Scratch;
  usl::Binder B(Scratch);
  for (const usl::Symbol *P : T.decls().Params)
    for (const auto &[Name, Values] : Params)
      if (Name == P->Name)
        B.mapParam(P, Values);

  for (const sa::Template::ReadHintDef &HD : T.readHints()) {
    const sa::VarInfo *Arr = nullptr;
    for (const sa::VarInfo &V : Net.Vars)
      if (V.Name == HD.Array) {
        Arr = &V;
        break;
      }
    EXPECT_NE(Arr, nullptr) << HD.Array;
    if (!Arr)
      return {};
    Reads.erase(std::remove_if(Reads.begin(), Reads.end(),
                               [&](int32_t S) {
                                 return S >= Arr->Base &&
                                        S < Arr->Base + Arr->Size;
                               }),
                Reads.end());
    std::vector<int64_t> Indices;
    if (HD.isRange()) {
      Result<int64_t> Base = B.bindAndFold(*HD.Base);
      Result<int64_t> Count = B.bindAndFold(*HD.Count);
      EXPECT_TRUE(Base.ok() && Count.ok()) << A.Name;
      for (int64_t I = 0; Base.ok() && Count.ok() && I < *Count; ++I)
        Indices.push_back(*Base + I);
    } else {
      Result<int64_t> Count = B.bindAndFold(*HD.ElemsCount);
      EXPECT_TRUE(Count.ok()) << A.Name;
      for (const auto &[Name, Values] : Params)
        if (Name == HD.ElemsParam)
          for (int64_t I = 0; Count.ok() && I < *Count &&
                              I < static_cast<int64_t>(Values.size());
               ++I)
            Indices.push_back(Values[static_cast<size_t>(I)]);
    }
    for (int64_t Idx : Indices)
      if (Idx >= 0 && Idx < Arr->Size)
        Reads.push_back(static_cast<int32_t>(Arr->Base + Idx));
  }
  sortUnique(Reads);
  return Reads;
}

/// The parameters the library's read hints name, recomputed from the
/// configuration the way core::buildModel passes them: n_in/in_links for
/// a task, off/nt for a task scheduler. Other automata have no hints.
sa::NetworkBuilder::ParamMap hintParams(const cfg::Config &C,
                                        const sa::Automaton &A) {
  switch (A.metaOr("kind", 0)) {
  case 1: { // Task.
    int64_t Gid = A.metaOr("gid", -1);
    std::vector<int64_t> In;
    for (size_t M = 0; M < C.Messages.size(); ++M)
      if (C.globalTaskId(C.Messages[M].Receiver) == Gid)
        In.push_back(static_cast<int64_t>(M));
    int64_t NIn = static_cast<int64_t>(In.size());
    if (In.empty())
      In.push_back(0);
    return {{"n_in", {NIn}}, {"in_links", In}};
  }
  case 2: { // Task scheduler.
    int P = static_cast<int>(A.metaOr("partition", -1));
    return {{"off", {C.globalTaskId({P, 0})}},
            {"nt",
             {static_cast<int64_t>(
                 C.Partitions[static_cast<size_t>(P)].Tasks.size())}}};
  }
  default:
    return {};
  }
}

/// Builds \p C's model and checks every automaton's StaticReads against
/// the per-slot reference.
void expectMatchesReference(const cfg::Config &C) {
  Result<core::BuiltModel> Model = core::buildModel(C);
  ASSERT_TRUE(Model.ok()) << Model.error().message();
  const sa::Network &Net = *Model->Net;

  // Templates parsed against the same global declarations.
  sa::NetworkBuilder NB;
  ASSERT_FALSE(NB.addGlobals(models::globalDeclsSource(
                                C.numTasks(),
                                static_cast<int>(C.Partitions.size()),
                                static_cast<int>(C.Messages.size())))
                   .isFailure());
  auto Lib = models::ModelLibrary::create(NB.globalDecls());
  ASSERT_TRUE(Lib.ok()) << Lib.error().message();

  SlotCollector RC(Net.Bind.FuncTable);
  size_t Hinted = 0, Slots = 0;
  for (const std::unique_ptr<sa::Automaton> &A : Net.Automata) {
    const sa::Template *T = (*Lib)->byName(A->TemplateName);
    ASSERT_NE(T, nullptr) << A->TemplateName;
    Hinted += T->readHints().empty() ? 0 : 1;
    std::vector<int32_t> Ref =
        referenceStaticReads(Net, RC, *A, *T, hintParams(C, *A));
    ASSERT_EQ(A->StaticReads, Ref) << A->Name;
    Slots += Ref.size();
  }
  // Tasks and task schedulers carry hints; the comparison covered them.
  EXPECT_GE(Hinted, static_cast<size_t>(C.numTasks()) + C.Partitions.size());
  EXPECT_GT(Slots, 0u);
}

cfg::Config sensitivityExampleConfig() {
  gen::IndustrialParams Params;
  Params.Modules = 2;
  Params.CoresPerModule = 2;
  Params.PartitionsPerCore = 2;
  Params.CoreUtilization = 0.45;
  Params.Seed = 7;
  return gen::industrialConfig(Params);
}

/// Declarations, store layout and binder for USL-level collector cases.
struct UslFixture {
  explicit UslFixture(const std::string &DeclSrc) : B(Target) {
    Error E = usl::parseDeclarations(DeclSrc, D, /*IsTemplate=*/false);
    EXPECT_FALSE(E) << E.message();
    int Slot = 0;
    for (const usl::Declarations::VarInit &VI : D.Vars) {
      B.mapStore(VI.Sym, Slot);
      Slot += VI.Sym->Ty.isArray() ? VI.Sym->Ty.Size : 1;
    }
  }

  usl::ExprPtr bind(const std::string &Src) {
    auto E = usl::parseIntExpr(Src, D);
    EXPECT_TRUE(E.ok()) << E.error().message();
    if (!E.ok())
      return nullptr;
    auto Bound = B.bindExpr(**E);
    EXPECT_TRUE(Bound.ok()) << Bound.error().message();
    return Bound.ok() ? Bound.takeValue() : nullptr;
  }

  /// Range-collected slots of \p E, checked against the per-slot oracle.
  std::vector<int32_t> reads(const usl::Expr &E) {
    usl::ReadSetCollector RSC(Target.FuncTable);
    usl::SlotRanges Ranges;
    RSC.collect(E, Ranges);
    usl::normalizeRanges(Ranges);
    std::vector<int32_t> Slots = usl::expandRanges(Ranges);

    SlotCollector RC(Target.FuncTable);
    std::vector<int32_t> Ref;
    RC.scanExpr(E, Ref);
    sortUnique(Ref);
    EXPECT_EQ(Slots, Ref);
    return Slots;
  }

  usl::Declarations D;
  usl::BindTarget Target;
  usl::Binder B;
};

// before = 0, arr = 1..4, after = 5, k = 6.
const char *const ArrayDecls = "int before; int arr[4]; int after; int k;";

} // namespace

TEST(ReadSetOracle, IndustrialModelsMatchPerSlotReference) {
  expectMatchesReference(gen::industrialConfigWithJobs(500, 1));
  expectMatchesReference(gen::industrialConfigWithJobs(2000, 1));
}

TEST(ReadSetOracle, SensitivityExampleMatchesPerSlotReference) {
  expectMatchesReference(sensitivityExampleConfig());
}

TEST(ReadSetRanges, NormalizeSortsMergesAndDropsEmpty) {
  usl::SlotRanges R = {{7, 9}, {3, 3}, {1, 4}, {4, 5}, {2, 3}, {9, 10}};
  usl::normalizeRanges(R);
  EXPECT_EQ(R, (usl::SlotRanges{{1, 5}, {7, 10}}));
  EXPECT_EQ(usl::expandRanges(R), (std::vector<int32_t>{1, 2, 3, 4, 7, 8, 9}));
}

TEST(ReadSetRanges, ConstantInRangeIndexIsOneSlot) {
  UslFixture F(ArrayDecls);
  usl::ExprPtr E = F.bind("arr[2] + 1");
  ASSERT_TRUE(E);
  EXPECT_EQ(F.reads(*E), (std::vector<int32_t>{3}));
  // The first and last elements are in range too.
  usl::ExprPtr Ends = F.bind("arr[0] + arr[3]");
  ASSERT_TRUE(Ends);
  EXPECT_EQ(F.reads(*Ends), (std::vector<int32_t>{1, 4}));
}

TEST(ReadSetRanges, ConstantOutOfRangeIndexIsWholeArray) {
  UslFixture F(ArrayDecls);
  usl::ExprPtr E = F.bind("arr[7] + before");
  ASSERT_TRUE(E);
  EXPECT_EQ(F.reads(*E), (std::vector<int32_t>{0, 1, 2, 3, 4}));
}

TEST(ReadSetRanges, DynamicIndexIsWholeArray) {
  UslFixture F(ArrayDecls);
  usl::ExprPtr E = F.bind("arr[k] + after");
  ASSERT_TRUE(E);
  EXPECT_EQ(F.reads(*E), (std::vector<int32_t>{1, 2, 3, 4, 5, 6}));
}

TEST(ReadSetRanges, MutualRecursionReachesFixpoint) {
  // USL resolves names in declaration order, so mutual recursion cannot
  // be written directly: bind f -> g -> h, then retarget g's call to f.
  // Binding reserves each function's slot before its body, so the table
  // is f, g, h and f's read set depends on later entries.
  UslFixture F(ArrayDecls);
  ASSERT_FALSE(usl::parseDeclarations(
      "int h(int n) { return after; }"
      "int g(int n) { if (n <= 0) return arr[k]; return h(n - 1); }"
      "int f(int n) { if (n <= 0) return before; return g(n - 1); }",
      F.D, /*IsTemplate=*/false).isFailure());
  usl::ExprPtr E = F.bind("f(3)");
  ASSERT_TRUE(E);
  ASSERT_EQ(F.Target.FuncTable.size(), 3u);
  EXPECT_EQ(F.reads(*E), (std::vector<int32_t>{0, 1, 2, 3, 4, 5, 6}));

  // g -> f closes the cycle f -> g -> f; h drops out.
  std::function<void(usl::Expr &)> Retarget = [&](usl::Expr &X) {
    if (X.Kind == usl::ExprKind::Call && X.FuncIndex == 2)
      X.FuncIndex = 0;
    for (usl::ExprPtr &C : X.Children)
      Retarget(*C);
  };
  std::function<void(usl::Stmt &)> Walk = [&](usl::Stmt &S) {
    for (usl::ExprPtr *X : {&S.Target, &S.Value, &S.Cond})
      if (*X)
        Retarget(**X);
    for (usl::StmtPtr *Sub : {&S.Then, &S.Else})
      if (*Sub)
        Walk(**Sub);
    for (usl::StmtPtr &Sub : S.Body)
      Walk(*Sub);
  };
  Walk(*F.Target.OwnedFuncs[1]->Body);
  EXPECT_EQ(F.reads(*E), (std::vector<int32_t>{0, 1, 2, 3, 4, 6}));
}

namespace {

/// Instantiates one template per parameter set and returns each
/// instance's StaticReads. Every instance reads `before`, `after`, the
/// dynamically indexed global `arr` and its own local `k`.
std::vector<std::vector<int32_t>>
hintedReads(const std::function<void(sa::TemplateBuilder &)> &Hint,
            const std::string &ParamSrc, const std::string &Guard,
            const std::vector<sa::NetworkBuilder::ParamMap> &Instances) {
  sa::NetworkBuilder NB;
  EXPECT_FALSE(
      NB.addGlobals("int before; int arr[4]; int after;").isFailure());
  sa::TemplateBuilder TB("Hinted", NB.globalDecls());
  TB.params(ParamSrc).decls("int k;").location("L").initial("L");
  TB.edge("L", "L", {.Guard = Guard});
  Hint(TB);
  Result<std::unique_ptr<sa::Template>> T = TB.build();
  EXPECT_TRUE(T.ok()) << T.error().message();
  if (!T.ok())
    return {};
  for (size_t I = 0; I < Instances.size(); ++I) {
    Result<sa::Automaton *> A =
        NB.addInstance(**T, "h" + std::to_string(I), Instances[I]);
    EXPECT_TRUE(A.ok()) << A.error().message();
  }
  Result<std::unique_ptr<sa::Network>> Net = NB.finish();
  EXPECT_TRUE(Net.ok());
  std::vector<std::vector<int32_t>> Out;
  SlotCollector RC((*Net)->Bind.FuncTable);
  for (size_t I = 0; I < (*Net)->Automata.size(); ++I) {
    const sa::Automaton &A = *(*Net)->Automata[I];
    EXPECT_EQ(A.StaticReads,
              referenceStaticReads(**Net, RC, A, **T, Instances[I]))
        << A.Name;
    Out.push_back(A.StaticReads);
  }
  return Out;
}

} // namespace

TEST(ReadSetHints, RangeTouchingArrayEndsKeepsNeighbours) {
  // Globals: before = 0, arr = 1..4, after = 5; instance I's k is 6 + I.
  auto Reads = hintedReads(
      [](sa::TemplateBuilder &TB) { TB.readRange("arr", "b", "n"); },
      "int b, int n", "before + arr[k] + after > 0",
      {{{"b", {0}}, {"n", {4}}},
       {{"b", {0}}, {"n", {1}}},
       {{"b", {3}}, {"n", {1}}},
       {{"b", {-1}}, {"n", {2}}},
       {{"b", {3}}, {"n", {9}}},
       {{"b", {4}}, {"n", {1}}},
       {{"b", {1}}, {"n", {0}}}});
  ASSERT_EQ(Reads.size(), 7u);
  using V = std::vector<int32_t>;
  EXPECT_EQ(Reads[0], (V{0, 1, 2, 3, 4, 5, 6}));
  EXPECT_EQ(Reads[1], (V{0, 1, 5, 7}));
  EXPECT_EQ(Reads[2], (V{0, 4, 5, 8}));
  EXPECT_EQ(Reads[3], (V{0, 1, 5, 9}));
  EXPECT_EQ(Reads[4], (V{0, 4, 5, 10}));
  EXPECT_EQ(Reads[5], (V{0, 5, 11}));
  EXPECT_EQ(Reads[6], (V{0, 5, 12}));
}

TEST(ReadSetHints, ZeroElemCountMasksPlaceholderLinks) {
  // The task template's shape: n_in == 0 comes with a placeholder
  // in_links = {0} that must not contribute arr[0].
  auto Reads = hintedReads(
      [](sa::TemplateBuilder &TB) {
        TB.readElems("arr", "in_links", "n_in");
      },
      "int n_in, int[] in_links", "before + arr[in_links[k]] + after > 0",
      {{{"n_in", {0}}, {"in_links", {0}}},
       {{"n_in", {1}}, {"in_links", {0}}},
       {{"n_in", {2}}, {"in_links", {3, 1}}},
       {{"n_in", {2}}, {"in_links", {3, 9, 2}}}});
  ASSERT_EQ(Reads.size(), 4u);
  using V = std::vector<int32_t>;
  EXPECT_EQ(Reads[0], (V{0, 5, 6}));
  EXPECT_EQ(Reads[1], (V{0, 1, 5, 7}));
  EXPECT_EQ(Reads[2], (V{0, 2, 4, 5, 8}));
  EXPECT_EQ(Reads[3], (V{0, 4, 5, 9}));
}

TEST(ReadSetCounter, EntriesPerAutomatonStayFlatWithSize) {
  // The build clock's read-set term: entries per automaton must not grow
  // with the task count (the per-slot expansion grew with it).
  auto PerAutomaton = [](int64_t Jobs) {
    obs::Registry::global().reset();
    obs::setEnabled(true);
    Result<core::BuiltModel> Model =
        core::buildModel(gen::industrialConfigWithJobs(Jobs, 1));
    obs::Registry &Reg = obs::Registry::global();
    double Entries =
        static_cast<double>(Reg.counter("core.read_set.entries").value());
    double Automata = static_cast<double>(
        Reg.counter("core.automata.instantiated").value());
    obs::setEnabled(false);
    obs::Registry::global().reset();
    EXPECT_TRUE(Model.ok());
    EXPECT_GT(Automata, 0.0);
    return Automata > 0 ? Entries / Automata : 0.0;
  };
  double Small = PerAutomaton(500);
  double Large = PerAutomaton(12500);
  EXPECT_GT(Small, 0.0);
  EXPECT_LE(Large, 1.5 * Small) << Small << " -> " << Large;
  EXPECT_LE(Small, 1.5 * Large) << Small << " -> " << Large;
}

int main(int argc, char **argv) {
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
