//===- core/InstanceBuilder.cpp - Algorithm 1: config -> NSA ---------------===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//

#include "core/InstanceBuilder.h"

#include "models/ModelLibrary.h"
#include "obs/Metrics.h"
#include "obs/Timer.h"
#include "sa/Compile.h"
#include "sa/NetworkBuilder.h"
#include "sa/Validate.h"
#include "support/StringUtils.h"

#include <algorithm>

using namespace swa;
using namespace swa::core;

namespace {

/// The per-core window table exactly as buildModel feeds it to the
/// CoreScheduler instance: windows of all partitions on core \p C,
/// sorted by start, with the non-empty placeholder row when the core
/// hosts partitions but no windows. Shared by buildModel and
/// rebindWindows so a rebind reproduces the build bit-for-bit.
struct CoreWindowTable {
  bool HasPartition = false;
  int64_t NumWindows = 0;
  std::vector<int64_t> Starts, Ends, Parts;
};

CoreWindowTable coreWindowTable(const cfg::Config &Config, size_t C) {
  struct Win {
    cfg::TimeValue Start, End;
    int64_t Part;
  };
  CoreWindowTable Out;
  std::vector<Win> Wins;
  for (size_t P = 0; P < Config.Partitions.size(); ++P) {
    if (Config.Partitions[P].Core != static_cast<int>(C))
      continue;
    Out.HasPartition = true;
    for (const cfg::Window &W : Config.Partitions[P].Windows)
      Wins.push_back({W.Start, W.End, static_cast<int64_t>(P)});
  }
  if (!Out.HasPartition)
    return Out;
  std::sort(Wins.begin(), Wins.end(),
            [](const Win &A, const Win &B) { return A.Start < B.Start; });
  for (const Win &W : Wins) {
    Out.Starts.push_back(W.Start);
    Out.Ends.push_back(W.End);
    Out.Parts.push_back(W.Part);
  }
  Out.NumWindows = static_cast<int64_t>(Wins.size());
  if (Wins.empty()) {
    Out.Starts.push_back(0);
    Out.Ends.push_back(0);
    Out.Parts.push_back(0);
  }
  return Out;
}

} // namespace

Result<BuiltModel> swa::core::buildModel(const cfg::Config &Config,
                                         bool PublishMetrics,
                                         BytecodeCache *Bytecode) {
  obs::ScopedTimer Timer("build");
  if (Error E = Config.validate())
    return E.withContext("invalid configuration");

  BuiltModel Out;
  Out.Config = Config;

  int NT = Config.numTasks();
  int NP = static_cast<int>(Config.Partitions.size());
  int NL = static_cast<int>(Config.Messages.size());
  cfg::TimeValue L = Config.hyperperiod();

  sa::NetworkBuilder NB;
  if (Error E = NB.addGlobals(models::globalDeclsSource(NT, NP, NL)))
    return E;

  Result<std::unique_ptr<models::ModelLibrary>> LibOrErr =
      models::ModelLibrary::create(NB.globalDecls());
  if (!LibOrErr.ok())
    return LibOrErr.takeError();
  models::ModelLibrary &Lib = **LibOrErr;

  // Global task id of each partition's first task; Config::globalTaskId
  // would walk the partitions once per lookup.
  std::vector<int> PartOffset(static_cast<size_t>(NP), 0);
  for (int P = 1; P < NP; ++P)
    PartOffset[static_cast<size_t>(P)] =
        PartOffset[static_cast<size_t>(P - 1)] +
        static_cast<int>(Config.Partitions[static_cast<size_t>(P - 1)]
                             .Tasks.size());
  auto GidOf = [&](const cfg::TaskRef &Ref) {
    return PartOffset[static_cast<size_t>(Ref.Partition)] + Ref.Task;
  };

  // Input links per task (message indices where the task receives).
  std::vector<std::vector<int64_t>> InLinks(static_cast<size_t>(NT));
  for (size_t M = 0; M < Config.Messages.size(); ++M) {
    int RGid = GidOf(Config.Messages[M].Receiver);
    InLinks[static_cast<size_t>(RGid)].push_back(static_cast<int64_t>(M));
  }

  Out.TaskAutomaton.assign(static_cast<size_t>(NT), -1);
  Out.SchedulerAutomaton.assign(static_cast<size_t>(NP), -1);

  int AutCount = 0;
  for (size_t P = 0; P < Config.Partitions.size(); ++P) {
    const cfg::Partition &Part = Config.Partitions[P];
    int Off = PartOffset[P];

    for (size_t T = 0; T < Part.Tasks.size(); ++T) {
      const cfg::Task &Task = Part.Tasks[T];
      cfg::TaskRef Ref{static_cast<int>(P), static_cast<int>(T)};
      int Gid = GidOf(Ref);

      std::vector<int64_t> In = InLinks[static_cast<size_t>(Gid)];
      int64_t NIn = static_cast<int64_t>(In.size());
      if (In.empty())
        In.push_back(0); // Array params must be non-empty; n_in==0 masks it.

      sa::NetworkBuilder::ParamMap Params = {
          {"gid", {Gid}},
          {"part", {static_cast<int64_t>(P)}},
          {"wcet", {Config.boundWcet(Ref)}},
          {"period", {Task.Period}},
          {"deadline", {Task.Deadline}},
          {"priority", {static_cast<int64_t>(Task.Priority)}},
          {"n_in", {NIn}},
          {"in_links", In},
      };
      std::string Name =
          formatString("task_%zu_%zu_%s", P, T, Task.Name.c_str());
      Result<sa::Automaton *> A = NB.addInstance(Lib.task(), Name, Params);
      if (!A.ok())
        return A.takeError();
      (*A)->Meta["gid"] = Gid;
      (*A)->Meta["partition"] = static_cast<int64_t>(P);
      (*A)->Meta["kind"] = 1; // Task.
      Out.TaskAutomaton[static_cast<size_t>(Gid)] = AutCount++;
    }

    sa::NetworkBuilder::ParamMap TsParams = {
        {"part", {static_cast<int64_t>(P)}},
        {"off", {static_cast<int64_t>(Off)}},
        {"nt", {static_cast<int64_t>(Part.Tasks.size())}},
    };
    Result<sa::Automaton *> TS = NB.addInstance(
        Lib.scheduler(Part.Scheduler), formatString("ts_%zu", P), TsParams);
    if (!TS.ok())
      return TS.takeError();
    (*TS)->Meta["partition"] = static_cast<int64_t>(P);
    (*TS)->Meta["kind"] = 2; // Task scheduler.
    Out.SchedulerAutomaton[P] = AutCount++;
  }

  // Core schedulers: one per core that hosts at least one partition.
  for (size_t C = 0; C < Config.Cores.size(); ++C) {
    CoreWindowTable WT = coreWindowTable(Config, C);
    if (!WT.HasPartition)
      continue;
    sa::NetworkBuilder::ParamMap CsParams = {
        {"nw", {WT.NumWindows}}, {"w_start", WT.Starts},
        {"w_end", WT.Ends},      {"w_part", WT.Parts},
        {"hyper", {L}},
    };
    Result<sa::Automaton *> CS =
        NB.addInstance(Lib.coreScheduler(), formatString("cs_%zu", C),
                       CsParams);
    if (!CS.ok())
      return CS.takeError();
    (*CS)->Meta["core"] = static_cast<int64_t>(C);
    (*CS)->Meta["kind"] = 3; // Core scheduler.
    ++AutCount;
  }

  // Virtual links: one per message.
  for (size_t M = 0; M < Config.Messages.size(); ++M) {
    const cfg::Message &Msg = Config.Messages[M];
    sa::NetworkBuilder::ParamMap VlParams = {
        {"link", {static_cast<int64_t>(M)}},
        {"src", {static_cast<int64_t>(GidOf(Msg.Sender))}},
        {"delay", {Config.effectiveDelay(Msg)}},
    };
    Result<sa::Automaton *> VL =
        NB.addInstance(Lib.virtualLink(), formatString("vl_%zu", M),
                       VlParams);
    if (!VL.ok())
      return VL.takeError();
    (*VL)->Meta["link"] = static_cast<int64_t>(M);
    (*VL)->Meta["kind"] = 4; // Virtual link.
    ++AutCount;
  }

  Result<std::unique_ptr<sa::Network>> Net = NB.finish();
  if (!Net.ok())
    return Net.takeError();
  Out.Net = Net.takeValue();
  // Structural sanity (catches wiring mistakes, e.g. from user-supplied
  // component models), then compile all USL code to bytecode.
  if (Error E = sa::checkNetwork(*Out.Net))
    return E.withContext("model validation");
  // Same-shape configs compile to identical bytecode (the window tables
  // are data, not code), so consult the shape-keyed cache before paying
  // for compilation. Inject falls back to compiling defensively if the
  // cached site walk somehow disagrees.
  std::shared_ptr<const sa::NetworkBytecode> Cached;
  cfg::Fingerprint Shape;
  if (Bytecode) {
    Shape = cfg::fingerprintShape(Config);
    Cached = Bytecode->lookup(Shape);
  }
  if (!Cached || !sa::injectBytecode(*Out.Net, *Cached)) {
    if (Error E = sa::compileNetwork(*Out.Net))
      return E;
    if (Bytecode) {
      auto BC = std::make_shared<sa::NetworkBytecode>();
      sa::extractBytecode(*Out.Net, *BC);
      Bytecode->insert(Shape, std::move(BC));
    }
  }
  Out.Net->Meta["horizon"] = L;
  Out.Net->Meta["numTasks"] = NT;

  if (PublishMetrics && obs::enabled()) {
    obs::Registry &Reg = obs::Registry::global();
    Reg.counter("core.models.built").add(1);
    Reg.counter("core.automata.instantiated")
        .add(static_cast<uint64_t>(Out.Net->Automata.size()));
    Reg.counter("core.read_set.entries").add(NB.readSetEntries());
    Reg.counter("core.bound_nodes").add(Out.Net->Bind.Pool->nodes());
    Reg.counter("core.node_pool_bytes").add(Out.Net->Bind.Pool->bytes());
  }

  Out.ReadyBase = Out.Net->channelId("ready");
  Out.FinishedBase = Out.Net->channelId("finished");
  Out.WakeupBase = Out.Net->channelId("wakeup");
  Out.SleepBase = Out.Net->channelId("sleep");
  Out.ExecBase = Out.Net->channelId("exec");
  Out.PreemptBase = Out.Net->channelId("preempt");
  Out.SendBase = Out.Net->channelId("send");
  Out.DeliverBase = Out.Net->channelId("deliver");
  Out.IsFailedSlot = Out.Net->slotOf("is_failed");
  return Out;
}

WindowRebinder swa::core::makeWindowRebinder(const BuiltModel &Model) {
  WindowRebinder RB;
  if (!Model.Net)
    return RB;
  for (const auto &A : Model.Net->Automata) {
    if (A->metaOr("kind", 0) != 3) // CoreScheduler instances only.
      continue;
    WindowRebinder::CoreSlots S;
    S.Core = static_cast<int>(A->metaOr("core", -1));
    S.StartSlot = static_cast<int>(A->metaOr("carr.w_start", -1));
    S.EndSlot = static_cast<int>(A->metaOr("carr.w_end", -1));
    S.PartSlot = static_cast<int>(A->metaOr("carr.w_part", -1));
    if (S.Core < 0 || S.StartSlot < 0 || S.EndSlot < 0 || S.PartSlot < 0)
      return RB; // foreign model: no patchable slots recorded
    CoreWindowTable WT =
        coreWindowTable(Model.Config, static_cast<size_t>(S.Core));
    S.NumWindows = WT.NumWindows;
    RB.Cores.push_back(S);
  }
  RB.Valid = !RB.Cores.empty();
  return RB;
}

Error swa::core::rebindWindows(BuiltModel &Model, const WindowRebinder &RB,
                               const cfg::Config &NewConfig) {
  if (!RB.Valid)
    return Error::failure("model has no window rebind plan");
  // Mirror buildModel: an invalid config must fail here too, or a reused
  // model would accept configs a fresh build rejects.
  if (Error E = NewConfig.validate())
    return E.withContext("invalid configuration");

  auto &Arrays = Model.Net->Bind.ConstArrays;
  size_t UsedCores = 0;
  for (size_t C = 0; C < NewConfig.Cores.size(); ++C) {
    CoreWindowTable WT = coreWindowTable(NewConfig, C);
    if (!WT.HasPartition)
      continue;
    ++UsedCores;
    const WindowRebinder::CoreSlots *S = nullptr;
    for (const WindowRebinder::CoreSlots &E : RB.Cores)
      if (E.Core == static_cast<int>(C)) {
        S = &E;
        break;
      }
    // nw is folded into bytecode; only a same-shape config (equal
    // per-core window counts, same used-core set) can be rebound.
    if (!S || WT.NumWindows != S->NumWindows)
      return Error::failure("window rebind shape mismatch on core " +
                            std::to_string(C));
    // The VM reads const arrays element-wise through the outer table
    // (never caches inner pointers across runs), so assigning the inner
    // vectors retargets every compiled w_* access.
    Arrays[static_cast<size_t>(S->StartSlot)] = std::move(WT.Starts);
    Arrays[static_cast<size_t>(S->EndSlot)] = std::move(WT.Ends);
    Arrays[static_cast<size_t>(S->PartSlot)] = std::move(WT.Parts);
  }
  if (UsedCores != RB.Cores.size())
    return Error::failure("window rebind used-core set mismatch");
  Model.Config = NewConfig;
  return Error::success();
}
