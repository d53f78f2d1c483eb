//===- analysis/ModelArena.cpp - Shape-keyed NSA instance reuse -----------===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//

#include "analysis/ModelArena.h"

using namespace swa;
using namespace swa::analysis;

ModelArena::Slot *ModelArena::find(const cfg::Fingerprint &Shape) {
  for (Slot &S : Slots)
    if (S.Shape == Shape) {
      S.LastUse = ++Tick;
      return &S;
    }
  return nullptr;
}

ModelArena::Slot *ModelArena::emplace(const cfg::Fingerprint &Shape,
                                      core::BuiltModel Model) {
  core::WindowRebinder RB = core::makeWindowRebinder(Model);
  if (!RB.Valid)
    return nullptr;
  // Dedupe on insert: a caller that re-emplaces a shape it already holds
  // (races its own find/build sequence, or re-decides after an eviction)
  // must not leave two slots for one key — find() could then return the
  // stale one. Replace the existing slot's contents in place and refresh
  // its LRU stamp instead of appending.
  for (Slot &S : Slots)
    if (S.Shape == Shape) {
      S.Sim.reset(); // references the old network — drop before the model
      S.Model = std::move(Model);
      S.Rebinder = std::move(RB);
      S.Sim = nsa::Simulator::create(*S.Model.Net);
      S.LastUse = ++Tick;
      return &S;
    }
  if (Slots.size() >= Capacity) {
    auto LRU = Slots.begin();
    for (auto It = Slots.begin(); It != Slots.end(); ++It)
      if (It->LastUse < LRU->LastUse)
        LRU = It;
    Slots.erase(LRU);
  }
  Slots.emplace_back();
  Slot &S = Slots.back();
  S.Shape = Shape;
  S.Model = std::move(Model);
  S.Rebinder = std::move(RB);
  // The simulator references the network, so it is created only after
  // the model has reached its final location inside the slot.
  S.Sim = nsa::Simulator::create(*S.Model.Net);
  S.LastUse = ++Tick;
  return &S;
}
