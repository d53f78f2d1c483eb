//===- sa/NetworkBuilder.h - NSA instance construction ----------*- C++ -*-===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// NetworkBuilder assembles a bound Network from global USL declarations
/// and template instantiations. It implements the mechanical part of the
/// paper's Algorithm 1: the core layer decides *which* instances to create
/// for a configuration; this builder performs slot/clock/channel layout,
/// parameter substitution and label binding for each of them.
///
//===----------------------------------------------------------------------===//

#ifndef SWA_SA_NETWORKBUILDER_H
#define SWA_SA_NETWORKBUILDER_H

#include "sa/Network.h"
#include "sa/Template.h"
#include "usl/Binder.h"
#include "usl/Decls.h"
#include "usl/Interp.h"

#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace swa {
namespace sa {

class NetworkBuilder {
public:
  NetworkBuilder();

  /// Parses and appends global declarations. Must precede addInstance.
  Error addGlobals(std::string_view Source);

  /// The global declaration scope (for templates to chain to).
  const usl::Declarations &globalDecls() const { return Globals; }

  /// Named parameter values for one instantiation; scalars are single-
  /// element vectors.
  using ParamMap =
      std::vector<std::pair<std::string, std::vector<int64_t>>>;

  /// Instantiates \p T as \p InstanceName with \p Params.
  ///
  /// \returns the new automaton (owned by the network under construction)
  /// for metadata tagging, or a failure describing the first bind error.
  Result<Automaton *> addInstance(const Template &T,
                                  const std::string &InstanceName,
                                  const ParamMap &Params);

  /// Finalizes and returns the network. The builder must not be reused.
  Result<std::unique_ptr<Network>> finish();

  /// Read-set entries (slot ranges) produced while assembling the
  /// instances' static read sets: the collector's output plus the hinted
  /// elements. Grows with the number of reads, not with array sizes.
  uint64_t readSetEntries() const {
    return (ReadSets ? ReadSets->entriesProduced() : 0) + HintEntries;
  }

private:
  Error layoutGlobals();

  usl::Declarations Globals;
  std::unique_ptr<Network> Net;
  std::unique_ptr<usl::Binder> GlobalBinder;
  /// Incremental per-function read-set cache shared by all instances.
  std::unique_ptr<usl::ReadSetCollector> ReadSets;
  /// Ranges added by read hints, over all instances.
  uint64_t HintEntries = 0;
  bool GlobalsLaidOut = false;
  bool Finished = false;
};

} // namespace sa
} // namespace swa

#endif // SWA_SA_NETWORKBUILDER_H
