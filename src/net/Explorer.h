//===- net/Explorer.h - Whole-network state-space exploration ---*- C++ -*-===//
///
/// \file
/// Exhaustive exploration of a network's reachable configurations.
///
/// The paper verifies one client at a time (§5), which is complete
/// because components never interact — *until* the §5 future-work
/// extension of bounded service replication is added: capacity-bounded
/// services couple otherwise-independent components through resource
/// contention, and two individually-valid clients can deadlock each other
/// (the dining-philosophers pattern over service slots). The explorer
/// searches every interleaving, reporting whether all components can
/// complete and whether a deadlock is reachable, with a shortest witness
/// schedule.
///
/// Components step the rules of net/Semantics.h; the explorer adds the
/// slot counts. Policies are not tracked here (security is per component
/// — use validity::checkPlanValidity); the explorer covers exactly the
/// progress-with-capacities dimension.
///
//===----------------------------------------------------------------------===//

#ifndef SUS_NET_EXPLORER_H
#define SUS_NET_EXPLORER_H

#include "net/Interpreter.h"

#include <string>
#include <vector>

namespace sus {
namespace net {

/// Outcome of a network exploration.
struct ExplorationResult {
  /// The whole reachable space fit under MaxStates.
  bool Exhaustive = false;

  /// Some schedule completes every component.
  bool CanComplete = false;

  /// Some schedule reaches a configuration with residual work and no
  /// enabled step (missing communication, plan gap, or capacity wait).
  bool DeadlockReachable = false;

  /// A shortest schedule to a deadlock (step descriptions), if any.
  std::vector<std::string> DeadlockTrace;

  size_t States = 0;
};

/// Explorer configuration.
struct ExplorerOptions {
  size_t MaxStates = 1 << 18;
  /// Model committed internal choice (senders pick a branch first), as in
  /// InterpreterOptions::CommittedInternalChoice.
  bool CommittedInternalChoice = false;
};

/// Explores every interleaving of \p Components over \p Repo.
ExplorationResult exploreNetwork(hist::HistContext &Ctx,
                                 const plan::Repository &Repo,
                                 const std::vector<NetworkComponent> &Components,
                                 const ExplorerOptions &Options = {});

} // namespace net
} // namespace sus

#endif // SUS_NET_EXPLORER_H
