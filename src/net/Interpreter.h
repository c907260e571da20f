//===- net/Interpreter.h - Network operational semantics --------*- C++ -*-===//
///
/// \file
/// An executable implementation of the network semantics of §3 (rules
/// Open, Close, Session, Net, Access, Synch). A network is a parallel
/// composition of components, each a session tree with its own execution
/// history η; services are drawn from a repository R and requests are
/// bound through per-component plans π.
///
/// The interpreter implements the paper's *angelic* run-time monitor: when
/// monitoring is enabled, a step whose history extension would break
/// |= η is simply not enabled. With a valid plan the monitor never blocks
/// anything — which is precisely why it can be switched off (§5); the
/// bench bench_network quantifies the saved work. The monitor is one
/// fused DFA (monitor/Fused.h) over the policies and events of the
/// network's own components and of the services their plans can open, so
/// its universe is closed by construction.
///
//===----------------------------------------------------------------------===//

#ifndef SUS_NET_INTERPRETER_H
#define SUS_NET_INTERPRETER_H

#include "hist/HistContext.h"
#include "monitor/SessionMonitor.h"
#include "net/Session.h"
#include "plan/Plan.h"
#include "policy/History.h"

#include <map>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <vector>

namespace sus {
namespace net {

/// A top-level network component: a located client plus its plan.
struct NetworkComponent {
  plan::Loc Location;
  const hist::Expr *Client;
  plan::Plan Pi;
};

/// One enabled (or blocked) step of the network.
struct Step {
  enum class Kind {
    Access, ///< Rule Access: fire γ ∈ Ev ∪ Frm at a leaf.
    Open,   ///< Rule Open: open a session with the planned service.
    Synch,  ///< Rule Synch: complementary actions meet (τ).
    Close,  ///< Rule Close: the opener ends the session.
    Commit, ///< CommittedInternalChoice mode: resolve a ⊕ to one branch.
  };

  size_t Component = 0;
  Kind K = Kind::Access;
  /// Path from the component root to the affected node (false = left).
  std::vector<bool> Path;

  // New residuals (computed at enumeration time).
  const hist::Expr *NewBehavior = nullptr;  ///< Access/Open/Close: actor.
  const hist::Expr *PartnerResidual = nullptr; ///< Synch: the receiver.
  plan::Loc ServiceLoc;                     ///< Open: chosen service.
  const hist::Expr *ServiceBehavior = nullptr; ///< Open: its expression.
  bool ActorIsLeft = true; ///< Synch/Close: which side acts.

  /// History labels this step appends to the component history.
  std::vector<hist::Label> HistoryAppend;

  /// Human-readable rendering (Fig. 3-style).
  std::string Desc;

  /// Monitor verdict: the step would make the history invalid. Blocked
  /// steps are reported but cannot be applied while monitoring is on.
  bool Blocked = false;

  /// Open steps that cannot fire because the plan or repository has no
  /// binding; never applicable.
  bool PlanGap = false;

  /// Open steps waiting for a replication slot of a capacity-bounded
  /// service (§5 future work); they become applicable once another
  /// session at that location closes.
  bool CapacityBlocked = false;
};

/// Aggregate outcome of a scheduled run.
struct RunStats {
  size_t StepsTaken = 0;      ///< Successfully applied steps only.
  size_t BlockedAttempts = 0; ///< Steps the monitor refused (angelic).
  size_t CapacityWaits = 0;   ///< Opens deferred by full services.
  size_t Violations = 0;      ///< Invalid histories (monitor off only).
  /// Steps that were enumerated as applicable but failed to apply. Always
  /// 0 unless the step/apply contract is broken; a failed apply stops the
  /// run and leaves the acting component in StuckComponents rather than
  /// silently counting the step as taken.
  size_t FailedApplies = 0;
  bool AllCompleted = false;
  std::vector<size_t> StuckComponents;
};

/// Interpreter configuration.
struct InterpreterOptions {
  bool MonitorEnabled = true;

  /// The paper's semantics is *angelic*: an internal choice only ever
  /// resolves to a branch the partner can receive, so a non-compliant
  /// service never deadlocks operationally. Real senders commit first.
  /// With this flag a multi-branch internal choice must take an explicit
  /// Commit step before synchronizing — the mode under which the Del
  /// message of §2 actually wedges the session.
  bool CommittedInternalChoice = false;
};

/// The executable network.
class Interpreter {
public:
  using Options = InterpreterOptions;

  Interpreter(hist::HistContext &Ctx, const plan::Repository &Repo,
              const policy::PolicyRegistry &Registry,
              std::vector<NetworkComponent> Components,
              Options Opts = Options());

  /// Enumerates every step currently offered by the network, including
  /// blocked ones (marked).
  std::vector<Step> steps();

  /// Applies \p S (must have been produced by the latest steps() call and
  /// be applicable: not PlanGap, and not Blocked while monitoring).
  /// Returns false if the step is not applicable.
  bool apply(const Step &S);

  /// Runs a uniformly random scheduler until quiescence or \p MaxSteps.
  RunStats run(uint64_t Seed = 1, size_t MaxSteps = 1 << 20);

  size_t numComponents() const { return Components.size(); }
  const policy::History &history(size_t I) const { return Histories[I]; }
  const Session &tree(size_t I) const { return *Trees[I]; }
  bool isDone(size_t I) const { return Trees[I]->isTerminated(); }

  /// True if the component history has become invalid (possible only with
  /// the monitor off).
  bool isViolated(size_t I) const {
    return Fused && Monitors[I].isViolated();
  }

  /// Renders the full configuration, one component per line, Fig. 3-style:
  /// "eta, [l: H, ...]".
  std::string configStr() const;

  /// The descriptions of every step applied so far, in order.
  const std::vector<std::string> &trace() const { return TraceLog; }

  const Options &options() const { return Opts; }

  /// Sessions currently served by the service at ℓ (capacity accounting).
  unsigned sessionsInUse(plan::Loc Location) const {
    auto It = InUse.find(Location);
    return It == InUse.end() ? 0 : It->second;
  }

private:
  Session *resolve(size_t Component, const std::vector<bool> &Path);
  void stepsOf(size_t Component, Session *Node, std::vector<bool> &Path,
               std::vector<Step> &Out);
  monitor::SessionMonitor &monitorOf(size_t Component);

  hist::HistContext &Ctx;
  const plan::Repository &Repo;
  const policy::PolicyRegistry &Registry;
  Options Opts;

  std::vector<NetworkComponent> Components;
  std::vector<std::unique_ptr<Session>> Trees;
  std::vector<policy::History> Histories;
  /// The network's policies, fused when the first label is appended or
  /// probed; null until then. Heap-held so that Monitors' pointers into it
  /// survive a move of the Interpreter.
  std::unique_ptr<const monitor::FusedPolicyAutomaton> Fused;
  /// One cursor per component, made with Fused. It decides Blocked while
  /// monitoring and records violations when monitoring is off.
  std::vector<monitor::SessionMonitor> Monitors;
  std::vector<std::string> TraceLog;
  std::map<plan::Loc, unsigned> InUse;
};

} // namespace net
} // namespace sus

#endif // SUS_NET_INTERPRETER_H
