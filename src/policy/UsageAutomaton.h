//===- policy/UsageAutomaton.h - Parametric policy automata -----*- C++ -*-===//
///
/// \file
/// Usage automata [Bartoletti 2009]: parametric finite-state automata that
/// specify security policies over access events, in the default-accept
/// paradigm — *accepted* (offending) states mark traces that violate the
/// policy. Events that match no outgoing edge leave the state unchanged
/// (the implicit self-loop of usage automata), and offending states are
/// absorbing.
///
/// A UsageAutomaton is the parametric shape (Fig. 1's ϕ(bl,p,t)); a
/// PolicyInstance binds actual parameters; a PolicyMonitor runs an instance
/// over a concrete event stream.
///
//===----------------------------------------------------------------------===//

#ifndef SUS_POLICY_USAGEAUTOMATON_H
#define SUS_POLICY_USAGEAUTOMATON_H

#include "hist/Action.h"
#include "policy/Guard.h"
#include "support/Diagnostics.h"

#include <cstdint>
#include <map>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

namespace sus {
namespace policy {

/// A state index inside a usage automaton.
using UStateId = uint32_t;

/// One formal parameter of a parametric policy.
struct PolicyParam {
  Symbol Name;
  bool IsSet; ///< Set-valued (black lists) vs scalar (thresholds).
};

/// One edge: matches events named \p EventName whose argument satisfies
/// \p G; a wildcard edge matches any event.
struct UsageEdge {
  UStateId From = 0;
  UStateId To = 0;
  bool Wildcard = false;
  Symbol EventName; ///< Ignored for wildcard edges.
  Guard G;          ///< Evaluated on the event argument.
};

/// The parametric automaton shape.
class UsageAutomaton {
public:
  UsageAutomaton(Symbol Name, std::vector<PolicyParam> Params)
      : Name(Name), Params(std::move(Params)) {}

  Symbol name() const { return Name; }
  const std::vector<PolicyParam> &params() const { return Params; }

  /// Adds a state; the first state added becomes the start state.
  UStateId addState(std::string Label, bool Offending = false);

  /// Marks \p S offending (an accepting state of the violation language).
  void setOffending(UStateId S, bool Offending = true);

  /// Adds an edge matching events named \p EventName under guard \p G.
  void addEdge(UStateId From, Symbol EventName, Guard G, UStateId To);

  /// Adds a wildcard (`*`) edge matching every event.
  void addWildcardEdge(UStateId From, UStateId To);

  UStateId start() const { return Start; }
  void setStart(UStateId S) { Start = S; }
  size_t numStates() const { return Offending.size(); }
  bool isOffending(UStateId S) const { return Offending[S]; }
  const std::string &stateLabel(UStateId S) const { return Labels[S]; }
  const std::vector<UsageEdge> &edges() const { return Edges; }

  /// Structural sanity: guard parameter indices in range, states valid.
  /// Reports problems into \p Diags; returns true when sound.
  bool verify(const StringInterner &Interner,
              DiagnosticEngine &Diags) const;

  /// Emits the automaton as a Graphviz digraph (Fig. 1 rendering).
  void printDot(const StringInterner &Interner, std::ostream &OS) const;

private:
  Symbol Name;
  std::vector<PolicyParam> Params;
  std::vector<std::string> Labels;
  std::vector<bool> Offending;
  std::vector<UsageEdge> Edges;
  UStateId Start = 0;
};

/// A usage automaton with actual parameters bound: the ϕ({s1},45,100) of
/// the paper.
class PolicyInstance {
public:
  PolicyInstance(const UsageAutomaton *Shape, PolicyArgs Args)
      : Shape(Shape), Args(std::move(Args)) {}

  const UsageAutomaton &shape() const { return *Shape; }
  const PolicyArgs &args() const { return Args; }

  /// The successor states of \p S on event \p Ev (nondeterministic step).
  /// When no edge matches, the result is {S} (implicit self-loop); an
  /// offending state is absorbing.
  std::vector<UStateId> step(UStateId S, const hist::Event &Ev) const;

  /// Appends the successors of \p S on \p Ev to \p Out, unsorted and
  /// possibly repeated (step() without its allocation).
  void stepInto(UStateId S, const hist::Event &Ev,
                std::vector<UStateId> &Out) const;

private:
  const UsageAutomaton *Shape;
  PolicyArgs Args;
};

/// Runs a policy instance over a concrete event stream, tracking the set
/// of reachable states (usage automata may be nondeterministic).
class PolicyMonitor {
public:
  explicit PolicyMonitor(PolicyInstance Instance);

  /// Feeds one event.
  void step(const hist::Event &Ev);

  /// Feeds a whole event sequence.
  void run(const std::vector<hist::Event> &Events);

  /// True if some run has reached an offending state: the (flattened)
  /// history consumed so far does NOT respect the policy.
  bool isOffending() const { return Violated; }

  /// The current reachable state set (sorted).
  const std::vector<UStateId> &states() const { return Current; }

  const PolicyInstance &instance() const { return Instance; }

  /// Restores the monitor to the automaton's start state.
  void reset();

  /// Restores a state snapshot taken via states()/isOffending() — the
  /// rollback half of ValidityChecker's append/rollback probe.
  void restore(std::vector<UStateId> States, bool WasViolated) {
    Current = std::move(States);
    Violated = WasViolated;
  }

private:
  PolicyInstance Instance;
  std::vector<UStateId> Current;
  bool Violated = false;
};

/// Checks η♭ |= ϕ: returns true if the event sequence respects the policy
/// instance (never reaches an offending state, at any prefix — offending
/// states are absorbing so checking at the end suffices).
bool respects(const std::vector<hist::Event> &Events,
              const PolicyInstance &Instance);

/// Maps policy names to their parametric shapes and resolves PolicyRefs.
class PolicyRegistry {
public:
  /// Registers a shape under its name; later registrations replace.
  void add(UsageAutomaton Automaton);

  /// Finds a shape by name; null if unknown.
  const UsageAutomaton *find(Symbol Name) const;

  /// Resolves ϕ(v…) to an instance; the trivial policy and unknown or
  /// arity-mismatched references yield std::nullopt (unknown/mismatched
  /// additionally reports into \p Diags when provided).
  std::optional<PolicyInstance>
  instantiate(const hist::PolicyRef &Ref, const StringInterner &Interner,
              DiagnosticEngine *Diags = nullptr) const;

  size_t size() const { return Shapes.size(); }

private:
  std::map<Symbol, UsageAutomaton> Shapes;
};

} // namespace policy
} // namespace sus

#endif // SUS_POLICY_USAGEAUTOMATON_H
