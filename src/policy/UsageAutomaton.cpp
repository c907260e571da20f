//===- policy/UsageAutomaton.cpp - Parametric policy automata ------------===//

#include "policy/UsageAutomaton.h"

#include "support/DotWriter.h"

#include <algorithm>
#include <cassert>

using namespace sus;
using namespace sus::policy;

//===----------------------------------------------------------------------===//
// UsageAutomaton
//===----------------------------------------------------------------------===//

UStateId UsageAutomaton::addState(std::string Label, bool IsOffending) {
  Labels.push_back(std::move(Label));
  Offending.push_back(IsOffending);
  return static_cast<UStateId>(Labels.size() - 1);
}

void UsageAutomaton::setOffending(UStateId S, bool IsOffending) {
  assert(S < Offending.size() && "state out of range");
  Offending[S] = IsOffending;
}

void UsageAutomaton::addEdge(UStateId From, Symbol EventName, Guard G,
                             UStateId To) {
  assert(From < numStates() && To < numStates() && "state out of range");
  UsageEdge E;
  E.From = From;
  E.To = To;
  E.Wildcard = false;
  E.EventName = EventName;
  E.G = std::move(G);
  Edges.push_back(std::move(E));
}

void UsageAutomaton::addWildcardEdge(UStateId From, UStateId To) {
  assert(From < numStates() && To < numStates() && "state out of range");
  UsageEdge E;
  E.From = From;
  E.To = To;
  E.Wildcard = true;
  Edges.push_back(std::move(E));
}

bool UsageAutomaton::verify(const StringInterner &Interner,
                            DiagnosticEngine &Diags) const {
  bool Ok = true;
  std::string PolicyName(Interner.text(Name));
  if (numStates() == 0) {
    Diags.error("policy '" + PolicyName + "' has no states");
    return false;
  }
  for (const UsageEdge &E : Edges) {
    int MaxParam = E.G.maxParamIndex();
    if (MaxParam >= static_cast<int>(Params.size())) {
      Diags.error("policy '" + PolicyName +
                  "': guard references parameter #" +
                  std::to_string(MaxParam) + " but only " +
                  std::to_string(Params.size()) + " are declared");
      Ok = false;
    }
    if (!E.Wildcard && !E.EventName.isValid()) {
      Diags.error("policy '" + PolicyName + "': edge without event name");
      Ok = false;
    }
  }
  return Ok;
}

void UsageAutomaton::printDot(const StringInterner &Interner,
                              std::ostream &OS) const {
  std::vector<Symbol> ParamNames;
  ParamNames.reserve(Params.size());
  for (const PolicyParam &P : Params)
    ParamNames.push_back(P.Name);

  DotWriter W(std::string(Interner.text(Name)));
  for (UStateId S = 0; S < numStates(); ++S)
    W.node("q" + std::to_string(S), Labels[S],
           Offending[S] ? "shape=doublecircle, color=red" : "shape=circle");
  for (const UsageEdge &E : Edges) {
    std::string Label;
    if (E.Wildcard) {
      Label = "*";
    } else {
      Label = std::string(Interner.text(E.EventName));
      if (!E.G.isAlwaysTrue())
        Label += " [" + E.G.str(Interner, ParamNames) + "]";
    }
    W.edge("q" + std::to_string(E.From), "q" + std::to_string(E.To), Label);
  }
  W.print(OS);
}

//===----------------------------------------------------------------------===//
// PolicyInstance / PolicyMonitor
//===----------------------------------------------------------------------===//

std::vector<UStateId> PolicyInstance::step(UStateId S,
                                           const hist::Event &Ev) const {
  std::vector<UStateId> Next;
  stepInto(S, Ev, Next);
  std::sort(Next.begin(), Next.end());
  Next.erase(std::unique(Next.begin(), Next.end()), Next.end());
  return Next;
}

void PolicyInstance::stepInto(UStateId S, const hist::Event &Ev,
                              std::vector<UStateId> &Out) const {
  // Offending states are absorbing: once a violation, always a violation
  // (safety).
  if (Shape->isOffending(S)) {
    Out.push_back(S);
    return;
  }
  size_t Before = Out.size();
  for (const UsageEdge &E : Shape->edges()) {
    if (E.From != S)
      continue;
    if (!E.Wildcard && E.EventName != Ev.Name)
      continue;
    if (!E.Wildcard && !E.G.eval(Ev.Arg, Args))
      continue;
    Out.push_back(E.To);
  }
  // Implicit self-loop: events the automaton does not mention leave the
  // state unchanged.
  if (Out.size() == Before)
    Out.push_back(S);
}

PolicyMonitor::PolicyMonitor(PolicyInstance Inst) : Instance(std::move(Inst)) {
  reset();
}

void PolicyMonitor::reset() {
  Current = {Instance.shape().start()};
  Violated = Instance.shape().isOffending(Instance.shape().start());
}

void PolicyMonitor::step(const hist::Event &Ev) {
  std::vector<UStateId> Next;
  for (UStateId S : Current)
    for (UStateId T : Instance.step(S, Ev))
      Next.push_back(T);
  std::sort(Next.begin(), Next.end());
  Next.erase(std::unique(Next.begin(), Next.end()), Next.end());
  Current = std::move(Next);
  for (UStateId S : Current)
    if (Instance.shape().isOffending(S)) {
      Violated = true;
      break;
    }
}

void PolicyMonitor::run(const std::vector<hist::Event> &Events) {
  for (const hist::Event &Ev : Events)
    step(Ev);
}

bool sus::policy::respects(const std::vector<hist::Event> &Events,
                           const PolicyInstance &Instance) {
  PolicyMonitor M(Instance);
  M.run(Events);
  return !M.isOffending();
}

//===----------------------------------------------------------------------===//
// PolicyRegistry
//===----------------------------------------------------------------------===//

void PolicyRegistry::add(UsageAutomaton Automaton) {
  Symbol Name = Automaton.name();
  Shapes.insert_or_assign(Name, std::move(Automaton));
}

const UsageAutomaton *PolicyRegistry::find(Symbol Name) const {
  auto It = Shapes.find(Name);
  return It == Shapes.end() ? nullptr : &It->second;
}

std::optional<PolicyInstance>
PolicyRegistry::instantiate(const hist::PolicyRef &Ref,
                            const StringInterner &Interner,
                            DiagnosticEngine *Diags) const {
  if (Ref.isTrivial())
    return std::nullopt;
  const UsageAutomaton *Shape = find(Ref.Name);
  if (!Shape) {
    if (Diags)
      Diags->error("unknown policy '" + std::string(Interner.text(Ref.Name)) +
                   "'");
    return std::nullopt;
  }
  if (Ref.Args.size() != Shape->params().size()) {
    if (Diags)
      Diags->error("policy '" + std::string(Interner.text(Ref.Name)) +
                   "' expects " + std::to_string(Shape->params().size()) +
                   " parameter(s) but got " + std::to_string(Ref.Args.size()));
    return std::nullopt;
  }
  return PolicyInstance(Shape, Ref.Args);
}
