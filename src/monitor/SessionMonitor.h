//===- monitor/SessionMonitor.h - One session's fused monitor ---*- C++ -*-===//
///
/// \file
/// The per-session view of a FusedPolicyAutomaton: one product cursor and
/// the session's FrameCounts. The event hot path is `admitsEventIndex` /
/// `advanceEventIndex` — one table load plus an "offending set is empty"
/// test. The §3.1 rules themselves live in `takeStep`, which the static
/// plan checker (validity/StaticValidity.h) runs on its own compact
/// configurations, so runtime and static validity share one monitor.
///
/// Semantics mirror the per-policy probe of policy/Validity.h exactly
/// (§3.1 validity): every policy's DFA consumes the full history from
/// session start (history dependence), an event is refused when it would
/// drive the product into a state whose offending set intersects the
/// *active* set, opening a frame is refused when its policy is offending
/// at the instant the frame opens, and closing a frame never fails.
/// Violations latch: once a refused label is *advanced* anyway, the
/// session stays violated.
///
//===----------------------------------------------------------------------===//

#ifndef SUS_MONITOR_SESSIONMONITOR_H
#define SUS_MONITOR_SESSIONMONITOR_H

#include "monitor/Fused.h"

#include <cassert>

namespace sus {
namespace monitor {

/// How deep each fused policy is framed (⌊ϕ…⌊ϕ nests) and the set of
/// active policies that follows from it. A SessionMonitor keeps one; the
/// static plan checker (validity/StaticValidity.h) interns one per
/// configuration.
struct FrameCounts {
  std::vector<uint32_t> Depth; ///< Per PolicySet bit.
  PolicySet Active;            ///< The bits whose Depth is not 0.

  explicit FrameCounts(const FusedPolicyAutomaton &F)
      : Depth(F.Policies.size(), 0), Active(F.setWords(), 0) {}

  /// True when \p Offending (null = none) contains an active policy.
  bool blocks(const PolicySet *Offending) const {
    return Offending && intersects(*Offending, Active);
  }

  bool operator==(const FrameCounts &O) const { return Depth == O.Depth; }
};

/// A history label resolved against one fusion: what the §3.1 rules of
/// takeStep act on.
struct HistoryStep {
  enum Kind : uint8_t {
    Skip,        ///< A framing of the trivial policy (or an unknown event).
    Event,       ///< Arg is the event index.
    Open,        ///< ⌊ϕ; Arg is ϕ's PolicySet bit.
    Close,       ///< ⌋ϕ; Arg is ϕ's PolicySet bit.
    OpenUnknown, ///< ⌊ϕ of a policy the fusion left out (uninstantiable).
  };
  Kind K = Skip;
  uint32_t Arg = 0;
};

/// Resolves ⌊\p Policy (when \p Open) or ⌋\p Policy against \p F.
inline HistoryStep frameStep(const FusedPolicyAutomaton &F,
                             const hist::PolicyRef &Policy, bool Open) {
  if (Policy.isTrivial())
    return {};
  int Bit = F.policyBit(Policy);
  if (Bit < 0)
    return {Open ? HistoryStep::OpenUnknown : HistoryStep::Skip};
  return {Open ? HistoryStep::Open : HistoryStep::Close,
          static_cast<uint32_t>(Bit)};
}

/// Resolves the history label \p L (an event or a framing) against \p F.
inline HistoryStep resolveLabel(const FusedPolicyAutomaton &F,
                                const hist::Label &L) {
  switch (L.kind()) {
  case hist::LabelKind::Event: {
    uint32_t Idx = F.eventIndexOf(L.asEvent());
    // The universe must be closed (see Fused.h). An out-of-universe
    // event is genuinely undecidable (wildcard/guard edges might match),
    // so the defensive release behaviour is to admit it — blocking could
    // be a wrong verdict, which the monitor must never give.
    assert(Idx != FusedPolicyAutomaton::NoEvent &&
           "event outside the fused universe");
    if (Idx == FusedPolicyAutomaton::NoEvent)
      return {};
    return {HistoryStep::Event, Idx};
  }
  case hist::LabelKind::FrameOpen:
    return frameStep(F, L.policy(), /*Open=*/true);
  case hist::LabelKind::FrameClose:
    return frameStep(F, L.policy(), /*Open=*/false);
  default:
    assert(L.isHistoryRelevant() && "monitor consumes events and framings");
    return {};
  }
}

/// The §3.1 validity rules, for runtime and static monitoring alike: takes
/// \p S at product position \p C with frames \p Fr, and returns true when
/// it violates. Every policy's DFA consumes every event (history
/// dependence); an event violates when an active policy offends after it.
/// ⌊ϕ activates ϕ and violates when ϕ already offends — the history so far
/// must respect a newly framed policy — or has no automaton. ⌋ϕ closes
/// one frame of ϕ and never violates.
inline bool takeStep(const FusedPolicyAutomaton &F,
                     FusedPolicyAutomaton::Cursor &C, FrameCounts &Fr,
                     HistoryStep S) {
  uint64_t Mask = uint64_t(1) << (S.Arg % 64);
  switch (S.K) {
  case HistoryStep::Skip:
    return false;
  case HistoryStep::Event:
    F.step(C, S.Arg);
    return Fr.blocks(FusedPolicyAutomaton::offending(C));
  case HistoryStep::Open: {
    ++Fr.Depth[S.Arg];
    Fr.Active[S.Arg / 64] |= Mask;
    const PolicySet *Offending = FusedPolicyAutomaton::offending(C);
    return Offending && testBit(*Offending, S.Arg);
  }
  case HistoryStep::Close:
    if (Fr.Depth[S.Arg] > 0 && --Fr.Depth[S.Arg] == 0)
      Fr.Active[S.Arg / 64] &= ~Mask;
    return false;
  case HistoryStep::OpenUnknown:
    return true;
  }
  return false;
}

/// Runs one session against a fused policy set.
class SessionMonitor {
public:
  explicit SessionMonitor(const FusedPolicyAutomaton &Fused)
      : F(&Fused), Cur(Fused.start()), Frames(Fused) {}

  const FusedPolicyAutomaton &fused() const { return *F; }
  bool isViolated() const { return Violated; }

  /// Hot path: would firing the event at index \p Idx be admitted?
  bool admitsEventIndex(uint32_t Idx) const {
    if (Violated)
      return false;
    if (Cur.At)
      if (const ProductState *N = Cur.At->next(Idx))
        return !Frames.blocks(N->Offending);
    FusedPolicyAutomaton::Cursor Next = Cur;
    F->step(Next, Idx);
    return !Frames.blocks(FusedPolicyAutomaton::offending(Next));
  }

  /// Hot path: fires the event at index \p Idx unconditionally.
  void advanceEventIndex(uint32_t Idx) {
    if (takeStep(*F, Cur, Frames, {HistoryStep::Event, Idx}))
      Violated = true;
  }

  /// Would appending \p L keep the session valid? (No state change.)
  bool wouldAdmit(const hist::Label &L) const {
    if (Violated)
      return false;
    HistoryStep S = resolveLabel(*F, L);
    if (S.K == HistoryStep::Event)
      return admitsEventIndex(S.Arg);
    // Off the event hot path: take the step on copies.
    FusedPolicyAutomaton::Cursor C = Cur;
    FrameCounts Fr = Frames;
    return !takeStep(*F, C, Fr, S);
  }

  /// Appends \p L; returns false when the session is (now) violated.
  /// Mirrors the per-policy probe's append — violations latch.
  bool advance(const hist::Label &L) {
    if (takeStep(*F, Cur, Frames, resolveLabel(*F, L)))
      Violated = true;
    return !Violated;
  }

  /// Would the whole label sequence be admitted, label by label, in order?
  /// (The multi-label probe the Interpreter runs per candidate step.)
  bool wouldAdmitAll(const std::vector<hist::Label> &Ls) const {
    if (Ls.size() == 1)
      return wouldAdmit(Ls.front());
    SessionMonitor Probe = *this;
    for (const hist::Label &L : Ls)
      if (!Probe.wouldAdmit(L) || !Probe.advance(L))
        return false;
    return true;
  }

private:
  const FusedPolicyAutomaton *F;
  FusedPolicyAutomaton::Cursor Cur;
  FrameCounts Frames;
  bool Violated = false;
};

} // namespace monitor
} // namespace sus

#endif // SUS_MONITOR_SESSIONMONITOR_H
