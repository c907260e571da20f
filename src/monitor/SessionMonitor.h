//===- monitor/SessionMonitor.h - One session's fused monitor ---*- C++ -*-===//
///
/// \file
/// The per-session view of a FusedPolicyAutomaton: one product cursor,
/// one active-policy set, and (off the hot path) small per-policy
/// frame-nesting counters. The event hot path is `admitsEventIndex` /
/// `advanceEventIndex` — one table load plus an "offending set is empty"
/// test.
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

/// Runs one session against a fused policy set.
class SessionMonitor {
public:
  explicit SessionMonitor(const FusedPolicyAutomaton &Fused)
      : F(&Fused), Cur(Fused.start()), Active(Fused.setWords(), 0),
        ActiveCounts(Fused.Policies.size(), 0) {}

  const FusedPolicyAutomaton &fused() const { return *F; }
  bool isViolated() const { return Violated; }

  /// Hot path: would firing the event at index \p Idx be admitted?
  bool admitsEventIndex(uint32_t Idx) const {
    if (Violated)
      return false;
    if (Cur.At)
      if (const ProductState *N = Cur.At->next(Idx))
        return !blocks(N->Offending);
    FusedPolicyAutomaton::Cursor Next = Cur;
    F->step(Next, Idx);
    return !blocks(FusedPolicyAutomaton::offending(Next));
  }

  /// Hot path: fires the event at index \p Idx unconditionally.
  void advanceEventIndex(uint32_t Idx) {
    F->step(Cur, Idx);
    if (blocks(FusedPolicyAutomaton::offending(Cur)))
      Violated = true;
  }

  /// Would appending \p L keep the session valid? (No state change.)
  bool wouldAdmit(const hist::Label &L) const {
    if (Violated)
      return false;
    switch (L.kind()) {
    case hist::LabelKind::Event: {
      uint32_t Idx = F->eventIndexOf(L.asEvent());
      // The universe must be closed (see Fused.h). An out-of-universe
      // event is genuinely undecidable (wildcard/guard edges might
      // match), so the defensive release behaviour is to admit it —
      // blocking could be a wrong verdict, which the monitor must never
      // give.
      assert(Idx != FusedPolicyAutomaton::NoEvent &&
             "event outside the fused universe");
      return Idx == FusedPolicyAutomaton::NoEvent || admitsEventIndex(Idx);
    }
    case hist::LabelKind::FrameOpen: {
      if (L.policy().isTrivial())
        return true;
      int Bit = F->policyBit(L.policy());
      if (Bit < 0)
        return false; // Uninstantiable: opening violates.
      // History dependence: the history so far must already respect the
      // newly-framed policy.
      return !offendingNow(static_cast<unsigned>(Bit));
    }
    case hist::LabelKind::FrameClose:
      return true;
    default:
      assert(L.isHistoryRelevant() && "monitor consumes events and framings");
      return true;
    }
  }

  /// Appends \p L; returns false when the session is (now) violated.
  /// Mirrors the per-policy probe's append — violations latch.
  bool advance(const hist::Label &L) {
    switch (L.kind()) {
    case hist::LabelKind::Event: {
      uint32_t Idx = F->eventIndexOf(L.asEvent());
      assert(Idx != FusedPolicyAutomaton::NoEvent &&
             "event outside the fused universe");
      if (Idx != FusedPolicyAutomaton::NoEvent)
        advanceEventIndex(Idx);
      break;
    }
    case hist::LabelKind::FrameOpen: {
      if (L.policy().isTrivial())
        break;
      int Bit = F->policyBit(L.policy());
      if (Bit < 0) {
        Violated = true; // Uninstantiable policy: the framing cannot hold.
        break;
      }
      auto B = static_cast<unsigned>(Bit);
      ++ActiveCounts[B];
      Active[B / 64] |= uint64_t(1) << (B % 64);
      if (offendingNow(B))
        Violated = true;
      break;
    }
    case hist::LabelKind::FrameClose: {
      if (L.policy().isTrivial())
        break;
      int Bit = F->policyBit(L.policy());
      if (Bit < 0)
        break;
      auto B = static_cast<unsigned>(Bit);
      if (ActiveCounts[B] > 0 && --ActiveCounts[B] == 0)
        Active[B / 64] &= ~(uint64_t(1) << (B % 64));
      break;
    }
    default:
      assert(L.isHistoryRelevant() && "monitor consumes events and framings");
      break;
    }
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
  /// True when \p Offending (null = none) contains an active policy.
  bool blocks(const PolicySet *Offending) const {
    return Offending && intersects(*Offending, Active);
  }

  /// True when policy \p Bit is offending at the current state.
  bool offendingNow(unsigned Bit) const {
    const PolicySet *Offending = FusedPolicyAutomaton::offending(Cur);
    return Offending && testBit(*Offending, Bit);
  }

  const FusedPolicyAutomaton *F;
  FusedPolicyAutomaton::Cursor Cur;
  PolicySet Active;
  bool Violated = false;
  /// Frame-nesting depth per policy bit (⌊ϕ…⌊ϕ nests); only the derived
  /// Active set is consulted on the event hot path.
  std::vector<uint32_t> ActiveCounts;
};

} // namespace monitor
} // namespace sus

#endif // SUS_MONITOR_SESSIONMONITOR_H
