//===- policy/History.h - Execution histories η -----------------*- C++ -*-===//
///
/// \file
/// Execution histories η ∈ (Ev ∪ Frm)∗ (§3.1): the sequence of access
/// events and policy framings logged by a computation. Provides the
/// flattening η♭ (erasing framings), the balance predicates, and the
/// active-policies multiset AP(η).
///
//===----------------------------------------------------------------------===//

#ifndef SUS_POLICY_HISTORY_H
#define SUS_POLICY_HISTORY_H

#include "hist/Action.h"

#include <map>
#include <string>
#include <vector>

namespace sus {
namespace policy {

/// A history: a sequence of labels drawn from Ev ∪ Frm.
class History {
public:
  History() = default;

  /// Appends a label; must be an event or a framing.
  void append(const hist::Label &L);

  void appendEvent(hist::Event Ev) { Items.push_back(hist::Label::event(Ev)); }
  void appendFrameOpen(hist::PolicyRef P) {
    Items.push_back(hist::Label::frameOpen(std::move(P)));
  }
  void appendFrameClose(hist::PolicyRef P) {
    Items.push_back(hist::Label::frameClose(std::move(P)));
  }

  size_t size() const { return Items.size(); }
  bool empty() const { return Items.empty(); }
  const std::vector<hist::Label> &items() const { return Items; }
  const hist::Label &operator[](size_t I) const { return Items[I]; }

  /// η♭ — the history with all framing events erased.
  std::vector<hist::Event> flatten() const;

  /// True if framings nest and match exactly (the paper's balanced
  /// histories).
  bool isBalanced() const;

  /// True if the history is a prefix of some balanced history, i.e. no
  /// ⌋ϕ ever closes a frame that is not open. Run-time histories always
  /// satisfy this.
  bool isBalancedPrefix() const;

  /// AP(η) — the multiset of active (opened, not yet closed) policies.
  std::map<hist::PolicyRef, unsigned> activePolicies() const;

  /// Renders the history, e.g. "[phi alpha_sgn(3) phi]".
  std::string str(const StringInterner &Interner) const;

private:
  std::vector<hist::Label> Items;
};

} // namespace policy
} // namespace sus

#endif // SUS_POLICY_HISTORY_H
