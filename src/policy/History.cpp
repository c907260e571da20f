//===- policy/History.cpp - Execution histories η ------------------------===//

#include "policy/History.h"

#include <cassert>

using namespace sus;
using namespace sus::policy;
using hist::Label;
using hist::LabelKind;
using hist::PolicyRef;

void History::append(const Label &L) {
  assert(L.isHistoryRelevant() &&
         "histories only record events and framings");
  Items.push_back(L);
}

std::vector<hist::Event> History::flatten() const {
  std::vector<hist::Event> Events;
  Events.reserve(Items.size());
  for (const Label &L : Items)
    if (L.isEvent())
      Events.push_back(L.asEvent());
  return Events;
}

bool History::isBalanced() const {
  std::vector<const PolicyRef *> Stack;
  for (const Label &L : Items) {
    if (L.kind() == LabelKind::FrameOpen) {
      Stack.push_back(&L.policy());
      continue;
    }
    if (L.kind() == LabelKind::FrameClose) {
      if (Stack.empty() || !(*Stack.back() == L.policy()))
        return false;
      Stack.pop_back();
    }
  }
  return Stack.empty();
}

bool History::isBalancedPrefix() const {
  std::vector<const PolicyRef *> Stack;
  for (const Label &L : Items) {
    if (L.kind() == LabelKind::FrameOpen) {
      Stack.push_back(&L.policy());
      continue;
    }
    if (L.kind() == LabelKind::FrameClose) {
      if (Stack.empty() || !(*Stack.back() == L.policy()))
        return false;
      Stack.pop_back();
    }
  }
  return true;
}

std::map<PolicyRef, unsigned> History::activePolicies() const {
  std::map<PolicyRef, unsigned> Active;
  for (const Label &L : Items) {
    if (L.kind() == LabelKind::FrameOpen)
      ++Active[L.policy()];
    else if (L.kind() == LabelKind::FrameClose) {
      auto It = Active.find(L.policy());
      if (It != Active.end() && It->second > 0 && --It->second == 0)
        Active.erase(It);
    }
  }
  return Active;
}

std::string History::str(const StringInterner &Interner) const {
  std::string Out;
  for (size_t I = 0; I < Items.size(); ++I) {
    if (I != 0)
      Out += " ";
    Out += Items[I].str(Interner);
  }
  return Out;
}
