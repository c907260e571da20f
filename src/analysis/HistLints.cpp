//===- analysis/HistLints.cpp - History-expression hygiene passes ---------===//
///
/// Three passes over the declared behaviours themselves:
///
///  - sus-lint-dead-branch: in H·H′, H can never terminate, so H′ is
///    syntactically present but semantically unreachable;
///  - sus-lint-nonterminating-recursion: a closed µh.H from which ε is
///    unreachable — the loop offers no exit at all (services that *can*
///    stop but usually loop are fine; this flags loops with no way out);
///  - sus-lint-duplicate-branch-guard: a choice with two branches guarded
///    by the same action, making the branch taken ambiguous.
///
/// Termination is decided by exploring the one-step derivatives
/// (hist::derive) up to a budget; hash-consing keeps the reachable set
/// finite for well-formed expressions. Subterms with free recursion
/// variables are skipped — a free `h` has no transitions, which would
/// read as spurious non-termination.
///
//===----------------------------------------------------------------------===//

#include "analysis/ExprWalk.h"
#include "analysis/Lint.h"

#include "hist/Derive.h"
#include "hist/Printer.h"
#include "hist/WellFormed.h"

#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

using namespace sus;
using namespace sus::analysis;

namespace {

enum class Termination { Yes, No, Unknown };

/// Budget for termination analyses: reachable expressions explored.
constexpr size_t MaxDeriveStates = 1 << 12;

/// Bounded reachability of ε from \p Root under the one-step semantics.
/// \p Root must be closed. Returns Unknown when the budget runs out.
Termination canTerminate(hist::HistContext &Ctx, const hist::Expr *Root,
                         std::unordered_map<const hist::Expr *, Termination>
                             &Memo) {
  auto Cached = Memo.find(Root);
  if (Cached != Memo.end())
    return Cached->second;

  std::unordered_set<const hist::Expr *> Seen{Root};
  std::vector<const hist::Expr *> Work{Root};
  Termination Result = Termination::No;
  while (!Work.empty()) {
    const hist::Expr *E = Work.back();
    Work.pop_back();
    if (hist::isTerminated(E)) {
      Result = Termination::Yes;
      break;
    }
    if (Seen.size() > MaxDeriveStates) {
      Result = Termination::Unknown;
      break;
    }
    for (const hist::Transition &T : hist::derive(Ctx, E))
      if (Seen.insert(T.Target).second)
        Work.push_back(T.Target);
  }
  Memo.emplace(Root, Result);
  return Result;
}

/// Renders \p E for a message, eliding long expressions.
std::string renderShort(const hist::HistContext &Ctx, const hist::Expr *E) {
  std::string S = hist::print(Ctx, E);
  if (S.size() > 40)
    S = S.substr(0, 37) + "...";
  return S;
}

class DeadBranchPass : public LintPass {
public:
  std::string_view id() const override { return "sus-lint-dead-branch"; }
  std::string_view category() const override { return "lint.hist"; }
  std::string_view description() const override {
    return "sequential tails unreachable because the head never terminates";
  }

  void run(LintContext &LC) const override {
    hist::HistContext &Ctx = LC.context();
    const StringInterner &In = Ctx.interner();
    std::unordered_map<const hist::Expr *, Termination> Memo;
    for (const BehaviorRef &B : allBehaviors(LC.file())) {
      SourceLoc Loc = LC.declLoc(
          B.IsService ? LC.file().ServiceLocs : LC.file().ClientLocs, B.Name);
      walkExpr(B.Body, [&](const hist::Expr *E) {
        const auto *S = dyn_cast<hist::SeqExpr>(E);
        if (!S)
          return;
        // A head with free recursion variables cannot be analysed on its
        // own (free variables are stuck, not looping): skip it.
        if (!hist::isWellFormed(Ctx, S->head()))
          return;
        if (canTerminate(Ctx, S->head(), Memo) != Termination::No)
          return;
        Diagnostic *D = LC.emit(
            id(), category(), Loc,
            "in '" + std::string(In.text(B.Name)) + "', the behaviour after "
                "';' is dead: '" + renderShort(Ctx, S->head()) +
                "' never terminates");
        if (D)
          D->note(SourceLoc{0, 0, LC.fileName()},
                  "unreachable: '" + renderShort(Ctx, S->tail()) + "'");
      });
    }
  }
};

class NonterminatingRecursionPass : public LintPass {
public:
  std::string_view id() const override {
    return "sus-lint-nonterminating-recursion";
  }
  std::string_view category() const override { return "lint.hist"; }
  std::string_view description() const override {
    return "recursions with no exit: termination is unreachable";
  }

  void run(LintContext &LC) const override {
    hist::HistContext &Ctx = LC.context();
    const StringInterner &In = Ctx.interner();
    std::unordered_map<const hist::Expr *, Termination> Memo;
    for (const BehaviorRef &B : allBehaviors(LC.file())) {
      SourceLoc Loc = LC.declLoc(
          B.IsService ? LC.file().ServiceLocs : LC.file().ClientLocs, B.Name);
      walkExpr(B.Body, [&](const hist::Expr *E) {
        const auto *Mu = dyn_cast<hist::MuExpr>(E);
        if (!Mu || !hist::isWellFormed(Ctx, Mu))
          return;
        if (canTerminate(Ctx, Mu, Memo) != Termination::No)
          return;
        LC.emit(id(), category(), Loc,
                "in '" + std::string(In.text(B.Name)) + "', recursion 'mu " +
                    std::string(In.text(Mu->var())) +
                    "' never terminates: no branch leads out of the loop");
      });
    }
  }
};

class DuplicateBranchGuardPass : public LintPass {
public:
  std::string_view id() const override {
    return "sus-lint-duplicate-branch-guard";
  }
  std::string_view category() const override { return "lint.hist"; }
  std::string_view description() const override {
    return "choices with two branches guarded by the same action";
  }

  void run(LintContext &LC) const override {
    hist::HistContext &Ctx = LC.context();
    const StringInterner &In = Ctx.interner();
    for (const BehaviorRef &B : allBehaviors(LC.file())) {
      SourceLoc Loc = LC.declLoc(
          B.IsService ? LC.file().ServiceLocs : LC.file().ClientLocs, B.Name);
      walkExpr(B.Body, [&](const hist::Expr *E) {
        const auto *C = dyn_cast<hist::ChoiceExpr>(E);
        if (!C)
          return;
        const auto &Branches = C->branches();
        for (size_t I = 0; I + 1 < Branches.size(); ++I) {
          // Branches are kept in canonical order, so equal guards are
          // adjacent; report each run of duplicates once.
          if (Branches[I].Guard != Branches[I + 1].Guard)
            continue;
          if (I > 0 && Branches[I - 1].Guard == Branches[I].Guard)
            continue;
          LC.emit(id(), category(), Loc,
                  "in '" + std::string(In.text(B.Name)) +
                      "', a choice has multiple branches guarded by '" +
                      Branches[I].Guard.str(In) +
                      "': the branch taken is ambiguous");
        }
      });
    }
  }
};

} // namespace

namespace sus {
namespace analysis {

const LintPass &deadBranchPass() {
  static const DeadBranchPass P;
  return P;
}

const LintPass &nonterminatingRecursionPass() {
  static const NonterminatingRecursionPass P;
  return P;
}

const LintPass &duplicateBranchGuardPass() {
  static const DuplicateBranchGuardPass P;
  return P;
}

} // namespace analysis
} // namespace sus
