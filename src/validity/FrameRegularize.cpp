//===- validity/FrameRegularize.cpp - Framing regularization --------------===//

#include "validity/FrameRegularize.h"

#include "support/Casting.h"

#include <algorithm>
#include <map>
#include <unordered_set>

using namespace sus;
using namespace sus::hist;
using namespace sus::validity;

namespace {

/// Active-policy context ordered set for use as part of a memo key.
using ActiveSet = std::set<PolicyRef>;

class Regularizer {
public:
  explicit Regularizer(HistContext &Ctx) : Ctx(Ctx) {}

  const Expr *visit(const Expr *E, const ActiveSet &Active) {
    auto Key = std::make_pair(E, Active);
    auto It = Memo.find(Key);
    if (It != Memo.end())
      return It->second;
    const Expr *Result = compute(E, Active);
    Memo.emplace(std::move(Key), Result);
    return Result;
  }

private:
  const Expr *compute(const Expr *E, const ActiveSet &Active) {
    switch (E->kind()) {
    case ExprKind::Empty:
    case ExprKind::Var:
    case ExprKind::Event:
    case ExprKind::CloseMark:
      return E;

    case ExprKind::FrameOpen: {
      // A bare ⌊ϕ marker re-opening an active policy is redundant; we keep
      // it (markers appear only in derivatives, not in source expressions).
      return E;
    }
    case ExprKind::FrameClose:
      return E;

    case ExprKind::Mu: {
      const auto *M = cast<MuExpr>(E);
      return Ctx.mu(M->var(), visit(M->body(), Active));
    }
    case ExprKind::Seq: {
      const auto *S = cast<SeqExpr>(E);
      return Ctx.seq(visit(S->head(), Active), visit(S->tail(), Active));
    }
    case ExprKind::ExtChoice:
    case ExprKind::IntChoice: {
      const auto *C = cast<ChoiceExpr>(E);
      std::vector<ChoiceBranch> Branches;
      Branches.reserve(C->numBranches());
      for (const ChoiceBranch &B : C->branches())
        Branches.push_back({B.Guard, visit(B.Body, Active)});
      return E->kind() == ExprKind::ExtChoice
                 ? Ctx.extChoice(std::move(Branches))
                 : Ctx.intChoice(std::move(Branches));
    }
    case ExprKind::Request: {
      const auto *R = cast<RequestExpr>(E);
      // The request's policy frames the whole session.
      if (!R->policy().isTrivial() && Active.count(R->policy())) {
        // Redundant session policy: keep the session but the framing it
        // induces is subsumed; we still need the open/close structure, so
        // requests are left intact (their policy is enforced by the outer
        // frame anyway).
        return Ctx.request(R->request(), R->policy(),
                           visit(R->body(), Active));
      }
      ActiveSet Inner = Active;
      if (!R->policy().isTrivial())
        Inner.insert(R->policy());
      return Ctx.request(R->request(), R->policy(), visit(R->body(), Inner));
    }
    case ExprKind::Framing: {
      const auto *F = cast<FramingExpr>(E);
      if (Active.count(F->policy()))
        return visit(F->body(), Active); // Redundant: drop the frame.
      ActiveSet Inner = Active;
      Inner.insert(F->policy());
      return Ctx.framing(F->policy(), visit(F->body(), Inner));
    }
    }
    return E;
  }

  HistContext &Ctx;
  std::map<std::pair<const Expr *, ActiveSet>, const Expr *> Memo;
};

unsigned nesting(const Expr *E, std::map<PolicyRef, unsigned> &Depth,
                 unsigned &Max) {
  switch (E->kind()) {
  case ExprKind::Empty:
  case ExprKind::Var:
  case ExprKind::Event:
  case ExprKind::CloseMark:
  case ExprKind::FrameOpen:
  case ExprKind::FrameClose:
    return 0;
  case ExprKind::Mu:
    nesting(cast<MuExpr>(E)->body(), Depth, Max);
    return 0;
  case ExprKind::Seq: {
    const auto *S = cast<SeqExpr>(E);
    nesting(S->head(), Depth, Max);
    nesting(S->tail(), Depth, Max);
    return 0;
  }
  case ExprKind::ExtChoice:
  case ExprKind::IntChoice:
    for (const ChoiceBranch &B : cast<ChoiceExpr>(E)->branches())
      nesting(B.Body, Depth, Max);
    return 0;
  case ExprKind::Request:
    nesting(cast<RequestExpr>(E)->body(), Depth, Max);
    return 0;
  case ExprKind::Framing: {
    const auto *F = cast<FramingExpr>(E);
    unsigned &D = Depth[F->policy()];
    ++D;
    Max = std::max(Max, D);
    nesting(F->body(), Depth, Max);
    --D;
    return 0;
  }
  }
  return 0;
}

/// True when a ϕ⟦·⟧ framing occurs in \p E; \p Seen holds the nodes
/// already searched, so a shared subexpression is searched once.
bool hasFraming(const Expr *E, std::unordered_set<const Expr *> &Seen) {
  if (!Seen.insert(E).second)
    return false;
  switch (E->kind()) {
  case ExprKind::Framing:
    return true;
  case ExprKind::Mu:
    return hasFraming(cast<MuExpr>(E)->body(), Seen);
  case ExprKind::Seq:
    return hasFraming(cast<SeqExpr>(E)->head(), Seen) ||
           hasFraming(cast<SeqExpr>(E)->tail(), Seen);
  case ExprKind::ExtChoice:
  case ExprKind::IntChoice:
    for (const ChoiceBranch &B : cast<ChoiceExpr>(E)->branches())
      if (hasFraming(B.Body, Seen))
        return true;
    return false;
  case ExprKind::Request:
    return hasFraming(cast<RequestExpr>(E)->body(), Seen);
  default:
    return false;
  }
}

} // namespace

const Expr *sus::validity::regularizeFramings(HistContext &Ctx,
                                              const Expr *E) {
  // Only a framing can be redundant: without one, E is its own result.
  std::unordered_set<const Expr *> Seen;
  if (!hasFraming(E, Seen))
    return E;
  Regularizer R(Ctx);
  return R.visit(E, {});
}

unsigned sus::validity::maxFramingNesting(const Expr *E) {
  std::map<PolicyRef, unsigned> Depth;
  unsigned Max = 0;
  nesting(E, Depth, Max);
  return Max;
}
