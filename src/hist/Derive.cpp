//===- hist/Derive.cpp - Stand-alone operational semantics ---------------===//

#include "hist/Derive.h"

#include "support/Casting.h"

#include <cassert>

using namespace sus;
using namespace sus::hist;

namespace {

/// Recursion fuel for µ-unfolding: a well-formed expression needs exactly
/// one unfolding to expose a guard; a few more tolerate benign nesting of
/// µs. This only bounds *nested immediate* unfoldings, not the (finite)
/// reachable state space.
constexpr unsigned MaxUnfoldDepth = 32;

void deriveInto(HistContext &Ctx, const Expr *E,
                std::vector<Transition> &Out, unsigned Fuel) {
  switch (E->kind()) {
  case ExprKind::Empty:
  case ExprKind::Var:
    // ε is terminated; a free variable is stuck (ill-formed input).
    return;

  case ExprKind::Event: {
    // (α Acc): α --α--> ε.
    const auto *Ev = cast<EventExpr>(E);
    Out.push_back({Label::event(Ev->event()), Ctx.empty()});
    return;
  }

  case ExprKind::ExtChoice:
  case ExprKind::IntChoice: {
    // (E-Choice) / (I-Choice): Σ aᵢ.Hᵢ --aᵢ--> Hᵢ, ⊕ āᵢ.Hᵢ --āᵢ--> Hᵢ.
    for (const ChoiceBranch &B : cast<ChoiceExpr>(E)->branches())
      Out.push_back({Label::comm(B.Guard), B.Body});
    return;
  }

  case ExprKind::Request: {
    // (S-Open): open_{r,ϕ}.H.close_{r,ϕ} --open--> H·close_{r,ϕ}.
    const auto *R = cast<RequestExpr>(E);
    const Expr *Residual =
        Ctx.seq(R->body(), Ctx.closeMark(R->request(), R->policy()));
    Out.push_back({Label::open(R->request(), R->policy()), Residual});
    return;
  }

  case ExprKind::CloseMark: {
    const auto *C = cast<CloseMarkExpr>(E);
    Out.push_back({Label::close(C->request(), C->policy()), Ctx.empty()});
    return;
  }

  case ExprKind::Framing: {
    // (P-Open): ϕ⟦H⟧ --⌊ϕ--> H·⌋ϕ.
    const auto *F = cast<FramingExpr>(E);
    const Expr *Residual = Ctx.seq(F->body(), Ctx.frameClose(F->policy()));
    Out.push_back({Label::frameOpen(F->policy()), Residual});
    return;
  }

  case ExprKind::FrameOpen: {
    const auto *F = cast<FrameOpenExpr>(E);
    Out.push_back({Label::frameOpen(F->policy()), Ctx.empty()});
    return;
  }

  case ExprKind::FrameClose: {
    const auto *F = cast<FrameCloseExpr>(E);
    Out.push_back({Label::frameClose(F->policy()), Ctx.empty()});
    return;
  }

  case ExprKind::Seq: {
    // (Conc): H --λ--> H′ implies H·H″ --λ--> H′·H″.
    const auto *S = cast<SeqExpr>(E);
    std::vector<Transition> HeadSteps;
    deriveInto(Ctx, S->head(), HeadSteps, Fuel);
    for (Transition &T : HeadSteps)
      Out.push_back({T.L, Ctx.seq(T.Target, S->tail())});
    return;
  }

  case ExprKind::Mu: {
    // (Rec): H{µh.H/h} --λ--> H′ implies µh.H --λ--> H′.
    if (Fuel == 0)
      return; // Unguarded recursion: stuck rather than diverging.
    const auto *M = cast<MuExpr>(E);
    const Expr *Unfolded = Ctx.unfold(M);
    if (Unfolded == E)
      return; // µh.h — degenerate, no progress.
    deriveInto(Ctx, Unfolded, Out, Fuel - 1);
    return;
  }
  }
  assert(false && "unknown expression kind");
}

} // namespace

std::vector<Transition> sus::hist::derive(HistContext &Ctx, const Expr *E) {
  std::vector<Transition> Out;
  deriveInto(Ctx, E, Out, MaxUnfoldDepth);
  return Out;
}

void sus::hist::pendingFrameCloses(const Expr *E,
                                   std::vector<const PolicyRef *> &Out) {
  if (const auto *S = dyn_cast<SeqExpr>(E)) {
    pendingFrameCloses(S->head(), Out);
    pendingFrameCloses(S->tail(), Out);
    return;
  }
  if (const auto *F = dyn_cast<FrameCloseExpr>(E))
    Out.push_back(&F->policy());
}
