//===- net/Semantics.cpp - The network rules of Definition 2 --------------===//

#include "net/Semantics.h"

#include "hist/Printer.h"
#include "support/Casting.h"
#include "support/HashUtil.h"

#include <optional>

using namespace sus;
using namespace sus::hist;
using namespace sus::net;

namespace {

/// If E ≡ (⊕ᵢ āᵢ.Hᵢ)·K with more than one branch, returns the choice and
/// the continuation K (unfolding a leading µ if needed).
std::optional<std::pair<const IntChoiceExpr *, const Expr *>>
splitMultiOutputHead(HistContext &Ctx, const Expr *E, unsigned Fuel = 8) {
  if (Fuel == 0)
    return std::nullopt;
  if (const auto *C = dyn_cast<IntChoiceExpr>(E))
    return C->numBranches() > 1
               ? std::make_optional(std::make_pair(C, Ctx.empty()))
               : std::nullopt;
  if (const auto *S = dyn_cast<SeqExpr>(E)) {
    auto Head = splitMultiOutputHead(Ctx, S->head(), Fuel - 1);
    if (!Head)
      return std::nullopt;
    return std::make_pair(Head->first, Ctx.seq(Head->second, S->tail()));
  }
  if (const auto *M = dyn_cast<MuExpr>(E)) {
    const Expr *Unfolded = Ctx.unfold(M);
    if (Unfolded == E)
      return std::nullopt;
    return splitMultiOutputHead(Ctx, Unfolded, Fuel - 1);
  }
  return std::nullopt;
}

} // namespace

std::string SessionTree::str(const HistContext &Ctx) const {
  if (IsLeaf) {
    std::string Out(Ctx.interner().text(Location));
    Out += ": ";
    Out += hist::print(Ctx, Behavior);
    return Out;
  }
  return "[" + Left->str(Ctx) + ", " + Right->str(Ctx) + "]";
}

Label LoggedLabel::label() const {
  if (Fired)
    return *Fired;
  return Opens ? Label::frameOpen(*Policy) : Label::frameClose(*Policy);
}

std::string Move::str(const StringInterner &In) const {
  switch (K) {
  case Kind::Synch:
    return "tau(" + Shown->asComm().str(In) + ")";
  case Kind::Commit:
    return "commit " + Shown->asComm().str(In);
  default:
    return Shown->str(In);
  }
}

size_t Semantics::KeyHash::operator()(const Key &K) const noexcept {
  return hashAll(K.IsLeaf, K.First, K.Second);
}

const SessionTree *Semantics::leaf(plan::Loc L, const Expr *H) {
  return &Trees
              .try_emplace({true, L.id(), reinterpret_cast<uintptr_t>(H)},
                           SessionTree{true, L, H, nullptr, nullptr})
              .first->second;
}

const SessionTree *Semantics::pair(const SessionTree *A,
                                   const SessionTree *B) {
  return &Trees
              .try_emplace({false, reinterpret_cast<uintptr_t>(A),
                            reinterpret_cast<uintptr_t>(B)},
                           SessionTree{false, plan::Loc(), nullptr, A, B})
              .first->second;
}

const Semantics::Derivatives &Semantics::derivatives(const Expr *E) {
  auto It = Derived.find(E);
  if (It != Derived.end())
    return It->second;
  Derivatives D;
  if (auto Split = Committed ? splitMultiOutputHead(Ctx, E) : std::nullopt) {
    D.Commits = true;
    for (const ChoiceBranch &B : Split->first->branches())
      D.Steps.push_back({Label::comm(B.Guard),
                         Ctx.seq(Ctx.prefix(B.Guard, B.Body), Split->second)});
  } else {
    D.Steps = derive(Ctx, E);
  }
  return Derived.emplace(E, std::move(D)).first->second;
}

const SessionTree *Semantics::fill(const SessionTree *T,
                                   const SessionTree *Spawned) {
  if (T == &Hole)
    return Spawned;
  if (T->IsLeaf)
    return T;
  const SessionTree *Left = fill(T->Left, Spawned);
  if (Left != T->Left)
    return pair(Left, T->Right);
  return pair(T->Left, fill(T->Right, Spawned));
}

void Semantics::moves(const SessionTree *T, const Binder *B,
                      std::vector<Move> &Out, std::vector<LoggedLabel> &Log) {
  auto Add = [&](Move::Kind K, const SessionTree *Next, const Label &Shown,
                 plan::Loc Actor, plan::Loc Partner = plan::Loc()) -> Move & {
    auto At = static_cast<uint32_t>(Log.size());
    Out.push_back({K, PlanGap::None, Next, &Shown, Actor, Partner, At, At});
    return Out.back();
  };

  if (T->IsLeaf) {
    const Derivatives &D = derivatives(T->Behavior);
    // Committed mode: a multi-branch ⊕ must resolve before anything else.
    if (D.Commits) {
      for (const Transition &C : D.Steps)
        Add(Move::Kind::Commit, leaf(T->Location, C.Target), C.L,
            T->Location);
      return;
    }
    for (const Transition &Tr : D.Steps) {
      switch (Tr.L.kind()) {
      case LabelKind::Event:
      case LabelKind::FrameOpen:
      case LabelKind::FrameClose: {
        Move &M = Add(Move::Kind::Access, leaf(T->Location, Tr.Target), Tr.L,
                      T->Location);
        Log.push_back({&Tr.L});
        M.LogEnd = static_cast<uint32_t>(Log.size());
        break;
      }
      case LabelKind::Open: {
        // Rule Open: bind r through π, spawn the service alongside.
        std::optional<plan::Loc> L;
        const SessionTree *Spawned = &Hole;
        if (B) {
          L = B->Pi.lookup(Tr.L.request());
          const Expr *Service = L ? B->Repo.find(*L) : nullptr;
          if (!Service) {
            Move &Gap = Add(Move::Kind::Open, nullptr, Tr.L, T->Location,
                            L.value_or(plan::Loc()));
            Gap.Gap = L ? PlanGap::UnknownService : PlanGap::UnboundRequest;
            break;
          }
          Spawned = leaf(*L, Service);
        }
        Move &M = Add(Move::Kind::Open,
                      pair(leaf(T->Location, Tr.Target), Spawned), Tr.L,
                      T->Location, L.value_or(plan::Loc()));
        if (!Tr.L.policy().isTrivial()) {
          Log.push_back({nullptr, &Tr.L.policy(), /*Opens=*/true});
          M.LogEnd = static_cast<uint32_t>(Log.size());
        }
        break;
      }
      default:
        // Communication needs a session partner and a close an enclosing
        // session (close marks appear only after an Open): both are
        // handled at the pair. τ logs nothing.
        break;
      }
    }
    return;
  }

  // Rule Session: either side evolves on its own.
  size_t LeftBegin = Out.size();
  moves(T->Left, B, Out, Log);
  size_t RightBegin = Out.size();
  moves(T->Right, B, Out, Log);
  for (size_t I = LeftBegin; I != Out.size(); ++I) {
    Move &M = Out[I];
    if (M.Gap == PlanGap::None)
      M.Next = I < RightBegin ? pair(M.Next, T->Right) : pair(T->Left, M.Next);
  }

  actorMoves(T->Left, T->Right, /*XIsLeft=*/true, Out, Log);
  actorMoves(T->Right, T->Left, /*XIsLeft=*/false, Out, Log);
}

void Semantics::actorMoves(const SessionTree *X, const SessionTree *Y,
                           bool XIsLeft, std::vector<Move> &Out,
                           std::vector<LoggedLabel> &Log) {
  // Rules Synch and Close need both sides to be leaves (a partner engaged
  // in a nested session first has to finish it), and an unresolved ⊕
  // cannot act yet.
  if (!X->IsLeaf || !Y->IsLeaf)
    return;
  const Derivatives &DX = derivatives(X->Behavior);
  if (DX.Commits)
    return;
  for (const Transition &TX : DX.Steps) {
    auto At = static_cast<uint32_t>(Log.size());
    // Rule Close: the opener ends the session; the partner is discarded
    // and its pending frame closes Φ(H) are flushed into the history.
    if (TX.L.isClose()) {
      Pending.clear();
      pendingFrameCloses(Y->Behavior, Pending);
      Pending.push_back(&TX.L.policy());
      for (const PolicyRef *Policy : Pending)
        if (!Policy->isTrivial())
          Log.push_back({nullptr, Policy, /*Opens=*/false});
      Out.push_back({Move::Kind::Close, PlanGap::None,
                     leaf(X->Location, TX.Target), &TX.L, X->Location,
                     Y->Location, At, static_cast<uint32_t>(Log.size())});
      continue;
    }
    // Rule Synch: complementary actions meet, enumerated from the sender.
    if (TX.L.kind() != LabelKind::Output)
      continue;
    CommAction Receive = TX.L.asComm().complement();
    for (const Transition &TY : derivatives(Y->Behavior).Steps) {
      if (!TY.L.isComm() || TY.L.asComm() != Receive)
        continue;
      const SessionTree *NX = leaf(X->Location, TX.Target);
      const SessionTree *NY = leaf(Y->Location, TY.Target);
      Out.push_back({Move::Kind::Synch, PlanGap::None,
                     XIsLeft ? pair(NX, NY) : pair(NY, NX), &TX.L,
                     X->Location, Y->Location, At, At});
    }
  }
}
